"""Shortest-path machinery for forwarding simulation.

The measurement simulators need forward paths from a handful of sources
to very many destinations.  We compute one Dijkstra predecessor tree per
source over the topology's weighted routing graph (scipy's compiled
implementation), then extract individual hop sequences from the tree in
O(path length).  This mirrors how real hop-limited probing explores the
network: every path from a given monitor follows that monitor's
shortest-path tree, which is exactly the per-source tree bias the paper
inherits from Skitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from repro.errors import RoutingError, TopologyError

if TYPE_CHECKING:
    from repro.net.topology import Topology

#: Extra routing cost per hop, in mile-equivalents; makes shortest paths
#: prefer fewer hops among near-equal geographic alternatives, like IGP
#: metrics do.
HOP_COST_MILES = 50.0

#: scipy's sentinel for "no predecessor" (the source and unreachable nodes).
NO_PREDECESSOR = -9999


@dataclass(frozen=True)
class PredecessorTree:
    """A single-source shortest-path tree.

    Attributes:
        source: the root router id.
        predecessors: for each router, the previous hop toward it from
            the source (-9999 marks the source itself and unreachable
            nodes, scipy's convention).
        distances: total path weight from the source to each router.
    """

    source: int
    predecessors: np.ndarray
    distances: np.ndarray

    def reachable(self, target: int) -> bool:
        """True if a path from the source to ``target`` exists."""
        return bool(np.isfinite(self.distances[target]))

    def path_to(self, target: int) -> list[int]:
        """Router-id hop sequence from the source to ``target``, inclusive.

        Raises:
            RoutingError: when the target is unreachable or out of range.
        """
        n = self.predecessors.shape[0]
        if target < 0 or target >= n:
            raise RoutingError(f"target {target} out of range")
        if target == self.source:
            return [self.source]
        if not self.reachable(target):
            raise RoutingError(
                f"router {target} unreachable from {self.source}"
            )
        hops = [target]
        current = target
        for _ in range(n):
            current = int(self.predecessors[current])
            hops.append(current)
            if current == self.source:
                hops.reverse()
                return hops
        raise RoutingError("predecessor chain did not terminate (corrupt tree)")


def routing_graph(
    topology: Topology, hop_cost: float = HOP_COST_MILES
) -> csr_matrix:
    """Symmetric CSR weight matrix of a topology, for shortest-path routing.

    Edge weight is geographic length plus a per-hop cost, a standard
    latency-flavoured IGP metric.

    Raises:
        TopologyError: when the topology has no routers.
    """
    n = topology.n_routers
    if n == 0:
        raise TopologyError("cannot build a routing graph with no routers")
    a, b = topology.link_endpoints()
    w = topology.link_lengths() + hop_cost
    rows = np.concatenate([a, b])
    cols = np.concatenate([b, a])
    data = np.concatenate([w, w])
    return csr_matrix((data, (rows, cols)), shape=(n, n))


def shortest_path_tree(graph: csr_matrix, source: int) -> PredecessorTree:
    """Dijkstra predecessor tree from one source.

    ``graph`` must be symmetric, as the routing graph is: a directed scan
    of it answers the undirected problem with the same distances and
    predecessors, without scipy transposing the graph on every call.

    Raises:
        RoutingError: if the source id is out of range.
    """
    n = graph.shape[0]
    if source < 0 or source >= n:
        raise RoutingError(f"source {source} out of range")
    distances, predecessors = dijkstra(
        graph, directed=True, indices=source, return_predecessors=True
    )
    return PredecessorTree(
        source=source, predecessors=predecessors, distances=distances
    )


def shortest_path_trees(
    graph: csr_matrix, sources: list[int]
) -> list[PredecessorTree]:
    """Predecessor trees for several sources (one compiled sweep) over a
    symmetric ``graph``; see :func:`shortest_path_tree`."""
    if not sources:
        return []
    n = graph.shape[0]
    for source in sources:
        if source < 0 or source >= n:
            raise RoutingError(f"source {source} out of range")
    distances, predecessors = dijkstra(
        graph, directed=True, indices=sources, return_predecessors=True
    )
    return [
        PredecessorTree(source=s, predecessors=predecessors[i], distances=distances[i])
        for i, s in enumerate(sources)
    ]


def tree_depths(tree: PredecessorTree) -> np.ndarray:
    """Hop count from the source to every router, by pointer doubling.

    Returns:
        An int64 array: 0 for the source, the tree depth for reachable
        routers, and -1 for unreachable ones.
    """
    pred = tree.predecessors
    n = pred.shape[0]
    identity = np.arange(n, dtype=np.intp)
    parent = np.where(pred == NO_PREDECESSOR, identity, pred).astype(np.intp)
    depth = (parent != identity).astype(np.int64)
    jump = parent
    while True:
        nxt = jump[jump]
        if np.array_equal(nxt, jump):
            break
        depth += depth[jump]
        jump = nxt
    depth[~np.isfinite(tree.distances)] = -1
    return depth


def ancestors_at_depth(
    tree: PredecessorTree,
    depths: np.ndarray,
    nodes: np.ndarray,
    target_depth: int,
) -> np.ndarray:
    """For each node, its tree ancestor at ``target_depth``, by binary lifting.

    Callers must pass reachable nodes whose depth is at least
    ``target_depth`` (``depths`` comes from :func:`tree_depths`).
    """
    pred = tree.predecessors
    n = pred.shape[0]
    identity = np.arange(n, dtype=np.intp)
    table = np.where(pred == NO_PREDECESSOR, identity, pred).astype(np.intp)
    current = np.asarray(nodes, dtype=np.intp).copy()
    steps = depths[current] - target_depth
    while np.any(steps > 0):
        odd = (steps & 1).astype(bool)
        if np.any(odd):
            current[odd] = table[current[odd]]
        steps >>= 1
        if np.any(steps > 0):
            table = table[table]
    return current


def ancestor_closure(tree: PredecessorTree, starts: np.ndarray) -> np.ndarray:
    """Boolean mask of all tree ancestors of ``starts`` (inclusive).

    The source itself is excluded: probes never observe their own
    monitor.  Propagates an upward frontier, one tree level per step,
    without deduplicating it: a router shared by several starts rides
    along once per start until its branch meets a marked router, so the
    cost is at most the number of starts times the tree depth.
    """
    n = tree.predecessors.shape[0]
    mask = np.zeros(n, dtype=bool)
    frontier = np.asarray(starts, dtype=np.intp)
    frontier = frontier[frontier != tree.source]
    while frontier.size:
        mask[frontier] = True
        parents = tree.predecessors[frontier].astype(np.intp)
        parents = parents[(parents != NO_PREDECESSOR) & (parents != tree.source)]
        frontier = parents[~mask[parents]]
    return mask


def largest_component(graph: csr_matrix) -> np.ndarray:
    """Router ids of the largest connected component."""
    n_components, labels = connected_components(graph, directed=False)
    if n_components == 1:
        return np.arange(graph.shape[0])
    sizes = np.bincount(labels)
    return np.flatnonzero(labels == int(np.argmax(sizes)))
