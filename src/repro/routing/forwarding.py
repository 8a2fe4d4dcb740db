"""Loose source routing: the probe path Mercator uses for lateral links.

Skitter and Mercator read hop sequences straight from the Dijkstra
predecessor arrays (:mod:`repro.routing.shortest_path`) and resolve the
inbound interface of each hop with
:meth:`~repro.net.topology.Topology.link_interfaces_toward`.  This module
holds Mercator's one extra path rule: a probe loose-source-routed
through an intermediate router.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import RoutingError
from repro.routing.shortest_path import PredecessorTree


def source_routed_path(
    via_tree: PredecessorTree,
    source_tree: PredecessorTree,
    via: int,
    target: int,
) -> list[int]:
    """Router path for one loose-source-routed probe: source -> via ->
    target (a batch of one; see :func:`source_routed_paths`).

    Raises:
        RoutingError: if either leg is unreachable, or ``via_tree`` is
            not rooted at ``via``.
    """
    return source_routed_paths(source_tree, {via: via_tree}, [(via, target)])[0]


def source_routed_paths(
    source_tree: PredecessorTree,
    via_trees: Mapping[int, PredecessorTree],
    probes: Sequence[tuple[int, int]],
) -> list[list[int]]:
    """Router paths for loose-source-routed probes, one per ``(via,
    target)`` pair.

    Mercator sends probes through an intermediate router to expose links
    off its own shortest-path tree.  A path is the source's path to the
    via followed by the via's path to the target, with the loop at the
    junction trimmed (real forwarding would not loop): where the second
    leg comes back to a router of the first, the path is cut back to it.
    Of the second leg's routers on the first leg, the one nearest the
    source decides where the path rejoins the second leg.  Both legs of
    every probe are read from the predecessor arrays in one pass.

    Raises:
        RoutingError: if a leg is unreachable or a via tree is not rooted
            at its via.
    """
    if not probes:
        return []
    for via, target in probes:
        tree = via_trees[via]
        if tree.source != via:
            raise RoutingError("via_tree must be rooted at the via router")
        if not (source_tree.reachable(via) and tree.reachable(target)):
            raise RoutingError(f"probe via {via} to {target} is unreachable")
    vias = sorted(via_trees)
    row_of = {via: row for row, via in enumerate(vias)}
    firsts = _tree_paths(
        source_tree.predecessors[None, :],
        np.zeros(len(vias), dtype=np.intp),
        np.full(len(vias), source_tree.source),
        np.asarray(vias),
    )
    first_legs = dict(zip(vias, firsts))
    positions = {
        via: {router: i for i, router in enumerate(leg)}
        for via, leg in first_legs.items()
    }
    seconds = _tree_paths(
        np.stack([via_trees[via].predecessors for via in vias]),
        np.array([row_of[via] for via, _ in probes], dtype=np.intp),
        np.array([via for via, _ in probes]),
        np.array([target for _, target in probes]),
    )
    paths = []
    for (via, _), second in zip(probes, seconds):
        first, position = first_legs[via], positions[via]
        cut_first, cut_second = len(first) - 1, 0
        for j in range(1, len(second)):
            i = position.get(second[j], cut_first)
            if i < cut_first:
                cut_first, cut_second = i, j
        paths.append(first[: cut_first + 1] + second[cut_second + 1 :])
    return paths


def _tree_paths(
    predecessors: np.ndarray,
    rows: np.ndarray,
    roots: np.ndarray,
    nodes: np.ndarray,
) -> list[list[int]]:
    """Root-to-node router paths, the i-th in predecessor row ``rows[i]``,
    climbed for all nodes at once.  Every node must be reachable.

    Raises:
        RoutingError: if a predecessor chain does not reach its root.
    """
    current = nodes.astype(np.intp)
    hops = [current]
    climbing = current != roots
    for _ in range(predecessors.shape[1]):
        if not np.any(climbing):
            break
        current = np.where(climbing, predecessors[rows, current], current)
        hops.append(current)
        climbing = current != roots
    if np.any(climbing):
        raise RoutingError("predecessor chain did not terminate (corrupt tree)")
    table = np.stack(hops, axis=1)
    lengths = (table != roots[:, None]).sum(axis=1) + 1
    return [
        row[length - 1 :: -1]
        for row, length in zip(table.tolist(), lengths.tolist())
    ]
