"""Mercator-style measurement: single source, source routing, aliases.

The Scan project's Mercator mapped the Internet from *one* host, using
hop-limited probes to a heuristically grown target list plus loose
source routing through previously discovered routers to expose lateral
links its own shortest-path tree would miss.  Interfaces are then
collapsed to routers by UDP alias probing.  This simulator reproduces
all three mechanisms; its output inventory is at *router* granularity
(canonical addresses), matching the paper's Mercator dataset.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.arrays import distinct
from repro.config import MercatorConfig
from repro.errors import MeasurementError
from repro.measure.alias import merge_members, resolve_aliases
from repro.measure.inventory import RawInventory, set_order
from repro.measure.skitter import probe_tree
from repro.net.topology import Topology
from repro.routing.forwarding import source_routed_paths
from repro.routing.shortest_path import (
    ancestors_at_depth,
    largest_component,
    routing_graph,
    shortest_path_tree,
    shortest_path_trees,
    tree_depths,
)

#: Number of distinct via-routers used for loose-source-routed probes.
_N_VIA_ROUTERS = 48


def run_mercator(
    topology: Topology,
    config: MercatorConfig,
    rng: np.random.Generator,
    source: int | None = None,
) -> RawInventory:
    """Execute a Mercator campaign; returns a router-level inventory.

    Raises:
        MeasurementError: if the topology is too small to probe.
    """
    graph = routing_graph(topology)
    component = largest_component(graph)
    if component.size < 3:
        raise MeasurementError("topology too small for a Mercator campaign")
    if source is None:
        source = int(component[int(rng.integers(component.size))])
    source_tree = shortest_path_tree(graph, source)
    responds = rng.random(topology.n_routers) < config.response_rate
    responds[source] = True

    # Stage 1: direct probes to the heuristic target list, each ending at
    # its target or at hop max_hops.  Observations pile up in order.
    n_targets = min(config.n_targets, component.size)
    targets = rng.choice(component, size=n_targets, replace=False)
    depths = tree_depths(source_tree)
    live = targets[depths[targets] > 0]  # drop the source + unreachable
    reached = depths[live] <= config.max_hops
    ends = np.concatenate([
        live[reached].astype(np.intp),
        ancestors_at_depth(source_tree, depths, live[~reached], config.max_hops),
    ])
    inbound, answered, low, high = probe_tree(
        topology, source_tree, depths, ends, responds
    )
    interfaces, pair_a, pair_b = [inbound[answered]], [low], [high]

    # Stage 2: loose source routing through a pool of discovered routers
    # (those that answered stage 1).  The RNG loop only picks the
    # probes; their paths are recorded as one batch after it.
    if config.n_source_routed > 0 and answered.size:
        n_via = min(_N_VIA_ROUTERS, answered.size)
        via_ids = [
            int(answered[i])
            for i in rng.choice(answered.size, size=n_via, replace=False)
        ]
        via_trees = {t.source: t for t in shortest_path_trees(graph, via_ids)}
        probes = []
        for _ in range(config.n_source_routed):
            via = via_ids[int(rng.integers(len(via_ids)))]
            target = int(component[int(rng.integers(component.size))])
            if target not in (via, source) and via_trees[via].reachable(target):
                probes.append((via, target))
        paths = [
            path[: config.max_hops + 1]
            for path in source_routed_paths(source_tree, via_trees, probes)
        ]
        for parts, part in zip(
            (interfaces, pair_a, pair_b), _record_paths(topology, paths, responds)
        ):
            parts.append(part)

    # Stage 3: alias resolution to canonical router addresses.
    observed = distinct(np.concatenate(interfaces))
    canonical = resolve_aliases(
        topology, observed, rng, config.alias_resolution_rate
    )
    inventory = RawInventory.from_members(
        "mercator", *merge_members(observed, canonical)
    )
    links = set_order(np.concatenate(pair_a), np.concatenate(pair_b))
    merged = canonical[np.searchsorted(observed, links)]
    # Both interfaces merged onto one router: not a link.
    apart = merged[:, 0] != merged[:, 1]
    inventory.add_link_pairs(merged[apart, 0], merged[apart, 1])
    inventory.validate()
    return inventory


def _record_paths(
    topology: Topology, paths: list[list[int]], responds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inbound interfaces of every responding hop along router paths,
    and the ``(low, high)`` ends of the links between consecutively
    responding hops, in path order.  Each path's first router is the
    probing source, which never reports itself."""
    lengths = np.fromiter(map(len, paths), dtype=np.intp, count=len(paths))
    flat = np.fromiter(
        chain.from_iterable(paths), dtype=np.intp, count=int(lengths.sum())
    )
    is_hop = np.ones(flat.size, dtype=bool)
    is_hop[np.cumsum(lengths) - lengths] = False
    at = np.flatnonzero(is_hop)
    routers = flat[at]
    addresses = topology.link_interfaces_toward(flat[at - 1], routers)
    answered = responds[routers]
    # Two hops are consecutive on one path when their flat positions are.
    joined = (at[1:] == at[:-1] + 1) & answered[1:] & answered[:-1]
    a, b = addresses[:-1][joined], addresses[1:][joined]
    return addresses[answered], np.minimum(a, b), np.maximum(a, b)
