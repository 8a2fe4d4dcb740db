"""Skitter-style measurement: a union of traceroute campaigns.

CAIDA's Skitter ran on ~20 monitors worldwide, each sending hop-limited
probes to a large destination list; the dataset is the union of the
observed forward paths, at *interface* granularity.  This simulator
reproduces that process over the ground-truth topology:

* monitors are routers in distinct ASes spread across the world;
* each monitor explores its own shortest-path tree (per-source tree
  bias, as in the real data);
* every intermediate hop reports its inbound interface; the destination
  hop reports the probed address itself;
* non-responding routers (a per-router property) leave gaps, and no
  adjacency is recorded across a gap — the false-link anomalies real
  processing discards never enter the inventory;
* the probed destination addresses are recorded so the pipeline can
  discard them, as the paper does (destinations are mostly end hosts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrays import distinct
from repro.config import SkitterConfig
from repro.errors import MeasurementError
from repro.measure.inventory import RawInventory
from repro.net.topology import Topology
from repro.routing.shortest_path import (
    PredecessorTree,
    ancestor_closure,
    ancestors_at_depth,
    largest_component,
    routing_graph,
    shortest_path_trees,
    tree_depths,
)


@dataclass(frozen=True)
class SkitterCampaign:
    """A configured Skitter run: monitors plus per-monitor destinations.

    Attributes:
        monitors: router ids acting as probing sources.
        destination_lists: per-monitor router-id destination arrays.
    """

    monitors: list[int]
    destination_lists: list[np.ndarray]


def choose_monitors(
    topology: Topology, n_monitors: int, rng: np.random.Generator
) -> list[int]:
    """Pick monitor routers: distinct ASes, inside the giant component.

    Raises:
        MeasurementError: if the topology cannot host that many monitors.
    """
    candidates = largest_component(routing_graph(topology)).tolist()
    if len(candidates) < n_monitors:
        raise MeasurementError(
            f"cannot place {n_monitors} monitors in a component of "
            f"{len(candidates)} routers"
        )
    asns = topology.router_asns()
    order = rng.permutation(len(candidates))
    monitors: list[int] = []
    seen_asns: set[int] = set()
    for idx in order:
        rid = candidates[int(idx)]
        asn = int(asns[rid])
        if asn in seen_asns:
            continue
        seen_asns.add(asn)
        monitors.append(rid)
        if len(monitors) == n_monitors:
            return monitors
    # Fewer ASes than monitors: relax the distinct-AS constraint.
    for idx in order:
        rid = candidates[int(idx)]
        if rid not in monitors:
            monitors.append(rid)
            if len(monitors) == n_monitors:
                return monitors
    raise MeasurementError("could not assemble the requested monitor set")


def plan_campaign(
    topology: Topology, config: SkitterConfig, rng: np.random.Generator
) -> SkitterCampaign:
    """Choose monitors and sample per-monitor destination lists.

    Destinations are sampled uniformly over all routers (Skitter's lists
    aim to cover the whole address space), independently per monitor.
    """
    monitors = choose_monitors(topology, config.n_monitors, rng)
    n = topology.n_routers
    count = min(config.destinations_per_monitor, n)
    lists = [
        rng.choice(n, size=count, replace=False) for _ in monitors
    ]
    return SkitterCampaign(monitors=monitors, destination_lists=lists)


def run_skitter(
    topology: Topology,
    config: SkitterConfig,
    rng: np.random.Generator,
    campaign: SkitterCampaign | None = None,
) -> RawInventory:
    """Execute the campaign and return the interface-level inventory."""
    if campaign is None:
        campaign = plan_campaign(topology, config, rng)
    responds = rng.random(topology.n_routers) < config.response_rate
    for monitor in campaign.monitors:
        responds[monitor] = True

    trees = shortest_path_trees(routing_graph(topology), campaign.monitors)
    loopbacks = topology.router_loopbacks()
    none = np.empty(0, dtype=np.int64)
    destinations, nodes, pair_a, pair_b = [none], [none], [none], [none]
    for tree, destination_list in zip(trees, campaign.destination_lists):
        dests = np.asarray(destination_list, dtype=np.intp)
        destinations.append(loopbacks[dests])
        # Probes end at a reached destination's predecessor (the
        # destination answers with its own address) or at hop max_hops.
        depths = tree_depths(tree)
        live = dests[depths[dests] > 0]  # drop the monitor + unreachable
        reached = distinct(live[depths[live] <= config.max_hops])
        truncated = live[depths[live] > config.max_hops]
        ends = np.concatenate([
            tree.predecessors[reached].astype(np.intp),
            ancestors_at_depth(tree, depths, truncated, config.max_hops),
        ])
        inbound, answered, low, high = probe_tree(
            topology, tree, depths, ends, responds
        )
        final = reached[responds[reached]]
        # Last-hop adjacencies onto reached destinations.
        deep = final[depths[final] >= 2]
        parents = tree.predecessors[deep].astype(np.intp)
        keep = responds[parents]
        nodes += [inbound[answered], loopbacks[final]]
        pair_a += [low, inbound[parents[keep]]]
        pair_b += [high, loopbacks[deep[keep]]]
    inventory = RawInventory(
        kind="skitter", destinations=distinct(np.concatenate(destinations))
    )
    inventory.add_nodes(np.concatenate(nodes))
    inventory.add_link_pairs(np.concatenate(pair_a), np.concatenate(pair_b))
    inventory.validate()
    return inventory


def probe_tree(
    topology: Topology,
    tree: PredecessorTree,
    depths: np.ndarray,
    ends: np.ndarray,
    responds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What hop-limited probes along one tree observe, up to ``ends``.

    The probed routers are the ancestor closure of the ends, the root
    (the probing source) excluded.  Each responding one reports its
    inbound interface; links join consecutively responding hops only.

    Returns:
        ``(inbound, answered, low, high)``: the inbound interface per
        router (-1 where unprobed), the responding routers, and the
        observed links' interface pairs in order.
    """
    pred = tree.predecessors
    probed = np.flatnonzero(ancestor_closure(tree, ends))
    inbound = np.full(topology.n_routers, -1, dtype=np.int64)
    inbound[probed] = topology.link_interfaces_toward(
        pred[probed].astype(np.intp), probed
    )
    answered = probed[responds[probed]]
    deep = answered[depths[answered] >= 2]
    parents = pred[deep].astype(np.intp)
    keep = responds[parents]
    a, b = inbound[parents[keep]], inbound[deep[keep]]
    return inbound, answered, np.minimum(a, b), np.maximum(a, b)
