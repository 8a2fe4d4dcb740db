"""Link annotations: latency and bandwidth from geography.

The paper's conclusion argues that geographically placed topologies make
two labelling problems straightforward: link *latency* follows from
great-circle length (propagation in fibre at ~0.6 c plus per-hop
equipment delay), and link *bandwidth* can be assigned from structural
role (backbone long-haul vs metro vs access).  This module implements
both annotations for ground-truth topologies and generated graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TopologyError
from repro.net.topology import Topology

#: Propagation delay in milliseconds per mile of fibre (~0.6 c), plus a
#: typical per-hop forwarding/serialisation constant.
PROPAGATION_MS_PER_MILE = 0.0087
PER_HOP_MS = 0.05

#: Bandwidth classes in Mbit/s, era-appropriate (OC-48 / OC-12 / OC-3 /
#: T3-ish metro and access tiers).
BANDWIDTH_CLASSES_MBPS = (2488.0, 622.0, 155.0, 45.0)


@dataclass(frozen=True)
class LinkAnnotations:
    """Per-link latency and bandwidth, indexed by link id.

    Attributes:
        latencies_ms: one-way propagation + forwarding latency.
        bandwidths_mbps: assigned capacity class.
    """

    latencies_ms: np.ndarray
    bandwidths_mbps: np.ndarray

    def __post_init__(self) -> None:
        if self.latencies_ms.shape != self.bandwidths_mbps.shape:
            raise TopologyError("annotation arrays must be parallel")


def annotate_links(topology: Topology) -> LinkAnnotations:
    """Compute latency and bandwidth annotations for every link.

    Latency is deterministic from length.  Bandwidth is structural:

    * interdomain links and links between tier-1/tier-2 ASes' routers
      get backbone classes scaled by length (long haul is provisioned
      fatter);
    * intradomain metro links (short) get access/metro classes.

    Raises:
        TopologyError: for an empty topology.
    """
    if topology.n_links == 0:
        raise TopologyError("cannot annotate a topology with no links")
    lengths = topology.link_lengths()
    latencies = lengths * PROPAGATION_MS_PER_MILE + PER_HOP_MS

    router_asns = topology.router_asns()
    unique_asns, inverse = np.unique(router_asns, return_inverse=True)
    tier_of_asn = np.array(
        [topology.asns[int(asn)].tier for asn in unique_asns], dtype=np.int64
    )
    router_tier = tier_of_asn[inverse]
    endpoint_a, endpoint_b = topology.link_endpoints()
    min_tier = np.minimum(router_tier[endpoint_a], router_tier[endpoint_b])
    backbone = (min_tier == 1) | (lengths > 500.0)
    regional = (min_tier == 2) | topology.link_interdomain()
    bandwidths = np.select(
        [backbone, regional, lengths > 50.0],
        [
            BANDWIDTH_CLASSES_MBPS[0],
            BANDWIDTH_CLASSES_MBPS[1],
            BANDWIDTH_CLASSES_MBPS[2],
        ],
        default=BANDWIDTH_CLASSES_MBPS[3],
    )
    return LinkAnnotations(latencies_ms=latencies, bandwidths_mbps=bandwidths)


def path_latency_ms(
    topology: Topology,
    annotations: LinkAnnotations,
    router_path: list[int],
) -> float:
    """One-way latency of a router path under the annotations.

    Raises:
        TopologyError: if consecutive routers are not adjacent.
    """
    total = 0.0
    for a, b in zip(router_path, router_path[1:]):
        total += float(annotations.latencies_ms[topology.link_id(a, b)])
    return total


def latency_matrix_sample(
    topology: Topology,
    annotations: LinkAnnotations,
    sources: list[int],
    targets: list[int],
) -> np.ndarray:
    """Latency between sampled router pairs along shortest paths.

    Returns:
        Array of shape ``(len(sources), len(targets))`` in milliseconds;
        ``inf`` marks unreachable pairs.
    """
    from repro.routing.shortest_path import routing_graph, shortest_path_trees

    graph = routing_graph(topology)
    trees = shortest_path_trees(graph, list(sources))
    out = np.full((len(sources), len(targets)), np.inf)
    for i, tree in enumerate(trees):
        for j, target in enumerate(targets):
            if target == tree.source:
                out[i, j] = 0.0
            elif tree.reachable(target):
                out[i, j] = path_latency_ms(
                    topology, annotations, tree.path_to(target)
                )
    return out
