"""Loose source routing: the probe path Mercator uses for lateral links.

Skitter and Mercator read hop sequences straight from the Dijkstra
predecessor arrays (:mod:`repro.routing.shortest_path`) and resolve the
inbound interface of each hop with
:meth:`~repro.net.topology.Topology.link_interfaces_toward`.  This module
holds Mercator's one extra path rule: a probe loose-source-routed
through an intermediate router.
"""

from __future__ import annotations

from repro.errors import RoutingError
from repro.routing.shortest_path import PredecessorTree


def source_routed_path(
    via_tree: PredecessorTree,
    source_tree: PredecessorTree,
    via: int,
    target: int,
) -> list[int]:
    """Router path for a loose-source-routed probe: source -> via -> target.

    Mercator sends probes through an intermediate router to expose links
    off its own shortest-path tree.  The result concatenates the source's
    path to ``via`` with ``via``'s path to ``target`` (dropping the
    duplicated pivot), and trims any loop created at the junction.

    Raises:
        RoutingError: if either leg is unreachable.
    """
    first = source_tree.path_to(via)
    second = via_tree.path_to(target)
    if via_tree.source != via:
        raise RoutingError("via_tree must be rooted at the via router")
    combined = first + second[1:]
    # Trim loops: cut back to the first occurrence of a revisited router
    # (real forwarding would not loop), keeping the position index
    # consistent after each truncation.
    position: dict[int, int] = {}
    path: list[int] = []
    for router in combined:
        if router in position:
            cut = position[router]
            for dropped in path[cut + 1 :]:
                del position[dropped]
            path = path[: cut + 1]
        else:
            position[router] = len(path)
            path.append(router)
    return path
