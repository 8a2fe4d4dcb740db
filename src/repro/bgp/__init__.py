"""BGP substrate: longest-prefix match, RIB tables, RouteViews-style snapshots.

Implements the paper's AS-mapping methodology: longest-prefix match of
each interface address against an announced-prefix table, with a small
unannounced fraction landing in a sentinel unmapped group.
"""

from repro.bgp.routeviews import (
    build_routeviews_snapshot,
    perfect_snapshot,
    snapshot_from_topology,
)
from repro.bgp.table import UNMAPPED_ASN, BgpTable, PrefixMatch, RibEntry

__all__ = [
    "build_routeviews_snapshot",
    "perfect_snapshot",
    "snapshot_from_topology",
    "UNMAPPED_ASN",
    "BgpTable",
    "PrefixMatch",
    "RibEntry",
]
