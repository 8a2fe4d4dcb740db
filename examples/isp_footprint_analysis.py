#!/usr/bin/env python3
"""Analyse individual AS footprints in a processed dataset.

A network-operations / peering-strategy view of Section VI: for the ten
largest ASes in a measured dataset, report node counts, distinct
locations, AS-graph degree, convex-hull extent, and the split and mean
lengths of their intra- vs interdomain links.  Ends with the dispersal
rule the paper derives: every AS above the size cutoff is maximally
dispersed.

Run:
    python examples/isp_footprint_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import run_pipeline, small_scenario
from repro.core.asgeo import as_size_measures, hull_areas, hull_vs_size
from repro.geo.projection import WORLD_ALBERS
from repro.geo.hull import convex_hull_area


def main() -> None:
    print("running the pipeline (small scenario)...")
    result = run_pipeline(small_scenario())
    dataset = result.dataset("IxMapper", "Skitter")

    table = as_size_measures(dataset)
    hulls = hull_areas(dataset)
    order = np.argsort(table.n_nodes)[::-1][:10]

    lengths = dataset.link_lengths()
    inter_mask = dataset.interdomain_mask()
    intra_mask = dataset.intradomain_mask()
    link_asns = dataset.asns[dataset.links]

    header = (
        f"{'ASN':>6s} {'nodes':>6s} {'locs':>5s} {'degree':>7s} "
        f"{'hull sq mi':>12s} {'intra links':>12s} {'intra mi':>9s} "
        f"{'inter links':>12s} {'inter mi':>9s}"
    )
    print()
    print("Top 10 ASes by measured node count")
    print(header)
    print("-" * len(header))
    for i in order:
        asn = int(table.asns[i])
        touches = (link_asns[:, 0] == asn) | (link_asns[:, 1] == asn)
        intra = touches & intra_mask
        inter = touches & inter_mask
        intra_mean = lengths[intra].mean() if intra.any() else 0.0
        inter_mean = lengths[inter].mean() if inter.any() else 0.0
        print(
            f"{asn:>6d} {table.n_nodes[i]:>6,d} {table.n_locations[i]:>5,d} "
            f"{table.degree[i]:>7,d} {hulls.areas[i]:>12,.0f} "
            f"{int(intra.sum()):>12,d} {intra_mean:>9.0f} "
            f"{int(inter.sum()):>12,d} {inter_mean:>9.0f}"
        )

    # The whois-HQ artefact the paper sees in Figure 8(a): big ASes whose
    # interfaces pile onto a couple of distinguishable locations.
    piled = (table.n_nodes >= 30) & (table.n_locations <= 3)
    print()
    if piled.any():
        asns = ", ".join(str(int(a)) for a in table.asns[piled])
        print(f"whois-HQ piling (many nodes, <= 3 locations): ASes {asns}")
        print("  (hostname-sloppy ISPs geolocate to their registered HQ —")
        print("   the low line of points in the paper's Figure 8a)")
    else:
        print("no whois-HQ piling at this scale")

    # The dispersal cutoff (Figure 10).
    print()
    summary = hull_vs_size(table, hulls, size_measure="nodes", cutoff=200)
    above = summary.sizes >= summary.cutoff
    print(f"ASes with >= {summary.cutoff:.0f} nodes: {int(above.sum())}")
    if above.any():
        print(
            "  least dispersed of them covers "
            f"{summary.dispersal_ratio:.0%} of the maximum observed hull — "
            "all large ASes are (near-)maximally dispersed"
        )

    # Compare a compact and a dispersed small AS, concretely.
    small = np.flatnonzero(~above)
    if small.size >= 2:
        areas = hulls.areas[small]
        compact = small[int(np.argmin(areas))]
        spread = small[int(np.argmax(areas))]
        print()
        print("small-AS variability (Figure 10's other regime):")
        for idx, tag in ((compact, "most compact"), (spread, "most dispersed")):
            nodes = table.nodes(idx)
            x, y = WORLD_ALBERS.project(dataset.lats[nodes], dataset.lons[nodes])
            area = convex_hull_area(np.column_stack([x, y]))
            print(
                f"  AS {int(table.asns[idx]):>5d} ({tag:15s}): "
                f"{nodes.size:4d} nodes, hull {area:,.0f} sq mi"
            )


if __name__ == "__main__":
    main()
