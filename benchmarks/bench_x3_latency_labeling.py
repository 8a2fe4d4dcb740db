"""X3 — Section VII claim: geography makes latency labelling easy.

The paper argues that once nodes carry geographic locations, labelling
links with latencies "can be approximated in a straightforward manner".
This bench quantifies that: for every measured link, compare the latency
predicted from the *mapped* endpoint positions against the true latency
from the ground-truth annotation.  City-granularity mapping should
predict long-haul latencies accurately (propagation dominates) while
short metro links are noisier (mapping error ~ link length).
"""

import numpy as np

from repro.core.stats import pearson_correlation
from repro.net.annotate import PER_HOP_MS, PROPAGATION_MS_PER_MILE, annotate_links


def test_x3_latency_labeling(result, benchmark, record_artifact):
    def compute():
        topology = result.topology
        annotations = annotate_links(topology)
        dataset = result.dataset("IxMapper", "Skitter")
        # Map each observed link to its ground-truth link and compare
        # predicted (mapped-geometry) vs true (annotated) latency.
        true_ms = []
        predicted_ms = []
        mapped_lengths = dataset.link_lengths()
        # Owning router of each observed link endpoint (-1: not a
        # ground-truth interface).
        positions = topology.interface_positions(dataset.addresses[dataset.links])
        owners = np.where(
            positions >= 0, topology.interface_routers()[positions], -1
        ).tolist()
        for k, (ra, rb) in enumerate(owners):
            if ra < 0 or rb < 0 or not topology.has_link(ra, rb):
                continue
            link_id = topology.link_id(ra, rb)
            true_ms.append(float(annotations.latencies_ms[link_id]))
            predicted_ms.append(
                float(mapped_lengths[k]) * PROPAGATION_MS_PER_MILE + PER_HOP_MS
            )
        return np.asarray(true_ms), np.asarray(predicted_ms)

    true_ms, predicted_ms = benchmark.pedantic(compute, rounds=1, iterations=1)

    errors = np.abs(predicted_ms - true_ms)
    long_haul = true_ms > 5.0  # links beyond ~570 miles
    corr = pearson_correlation(true_ms, predicted_ms)
    within_1ms = float((errors < 1.0).mean())
    lines = [
        "X3: LATENCY LABELLING FROM MAPPED GEOGRAPHY",
        "-" * 60,
        f"links compared                : {true_ms.size:,d}",
        f"correlation (true, predicted) : {corr:.3f}",
        f"median abs error              : {np.median(errors):.3f} ms",
        f"within 1 ms                   : {within_1ms:.1%}",
        f"90th pct abs error            : {np.percentile(errors, 90):.3f} ms",
        f"long-haul (> 5 ms) median relative error : "
        f"{np.median(errors[long_haul] / true_ms[long_haul]):.1%}"
        if long_haul.any()
        else "no long-haul links",
        "",
        "note: the error tail (and the depressed Pearson) comes from the",
        "small population of whois-HQ-mapped endpoints — the same mapping",
        "failure mode the paper documents; typical links label almost",
        "perfectly, which is the Section VII claim.",
    ]
    record_artifact("x3_latency_labeling", "\n".join(lines))

    assert true_ms.size > 5_000
    # The typical link's latency labels almost exactly...
    assert np.median(errors) < 0.5
    assert within_1ms > 0.75
    # ...and long-haul latencies are near-perfect (city-snap error is
    # negligible against hundreds of miles of fibre).
    assert long_haul.any()
    relative = errors[long_haul] / true_ms[long_haul]
    assert np.median(relative) < 0.1
    # The association survives the whois-HQ error tail.
    assert corr > 0.25
