"""Ablations: the analyses respond to the planted parameters.

The reproduction's validity rests on a closed loop: parameters planted
in the ground-truth generator must move the corresponding measured
statistics.  These ablations vary one planted knob at a time (at
reduced scale) and assert the analysis output moves the right way:

* ``alpha`` (density superlinearity) -> Figure 2 fitted slope;
* ``long_range_fraction`` (distance-free links) -> Table V's fraction
  of links inside the distance-sensitive regime;
* ``waxman_l_miles`` -> the recovered decay scale L.
"""

import pytest

from repro.config import (
    DEFAULT_ALPHA,
    DEFAULT_WAXMAN_L,
    GroundTruthConfig,
    MercatorConfig,
    ScenarioConfig,
    SkitterConfig,
)
from repro.core.density import patch_regression
from repro.core.distance import preference_function, sensitivity_limit
from repro.datasets.pipeline import run_pipeline
from repro.geo.regions import US


def _scenario(seed: int = 404, **truth_overrides) -> ScenarioConfig:
    truth = dict(
        total_routers=9_000,
        n_ases=250,
        tier1_count=8,
        tier2_count=40,
    )
    truth.update(truth_overrides)
    return ScenarioConfig(
        seed=seed,
        city_scale=0.8,
        ground_truth=GroundTruthConfig(**truth),
        skitter=SkitterConfig(n_monitors=10, destinations_per_monitor=1_500),
        mercator=MercatorConfig(n_targets=2_000, n_source_routed=800),
    )


def _us_slope(result) -> float:
    dataset = result.dataset("IxMapper", "Skitter")
    return patch_regression(dataset, result.world.field, US).fit.slope


def _us_truth_city_slope(result, min_count: int = 5) -> float:
    """Planted city-level density exponent, free of count truncation.

    Per-patch OLS over observed counts is biased toward 1 by zero
    truncation (patches with expected counts below one appear only when
    they get lucky); regressing ground-truth city router counts over
    cities with at least ``min_count`` routers removes that bias and
    exposes the planted exponent directly.
    """
    import numpy as np

    from repro.core.stats import loglog_fit

    cities = result.world.cities
    code_to_index = {c.code: i for i, c in enumerate(cities)}
    counts = np.zeros(len(cities))
    for city_code in result.topology.router_city_codes():
        index = code_to_index.get(city_code)
        if index is not None:
            counts[index] += 1
    pops = np.array([c.population for c in cities])
    usa = np.array([c.zone == "USA" for c in cities])
    keep = usa & (counts >= min_count)
    return loglog_fit(pops[keep], counts[keep]).slope


def _us_sensitivity(result):
    dataset = result.dataset("IxMapper", "Skitter")
    pref = preference_function(dataset, US, bin_miles=35.0)
    return sensitivity_limit(pref)


@pytest.mark.parametrize("low,high", [(1.0, 1.8)])
def test_ablation_alpha_moves_density_slope(low, high, benchmark, record_artifact):
    def run_pair():
        slopes = {}
        for alpha in (low, high):
            overrides = dict(DEFAULT_ALPHA)
            overrides["USA"] = alpha
            result = run_pipeline(_scenario(alpha=overrides))
            slopes[alpha] = (_us_truth_city_slope(result), _us_slope(result))
        return slopes

    slopes = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    record_artifact(
        "ablation_alpha",
        "ABLATION: planted alpha -> density exponent (US)\n"
        + "\n".join(
            f"  alpha={a:.1f} -> planted city-level slope={t:.2f}, "
            f"measured patch slope={m:.2f}"
            for a, (t, m) in slopes.items()
        ),
    )
    # The generator responds strongly at the city level...
    assert slopes[high][0] > slopes[low][0] + 0.4
    assert slopes[low][0] == pytest.approx(low, abs=0.35)
    assert slopes[high][0] == pytest.approx(high, abs=0.45)
    # ...and the end-to-end measured patch slope moves the same
    # direction (traceroute sampling and zero truncation compress the
    # response — a methodology effect worth knowing about).
    assert slopes[high][1] > slopes[low][1]
    assert slopes[low][1] > 0.7


def test_ablation_long_range_fraction_moves_link_tail(benchmark, record_artifact):
    def run_pair():
        tails = {}
        for long_range in (0.02, 0.45):
            result = run_pipeline(_scenario(long_range_fraction=long_range))
            truth_lengths = result.topology.link_lengths()
            dataset = result.dataset("IxMapper", "Skitter")
            measured_lengths = dataset.link_lengths()
            tails[long_range] = (
                float((truth_lengths > 2000.0).mean()),
                float((measured_lengths > 2000.0).mean()),
            )
        return tails

    tails = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    record_artifact(
        "ablation_long_range",
        "ABLATION: long-range link fraction -> link-length tail\n"
        "(share of links longer than 2000 miles)\n"
        + "\n".join(
            f"  long_range={q:.2f} -> ground truth {t:.4f}, measured {m:.4f}"
            for q, (t, m) in tails.items()
        ),
    )
    # More distance-free formation -> a clearly heavier intercontinental
    # tail in the ground truth (most links are structural/Waxman at
    # either setting, so the response is a 10-40% shift, not a jump)...
    assert tails[0.45][0] > 1.1 * tails[0.02][0]
    assert tails[0.45][0] - tails[0.02][0] > 0.01
    # ...and a same-direction shift in the measured data (traceroute
    # sampling already over-represents long backbone links, so the
    # relative movement there is smaller).
    assert tails[0.45][1] > tails[0.02][1]


def test_ablation_waxman_l_recovered(benchmark, record_artifact):
    def run_pair():
        recovered = {}
        for planted in (70.0, 220.0):
            overrides = dict(DEFAULT_WAXMAN_L)
            overrides["USA"] = planted
            result = run_pipeline(_scenario(waxman_l_miles=overrides))
            recovered[planted] = _us_sensitivity(result).waxman.l_miles
        return recovered

    recovered = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    record_artifact(
        "ablation_waxman_l",
        "ABLATION: planted Waxman L -> recovered L (US)\n"
        + "\n".join(
            f"  planted={p:.0f} mi -> recovered={r:.0f} mi"
            for p, r in recovered.items()
        ),
    )
    # Recovered decay scales order correctly and track the plant within
    # a factor ~2.5 (measurement + mapping smear the estimate).
    assert recovered[220.0] > recovered[70.0]
    assert 70.0 / 2.5 < recovered[70.0] < 70.0 * 2.5
    assert 220.0 / 2.5 < recovered[220.0] < 220.0 * 2.5
