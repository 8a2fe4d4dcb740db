"""Extra coverage: report rendering corners and the CLI 'all' path."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.experiments import GeneratorComparison, compare_generator
from repro.core.report import render_generator_comparison
from repro.core.distance import preference_function
from repro.generators.erdos_renyi import erdos_renyi_for_mean_degree
from repro.geo.regions import US


class TestGeneratorComparisonRendering:
    def test_renders_rows(self):
        graph = erdos_renyi_for_mean_degree(
            400, 4.0, np.random.default_rng(0),
            south=26.0, north=49.0, west=-124.0, east=-66.0,
        )
        row = compare_generator(graph, region=US, bin_miles=35.0)
        text = render_generator_comparison([row])
        assert "erdos-renyi" in text
        assert "decay slope" in text

    def test_renders_nan_slope(self):
        ds_pref = preference_function(_tiny_dataset(), US, bin_miles=35.0)
        row = GeneratorComparison(
            name="degenerate",
            preference=ds_pref,
            decay_slope=float("nan"),
            mean_degree=0.0,
        )
        text = render_generator_comparison([row])
        assert "n/a" in text


def _tiny_dataset():
    from repro.datasets.mapped import MappedDataset

    rng = np.random.default_rng(1)
    n = 20
    return MappedDataset(
        label="tiny",
        kind="generated",
        addresses=np.arange(n, dtype=np.int64),
        lats=rng.uniform(30, 45, n),
        lons=rng.uniform(-120, -70, n),
        asns=np.ones(n, dtype=np.int64),
        links=np.empty((0, 2), dtype=np.intp),
    )


class TestCliAll:
    @pytest.mark.slow
    def test_all_experiments_print(self, capsys):
        code = main(["--scale", "small", "--experiments", "all"])
        assert code == 0
        out = capsys.readouterr().out
        for marker in (
            "TABLE I",
            "TABLE III",
            "TABLE IV",
            "TABLE V",
            "TABLE VI",
            "FIGURE 2",
            "FIGURE 4",
            "FIGURE 5",
            "FIGURE 6",
            "AUTONOMOUS SYSTEMS",
            "FRACTAL",
        ):
            assert marker in out, marker
