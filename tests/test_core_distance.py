"""Tests for repro.core.distance (Section V analyses)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import distance
from repro.core.distance import (
    cumulated_preference,
    pair_counts,
    preference_function,
    sensitivity_limit,
    waxman_fit,
)
from repro.datasets.mapped import MappedDataset
from repro.errors import AnalysisError
from repro.geo.distance import haversine_miles, pairwise_distance_matrix
from repro.geo.regions import US, Region

REGION = Region("R", north=40.0, south=30.0, west=-110.0, east=-90.0)


def exact_pair_counts(
    lats: np.ndarray, lons: np.ndarray, bin_miles: float, n_bins: int
) -> np.ndarray:
    """Naive reference: every node pair (i < j) measured and binned once."""
    i, j = np.triu_indices(lats.size, k=1)
    d = haversine_miles(lats[i], lons[i], lats[j], lons[j])
    edges = np.arange(n_bins + 1, dtype=float) * bin_miles
    return np.histogram(d, bins=edges)[0].astype(np.int64)


@st.composite
def _lattice_points(draw) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on a coarse lattice: few distinct points, many repeats,
    poles, the +-180 meridian and a signed zero among the choices."""
    step = draw(st.sampled_from([0.25, 1.0, 7.5, 45.0, 90.0]))
    lat_hi = int(90 / step)
    lon_hi = int(180 / step)
    lat = st.one_of(
        st.sampled_from([-90.0, 90.0]),
        st.integers(-lat_hi, lat_hi).map(lambda k: k * step),
    )
    lon = st.one_of(
        st.sampled_from([-180.0, 180.0, -0.0]),
        st.integers(-lon_hi, lon_hi).map(lambda k: k * step),
    )
    pool = draw(st.lists(st.tuples(lat, lon), min_size=1, max_size=8))
    picks = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=0, max_size=40)
    )
    points = np.array([pool[k] for k in picks], dtype=float).reshape(-1, 2)
    return points[:, 0], points[:, 1]


def _waxman_dataset(
    n: int = 400, l_miles: float = 100.0, seed: int = 0
) -> MappedDataset:
    """Synthetic dataset with planted exponential distance preference."""
    rng = np.random.default_rng(seed)
    lats = rng.uniform(REGION.south, REGION.north, n)
    lons = rng.uniform(REGION.west, REGION.east, n)
    d = pairwise_distance_matrix(lats, lons)
    links = []
    for i in range(n - 1):
        p = 0.4 * np.exp(-d[i, i + 1 :] / l_miles)
        hits = np.flatnonzero(rng.random(n - i - 1) < p)
        links.extend((i, i + 1 + int(j)) for j in hits)
    return MappedDataset(
        label="waxman",
        kind="generated",
        addresses=np.arange(n, dtype=np.int64),
        lats=lats,
        lons=lons,
        asns=np.ones(n, dtype=np.int64),
        links=np.asarray(links, dtype=np.intp),
    )


class TestPairCounts:
    @settings(max_examples=300, deadline=None)
    @given(
        _lattice_points(),
        st.one_of(
            st.sampled_from([0.5, 3.0, 35.0, 700.0]),
            st.floats(min_value=0.01, max_value=2000.0),
        ),
        st.integers(min_value=1, max_value=120),
        st.sampled_from([1, 3, distance.PAIR_CHUNK]),
    )
    def test_equals_naive_reference(self, points, bin_miles, n_bins, chunk):
        lats, lons = points
        with mock.patch.object(distance, "PAIR_CHUNK", chunk):
            counts = pair_counts(lats, lons, bin_miles, n_bins)
        assert counts.dtype == np.int64
        assert counts.tolist() == exact_pair_counts(
            lats, lons, bin_miles, n_bins
        ).tolist()

    def test_exact_counts_total(self):
        rng = np.random.default_rng(1)
        lats = rng.uniform(30, 40, 80)
        lons = rng.uniform(-110, -90, 80)
        counts = pair_counts(lats, lons, bin_miles=50.0, n_bins=60)
        # With 60 bins of 50 miles the full extent is covered.
        assert counts.sum() == 80 * 79 // 2

    def test_exact_counts_chunking_invariant(self):
        rng = np.random.default_rng(2)
        lats = np.round(rng.uniform(30, 40, 150))
        lons = np.round(rng.uniform(-110, -90, 150))
        b = pair_counts(lats, lons, 25.0, 80)
        with mock.patch.object(distance, "PAIR_CHUNK", 7):
            a = pair_counts(lats, lons, 25.0, 80)
        assert np.array_equal(a, b)

    def test_empty_and_tiny_inputs(self):
        empty = np.array([], dtype=float)
        assert pair_counts(empty, empty, 10.0, 5).tolist() == [0] * 5
        # Two nodes at one location form one pair at distance zero.
        same = pair_counts(
            np.array([35.0, 35.0]), np.array([-100.0, -100.0]), 10.0, 5
        )
        assert same.tolist() == [1, 0, 0, 0, 0]

    def test_single_point_no_pairs(self):
        counts = pair_counts(np.array([35.0]), np.array([-100.0]), 10.0, 5)
        assert counts.sum() == 0

    def test_zero_bins_returns_empty(self):
        rng = np.random.default_rng(4)
        lats = rng.uniform(30, 40, 20)
        lons = rng.uniform(-110, -90, 20)
        counts = pair_counts(lats, lons, 50.0, 0)
        assert counts.shape == (0,)

    def test_non_positive_bin_width_raises(self):
        lats = np.array([35.0, 36.0])
        lons = np.array([-100.0, -101.0])
        with pytest.raises(AnalysisError):
            pair_counts(lats, lons, 0.0, 10)
        with pytest.raises(AnalysisError):
            pair_counts(lats, lons, -5.0, 10)


class TestPairCountsRows:
    def test_partitions_sum_to_full_counts(self):
        # The full histogram is each row partition's own pairs plus the
        # pairs across partitions; rounded coordinates put one location
        # in several partitions.
        rng = np.random.default_rng(5)
        lats = np.round(rng.uniform(30, 40, 90))
        lons = np.round(rng.uniform(-110, -90, 90))
        edges = np.arange(51, dtype=float) * 30.0
        full = pair_counts(lats, lons, 30.0, 50)
        parts = [np.arange(0, 30), np.arange(30, 71), np.arange(71, 90)]
        total = sum(pair_counts(lats[p], lons[p], 30.0, 50) for p in parts)
        for a, p in enumerate(parts):
            for q in parts[a + 1 :]:
                i, j = np.meshgrid(p, q, indexing="ij")
                d = haversine_miles(
                    lats[i.ravel()], lons[i.ravel()],
                    lats[j.ravel()], lons[j.ravel()],
                )
                total = total + np.histogram(d, bins=edges)[0]
        assert full.sum() == 90 * 89 // 2
        assert total.tolist() == full.tolist()


#: A region with edges on both signed zeros.
EDGE_REGION = Region("Edge", north=0.0, south=-5.0, west=0.0, east=8.0)
_edge_lats = st.one_of(
    st.sampled_from([0.0, -0.0, -5.0, np.nextafter(-5.0, -6.0), 5e-324, -2.5]),
    st.floats(-6.0, 1.0),
)
_edge_lons = st.one_of(
    st.sampled_from([0.0, -0.0, 8.0, np.nextafter(8.0, 9.0), -5e-324, 4.0]),
    st.floats(-1.0, 9.0),
)


@st.composite
def _edge_datasets(draw) -> MappedDataset:
    """Nodes at a few points on and around :data:`EDGE_REGION`'s edges,
    with random links (possibly none)."""
    pool = draw(st.lists(st.tuples(_edge_lats, _edge_lons), min_size=1, max_size=10))
    n = draw(st.integers(0, 40))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    points = np.array([pool[k] for k in picks], dtype=float).reshape(-1, 2)
    pairs = []
    if n >= 2:
        ends = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]),
                              max_size=60))
    return MappedDataset(
        label="edge", kind="skitter",
        addresses=np.arange(n, dtype=np.int64),
        lats=points[:, 0], lons=points[:, 1],
        asns=np.ones(n, dtype=np.int64),
        links=np.array(pairs, dtype=np.intp).reshape(-1, 2),
    )


def _restricted_preference(ds, region, bin_miles, n_bins):
    """The reference: ``n_nodes``, link histogram, pair counts and link
    lengths of a restricted copy of the dataset."""
    sub = ds.restrict(region)
    edges = np.arange(n_bins + 1, dtype=float) * bin_miles
    lengths = sub.link_lengths()
    links, _ = np.histogram(lengths, bins=edges)
    return sub.n_nodes, links, pair_counts(sub.lats, sub.lons, bin_miles, n_bins), lengths


class TestPreferenceFunction:
    def test_f_hat_is_ratio(self):
        ds = _waxman_dataset()
        pref = preference_function(ds, REGION, bin_miles=25.0)
        usable = pref.pair_counts > 0
        np.testing.assert_allclose(
            pref.f_hat[usable],
            pref.link_counts[usable] / pref.pair_counts[usable],
        )

    def test_link_lengths_recorded(self):
        ds = _waxman_dataset()
        pref = preference_function(ds, REGION, bin_miles=25.0)
        assert pref.link_lengths.size == ds.n_links

    def test_methods_agree_on_shape(self):
        # The weighted counter and the naive per-pair reference agree,
        # and the estimate decays from small to large d.
        ds = _waxman_dataset(n=500)
        pref = preference_function(ds, REGION, 25.0)
        sub = ds.restrict(REGION)
        reference = exact_pair_counts(sub.lats, sub.lons, 25.0, 100)
        assert np.array_equal(pref.pair_counts, reference)
        half = 20
        e = np.nan_to_num(pref.f_hat)
        assert e[:half].mean() > e[half : 2 * half].mean()

    @settings(max_examples=150, deadline=None)
    @given(_edge_datasets(), st.sampled_from([10.0, 75.0, 400.0]))
    def test_equals_restricted_copy(self, ds, bin_miles):
        # Region membership taken once per distinct point gives what a
        # restricted copy of the nodes gives, bit for bit: on the edges,
        # at signed zeros, with no links and below ten nodes.
        n_nodes, links, pairs, lengths = _restricted_preference(
            ds, EDGE_REGION, bin_miles, 10
        )
        if n_nodes < 10:
            with pytest.raises(AnalysisError, match=f"only {n_nodes} mapped"):
                preference_function(ds, EDGE_REGION, bin_miles, n_bins=10)
            return
        pref = preference_function(ds, EDGE_REGION, bin_miles, n_bins=10)
        assert pref.n_nodes == n_nodes
        assert pref.link_counts.tolist() == links.tolist()
        assert pref.pair_counts.tolist() == pairs.tolist()
        assert pref.link_lengths.dtype == lengths.dtype
        assert pref.link_lengths.tobytes() == lengths.tobytes()

    def test_too_few_nodes_raise(self):
        ds = _waxman_dataset(n=400)
        empty = Region("empty", north=-50.0, south=-60.0, west=0.0, east=5.0)
        with pytest.raises(AnalysisError):
            preference_function(ds, empty, 25.0)

    def test_invalid_parameters_raise(self):
        ds = _waxman_dataset()
        with pytest.raises(AnalysisError):
            preference_function(ds, REGION, -1.0)
        with pytest.raises(AnalysisError):
            preference_function(ds, REGION, 25.0, n_bins=3)

    def test_populated_extent_trims_empty_tail(self):
        ds = _waxman_dataset()
        pref = preference_function(ds, REGION, bin_miles=25.0)
        extent = pref.populated_extent()
        assert extent <= pref.bin_left.shape[0]
        assert pref.pair_counts[extent - 1] > 0


class TestWaxmanFit:
    def test_planted_l_recovered(self):
        ds = _waxman_dataset(n=700, l_miles=100.0, seed=5)
        pref = preference_function(ds, REGION, bin_miles=20.0)
        fit = waxman_fit(pref)
        assert fit.l_miles == pytest.approx(100.0, rel=0.35)
        assert fit.fit.slope < 0

    def test_flat_profile_rejected(self):
        # Distance-independent links: semi-log slope near zero or
        # positive -> the fit must refuse.
        rng = np.random.default_rng(7)
        n = 300
        lats = rng.uniform(REGION.south, REGION.north, n)
        lons = rng.uniform(REGION.west, REGION.east, n)
        links = rng.integers(0, n, size=(800, 2))
        links = links[links[:, 0] != links[:, 1]]
        ds = MappedDataset(
            label="flat", kind="generated",
            addresses=np.arange(n, dtype=np.int64),
            lats=lats, lons=lons, asns=np.ones(n, dtype=np.int64),
            links=links.astype(np.intp),
        )
        pref = preference_function(ds, REGION, bin_miles=20.0)
        with pytest.raises(AnalysisError):
            waxman_fit(pref, small_d_max=600.0)


class TestCumulatedPreference:
    def test_flat_tail_gives_linear_cumulation(self):
        ds = _waxman_dataset(n=600, seed=9)
        pref = preference_function(ds, REGION, bin_miles=20.0)
        curve = cumulated_preference(pref)
        assert curve.big_f.shape == curve.d.shape
        assert np.all(np.diff(curve.big_f) >= 0)

    def test_fit_r_squared_reported(self):
        ds = _waxman_dataset(n=600, seed=10)
        pref = preference_function(ds, REGION, bin_miles=20.0)
        curve = cumulated_preference(pref)
        assert 0.0 <= curve.large_d_fit.r_squared <= 1.0


class TestSensitivityLimit:
    def test_limit_and_fraction(self):
        # Plant the paper's structure: Waxman small-d + uniform tail.
        rng = np.random.default_rng(11)
        ds = _waxman_dataset(n=700, l_miles=80.0, seed=11)
        n = ds.n_nodes
        extra = rng.integers(0, n, size=(150, 2))
        extra = extra[extra[:, 0] != extra[:, 1]]
        links = np.vstack([ds.links, extra.astype(np.intp)])
        ds2 = MappedDataset(
            label="two-regime", kind="generated",
            addresses=ds.addresses, lats=ds.lats, lons=ds.lons,
            asns=ds.asns, links=links,
        )
        pref = preference_function(ds2, REGION, bin_miles=20.0)
        result = sensitivity_limit(pref)
        assert result.limit_miles > 0
        assert 0.5 <= result.fraction_below <= 1.0
        assert result.large_d_mean > 0

    def test_pipeline_us_region(self, pipeline_small):
        ds = pipeline_small.dataset("IxMapper", "Skitter")
        pref = preference_function(ds, US, bin_miles=35.0)
        result = sensitivity_limit(pref)
        # The paper band: most links fall below the limit.
        assert result.fraction_below > 0.5
        assert 20.0 < result.waxman.l_miles < 800.0
