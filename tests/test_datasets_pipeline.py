"""Tests for repro.datasets.pipeline (the end-to-end build)."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.table import UNMAPPED_ASN, BgpTable, RibEntry
from repro.config import small_scenario
from repro.datasets import pipeline
from repro.datasets.mapped import LOCATION_DECIMALS, MappedDataset
from repro.datasets.pipeline import ProcessingReport, build_snapshot, run_pipeline
from repro.errors import DatasetError
from repro.geo.coords import GeoPoint
from repro.geoloc.base import (
    METHOD_HOSTNAME,
    METHOD_UNMAPPED,
    Locations,
    MappingResult,
    locate_batch,
)
from repro.measure.inventory import RawInventory
from repro.net.ip import Prefix
from repro.obs import MetricsRegistry, use_metrics


class _StubMapper:
    """Geolocator stub with a scripted answer per address."""

    name = "Stub"

    def __init__(self, answers: dict[int, GeoPoint | None]):
        self._answers = answers

    def locate(self, address: int) -> MappingResult:
        location = self._answers.get(address)
        if location is None:
            return MappingResult(location=None, method=METHOD_UNMAPPED)
        return MappingResult(location=location, method=METHOD_HOSTNAME)

    def locate_many(self, addresses) -> Locations:
        return Locations.from_results(
            [self.locate(address) for address in addresses.tolist()]
        )


def _table() -> BgpTable:
    return BgpTable([RibEntry(Prefix.parse("0.0.0.0/8"), 77)])


def _reference_build_snapshot(
    inventory: RawInventory, geolocator, bgp_table: BgpTable, label: str
) -> tuple[MappedDataset, ProcessingReport]:
    """The mapping stage as a per-node loop: the reference that
    ``build_snapshot``'s grouped array passes must equal bit for bit.

    Per node, a ``Counter`` over rounded member locations (a tie for
    first place discards the node; the winner takes its first member's
    exact coordinates) and a ``Counter`` over member origins looked up
    one at a time (``most_common(1)``: the first seen wins a tie).
    """
    inventory.validate()
    kept_addresses, kept_lats, kept_lons, kept_asns = [], [], [], []
    n_unmapped = n_ties = n_as_unmapped = 0
    ordered_nodes = sorted(inventory.nodes.tolist())
    member_lists = [inventory.interfaces_of(node) for node in ordered_nodes]
    flat_results = locate_batch(
        geolocator, [m for members in member_lists for m in members]
    ).results()
    offset = 0
    for node, members in zip(ordered_nodes, member_lists):
        results = flat_results[offset:offset + len(members)]
        offset += len(members)
        votes = []
        exact = {}
        for result in results:
            if not result.mapped:
                continue
            key = (
                round(result.location.lat, LOCATION_DECIMALS),
                round(result.location.lon, LOCATION_DECIMALS),
            )
            votes.append(key)
            exact.setdefault(key, (result.location.lat, result.location.lon))
        if not votes:
            n_unmapped += 1
            continue
        ranked = Counter(votes).most_common()
        if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
            n_ties += 1
            continue
        lat, lon = exact[ranked[0][0]]
        as_votes = Counter(bgp_table.origin_of(member) for member in members)
        asn, _ = as_votes.most_common(1)[0]
        if asn == UNMAPPED_ASN:
            n_as_unmapped += 1
        kept_addresses.append(node)
        kept_lats.append(lat)
        kept_lons.append(lon)
        kept_asns.append(asn)
    index = {addr: i for i, addr in enumerate(kept_addresses)}
    link_rows = [
        (index[a], index[b])
        for a, b in inventory.links.tolist()
        if a in index and b in index
    ]
    dataset = MappedDataset(
        label=label,
        kind=inventory.kind,
        addresses=np.asarray(kept_addresses, dtype=np.int64),
        lats=np.asarray(kept_lats, dtype=float),
        lons=np.asarray(kept_lons, dtype=float),
        asns=np.asarray(kept_asns, dtype=np.int64),
        links=(
            np.asarray(link_rows, dtype=np.intp)
            if link_rows
            else np.empty((0, 2), dtype=np.intp)
        ),
    )
    report = ProcessingReport(
        label=label,
        n_raw_nodes=inventory.n_nodes,
        n_unmapped=n_unmapped,
        n_location_ties=n_ties,
        n_as_unmapped=n_as_unmapped,
    )
    return dataset, report


def _assert_bitwise_equal(got: MappedDataset, want: MappedDataset) -> None:
    for field in dataclasses.fields(MappedDataset):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            assert a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


def _with_bgp_counters(run):
    """``run()``'s result and the ``bgp.lookups``/``bgp.misses`` it counted."""
    registry = MetricsRegistry()
    with use_metrics(registry):
        out = run()
    counters = (
        registry.counter_value("bgp.lookups"),
        registry.counter_value("bgp.misses"),
    )
    return out, counters


def _one_router(locations: list[GeoPoint | None]):
    """One Mercator router whose members map to ``locations`` in order."""
    members = list(range(100, 100 + len(locations)))
    inv = RawInventory.from_members("mercator", members, [100] * len(members))
    return inv, _StubMapper(dict(zip(members, locations)))


class TestMajorityVote:
    """The location vote of ``build_snapshot`` on one router."""

    def test_clear_winner(self):
        inv, mapper = _one_router(
            [GeoPoint(2.0, 2.0), GeoPoint(1.0, 1.0), GeoPoint(1.0, 1.0)]
        )
        dataset, report = build_snapshot(inv, mapper, _table(), "t")
        assert (dataset.lats.tolist(), dataset.lons.tolist()) == ([1.0], [1.0])
        assert report.n_location_ties == 0

    def test_tie_returns_none(self):
        inv, mapper = _one_router([GeoPoint(1.0, 1.0), GeoPoint(2.0, 2.0)])
        dataset, report = build_snapshot(inv, mapper, _table(), "t")
        assert dataset.n_nodes == 0
        assert report.n_location_ties == 1 and report.n_unmapped == 0

    def test_single_vote_wins(self):
        inv, mapper = _one_router([None, GeoPoint(3.0, 4.0), None])
        dataset, report = build_snapshot(inv, mapper, _table(), "t")
        assert (dataset.lats.tolist(), dataset.lons.tolist()) == ([3.0], [4.0])
        assert report.n_unmapped == 0

    def test_votes_group_by_python_round(self):
        # round(0.15, 1) == 0.1 while np.round(0.15, 1) == 0.2: the two
        # 0.15 members vote with the 0.1 member and outvote the two 0.2s;
        # the router keeps its first winning member's exact coordinates.
        inv, mapper = _one_router(
            [
                GeoPoint(0.2, 5.0),
                GeoPoint(0.15, 5.0),
                GeoPoint(0.1, 5.0),
                GeoPoint(0.2, 5.0),
                GeoPoint(0.15, 5.0),
            ]
        )
        dataset, report = build_snapshot(inv, mapper, _table(), "t")
        assert dataset.lats.tolist() == [0.15]
        assert report.n_location_ties == 0

    def test_signed_zero_keys_are_one_location(self):
        inv, mapper = _one_router(
            [GeoPoint(-0.0, 1.0), GeoPoint(0.04, 1.0), GeoPoint(3.0, 3.0)]
        )
        dataset, _ = build_snapshot(inv, mapper, _table(), "t")
        assert dataset.lats.tolist() == [0.0]
        assert np.signbit(dataset.lats[0])

    def test_as_vote_tie_first_seen_wins(self):
        table = BgpTable(
            [
                RibEntry(Prefix.parse("0.0.0.0/24"), 5),
                RibEntry(Prefix.parse("0.0.1.0/24"), 9),
            ]
        )
        # AS 9 is seen first.
        inv = RawInventory.from_members("mercator", [0x101, 0x002], [0x002] * 2)
        mapper = _StubMapper(
            {0x101: GeoPoint(1.0, 1.0), 0x002: GeoPoint(1.0, 1.0)}
        )
        dataset, _ = build_snapshot(inv, mapper, table, "t")
        assert dataset.asns.tolist() == [9]


_ADDRESS_BASE = 0x10000000
#: Points on and around rounding boundaries, signed zeros included.
_PALETTE = [
    GeoPoint(0.15, 0.1),
    GeoPoint(0.1, 0.1),
    GeoPoint(0.2, 0.15),
    GeoPoint(0.25, 0.1),
    GeoPoint(0.0, 0.0),
    GeoPoint(-0.0, -0.0),
    GeoPoint(0.04, -0.04),
    GeoPoint(-0.04, 0.04),
    GeoPoint(1.25, 2.35),
    GeoPoint(1.2500001, 2.35),
    GeoPoint(45.05, -120.45),
    GeoPoint(45.0, -120.4),
]
#: Prefixes over the drawn addresses: nested, a /0 and /32s.
_PREFIXES = [
    Prefix(0, 0),
    Prefix(_ADDRESS_BASE, 8),
    Prefix(_ADDRESS_BASE, 24),
    Prefix(_ADDRESS_BASE + 256, 24),
    Prefix(_ADDRESS_BASE, 30),
    Prefix(_ADDRESS_BASE + 5, 32),
    Prefix(_ADDRESS_BASE + 257, 32),
]


@st.composite
def _mapping_cases(draw):
    """An inventory, scripted answers and a BGP table, small enough that
    location ties, unmapped routers, unannounced members and AS-vote
    ties are common."""
    n_addresses = draw(st.integers(min_value=0, max_value=24))
    addresses = draw(
        st.permutations(
            [_ADDRESS_BASE + 256 * (i % 3) + i // 3 for i in range(n_addresses)]
        )
    )
    kind = draw(st.sampled_from(["mercator", "skitter"]))
    flat_members, flat_nodes = [], []
    start = 0
    while start < len(addresses):
        members = addresses[start:start + draw(st.integers(1, 5))]
        start += len(members)
        flat_members += members
        flat_nodes += [draw(st.sampled_from(members))] * len(members)
    inv = RawInventory.from_members(kind, flat_members, flat_nodes)
    nodes = inv.nodes.tolist()
    if len(nodes) > 1:
        pairs = draw(
            st.lists(
                st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                max_size=30,
            )
        )
        for a, b in pairs:
            if a != b:
                inv.add_link(a, b)
    answers = {
        address: draw(st.one_of(st.none(), st.sampled_from(_PALETTE)))
        for address in addresses
    }
    entries = draw(
        st.lists(
            st.builds(
                RibEntry,
                st.sampled_from(_PREFIXES),
                st.integers(min_value=1, max_value=4),
            ),
            max_size=8,
        )
    )
    return inv, answers, BgpTable(entries)


class TestReferenceEquality:
    """``build_snapshot`` equals the per-node reference loop bit for bit:
    datasets, processing reports and the ``bgp.*`` lookup counters."""

    @settings(max_examples=300, deadline=None)
    @given(_mapping_cases())
    def test_drawn_inventories(self, case):
        inv, answers, table = case
        (want, want_report), want_counters = _with_bgp_counters(
            lambda: _reference_build_snapshot(
                inv, _StubMapper(answers), table, "t"
            )
        )
        (got, got_report), got_counters = _with_bgp_counters(
            lambda: build_snapshot(inv, _StubMapper(answers), table, "t")
        )
        _assert_bitwise_equal(got, want)
        assert got_report == want_report
        assert got_counters == want_counters

    @pytest.mark.parametrize("seed", [5, 11])
    def test_all_pipeline_passes(self, seed, monkeypatch):
        config = small_scenario(seed)
        got = run_pipeline(config)
        monkeypatch.setattr(pipeline, "build_snapshot", _reference_build_snapshot)
        want = run_pipeline(config)
        assert sorted(got.datasets) == sorted(want.datasets)
        assert len(want.datasets) == 4
        for label, dataset in want.datasets.items():
            _assert_bitwise_equal(got.datasets[label], dataset)
            assert got.processing_reports[label] == want.processing_reports[label]


class TestBuildSnapshot:
    def _inventory(self) -> RawInventory:
        inv = RawInventory(kind="skitter")
        for node in (10, 20, 30):
            inv.add_node(node)
        inv.add_link(10, 20)
        inv.add_link(20, 30)
        return inv

    def test_unmapped_nodes_dropped_with_links(self):
        mapper = _StubMapper(
            {10: GeoPoint(1.0, 1.0), 20: None, 30: GeoPoint(2.0, 2.0)}
        )
        dataset, report = build_snapshot(self._inventory(), mapper, _table(), "t")
        assert dataset.n_nodes == 2
        assert dataset.n_links == 0  # both links touched node 20
        assert report.n_unmapped == 1

    def test_all_mapped_keeps_links(self):
        mapper = _StubMapper(
            {10: GeoPoint(1.0, 1.0), 20: GeoPoint(1.5, 1.5), 30: GeoPoint(2.0, 2.0)}
        )
        dataset, report = build_snapshot(self._inventory(), mapper, _table(), "t")
        assert dataset.n_nodes == 3 and dataset.n_links == 2
        assert report.n_unmapped == 0

    def test_as_mapping_uses_bgp_table(self):
        mapper = _StubMapper({10: GeoPoint(1.0, 1.0)})
        inv = RawInventory(kind="skitter")
        inv.add_node(10)
        dataset, report = build_snapshot(inv, mapper, _table(), "t")
        assert dataset.asns[0] == 77
        assert report.n_as_unmapped == 0

    def test_unannounced_address_gets_sentinel(self):
        mapper = _StubMapper({0x20000001: GeoPoint(1.0, 1.0)})
        inv = RawInventory(kind="skitter")
        inv.add_node(0x20000001)  # outside the announced 0.0.0.0/8
        dataset, report = build_snapshot(inv, mapper, _table(), "t")
        assert dataset.asns[0] == UNMAPPED_ASN
        assert report.n_as_unmapped == 1

    def test_mercator_tie_discards_router(self):
        inv = RawInventory.from_members("mercator", [100, 101], [100, 100])
        mapper = _StubMapper(
            {100: GeoPoint(1.0, 1.0), 101: GeoPoint(5.0, 5.0)}
        )
        dataset, report = build_snapshot(inv, mapper, _table(), "t")
        assert dataset.n_nodes == 0
        assert report.n_location_ties == 1

    def test_mercator_majority_wins(self):
        inv = RawInventory.from_members(
            "mercator", [100, 101, 102], [100, 100, 100]
        )
        mapper = _StubMapper(
            {
                100: GeoPoint(1.0, 1.0),
                101: GeoPoint(1.0, 1.0),
                102: GeoPoint(5.0, 5.0),
            }
        )
        dataset, _ = build_snapshot(inv, mapper, _table(), "t")
        assert dataset.n_nodes == 1
        assert dataset.lats[0] == pytest.approx(1.0)


class TestRunPipeline:
    def test_produces_four_datasets(self, pipeline_small):
        assert set(pipeline_small.datasets) == {
            "IxMapper, Mercator",
            "IxMapper, Skitter",
            "EdgeScape, Mercator",
            "EdgeScape, Skitter",
        }

    def test_dataset_lookup_helper(self, pipeline_small):
        ds = pipeline_small.dataset("IxMapper", "Skitter")
        assert ds.kind == "skitter"
        with pytest.raises(DatasetError):
            pipeline_small.dataset("NetGeo", "Skitter")

    def test_datasets_nonempty(self, pipeline_small):
        for ds in pipeline_small.datasets.values():
            assert ds.n_nodes > 500
            assert ds.n_links > 500
            assert ds.n_locations > 20

    def test_unmapped_rates_match_paper_band(self, pipeline_small):
        for label, report in pipeline_small.processing_reports.items():
            rate = report.n_unmapped / report.n_raw_nodes
            if label.startswith("IxMapper"):
                assert rate < 0.04
            else:
                assert rate < 0.02

    def test_mercator_tie_rate_small(self, pipeline_small):
        for label, report in pipeline_small.processing_reports.items():
            if "Mercator" in label:
                tie_rate = report.n_location_ties / report.n_raw_nodes
                assert tie_rate < 0.06  # paper observes 2.5-2.9%

    def test_as_unmapped_rate_small(self, pipeline_small):
        for report in pipeline_small.processing_reports.values():
            rate = report.n_as_unmapped / report.n_raw_nodes
            assert rate < 0.06  # paper observes 1.5-2.8%

    def test_skitter_larger_than_mercator(self, pipeline_small):
        skitter = pipeline_small.dataset("IxMapper", "Skitter")
        mercator = pipeline_small.dataset("IxMapper", "Mercator")
        assert skitter.n_nodes > mercator.n_nodes

    def test_deterministic_given_config(self, pipeline_small, small_config):
        again = run_pipeline(small_config)
        ds1 = pipeline_small.dataset("IxMapper", "Skitter")
        ds2 = again.dataset("IxMapper", "Skitter")
        assert ds1.n_nodes == ds2.n_nodes
        assert np.array_equal(ds1.addresses, ds2.addresses)
        assert np.array_equal(ds1.lats, ds2.lats)
