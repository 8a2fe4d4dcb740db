"""Tests for repro.bgp.table and repro.bgp.routeviews."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.routeviews import (
    build_routeviews_snapshot,
    perfect_snapshot,
    snapshot_from_topology,
)
from repro.bgp.table import UNMAPPED_ASN, BgpTable, RibEntry
from repro.config import BgpConfig
from repro.errors import AddressError
from repro.net.addressing import AddressPlan
from repro.net.ip import ADDRESS_BITS, Prefix, parse_address, prefix_mask


class TestRibEntry:
    def test_valid(self):
        entry = RibEntry(Prefix.parse("16.0.0.0/16"), 100)
        assert entry.origin_asn == 100

    def test_rejects_non_positive_asn(self):
        with pytest.raises(AddressError):
            RibEntry(Prefix.parse("16.0.0.0/16"), 0)


@st.composite
def _tables_and_probes(draw):
    """Announcements nested under a few roots (a /0 and /32s included,
    prefixes re-announced) and probe addresses in and around them."""
    roots = draw(
        st.lists(st.integers(0, (1 << ADDRESS_BITS) - 1), min_size=1, max_size=3)
    )
    entries = []
    for _ in range(draw(st.integers(0, 12))):
        root = draw(st.sampled_from(roots))
        length = draw(st.sampled_from([0, 1, 8, 16, 20, 24, 31, 32]))
        base = root & prefix_mask(length)
        entries.append(RibEntry(Prefix(base, length), draw(st.integers(1, 5))))
    if entries and draw(st.booleans()):
        again = draw(st.sampled_from(entries)).prefix
        entries.append(RibEntry(again, draw(st.integers(1, 5))))
    probes = [
        min(max(root + draw(st.integers(-3, 3)), 0), (1 << ADDRESS_BITS) - 1)
        for root in draw(st.lists(st.sampled_from(roots), max_size=10))
    ] + draw(st.lists(st.integers(0, (1 << ADDRESS_BITS) - 1), max_size=5))
    return entries, probes


class TestBgpTable:
    def test_origin_lookup(self):
        table = BgpTable([RibEntry(Prefix.parse("16.0.0.0/16"), 7)])
        assert table.origin_of(parse_address("16.0.1.2")) == 7

    def test_unmapped_sentinel(self):
        table = BgpTable([RibEntry(Prefix.parse("16.0.0.0/16"), 7)])
        assert table.origin_of(parse_address("17.0.0.1")) == UNMAPPED_ASN

    def test_longest_prefix_wins(self):
        table = BgpTable(
            [
                RibEntry(Prefix.parse("16.0.0.0/8"), 1),
                RibEntry(Prefix.parse("16.32.0.0/11"), 2),
            ]
        )
        assert table.origin_of(parse_address("16.33.0.1")) == 2
        assert table.origin_of(parse_address("16.128.0.1")) == 1

    def test_origin_many_is_parallel_int64(self):
        table = BgpTable([RibEntry(Prefix.parse("16.0.0.0/8"), 5)])
        out = table.origin_many(
            [parse_address("16.0.0.1"), parse_address("20.0.0.1")]
        )
        assert out.dtype == np.int64
        assert out.tolist() == [5, UNMAPPED_ASN]
        assert table.origin_many([]).shape == (0,)

    def test_origin_many_rejects_out_of_range(self):
        table = BgpTable([RibEntry(Prefix.parse("16.0.0.0/8"), 5)])
        with pytest.raises(AddressError):
            table.origin_many([1, 1 << 32])
        with pytest.raises(AddressError):
            table.origin_many([-1])

    def test_reannounce_replaces_origin(self):
        table = BgpTable([RibEntry(Prefix.parse("16.0.0.0/8"), 5)])
        assert table.origin_of(parse_address("16.0.0.1")) == 5
        table.announce(RibEntry(Prefix.parse("16.0.0.0/8"), 6))
        assert table.origin_of(parse_address("16.0.0.1")) == 6
        assert len(table) == 1

    @settings(max_examples=200, deadline=None)
    @given(_tables_and_probes())
    def test_origin_many_equals_origin_of_and_naive_scan(self, case):
        entries, probes = case
        table = BgpTable(entries)
        naive = []
        for address in probes:
            best_length, best_asn = -1, UNMAPPED_ASN
            # Later announcements of one prefix replace earlier ones.
            for entry in entries:
                mask = prefix_mask(entry.prefix.length)
                if (
                    address & mask == entry.prefix.base
                    and entry.prefix.length >= best_length
                ):
                    best_length, best_asn = entry.prefix.length, entry.origin_asn
            naive.append(best_asn)
        assert table.origin_many(probes).tolist() == naive
        assert [table.origin_of(address) for address in probes] == naive

    def test_len_counts_prefixes(self):
        table = BgpTable(
            [
                RibEntry(Prefix.parse("16.0.0.0/16"), 1),
                RibEntry(Prefix.parse("16.1.0.0/16"), 2),
            ]
        )
        assert len(table) == 2


class TestRouteViewsSnapshots:
    def _plan(self) -> AddressPlan:
        plan = AddressPlan()
        for asn in range(100, 140):
            plan.allocate(asn)
        return plan

    def test_perfect_snapshot_covers_all_allocations(self):
        plan = self._plan()
        table = perfect_snapshot(plan)
        for prefix, asn in plan.prefix_origin_pairs():
            assert table.origin_of(prefix.base + 1) == asn

    def test_unannounced_fraction_roughly_respected(self):
        plan = self._plan()
        config = BgpConfig(unannounced_rate=0.5, deaggregation_rate=0.0)
        table = build_routeviews_snapshot(plan, config, np.random.default_rng(0))
        unmapped = sum(
            1
            for prefix, _ in plan.prefix_origin_pairs()
            if table.origin_of(prefix.base + 1) == UNMAPPED_ASN
        )
        assert 8 <= unmapped <= 32  # 40 prefixes at 50%

    def test_zero_distortion_equals_perfect(self):
        plan = self._plan()
        config = BgpConfig(unannounced_rate=0.0, deaggregation_rate=0.0)
        table = build_routeviews_snapshot(plan, config, np.random.default_rng(0))
        perfect = perfect_snapshot(plan)
        for prefix, _ in plan.prefix_origin_pairs():
            probe = prefix.base + 3
            assert table.origin_of(probe) == perfect.origin_of(probe)

    def test_deaggregation_preserves_origin(self):
        plan = self._plan()
        config = BgpConfig(unannounced_rate=0.0, deaggregation_rate=1.0)
        table = build_routeviews_snapshot(plan, config, np.random.default_rng(0))
        for prefix, asn in plan.prefix_origin_pairs():
            assert table.origin_of(prefix.base + 1) == asn
            assert table.origin_of(prefix.last - 1) == asn
        # Announced prefixes are the more-specific halves.
        assert all(e.prefix.length == 17 for e in table.entries)

    def test_snapshot_from_topology_maps_interfaces(self, generated_small):
        topology, _, _ = generated_small
        config = BgpConfig(unannounced_rate=0.0, deaggregation_rate=0.0)
        table = snapshot_from_topology(
            topology, config, np.random.default_rng(0)
        )
        from repro.net.ip import is_private

        hits = 0
        for address, iface in list(topology.interfaces.items())[:300]:
            if is_private(address):
                continue
            assert (
                table.origin_of(address)
                == topology.routers[iface.router_id].asn
            )
            hits += 1
        assert hits > 100

    def test_snapshot_from_topology_excludes_private(self, generated_small):
        topology, _, _ = generated_small
        config = BgpConfig(unannounced_rate=0.0, deaggregation_rate=0.0)
        table = snapshot_from_topology(
            topology, config, np.random.default_rng(0)
        )
        assert table.origin_of(parse_address("10.0.0.5")) == UNMAPPED_ASN
