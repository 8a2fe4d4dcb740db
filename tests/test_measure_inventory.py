"""Tests for repro.measure.inventory and repro.measure.artifacts."""

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.measure.artifacts import (
    clean_inventory,
    discard_destinations,
    discard_private,
    drop_nodes,
)
from repro.measure.inventory import (
    RawInventory,
    contains,
    positions,
    set_order,
)
from repro.net.ip import parse_address


def _inventory(kind: str = "skitter") -> RawInventory:
    inv = RawInventory(kind=kind)
    for node in (10, 20, 30, 40):
        inv.add_node(node)
    inv.add_link(10, 20)
    inv.add_link(20, 30)
    inv.add_link(30, 40)
    return inv


class TestArrayHelpers:
    def test_set_order_is_python_set_iteration_order(self):
        rng = np.random.default_rng(4)
        for size in (0, 1, 7, 300, 5000):
            low = rng.integers(0, 2**31, size)
            high = low + rng.integers(1, 2**31, size)
            # Repeats, as a union of probe observations has them.
            pick = rng.integers(0, max(size, 1), size)
            low, high = low[pick], high[pick]
            want = set()
            for pair in zip(low.tolist(), high.tolist()):
                want.add(pair)
            assert set_order(low, high).tolist() == [list(p) for p in want]

    def test_positions_and_contains(self):
        values = np.array([3, 8, 20])
        queries = np.array([[20, 4], [3, 99]])
        assert positions(values, queries).tolist() == [[2, -1], [0, -1]]
        assert contains(values, queries).tolist() == [[True, False], [True, False]]
        assert positions(np.empty(0, np.int64), [5]).tolist() == [-1]


class TestRawInventory:
    def test_add_node_idempotent(self):
        inv = RawInventory(kind="skitter")
        inv.add_node(5)
        inv.add_node(5)
        assert inv.n_nodes == 1
        assert inv.interfaces_of(5) == [5]

    def test_add_link_requires_known_nodes(self):
        inv = RawInventory(kind="skitter")
        inv.add_node(1)
        with pytest.raises(MeasurementError):
            inv.add_link(1, 2)

    def test_self_link_rejected(self):
        inv = RawInventory(kind="skitter")
        inv.add_node(1)
        with pytest.raises(MeasurementError):
            inv.add_link(1, 1)

    def test_links_deduplicated(self):
        inv = _inventory()
        inv.add_link(20, 10)
        assert inv.n_links == 3

    def test_interfaces_of_unknown_raises(self):
        with pytest.raises(MeasurementError):
            _inventory().interfaces_of(999)

    def test_validate_passes_consistent(self):
        _inventory().validate()

    def test_validate_catches_bad_alias(self):
        inv = _inventory()
        inv.members = np.where(inv.members == 10, 99, inv.members)
        with pytest.raises(MeasurementError):  # 10 lacks its own address
            inv.validate()

    def test_validate_catches_duplicate_link(self):
        inv = _inventory()
        inv.links = np.vstack([inv.links, inv.links[:1]])
        with pytest.raises(MeasurementError, match="more than once"):
            inv.validate()

    def test_validate_requires_ipv4_nodes(self):
        inv = RawInventory(kind="skitter")
        inv.add_nodes([1, 2**32])
        with pytest.raises(MeasurementError, match="IPv4"):
            inv.validate()

    def test_validate_catches_unnormalised_link(self):
        inv = _inventory()
        inv.links = np.vstack([inv.links, [[40, 30]]])
        with pytest.raises(MeasurementError):
            inv.validate()


class TestDropNodes:
    def test_drop_removes_node_and_links(self):
        cleaned = drop_nodes(_inventory(), [20])
        assert cleaned.n_nodes == 3
        assert cleaned.n_links == 1  # only 30-40 survives
        cleaned.validate()

    def test_drop_nothing_is_identity(self):
        inv = _inventory()
        cleaned = drop_nodes(inv, [])
        assert np.array_equal(cleaned.nodes, inv.nodes)
        assert sorted(cleaned.links.tolist()) == sorted(inv.links.tolist())

    def test_aliases_preserved(self):
        inv = RawInventory.from_members(
            "mercator", [10, 99, 20, 30, 40], [10, 10, 20, 30, 40]
        )
        cleaned = drop_nodes(inv, [40])
        assert cleaned.interfaces_of(10) == [10, 99]


class TestDiscards:
    def test_destination_discard(self):
        inv = _inventory()
        inv.destinations = np.array([20, 999])
        cleaned, dropped = discard_destinations(inv)
        assert dropped == 1
        assert 20 not in cleaned.nodes

    def test_private_discard(self):
        inv = RawInventory(kind="skitter")
        private = parse_address("10.0.0.1")
        public = parse_address("16.0.0.1")
        inv.add_node(private)
        inv.add_node(public)
        inv.add_link(private, public)
        cleaned, dropped = discard_private(inv)
        assert dropped == 1
        assert cleaned.nodes.tolist() == [public]
        assert cleaned.n_links == 0

    def test_clean_inventory_skitter_applies_both(self):
        inv = _inventory()
        inv.destinations = np.array([10])
        cleaned, report = clean_inventory(inv)
        assert report.dropped_destination_nodes == 1
        assert report.dropped_private_nodes == 0
        assert report.dropped_links == 1
        assert cleaned.n_nodes == 3

    def test_clean_inventory_mercator_ignores_destinations(self):
        inv = _inventory("mercator")
        inv.destinations = np.array([10])
        cleaned, report = clean_inventory(inv)
        assert report.dropped_destination_nodes == 0
        assert 10 in cleaned.nodes
