"""Equivalence and round-trip tests for the array-native topology core.

The column-stored topology's adjacency, lookups, validation errors and
derived statistics are checked against brute-force reference
implementations.  These tests also exercise the
``.npz`` serialisation (directly and through the runtime artifact
cache), and cover the vectorised tree-walk helpers the measurement
simulators are built on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import small_scenario
from repro.datasets.pipeline import run_pipeline
from repro.errors import MeasurementError, TopologyError
from repro.measure.inventory import RawInventory
from repro.net.ip import is_private, is_private_many
from repro.routing.shortest_path import (
    ancestor_closure,
    ancestors_at_depth,
    routing_graph,
    shortest_path_tree,
    tree_depths,
)
from repro.obs.report import build_run_report
from repro.runtime.cache import ArtifactCache, stage_key

from tests.conftest import build_toy_topology


# --- Adjacency and inbound-interface lookups ----------------------------------


class TestAdjacencyEquivalence:
    def test_neighbors_match_brute_force(self, generated_small):
        topology, _, _ = generated_small
        link_a, link_b = topology.link_endpoints()
        reference: dict[int, set[int]] = {
            rid: set() for rid in range(topology.n_routers)
        }
        for a, b in zip(link_a.tolist(), link_b.tolist()):
            reference[a].add(b)
            reference[b].add(a)
        graph = routing_graph(topology)
        for rid in range(topology.n_routers):
            neighbors = graph.indices[graph.indptr[rid]:graph.indptr[rid + 1]]
            assert sorted(neighbors.tolist()) == sorted(reference[rid])

    def test_degrees_match_scalar_degree(self, generated_small):
        topology, _, _ = generated_small
        link_a, link_b = topology.link_endpoints()
        degrees = topology.degrees()
        assert degrees.shape == (topology.n_routers,)
        for rid in range(0, topology.n_routers, 7):
            scalar = sum(rid in (a, b) for a, b in zip(link_a, link_b))
            assert degrees[rid] == scalar

    def test_link_interfaces_toward_matches_scalar(self, generated_small):
        topology, _, _ = generated_small
        link_a, link_b = topology.link_endpoints()
        sample = slice(0, min(200, topology.n_links))
        forward = topology.link_interfaces_toward(link_a[sample], link_b[sample])
        backward = topology.link_interfaces_toward(link_b[sample], link_a[sample])
        for i in range(forward.shape[0]):
            a, b = int(link_a[i]), int(link_b[i])
            assert forward[i] == topology.link_interface_toward(a, b)
            assert backward[i] == topology.link_interface_toward(b, a)
        # Each inbound interface lives on the responding router.
        owners = topology.interface_routers()
        assert np.array_equal(
            owners[topology.interface_positions(forward)], link_b[sample]
        )
        assert np.array_equal(
            owners[topology.interface_positions(backward)], link_a[sample]
        )

    def test_link_interfaces_toward_rejects_non_adjacent(self):
        topology = build_toy_topology()
        with pytest.raises(TopologyError, match="no link between routers"):
            topology.link_interfaces_toward(
                np.array([0]), np.array([5])
            )


# --- Address index -----------------------------------------------------------


class TestAddressIndex:
    def test_interface_positions_roundtrip(self, generated_small):
        topology, _, _ = generated_small
        addresses = topology.interface_addresses()
        positions = topology.interface_positions(addresses)
        assert np.array_equal(positions, np.arange(topology.n_interfaces))

    def test_interface_positions_flags_unknown(self):
        topology = build_toy_topology()
        known = int(topology.interface_addresses()[0])
        positions = topology.interface_positions(np.array([known, 999_999]))
        assert positions[0] >= 0
        assert positions[1] == -1

    def test_columns_are_read_only(self, generated_small):
        topology, _, _ = generated_small
        lats, lons = topology.router_coordinates()
        for column in (
            lats,
            lons,
            topology.router_asns(),
            topology.router_loopbacks(),
            topology.link_lengths(),
            topology.interface_addresses(),
            topology.interface_routers(),
        ):
            with pytest.raises(ValueError):
                column[0] = 1


# --- npz round-trip ----------------------------------------------------------


def _assert_topology_equal(a, b) -> None:
    assert a.n_routers == b.n_routers
    assert a.n_links == b.n_links
    assert a.n_interfaces == b.n_interfaces
    a_lat, a_lon = a.router_coordinates()
    b_lat, b_lon = b.router_coordinates()
    assert np.array_equal(a_lat, b_lat)
    assert np.array_equal(a_lon, b_lon)
    assert np.array_equal(a.router_asns(), b.router_asns())
    assert np.array_equal(a.router_loopbacks(), b.router_loopbacks())
    assert a.router_city_codes() == b.router_city_codes()
    for left, right in zip(a.link_endpoints(), b.link_endpoints()):
        assert np.array_equal(left, right)
    for left, right in zip(a.link_interfaces(), b.link_interfaces()):
        assert np.array_equal(left, right)
    assert np.array_equal(a.interface_addresses(), b.interface_addresses())
    assert np.array_equal(a.interface_routers(), b.interface_routers())
    assert np.array_equal(a.interface_links(), b.interface_links())
    assert a.hostnames == b.hostnames
    assert list(a.asns) == list(b.asns)
    assert a.asns == b.asns


class TestNpzRoundTrip:
    def test_toy_topology_roundtrip(self, tmp_path):
        topology = build_toy_topology()
        path = tmp_path / "toy.npz"
        topology.to_npz(path)
        restored = type(topology).from_npz(path)
        restored.validate()
        _assert_topology_equal(topology, restored)

    def test_generated_roundtrip(self, generated_small, tmp_path):
        topology, _, _ = generated_small
        path = tmp_path / "generated.npz"
        topology.to_npz(path)
        restored = type(topology).from_npz(path)
        restored.validate()
        _assert_topology_equal(topology, restored)

    def test_extra_strings_survive(self, tmp_path):
        topology = build_toy_topology()
        path = tmp_path / "extra.npz"
        topology.to_npz(path, extra={"meta_json": '{"k": 1}'})
        with np.load(path, allow_pickle=False) as data:
            assert str(data["meta_json"]) == '{"k": 1}'

    def test_extra_key_collision_rejected(self, tmp_path):
        topology = build_toy_topology()
        with pytest.raises(TopologyError, match="collides with a column"):
            topology.to_npz(tmp_path / "bad.npz", extra={"r_lat": "x"})

    def test_restored_queries_work(self, tmp_path):
        topology = build_toy_topology()
        path = tmp_path / "toy.npz"
        topology.to_npz(path)
        restored = type(topology).from_npz(path)
        assert np.array_equal(restored.degrees(), topology.degrees())
        assert restored.link_interdomain()[restored.link_id(2, 3)]
        graph = routing_graph(restored)
        assert graph.shape == (topology.n_routers, topology.n_routers)


class TestGroundTruthCacheCodec:
    def test_cache_roundtrip(self, generated_small, tmp_path):
        truth = generated_small
        cache = ArtifactCache(tmp_path)
        key = stage_key("cfg", "ground_truth", ())
        cache.store(key, truth, codec="ground-truth-npz")
        hit, restored = cache.load(key, codec="ground-truth-npz")
        assert hit
        topology, plan, report = truth
        restored_topology, restored_plan, restored_report = restored
        _assert_topology_equal(topology, restored_topology)
        assert restored_report == report
        assert all(
            isinstance(asn, int) for asn in restored_report.as_sizes
        )
        assert restored_plan.to_dict() == plan.to_dict()


# --- validate() equivalence --------------------------------------------------


class TestValidateInvariants:
    def test_clean_topology_passes(self, generated_small):
        topology, _, _ = generated_small
        topology.validate()

    def test_unknown_as_detected(self):
        topology = build_toy_topology()
        asns = topology._r_asn
        original = asns[0]
        asns[0] = 31337
        topology._invalidate()
        with pytest.raises(TopologyError, match="references unknown AS"):
            topology.validate()
        asns[0] = original
        topology._invalidate()

    def test_missing_loopback_detected(self):
        topology = build_toy_topology()
        topology._r_loopback[0] = 424242
        topology._invalidate()
        with pytest.raises(TopologyError, match="loopback missing"):
            topology.validate()

    def test_inconsistent_link_interface_detected(self):
        topology = build_toy_topology()
        topology._l_ia[0] = topology._l_ia[1]  # another link's interface
        topology._invalidate()
        with pytest.raises(TopologyError, match="inconsistent"):
            topology.validate()


# --- Tree-walk helpers -------------------------------------------------------


@pytest.fixture(scope="module")
def sample_tree(generated_small):
    topology, _, _ = generated_small
    graph = routing_graph(topology)
    source = int(np.argmax(topology.degrees()))
    return topology, shortest_path_tree(graph, source)


class TestTreeHelpers:
    def test_depths_match_path_lengths(self, sample_tree):
        topology, tree = sample_tree
        depths = tree_depths(tree)
        assert depths[tree.source] == 0
        for target in range(0, topology.n_routers, 13):
            if not tree.reachable(target):
                assert depths[target] == -1
            else:
                assert depths[target] == len(tree.path_to(target)) - 1

    def test_ancestors_at_depth_match_paths(self, sample_tree):
        topology, tree = sample_tree
        depths = tree_depths(tree)
        cut = 3
        nodes = np.flatnonzero(depths >= cut)[:50]
        ancestors = ancestors_at_depth(tree, depths, nodes, cut)
        for node, ancestor in zip(nodes.tolist(), ancestors.tolist()):
            assert tree.path_to(node)[cut] == ancestor

    def test_closure_is_union_of_paths(self, sample_tree):
        topology, tree = sample_tree
        depths = tree_depths(tree)
        starts = np.flatnonzero(depths > 0)[:40]
        mask = ancestor_closure(tree, starts)
        expected: set[int] = set()
        for start in starts.tolist():
            expected.update(tree.path_to(start)[1:])
        assert set(np.flatnonzero(mask).tolist()) == expected

    def test_closure_excludes_source(self, sample_tree):
        _, tree = sample_tree
        mask = ancestor_closure(tree, np.array([tree.source]))
        assert not mask[tree.source]
        assert not mask.any()


# --- Bulk inventory updates --------------------------------------------------


class TestInventoryBulkOps:
    def test_add_nodes_idempotent(self):
        inventory = RawInventory(kind="skitter")
        inventory.add_nodes([5, 6, 5])
        inventory.add_nodes([6, 7])
        assert inventory.nodes.tolist() == [5, 6, 7]
        assert inventory.members.tolist() == [5, 6, 7]
        assert inventory.member_nodes.tolist() == [5, 6, 7]
        inventory.validate()

    def test_add_link_pairs_normalises(self):
        inventory = RawInventory(kind="skitter")
        inventory.add_nodes([1, 2, 3])
        inventory.add_link_pairs(np.array([2, 3]), np.array([1, 1]))
        assert sorted(inventory.links.tolist()) == [[1, 2], [1, 3]]
        inventory.validate()

    def test_add_link_pairs_rejects_self_link(self):
        inventory = RawInventory(kind="skitter")
        inventory.add_nodes([1])
        with pytest.raises(MeasurementError, match="self-link"):
            inventory.add_link_pairs(np.array([1]), np.array([1]))

    def test_add_link_pairs_rejects_unknown_endpoint(self):
        inventory = RawInventory(kind="skitter")
        inventory.add_nodes([1])
        with pytest.raises(MeasurementError, match="never recorded"):
            inventory.add_link_pairs(np.array([1]), np.array([9]))


# --- Vectorised address classification ---------------------------------------


class TestIsPrivateMany:
    def test_matches_scalar(self):
        probes = np.array(
            [
                0x0A000001,  # 10.0.0.1
                0xAC100001,  # 172.16.0.1
                0xAC200001,  # 172.32.0.1 (public)
                0xC0A80001,  # 192.168.0.1
                0x10000001,  # 16.0.0.1 (public pool)
            ],
            dtype=np.int64,
        )
        vector = is_private_many(probes)
        for address, flag in zip(probes.tolist(), vector.tolist()):
            assert flag == is_private(address)

    def test_rejects_out_of_range(self):
        with pytest.raises(Exception):
            is_private_many(np.array([-1]))


# --- Determinism through the refactored cache path ---------------------------


class TestArtifactHashDeterminism:
    def test_serial_parallel_and_cache_hit_hashes_match(self, tmp_path):
        config = small_scenario(seed=321)
        serial = run_pipeline(config, cache_dir=tmp_path / "a")
        parallel = run_pipeline(config, cache_dir=tmp_path / "b", jobs=4)
        warm = run_pipeline(config, cache_dir=tmp_path / "a")
        hashes = [
            build_run_report(config=config, result=result).artifacts
            for result in (serial, parallel, warm)
        ]
        assert hashes[0]  # at least one dataset hashed
        assert hashes[0] == hashes[1] == hashes[2]
