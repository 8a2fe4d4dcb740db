"""Tests for repro.net.topology and repro.net.elements."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.geo.coords import GeoPoint
from repro.net.elements import AutonomousSystem
from repro.net.topology import Topology, topology_digest
from repro.routing.shortest_path import routing_graph

from tests.conftest import build_toy_topology


def _add_routers(topology: Topology, asn: int, loopbacks: list[int]):
    n = len(loopbacks)
    return topology.add_routers(
        asn, np.full(n, 40.0), np.full(n, -100.0), "", np.array(loopbacks)
    )


def _add_links(topology: Topology, pairs: list[tuple[int, int]]):
    """Add links between router pairs on fresh addresses 9000, 9001, ..."""
    a, b = np.array(pairs).T
    fresh = 9000 + 2 * np.arange(len(pairs))
    return topology.add_links(a, b, fresh, fresh + 1)


def _assert_unchanged(topology: Topology) -> None:
    """A rejected batch leaves no trace: the toy topology digest holds."""
    assert topology_digest(topology) == topology_digest(build_toy_topology())


class TestElements:
    def test_as_domain_slug(self):
        asys = AutonomousSystem(
            asn=7, name="Alter Net 7", headquarters=GeoPoint(0.0, 0.0)
        )
        assert asys.domain == "alternet7.net"

    def test_as_rejects_bad_asn(self):
        with pytest.raises(TopologyError):
            AutonomousSystem(asn=0, name="x", headquarters=GeoPoint(0.0, 0.0))

    def test_as_rejects_bad_tier(self):
        with pytest.raises(TopologyError):
            AutonomousSystem(
                asn=1, name="x", headquarters=GeoPoint(0.0, 0.0), tier=4
            )


class TestTopologyConstruction:
    def test_toy_shape(self, toy_topology):
        assert toy_topology.n_routers == 6
        assert toy_topology.n_links == 5
        # 6 loopbacks + 2 interfaces per link.
        assert toy_topology.n_interfaces == 6 + 10

    def test_duplicate_asn_rejected(self, toy_topology):
        with pytest.raises(TopologyError):
            toy_topology.add_as(
                AutonomousSystem(asn=100, name="dup", headquarters=GeoPoint(0, 0))
            )

    def test_router_unknown_as_rejected(self, toy_topology):
        with pytest.raises(TopologyError, match="unknown ASN"):
            _add_routers(toy_topology, 999, [5000])
        _assert_unchanged(toy_topology)

    def test_duplicate_loopback_rejected(self, toy_topology):
        with pytest.raises(TopologyError, match="duplicate interface address 1000"):
            _add_routers(toy_topology, 100, [5000, 1000])
        _assert_unchanged(toy_topology)

    def test_duplicate_loopback_within_batch_rejected(self, toy_topology):
        with pytest.raises(TopologyError, match="duplicate interface address 5001"):
            _add_routers(toy_topology, 100, [5000, 5001, 5001])
        _assert_unchanged(toy_topology)

    def test_router_batch_ids_are_consecutive(self, toy_topology):
        ids = _add_routers(toy_topology, 200, [5000, 5001])
        assert ids.tolist() == [6, 7]
        assert toy_topology.router_loopbacks()[6:].tolist() == [5000, 5001]
        assert toy_topology.router_city_codes()[6:] == ["", ""]
        positions = toy_topology.interface_positions(np.array([5000, 5001]))
        assert toy_topology.interface_routers()[positions].tolist() == [6, 7]
        assert toy_topology.interface_links()[positions].tolist() == [-1, -1]
        toy_topology.validate()

    def test_router_batch_with_per_router_owners(self, toy_topology):
        ids = toy_topology.add_routers(
            np.array([200, 100, 200]), np.full(3, 40.0), np.full(3, -100.0),
            ["NYC", "", "LAX"], np.array([5000, 5001, 5002]),
        )
        assert ids.tolist() == [6, 7, 8]
        assert toy_topology.router_asns()[6:].tolist() == [200, 100, 200]
        assert toy_topology.router_city_codes()[6:] == ["NYC", "", "LAX"]
        toy_topology.validate()

    def test_router_batch_unknown_owner_rejected(self, toy_topology):
        with pytest.raises(TopologyError, match="unknown ASN 999"):
            toy_topology.add_routers(
                np.array([100, 999]), np.full(2, 40.0), np.full(2, -100.0),
                "", np.array([5000, 5001]),
            )
        _assert_unchanged(toy_topology)

    def test_self_loop_link_rejected(self, toy_topology):
        with pytest.raises(TopologyError, match="self-loop"):
            _add_links(toy_topology, [(0, 4), (3, 3)])
        _assert_unchanged(toy_topology)

    def test_duplicate_link_rejected(self, toy_topology):
        for pair in ((0, 1), (1, 0)):
            with pytest.raises(TopologyError, match="between routers 0 and 1"):
                _add_links(toy_topology, [(0, 4), pair])
        _assert_unchanged(toy_topology)

    def test_duplicate_link_within_batch_rejected(self, toy_topology):
        for batch in ([(0, 4), (0, 4)], [(0, 4), (4, 0)]):
            with pytest.raises(TopologyError, match="between routers 0 and 4"):
                _add_links(toy_topology, batch)
        _assert_unchanged(toy_topology)

    def test_duplicate_interface_rejected(self, toy_topology):
        with pytest.raises(TopologyError, match="duplicate interface address 2000"):
            toy_topology.add_links([0], [4], [2000], [9001])
        with pytest.raises(TopologyError, match="duplicate interface address 1005"):
            toy_topology.add_links([0], [4], [9000], [1005])
        _assert_unchanged(toy_topology)

    def test_duplicate_interface_within_batch_rejected(self, toy_topology):
        with pytest.raises(TopologyError, match="duplicate interface address 9000"):
            toy_topology.add_links([0, 0], [4, 5], [9000, 9002], [9001, 9000])
        with pytest.raises(TopologyError, match="duplicate interface address 9000"):
            toy_topology.add_links([0], [4], [9000], [9000])
        _assert_unchanged(toy_topology)

    def test_unknown_router_link_rejected(self, toy_topology):
        for a, b in ((0, 77), (77, 0), (-1, 0)):
            with pytest.raises(TopologyError, match="unknown router"):
                toy_topology.add_links([a], [b], [9000], [9001])
        _assert_unchanged(toy_topology)

    def test_endpoint_normalisation(self, toy_topology):
        ids = toy_topology.add_links([5, 1], [0, 3], [9000, 9002], [9001, 9003])
        assert ids.tolist() == [5, 6]
        end_a, end_b = toy_topology.link_endpoints()
        ifc_a, ifc_b = toy_topology.link_interfaces()
        assert (end_a[5], end_b[5], ifc_a[5], ifc_b[5]) == (0, 5, 9001, 9000)
        assert (end_a[6], end_b[6], ifc_a[6], ifc_b[6]) == (1, 3, 9002, 9003)
        # Interfaces keep their owners and are registered (a, b) per link.
        assert toy_topology.interface_addresses()[-4:].tolist() == [
            9001, 9000, 9002, 9003
        ]
        assert toy_topology.interface_routers()[-4:].tolist() == [0, 5, 1, 3]
        assert toy_topology.interface_links()[-4:].tolist() == [5, 5, 6, 6]
        assert toy_topology.link_id(5, 0) == 5
        toy_topology.validate()


class TestTopologyQueries:
    def test_neighbors(self, toy_topology):
        graph = routing_graph(toy_topology)
        assert graph[1].indices.tolist() == [0, 2]
        assert graph[0].indices.tolist() == [1]

    def test_degree(self, toy_topology):
        assert toy_topology.degrees().tolist() == [1, 2, 2, 2, 2, 1]

    def test_has_link_symmetric(self, toy_topology):
        assert toy_topology.has_link(0, 1)
        assert toy_topology.has_link(1, 0)
        assert not toy_topology.has_link(0, 5)

    def test_interdomain_flag(self, toy_topology):
        interdomain = toy_topology.link_interdomain()
        assert interdomain[toy_topology.link_id(2, 3)]
        assert not interdomain[toy_topology.link_id(0, 1)]

    def test_link_lengths_positive(self, toy_topology):
        lengths = toy_topology.link_lengths()
        assert lengths.shape == (5,)
        assert np.all(lengths > 0)

    def test_router_coordinates(self, toy_topology):
        lats, lons = toy_topology.router_coordinates()
        assert lats.shape == (6,)
        assert lats[0] == pytest.approx(37.77)

    def test_router_asns(self, toy_topology):
        asns = toy_topology.router_asns()
        assert asns.tolist() == [100, 100, 100, 200, 200, 200]

    def test_link_id_either_order(self, toy_topology):
        assert toy_topology.link_id(3, 4) == toy_topology.link_id(4, 3) == 3

    def test_link_id_missing_raises(self, toy_topology):
        with pytest.raises(TopologyError, match="no link between routers 0 and 5"):
            toy_topology.link_id(0, 5)

    def test_link_interface_toward(self, toy_topology):
        ifc_a, ifc_b = toy_topology.link_interfaces()
        link = toy_topology.link_id(0, 1)
        toward_1 = toy_topology.link_interface_toward(0, 1)
        toward_0 = toy_topology.link_interface_toward(1, 0)
        assert {toward_0, toward_1} == {int(ifc_a[link]), int(ifc_b[link])}
        # The interface toward router 1 must belong to router 1.
        position = toy_topology.interface_positions(np.array([toward_1]))
        assert toy_topology.interface_routers()[position].tolist() == [1]


class TestRoutingGraph:
    def test_symmetric_csr(self, toy_topology):
        graph = routing_graph(toy_topology)
        dense = graph.toarray()
        assert np.allclose(dense, dense.T)
        assert dense[0, 1] > 0

    def test_hop_cost_added(self, toy_topology):
        no_cost = routing_graph(toy_topology, hop_cost=0.0).toarray()
        with_cost = routing_graph(toy_topology, hop_cost=100.0).toarray()
        nz = no_cost > 0
        assert np.allclose(with_cost[nz] - no_cost[nz], 100.0)

    def test_empty_topology_rejected(self):
        with pytest.raises(TopologyError):
            routing_graph(Topology())


class TestValidate:
    def test_valid_topology_passes(self, toy_topology):
        toy_topology.validate()

    def test_corruption_detected(self, toy_topology):
        # Simulate corruption: break an interface's link reference.
        address = toy_topology.link_interfaces()[0][0]
        position = toy_topology.interface_positions(np.array([address]))[0]
        toy_topology._i_link[position] = 99
        toy_topology._invalidate()
        with pytest.raises(TopologyError, match="inconsistent"):
            toy_topology.validate()
