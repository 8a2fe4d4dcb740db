"""Tests for repro.measure.mercator and repro.measure.alias."""

import numpy as np
import pytest

from repro.config import MercatorConfig
from repro.errors import MeasurementError
from repro.measure.alias import merge_members, resolve_aliases
from repro.measure.mercator import run_mercator


def _owners(topology, addresses) -> list[int]:
    """Owning router id of each interface address, in the given order."""
    positions = topology.interface_positions(np.array(list(addresses)))
    assert np.all(positions >= 0)
    return topology.interface_routers()[positions].tolist()


class TestResolveAliases:
    def test_full_success_collapses_to_loopbacks(self, toy_topology):
        ifc_a, ifc_b = toy_topology.link_interfaces()
        addresses = np.unique(np.concatenate([ifc_a, ifc_b]))
        mapping = resolve_aliases(
            toy_topology, addresses, np.random.default_rng(0), 1.0
        )
        loopbacks = toy_topology.router_loopbacks()
        for address, canonical in zip(addresses.tolist(), mapping.tolist()):
            (router,) = _owners(toy_topology, [address])
            assert canonical == loopbacks[router]

    def test_failure_leaves_interfaces_alone(self, toy_topology):
        address = int(toy_topology.link_interfaces()[0][0])
        mapping = resolve_aliases(
            toy_topology, [address], np.random.default_rng(0), 1e-12
        )
        assert mapping.tolist() == [address]

    def test_unknown_address_raises(self, toy_topology):
        with pytest.raises(MeasurementError):
            resolve_aliases(
                toy_topology, [424242], np.random.default_rng(0), 1.0
            )

    def test_bad_rate_raises(self, toy_topology):
        with pytest.raises(MeasurementError):
            resolve_aliases(toy_topology, [], np.random.default_rng(0), 0.0)

    def test_merge_members_inverts_mapping(self):
        members, nodes = merge_members([1, 2, 3], [100, 100, 3])
        assert nodes.tolist() == [3, 100, 100, 100]
        assert members.tolist() == [3, 1, 2, 100]


class TestRunMercator:
    def _config(self, **overrides) -> MercatorConfig:
        base = dict(
            n_targets=5, n_source_routed=4, response_rate=1.0,
            alias_resolution_rate=1.0,
        )
        base.update(overrides)
        return MercatorConfig(**base)

    def test_router_level_nodes(self, toy_topology):
        inventory = run_mercator(
            toy_topology, self._config(), np.random.default_rng(0), source=0
        )
        inventory.validate()
        assert inventory.kind == "mercator"
        loopbacks = set(toy_topology.router_loopbacks().tolist())
        assert set(inventory.nodes.tolist()) <= loopbacks

    def test_alias_members_recorded(self, toy_topology):
        inventory = run_mercator(
            toy_topology, self._config(), np.random.default_rng(0), source=0
        )
        multi = [
            n for n in inventory.nodes if len(inventory.interfaces_of(n)) > 1
        ]
        assert multi  # middle routers have several observed interfaces

    def test_no_self_links_after_merging(self, toy_topology):
        inventory = run_mercator(
            toy_topology, self._config(), np.random.default_rng(0), source=0
        )
        for a, b in inventory.links:
            assert a != b

    def test_alias_failures_inflate_node_count(self, generated_small):
        topology, _, _ = generated_small
        merged = run_mercator(
            topology,
            self._config(n_targets=300, n_source_routed=100),
            np.random.default_rng(1),
        )
        unmerged = run_mercator(
            topology,
            self._config(
                n_targets=300, n_source_routed=100,
                alias_resolution_rate=0.05,
            ),
            np.random.default_rng(1),
        )
        assert unmerged.n_nodes > merged.n_nodes

    def test_source_routing_discovers_lateral_links(self, generated_small):
        topology, _, _ = generated_small
        no_lateral = run_mercator(
            topology,
            self._config(n_targets=300, n_source_routed=0),
            np.random.default_rng(2),
            source=0,
        )
        lateral = run_mercator(
            topology,
            self._config(n_targets=300, n_source_routed=400),
            np.random.default_rng(2),
            source=0,
        )
        assert lateral.n_links > no_lateral.n_links

    def test_links_are_real_adjacencies(self, generated_small):
        topology, _, _ = generated_small
        inventory = run_mercator(
            topology,
            self._config(n_targets=200, n_source_routed=100),
            np.random.default_rng(3),
        )
        # A node is a router's loopback or, where alias resolution
        # failed, one of its interfaces: either way its owner is the router.
        for a, b in list(inventory.links)[:200]:
            ra, rb = _owners(topology, [a, b])
            assert topology.has_link(ra, rb)

    def test_tiny_topology_rejected(self):
        from repro.net.topology import Topology

        with pytest.raises(Exception):
            run_mercator(
                Topology(), self._config(), np.random.default_rng(0)
            )
