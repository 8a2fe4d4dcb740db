"""Tests for repro.measure.skitter."""

import numpy as np
import pytest

from repro.config import SkitterConfig
from repro.errors import MeasurementError
from repro.measure.skitter import (
    SkitterCampaign,
    choose_monitors,
    plan_campaign,
    run_skitter,
)


def _owners(topology, addresses) -> list[int]:
    """Owning router id of each interface address, in the given order."""
    positions = topology.interface_positions(np.array(list(addresses)))
    assert np.all(positions >= 0)
    return topology.interface_routers()[positions].tolist()


def _config(**overrides) -> SkitterConfig:
    base = dict(n_monitors=2, destinations_per_monitor=4, response_rate=1.0)
    base.update(overrides)
    return SkitterConfig(**base)


class TestChooseMonitors:
    def test_monitors_in_distinct_ases_when_possible(self, toy_topology):
        monitors = choose_monitors(toy_topology, 2, np.random.default_rng(0))
        asns = set(toy_topology.router_asns()[monitors].tolist())
        assert len(asns) == 2

    def test_relaxes_distinct_as_constraint(self, toy_topology):
        # Only 2 ASes exist; asking for 4 monitors must still succeed.
        monitors = choose_monitors(toy_topology, 4, np.random.default_rng(0))
        assert len(set(monitors)) == 4

    def test_too_many_monitors_raise(self, toy_topology):
        with pytest.raises(MeasurementError):
            choose_monitors(toy_topology, 7, np.random.default_rng(0))


class TestPlanCampaign:
    def test_destination_lists_sized(self, toy_topology):
        campaign = plan_campaign(toy_topology, _config(), np.random.default_rng(1))
        assert len(campaign.monitors) == 2
        for dests in campaign.destination_lists:
            assert dests.shape == (4,)
            assert len(set(dests.tolist())) == 4

    def test_destination_count_capped_at_router_count(self, toy_topology):
        config = _config(destinations_per_monitor=100)
        campaign = plan_campaign(toy_topology, config, np.random.default_rng(1))
        assert all(d.shape[0] == 6 for d in campaign.destination_lists)


class TestRunSkitter:
    def test_full_probing_from_chain_end(self, toy_topology):
        # Monitor at router 0 probing everything on a chain topology
        # observes the inbound interface of every other router.
        campaign = SkitterCampaign(
            monitors=[0], destination_lists=[np.arange(1, 6)]
        )
        inventory = run_skitter(
            toy_topology, _config(n_monitors=1), np.random.default_rng(0),
            campaign=campaign,
        )
        inventory.validate()
        assert inventory.kind == "skitter"
        # 4 intermediate inbound interfaces + 5 destination loopbacks.
        routers_seen = set(_owners(toy_topology, inventory.nodes))
        assert routers_seen == {1, 2, 3, 4, 5}

    def test_destinations_recorded_as_loopbacks(self, toy_topology):
        campaign = SkitterCampaign(
            monitors=[0], destination_lists=[np.array([5])]
        )
        inventory = run_skitter(
            toy_topology, _config(n_monitors=1), np.random.default_rng(0),
            campaign=campaign,
        )
        loopback = int(toy_topology.router_loopbacks()[5])
        assert loopback in inventory.destinations
        assert loopback in inventory.nodes

    def test_links_connect_consecutive_hops(self, toy_topology):
        campaign = SkitterCampaign(
            monitors=[0], destination_lists=[np.array([3])]
        )
        inventory = run_skitter(
            toy_topology, _config(n_monitors=1), np.random.default_rng(0),
            campaign=campaign,
        )
        # Path 0-1-2-3 yields adjacencies between hops 1-2 and 2-3.
        assert inventory.n_links == 2

    def test_silent_router_breaks_adjacency(self, toy_topology):
        # With response_rate ~ 0 only the destination (forced responsive
        # monitors aside) can appear; no links should be recorded across
        # silent gaps.
        campaign = SkitterCampaign(
            monitors=[0], destination_lists=[np.array([5])]
        )
        inventory = run_skitter(
            toy_topology,
            _config(n_monitors=1, response_rate=1e-12),
            np.random.default_rng(0),
            campaign=campaign,
        )
        assert inventory.n_links == 0

    def test_max_hops_limits_reach(self, toy_topology):
        campaign = SkitterCampaign(
            monitors=[0], destination_lists=[np.array([5])]
        )
        inventory = run_skitter(
            toy_topology,
            SkitterConfig(
                n_monitors=1, destinations_per_monitor=1, response_rate=1.0,
                max_hops=2,
            ),
            np.random.default_rng(0),
            campaign=campaign,
        )
        routers_seen = set(_owners(toy_topology, inventory.nodes))
        assert routers_seen == {1, 2}

    def test_union_of_monitors_sees_more(self, generated_small):
        topology, _, _ = generated_small
        few = run_skitter(
            topology,
            SkitterConfig(n_monitors=1, destinations_per_monitor=150),
            np.random.default_rng(5),
        )
        many = run_skitter(
            topology,
            SkitterConfig(n_monitors=6, destinations_per_monitor=150),
            np.random.default_rng(5),
        )
        assert many.n_nodes > few.n_nodes
        assert many.n_links > few.n_links

    def test_observed_subgraph_of_ground_truth(self, generated_small):
        topology, _, _ = generated_small
        inventory = run_skitter(
            topology,
            SkitterConfig(n_monitors=3, destinations_per_monitor=120),
            np.random.default_rng(6),
        )
        for a, b in list(inventory.links)[:200]:
            ra, rb = _owners(topology, [a, b])
            assert topology.has_link(ra, rb)
