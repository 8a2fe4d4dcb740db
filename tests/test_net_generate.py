"""Tests for repro.net.generate (the planted ground truth)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.config import GroundTruthConfig, small_scenario
from repro.errors import ConfigError
from repro.geo.distance import haversine_miles
from repro.net.topology import topology_digest
from repro.net.generate import GroundTruthGenerator, generate_ground_truth
from repro.net.ip import is_private
from repro.population.worldmodel import build_world


class TestConfigValidation:
    def test_too_few_routers_rejected(self):
        with pytest.raises(ConfigError):
            GroundTruthConfig(total_routers=5)

    def test_too_many_ases_rejected(self):
        with pytest.raises(ConfigError):
            GroundTruthConfig(total_routers=100, n_ases=200)

    def test_tier_counts_must_fit(self):
        with pytest.raises(ConfigError):
            GroundTruthConfig(n_ases=50, tier1_count=30, tier2_count=30)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            GroundTruthConfig(long_range_fraction=1.5)


def _assert_each_as_connected(topology):
    """Every AS's routers form one component over its intra-AS links."""
    a, b = topology.link_endpoints()
    r_asn = topology.router_asns()
    intra = r_asn[a] == r_asn[b]
    n = topology.n_routers
    graph = csr_matrix(
        (np.ones(int(intra.sum()), dtype=np.int8), (a[intra], b[intra])),
        shape=(n, n),
    )
    _, labels = connected_components(graph, directed=False)
    for asn in np.unique(r_asn).tolist():
        member_labels = labels[r_asn == asn]
        assert np.all(member_labels == member_labels[0]), (
            f"AS {asn} is internally disconnected"
        )


class TestGeneratedTopology:
    def test_router_count_close_to_target(self, generated_small):
        topology, _, report = generated_small
        assert abs(topology.n_routers - 800) / 800 < 0.15

    def test_topology_validates(self, generated_small):
        topology, _, _ = generated_small
        topology.validate()  # raises on inconsistency

    def test_all_ases_have_routers(self, generated_small):
        topology, _, report = generated_small
        assert set(report.as_sizes) == set(topology.asns)
        assert all(size >= 1 for size in report.as_sizes.values())

    def test_as_sizes_long_tailed(self, generated_small):
        _, _, report = generated_small
        sizes = np.array(sorted(report.as_sizes.values(), reverse=True))
        assert sizes[0] >= 10 * sizes[len(sizes) // 2]

    def test_no_isolated_routers(self, generated_small):
        topology, _, _ = generated_small
        assert np.all(topology.degrees() > 0)

    def test_interdomain_fraction_in_band(self, generated_small):
        _, _, report = generated_small
        assert 0.05 <= report.interdomain_fraction <= 0.35

    def test_mean_degree_near_target(self, generated_small):
        topology, _, _ = generated_small
        mean_degree = 2.0 * topology.n_links / topology.n_routers
        assert 2.0 <= mean_degree <= 4.5

    def test_each_as_internally_connected(self, generated_small):
        topology, _, _ = generated_small
        _assert_each_as_connected(topology)

    def test_whole_graph_one_component(self, generated_small):
        topology, _, _ = generated_small
        from repro.routing.shortest_path import largest_component

        component = largest_component(topology.routing_graph())
        assert component.size == topology.n_routers

    def test_hostnames_assigned_to_every_interface(self, generated_small):
        topology, _, _ = generated_small
        addresses = set(topology.interface_addresses().tolist())
        assert set(topology.hostnames) == addresses

    def test_some_private_interfaces_planted(self, generated_small):
        topology, _, _ = generated_small
        private = [
            a for a in topology.interface_addresses().tolist() if is_private(a)
        ]
        # ~0.5% of interfaces; should exist but stay rare.
        assert 0 < len(private) < 0.03 * topology.n_interfaces

    def test_interface_addresses_unique(self, generated_small):
        topology, _, _ = generated_small
        addresses = topology.interface_addresses().tolist()
        assert len(addresses) == len(set(addresses))

    def test_addresses_belong_to_owner_as_blocks(self, generated_small):
        topology, plan, _ = generated_small
        checked = 0
        owner_asns = topology.router_asns()[topology.interface_routers()]
        for address, asn in zip(
            topology.interface_addresses().tolist(), owner_asns.tolist()
        ):
            if is_private(address):
                continue
            assert any(p.contains(address) for p in plan.prefixes_of(asn))
            checked += 1
            if checked > 500:
                break

    def test_report_matches_topology(self, generated_small):
        topology, _, report = generated_small
        assert report.n_routers == topology.n_routers
        assert report.n_links == topology.n_links
        assert report.n_interfaces == topology.n_interfaces

    def test_intradomain_links_shorter_on_average(self, generated_small):
        topology, _, _ = generated_small
        lengths = topology.link_lengths()
        inter = topology.link_interdomain()
        assert lengths[~inter].mean() < lengths[inter].mean()

    def test_city_routers_carry_city_codes(self, generated_small):
        topology, _, _ = generated_small
        with_code = sum(1 for code in topology.router_city_codes() if code)
        assert with_code > 0.8 * topology.n_routers

    def test_deterministic_given_seed(self, world_small):
        config = GroundTruthConfig(
            total_routers=200, n_ases=20, tier1_count=2, tier2_count=4
        )
        t1, _, _ = generate_ground_truth(
            world_small, config, np.random.default_rng(3)
        )
        t2, _, _ = generate_ground_truth(
            world_small, config, np.random.default_rng(3)
        )
        # The digest covers every router, link and interface column plus
        # the hostnames, so nondeterminism in any of them shows.
        assert topology_digest(t1) == topology_digest(t2)


class _ReferenceGenerator(GroundTruthGenerator):
    """The generator with its link stage written the straightforward way.

    Each link goes into the topology as soon as it is accepted, PoP
    lists and weights are rebuilt per interdomain link, and every
    distance goes through :func:`haversine_miles`.  The production
    generator must draw the same random numbers in the same order and
    build the same topology.
    """

    def _add_link_checked(self, ra, rb):
        if ra == rb or self.topology.has_link(ra, rb):
            return False
        asn_a = int(self.topology.router_asns()[ra])
        asn_b = int(self.topology.router_asns()[rb])
        self.topology.add_links(
            [ra], [rb],
            [self._allocate_address(asn_a)], [self._allocate_address(asn_b)],
        )
        return True

    def _backbone_links(self, spec):
        gateways = np.asarray(
            [routers[0] for routers in spec.routers_by_city.values()],
            dtype=np.intp,
        )
        k = gateways.shape[0]
        if k <= 1:
            return
        all_lats, all_lons = self.topology.router_coordinates()
        lats = all_lats[gateways]
        lons = all_lons[gateways]
        min_dist = haversine_miles(lats[0], lons[0], lats, lons)
        min_dist[0] = np.inf
        closest = np.zeros(k, dtype=np.intp)
        in_tree = np.zeros(k, dtype=bool)
        in_tree[0] = True
        pairs_a, pairs_b = [], []
        for _ in range(k - 1):
            j = int(np.argmin(min_dist))
            pairs_a.append(int(gateways[j]))
            pairs_b.append(int(gateways[closest[j]]))
            in_tree[j] = True
            min_dist[j] = np.inf
            dists = haversine_miles(lats[j], lons[j], lats, lons)
            update = ~in_tree & (dists < min_dist)
            min_dist[update] = dists[update]
            closest[update] = j
        self._add_links_batch(pairs_a, pairs_b)

    def _waxman_extra_links(self, spec, n_extra):
        members = np.array(spec.router_ids)
        if members.size < 3 or n_extra <= 0:
            return
        all_lats, all_lons = self.topology.router_coordinates()
        lats = all_lats[members]
        lons = all_lons[members]
        zones = [self._zone_names[self._router_zone[r]] for r in members]
        added = 0
        attempts = 0
        while added < n_extra and attempts < n_extra * 8:
            attempts += 1
            ui = int(self.rng.integers(members.size))
            if self.rng.random() < self.config.long_range_fraction:
                vi = int(self.rng.integers(members.size))
            else:
                scale = self._waxman_l_for_zone(zones[ui])
                dists = haversine_miles(lats[ui], lons[ui], lats, lons)
                weights = np.exp(-dists / scale)
                weights[ui] = 0.0
                total = weights.sum()
                if total <= 0:
                    continue
                vi = int(self.rng.choice(members.size, p=weights / total))
            if self._add_link_checked(int(members[ui]), int(members[vi])):
                added += 1

    def _physical_interdomain_link(self, x, y):
        x_cities = [c for c in x.routers_by_city if c >= 0]
        y_cities = [c for c in y.routers_by_city if c >= 0]
        if not x_cities or not y_cities:
            x_all = x.router_ids
            y_all = y.router_ids
            self._add_link_checked(
                int(x_all[int(self.rng.integers(len(x_all)))]),
                int(y_all[int(self.rng.integers(len(y_all)))]),
            )
            return
        weights = np.array(
            [len(x.routers_by_city[c]) for c in x_cities], dtype=float
        )
        cx = x_cities[int(self.rng.choice(len(x_cities), p=weights / weights.sum()))]
        dists = haversine_miles(
            self._city_lat[cx], self._city_lon[cx],
            self._city_lat[y_cities], self._city_lon[y_cities],
        )
        cy = y_cities[int(np.argmin(dists))]
        rx = x.routers_by_city[cx][int(self.rng.integers(len(x.routers_by_city[cx])))]
        ry = y.routers_by_city[cy][int(self.rng.integers(len(y.routers_by_city[cy])))]
        self._add_link_checked(rx, ry)


def _outcome(cls, world, config, rng):
    """A generator run's topology, and everything the run leaves behind."""
    generator = cls(world, config, rng)
    topology = generator.generate()
    return topology, (
        topology_digest(topology),
        generator.report,
        generator.plan.to_dict(),
        rng.random(),
    )


def _assert_matches_reference(world, config, rng):
    state = rng.bit_generator.state
    reference_rng = np.random.default_rng()
    reference_rng.bit_generator.state = state
    _, expected = _outcome(_ReferenceGenerator, world, config, reference_rng)
    topology, outcome = _outcome(GroundTruthGenerator, world, config, rng)
    assert outcome == expected
    return topology, outcome


@st.composite
def _configs(draw):
    total = draw(st.integers(10, 300))
    n_ases = draw(st.integers(3, min(total, 40)))
    tier1 = draw(st.integers(1, n_ases - 2))
    tier2 = draw(st.integers(0, n_ases - tier1 - 1))
    fraction = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    return GroundTruthConfig(
        total_routers=total,
        n_ases=n_ases,
        tier1_count=tier1,
        tier2_count=tier2,
        mean_links_per_router=draw(st.floats(1.0, 3.0)),
        long_range_fraction=draw(fraction),
        interdomain_link_fraction=draw(st.floats(0.0, 0.5)),
        as_size_exponent=draw(st.floats(0.3, 2.0)),
        global_dispersal_threshold=draw(st.integers(1, 400)),
        small_global_probability=draw(fraction),
        rural_router_fraction=draw(
            st.one_of(st.just(0.0), st.floats(0.0, 0.3))
        ),
    )


class TestReferenceEquality:
    """The buffered, array-reusing generator equals the reference one."""

    @settings(max_examples=60, deadline=None)
    @given(config=_configs(), seed=st.integers(0, 2**32 - 1))
    def test_drawn_configs(self, world_small, config, seed):
        topology, _ = _assert_matches_reference(
            world_small, config, np.random.default_rng(seed)
        )
        # No pass repairs connectivity: the construction must give it.
        _assert_each_as_connected(topology)

    def test_single_router_ases(self, world_small):
        # Nearly one router per AS: most ASes have no second member,
        # so only interdomain links and the fallback path connect them.
        config = GroundTruthConfig(
            total_routers=40, n_ases=38, tier1_count=2, tier2_count=6,
            rural_router_fraction=0.0,
        )
        _, outcome = _assert_matches_reference(
            world_small, config, np.random.default_rng(8)
        )
        assert list(outcome[1].as_sizes.values()).count(1) > 20

    @pytest.mark.parametrize("seed", [5, 11])
    def test_small_scenarios(self, seed):
        scenario = small_scenario(seed)
        rng = np.random.default_rng(scenario.seed)
        world = build_world(rng, city_scale=scenario.city_scale)
        _assert_matches_reference(world, scenario.ground_truth, rng)
