"""Tests for repro.net.generate (the planted ground truth)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GroundTruthConfig, small_scenario
from repro.errors import ConfigError
from repro.geo.distance import haversine_miles
from repro.ingest.apply import topology_digest
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
        for router in topology.routers:
            assert topology.degree(router.router_id) > 0

    def test_interdomain_fraction_in_band(self, generated_small):
        _, _, report = generated_small
        assert 0.05 <= report.interdomain_fraction <= 0.35

    def test_mean_degree_near_target(self, generated_small):
        topology, _, _ = generated_small
        mean_degree = 2.0 * topology.n_links / topology.n_routers
        assert 2.0 <= mean_degree <= 4.5

    def test_each_as_internally_connected(self, generated_small):
        topology, _, _ = generated_small
        by_asn: dict[int, list[int]] = {}
        for router in topology.routers:
            by_asn.setdefault(router.asn, []).append(router.router_id)
        for asn, members in by_asn.items():
            member_set = set(members)
            seen = {members[0]}
            stack = [members[0]]
            while stack:
                current = stack.pop()
                for neighbor in topology.neighbors(current):
                    if neighbor in member_set and neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            assert seen == member_set, f"AS {asn} is internally disconnected"

    def test_whole_graph_one_component(self, generated_small):
        topology, _, _ = generated_small
        from repro.routing.shortest_path import largest_component

        component = largest_component(topology.routing_graph())
        assert component.size == topology.n_routers

    def test_hostnames_assigned_to_every_interface(self, generated_small):
        topology, _, _ = generated_small
        assert set(topology.hostnames) == set(topology.interfaces)

    def test_some_private_interfaces_planted(self, generated_small):
        topology, _, _ = generated_small
        private = [a for a in topology.interfaces if is_private(a)]
        # ~0.5% of interfaces; should exist but stay rare.
        assert 0 < len(private) < 0.03 * topology.n_interfaces

    def test_interface_addresses_unique(self, generated_small):
        topology, _, _ = generated_small
        addresses = list(topology.interfaces)
        assert len(addresses) == len(set(addresses))

    def test_addresses_belong_to_owner_as_blocks(self, generated_small):
        topology, plan, _ = generated_small
        checked = 0
        for address, iface in topology.interfaces.items():
            if is_private(address):
                continue
            asn = topology.routers[iface.router_id].asn
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
        inter = np.array([link.interdomain for link in topology.links])
        assert lengths[~inter].mean() < lengths[inter].mean()

    def test_city_routers_carry_city_codes(self, generated_small):
        topology, _, _ = generated_small
        with_code = sum(1 for r in topology.routers if r.city_code)
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
    lists and weights are rebuilt per interdomain link, components are
    found one AS at a time, and every distance goes through
    :func:`haversine_miles`.  The production generator must draw the
    same random numbers in the same order and build the same topology.
    """

    def _add_link_checked(self, ra, rb):
        if ra == rb or self.topology.has_link(ra, rb):
            return False
        asn_a = int(self.topology.router_asns()[ra])
        asn_b = int(self.topology.router_asns()[rb])
        self.topology.add_link(
            ra, rb, self._allocate_address(asn_a), self._allocate_address(asn_b)
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

    def _connect_as_components(self, specs):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        for spec in specs:
            members = np.asarray(spec.router_ids, dtype=np.intp)
            if members.size < 2:
                continue
            a, b = self.topology.link_endpoints()
            r_asn = self.topology.router_asns()
            sel = (r_asn[a] == spec.asn) & (r_asn[b] == spec.asn)
            sorted_members = np.sort(members)
            la = np.searchsorted(sorted_members, a[sel])
            lb = np.searchsorted(sorted_members, b[sel])
            graph = csr_matrix(
                (np.ones(la.shape[0], dtype=np.int8), (la, lb)),
                shape=(members.size, members.size),
            )
            n_components, labels = connected_components(graph, directed=False)
            if n_components <= 1:
                continue
            labels_in_order = labels[np.searchsorted(sorted_members, members)]
            representatives = {}
            for rid, label in zip(members.tolist(), labels_in_order.tolist()):
                representatives.setdefault(int(label), rid)
            base_label = int(labels_in_order[0])
            base = int(members[0])
            for label, rid in representatives.items():
                if label != base_label:
                    self._add_link_checked(base, rid)


class _WithoutBackbone:
    """Skips the per-AS backbone trees.

    With full structural links every AS is connected and no router is
    isolated, so the two repair passes (``_attach_isolated`` and
    ``_connect_as_components``) add nothing.  Without the trees, ASes
    fall apart into per-city chains and rural routers start isolated,
    and both passes do real work.
    """

    def _backbone_links(self, spec):
        pass


class _RepairCounter(_WithoutBackbone, GroundTruthGenerator):
    """Counts the links each repair pass adds."""

    def __init__(self, *args):
        super().__init__(*args)
        self.added = {}

    def _counted(self, name, specs):
        self._flush_links()
        before = self.topology.n_links
        getattr(super(), name)(specs)
        self._flush_links()
        self.added[name] = self.topology.n_links - before

    def _attach_isolated(self, specs):
        self._counted("_attach_isolated", specs)

    def _connect_as_components(self, specs):
        self._counted("_connect_as_components", specs)


def _outcome(cls, world, config, rng):
    """Everything a generator run leaves behind."""
    generator = cls(world, config, rng)
    topology = generator.generate()
    return (
        topology_digest(topology),
        generator.report,
        generator.plan.to_dict(),
        rng.random(),
    )


def _assert_matches_reference(world, config, rng):
    state = rng.bit_generator.state
    reference_rng = np.random.default_rng()
    reference_rng.bit_generator.state = state
    expected = _outcome(_ReferenceGenerator, world, config, reference_rng)
    assert _outcome(GroundTruthGenerator, world, config, rng) == expected
    return expected


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
        _assert_matches_reference(
            world_small, config, np.random.default_rng(seed)
        )

    def test_single_router_ases(self, world_small):
        # Nearly one router per AS: most ASes have no second member,
        # so only interdomain links and the fallback path connect them.
        config = GroundTruthConfig(
            total_routers=40, n_ases=38, tier1_count=2, tier2_count=6,
            rural_router_fraction=0.0,
        )
        outcome = _assert_matches_reference(
            world_small, config, np.random.default_rng(8)
        )
        assert list(outcome[1].as_sizes.values()).count(1) > 20

    @pytest.mark.parametrize("seed", [3, 4])
    def test_repair_passes(self, world_small, seed):
        config = GroundTruthConfig(
            total_routers=400, n_ases=30, tier1_count=3, tier2_count=6,
            rural_router_fraction=0.1,
        )
        outcomes = [
            _outcome(
                type(cls.__name__, (_WithoutBackbone, cls), {}),
                world_small, config, np.random.default_rng(seed),
            )
            for cls in (_ReferenceGenerator, GroundTruthGenerator)
        ]
        assert outcomes[1] == outcomes[0]
        # Both passes did real work on this input.
        counter = _RepairCounter(world_small, config, np.random.default_rng(seed))
        counter.generate()
        assert counter.added["_attach_isolated"] > 0
        assert counter.added["_connect_as_components"] > 0

    @pytest.mark.parametrize("seed", [5, 11])
    def test_small_scenarios(self, seed):
        scenario = small_scenario(seed)
        rng = np.random.default_rng(scenario.seed)
        world = build_world(rng, city_scale=scenario.city_scale)
        _assert_matches_reference(world, scenario.ground_truth, rng)
