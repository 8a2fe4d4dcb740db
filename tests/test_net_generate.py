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
from repro.geo.distance import haversine_matrix_radians, haversine_operands
from repro.net import generate
from repro.net.generate import (
    _NAME_STEMS,
    GroundTruthGenerator,
    _AsSpec,
    _distance_blocks,
    generate_ground_truth,
)
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

    def test_tier1_required(self):
        # Tier-2 ASes draw their providers from tier 1.
        with pytest.raises(ConfigError, match="tier1_count"):
            GroundTruthConfig(total_routers=200, n_ases=20, tier1_count=0)

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
        from repro.routing.shortest_path import largest_component, routing_graph

        component = largest_component(routing_graph(topology))
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
    """The generator written the straightforward way.

    Every weighted or paired draw is a ``rng.choice`` call, each batch of
    routers and each link goes into the topology as soon as it is drawn,
    PoP lists and weights are rebuilt per interdomain link, and every
    distance goes through :func:`haversine_miles`.  The production
    generator must draw the same random numbers in the same order and
    build the same topology.
    """

    def _make_as_specs(self, attraction):
        cfg = self.config
        sizes = self._as_sizes()
        budgets = self._zone_budgets().astype(float)
        zone_probs = budgets / budgets.sum()
        specs = []
        for rank in range(cfg.n_ases):
            asn = 100 + rank
            tier = 1 if rank < cfg.tier1_count else (
                2 if rank < cfg.tier1_count + cfg.tier2_count else 3
            )
            zone = int(self.rng.choice(len(self.world.zones), p=zone_probs))
            zone_cities = np.flatnonzero(self._city_zone == zone)
            weights = attraction[zone_cities]
            if weights.sum() <= 0:
                weights = np.ones(zone_cities.size)
            home = int(self.rng.choice(zone_cities, p=weights / weights.sum()))
            roll = self.rng.random()
            if roll < 0.8:
                adherence = float(self.rng.uniform(0.82, 0.98))
            elif roll < 0.94:
                adherence = float(self.rng.uniform(0.1, 0.6))
            else:
                adherence = 0.0
            specs.append(
                _AsSpec(
                    asn=asn,
                    name=f"{_NAME_STEMS[rank % len(_NAME_STEMS)]}{asn}",
                    tier=tier,
                    target_size=int(sizes[rank]),
                    adherence=adherence,
                    home_city=home,
                )
            )
        return specs

    def _choose_pop_cities(self, specs, attraction):
        cfg = self.config
        n_cities = len(self.world.cities)
        for spec in specs:
            raw = spec.target_size**0.72 * float(self.rng.lognormal(0.0, 0.4))
            n_pops = int(
                np.clip(
                    round(raw),
                    1,
                    min(
                        max(1, int(np.ceil(spec.target_size * cfg.max_pops_fraction))),
                        n_cities,
                    ),
                )
            )
            globally = (
                spec.target_size > cfg.global_dispersal_threshold
                or spec.tier == 1
                or self.rng.random() < cfg.small_global_probability
            )
            if globally:
                candidates = np.arange(n_cities)
            else:
                dist = haversine_miles(
                    self._city_lat[spec.home_city],
                    self._city_lon[spec.home_city],
                    self._city_lat,
                    self._city_lon,
                )
                radius = float(self.rng.lognormal(np.log(300.0), 1.1))
                candidates = np.flatnonzero(dist <= radius)
                if candidates.size < n_pops:
                    candidates = np.argsort(dist)[: max(n_pops, 4)]
            weights = attraction[candidates] + 1e-9
            n_pops = min(n_pops, candidates.size)
            chosen = self.rng.choice(
                candidates, size=n_pops, replace=False, p=weights / weights.sum()
            )
            pops = set(int(c) for c in chosen)
            pops.add(spec.home_city)
            if globally and (
                spec.tier == 1 or spec.target_size > cfg.global_dispersal_threshold
            ):
                for zi in range(len(self.world.zones)):
                    zone_cities = np.flatnonzero(self._city_zone == zi)
                    if zone_cities.size:
                        top = zone_cities[int(np.argmax(attraction[zone_cities]))]
                        pops.add(int(top))
            spec.pop_cities = sorted(pops)

    def _create_routers(self, specs, city_counts):
        presence = {c: [] for c in range(len(self.world.cities))}
        for si, spec in enumerate(specs):
            for city in spec.pop_cities:
                presence[city].append(si)
        incumbents = self._zone_incumbents(specs)
        for city in range(len(self.world.cities)):
            count = int(city_counts[city])
            if count == 0:
                continue
            owners = presence[city]
            if not owners:
                owners = [incumbents[int(self._city_zone[city])]]
            weights = np.array([specs[si].target_size for si in owners], dtype=float)
            split = self.rng.multinomial(count, weights / weights.sum())
            for si, n_here in zip(owners, split):
                if n_here:
                    self._place_routers_in_city(specs[si], city, int(n_here))
        for spec in specs:
            if not spec.router_ids:
                self._place_routers_in_city(spec, spec.home_city, 1)

    def _place_routers_in_city(self, spec, city, count):
        jitter = self.config.pop_jitter_deg
        radius = np.minimum(jitter * (self.rng.pareto(1.2, size=count) + 0.3), 1.5)
        angle = self.rng.uniform(0.0, 2.0 * np.pi, size=count)
        lats = np.clip(self._city_lat[city] + radius * np.sin(angle), -89.9, 89.9)
        lons = np.clip(self._city_lon[city] + radius * np.cos(angle), -179.9, 179.9)
        ids = self.topology.add_routers(
            spec.asn, lats, lons, self.world.cities[city].code,
            self._allocate_addresses(spec.asn, count),
        ).tolist()
        spec.router_ids.extend(ids)
        spec.routers_by_city.setdefault(city, []).extend(ids)
        self._router_zone.extend([int(self._city_zone[city])] * count)

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

    def _add_links_batch(self, pairs_a, pairs_b):
        if not pairs_a:
            return
        ra = np.asarray(pairs_a, dtype=np.intp)
        rb = np.asarray(pairs_b, dtype=np.intp)
        keep = ra != rb
        a = np.minimum(ra[keep], rb[keep])
        b = np.maximum(ra[keep], rb[keep])
        seen = set()
        selected = []
        for i, pair in enumerate(zip(a.tolist(), b.tolist())):
            if pair in seen or self.topology.has_link(*pair):
                continue
            seen.add(pair)
            selected.append(i)
        if not selected:
            return
        a = a[selected]
        b = b[selected]
        r_asn = self.topology.router_asns()
        owner_asn = np.empty(2 * a.size, dtype=np.int64)
        owner_asn[0::2] = r_asn[a]
        owner_asn[1::2] = r_asn[b]
        addresses = np.empty(2 * a.size, dtype=np.int64)
        for asn in np.unique(owner_asn).tolist():
            sel = owner_asn == asn
            addresses[sel] = self._allocate_addresses(int(asn), int(sel.sum()))
        self.topology.add_links(a, b, addresses[0::2], addresses[1::2])

    def _intra_as_links(self, specs):
        cfg = self.config
        target_total = cfg.mean_links_per_router * self.topology.n_routers
        target_inter = cfg.interdomain_link_fraction * target_total
        for spec in specs:
            self._add_links_batch(*self._intra_pop_links(spec))
            self._add_links_batch(*self._backbone_links(spec))
        structural = self.topology.n_links
        extra_budget = max(0, int(target_total - target_inter - structural))
        sizes = np.array([max(len(s.router_ids), 1) for s in specs], dtype=float)
        weights = sizes**1.1
        allocation = self.rng.multinomial(extra_budget, weights / weights.sum())
        for spec, n_extra in zip(specs, allocation):
            self._waxman_extra_links(spec, int(n_extra))

    def _intra_pop_links(self, spec):
        pairs_a, pairs_b = [], []
        for routers in spec.routers_by_city.values():
            pairs_a.extend(routers[:-1])
            pairs_b.extend(routers[1:])
            for _ in range(len(routers) // 4):
                pair = self.rng.choice(len(routers), size=2, replace=False)
                pairs_a.append(routers[int(pair[0])])
                pairs_b.append(routers[int(pair[1])])
        return pairs_a, pairs_b

    def _backbone_links(self, spec):
        gateways = np.asarray(
            [routers[0] for routers in spec.routers_by_city.values()],
            dtype=np.intp,
        )
        k = gateways.shape[0]
        if k <= 1:
            return [], []
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
        return pairs_a, pairs_b

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

    def _as_graph_edges(self, specs):
        edges = set()

        def add(a, b):
            if a != b:
                edges.add((min(a, b), max(a, b)))

        tier1 = [i for i, s in enumerate(specs) if s.tier == 1]
        tier12 = [i for i, s in enumerate(specs) if s.tier in (1, 2)]
        for i in range(1, len(tier1)):
            add(tier1[i - 1], tier1[i])
        for i in tier1:
            for j in tier1:
                if i < j and self.rng.random() < 0.8:
                    add(i, j)
        sizes = np.array([s.target_size for s in specs], dtype=float)
        for si, spec in enumerate(specs):
            if spec.tier == 1:
                continue
            providers = tier1 if spec.tier == 2 else tier12
            candidates = [p for p in providers if p != si]
            homes = [specs[p].home_city for p in candidates]
            dist = haversine_miles(
                self._city_lat[spec.home_city], self._city_lon[spec.home_city],
                self._city_lat[homes], self._city_lon[homes],
            )
            weights = sizes[candidates] / (1.0 + dist / 1000.0)
            weights = weights / weights.sum()
            n_providers = min(1 + int(self.rng.random() < 0.45), len(candidates))
            chosen = self.rng.choice(
                len(candidates), size=n_providers, replace=False, p=weights
            )
            for c in chosen:
                add(si, candidates[int(c)])
        tier2 = [i for i, s in enumerate(specs) if s.tier == 2]
        for _ in range(len(tier2)):
            if len(tier2) < 2:
                break
            a, b = self.rng.choice(len(tier2), size=2, replace=False)
            add(tier2[int(a)], tier2[int(b)])
        return sorted(edges)


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

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 11])
    def test_small_scenarios(self, seed):
        scenario = small_scenario(seed)
        rng = np.random.default_rng(scenario.seed)
        world = build_world(rng, city_scale=scenario.city_scale)
        _assert_matches_reference(world, scenario.ground_truth, rng)

    def test_small_matrix_blocks(self, monkeypatch):
        # Distance matrices split into many row blocks, and backbones of
        # more than 8 gateways computed row by row.
        monkeypatch.setattr(generate, "_MATRIX_CELLS", 64)
        scenario = small_scenario(2)
        rng = np.random.default_rng(scenario.seed)
        world = build_world(rng, city_scale=scenario.city_scale)
        _assert_matches_reference(world, scenario.ground_truth, rng)


class TestMatrixRows:
    """Row-wise reductions of a matrix equal those of each row alone.

    The generator normalises provider weights with ``sum(axis=1)`` and
    picks nearest PoPs with ``argmin(axis=1)`` over distance matrices,
    where the straightforward form reduces one row at a time.
    """

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 400), st.integers(0, 2**32 - 1))
    def test_row_reductions_bitwise(self, n_rows, n_cols, seed):
        rng = np.random.default_rng(seed)
        matrix = np.exp(-rng.random((n_rows, n_cols)) * 40.0)
        matrix[:, rng.integers(n_cols)] = matrix.min()  # ties for argmin
        sums = matrix.sum(axis=1, keepdims=True)
        nearest = matrix.argmin(axis=1)
        for i in range(n_rows):
            row = matrix[i].copy()
            assert sums[i, 0] == row.sum()
            assert nearest[i] == int(np.argmin(row))

    @pytest.mark.parametrize("cells", [1, 7, 64, 1 << 16])
    def test_distance_blocks(self, monkeypatch, cells):
        monkeypatch.setattr(generate, "_MATRIX_CELLS", cells)
        rng = np.random.default_rng(4)
        sources = haversine_operands(rng.uniform(-80, 80, 23), rng.uniform(-180, 180, 23))
        targets = haversine_operands(rng.uniform(-80, 80, 5), rng.uniform(-180, 180, 5))
        blocks = list(_distance_blocks(sources, targets))
        assert all(block.size <= max(cells, 5) for block in blocks)
        assert np.array_equal(
            np.concatenate(blocks), haversine_matrix_radians(sources, targets)
        )
