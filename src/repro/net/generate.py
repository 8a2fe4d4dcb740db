"""Generation of the planted ground-truth Internet.

This module synthesises the *system under measurement*: a router-level
Internet whose geographic statistics are planted to match the phenomena
the paper reports, so that the full pipeline (measure -> geolocate ->
AS-map -> analyse) can be validated by recovering them.

The planted properties, and where they are injected:

* **Superlinear router density** (Section IV): city router counts are
  drawn multinomially with weights ``zone_budget * population ** alpha``
  where ``alpha`` is the per-zone exponent from the scenario config.
* **Distance-dependent link formation** (Section V): extra intra-AS
  links are sampled with probability proportional to ``exp(-d / L)``
  using the per-zone Waxman scale ``L``; a configured fraction is drawn
  distance-independently, producing the flat large-``d`` regime.
* **AS size/dispersal structure** (Section VI): AS router shares are
  Zipf; PoP counts grow sublinearly with size; small ASes disperse
  locally with a heavy-tailed radius (or, rarely, globally), while every
  AS beyond a size threshold is globally dispersed.
* **Inter vs intra domain link lengths**: interdomain links join an AS's
  PoP to its neighbour's *nearest* PoP, which is typically in another
  city, making them systematically longer than intra-PoP/metro links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import GroundTruthConfig
from repro.errors import ConfigError, TopologyError
from repro.geo.distance import (
    haversine_miles,
    haversine_miles_radians,
    haversine_operands,
)
from repro.net.addressing import AddressPlan
from repro.net.elements import AutonomousSystem
from repro.net.hostnames import make_hostname_batch
from repro.net.ip import Prefix
from repro.net.topology import Topology
from repro.population.worldmodel import World

_NAME_STEMS = (
    "corenet", "globix", "transglobe", "netspan", "interlink", "backhaul",
    "fibernet", "pacrim", "atlantix", "eurolink", "quicknet", "telegrid",
    "omnipop", "densewave", "metrolight", "skyroute", "westlink", "eastnet",
    "polarnet", "equinet", "longhaul", "shortpath", "deeppeer", "fastlane",
)

#: Private 10/8 pool used for the occasional misconfigured interface.
_PRIVATE_POOL = Prefix.parse("10.0.0.0/8")


@dataclass
class _AsSpec:
    """Working state for one AS during generation."""

    asn: int
    name: str
    tier: int
    target_size: int
    adherence: float
    home_city: int
    pop_cities: list[int] = field(default_factory=list)
    router_ids: list[int] = field(default_factory=list)
    routers_by_city: dict[int, list[int]] = field(default_factory=dict)
    # Cities holding routers, their router-count shares and their
    # haversine operands; set once routers are placed (see _index_pops).
    present_cities: list[int] = field(default_factory=list)
    present_share: np.ndarray | None = None
    present_radians: tuple = ()


@dataclass(frozen=True)
class GenerationReport:
    """What was planted, for validation against what analyses recover.

    Attributes:
        zone_router_budgets: routers allotted per zone name.
        planted_alpha: per-zone density exponents.
        planted_waxman_l: per-zone Waxman scales in miles.
        n_routers, n_links, n_interfaces: final topology sizes.
        interdomain_fraction: realised fraction of interdomain links.
        as_sizes: realised router count per ASN.
    """

    zone_router_budgets: dict[str, int]
    planted_alpha: dict[str, float]
    planted_waxman_l: dict[str, float]
    n_routers: int
    n_links: int
    n_interfaces: int
    interdomain_fraction: float
    as_sizes: dict[int, int]


class GroundTruthGenerator:
    """Builds a :class:`~repro.net.topology.Topology` from a world model."""

    def __init__(self, world: World, config: GroundTruthConfig,
                 rng: np.random.Generator) -> None:
        self.world = world
        self.config = config
        self.rng = rng
        self.topology = Topology()
        self.plan = AddressPlan()
        self._private_next = 1
        # City arrays.
        self._city_lat = np.array([c.location.lat for c in world.cities])
        self._city_lon = np.array([c.location.lon for c in world.cities])
        self._city_pop = np.array([c.population for c in world.cities])
        self._city_zone = np.array(
            [self._zone_index(c.zone) for c in world.cities], dtype=np.intp
        )
        self._zone_names = [z.name for z in world.zones]
        self._router_zone: list[int] = []
        # Owner ASN per router id, fixed once the link stage starts.
        self._router_asn: list[int] = []
        # Links accepted by _add_link_checked that _flush_links has not
        # yet appended: (router_a, router_b, interface_a, interface_b).
        self._pending_links: list[tuple[int, int, int, int]] = []
        self._pending_pairs: set[tuple[int, int]] = set()
        self.report: GenerationReport | None = None

    # -- helpers ------------------------------------------------------------

    def _zone_index(self, name: str) -> int:
        for i, zone in enumerate(self.world.zones):
            if zone.name == name:
                return i
        raise ConfigError(f"city references unknown zone {name!r}")

    def _alpha_for_zone(self, zone_name: str) -> float:
        return self.config.alpha.get(zone_name, 1.3)

    def _waxman_l_for_zone(self, zone_name: str) -> float:
        return self.config.waxman_l_miles.get(zone_name, 150.0)

    def _allocate_address(self, asn: int) -> int:
        """Allocate an interface address; rarely a private one.

        A small fraction of real interfaces answer probes with RFC 1918
        addresses (misconfiguration); the geolocation stage must discard
        them, so we plant a few.
        """
        if self.rng.random() < 0.005:
            address = _PRIVATE_POOL.base + self._private_next
            self._private_next += 1
            return address
        return self.plan.allocate(asn)

    def _allocate_addresses(self, asn: int, count: int) -> np.ndarray:
        """Batch form of :meth:`_allocate_address` (one private draw each)."""
        private = self.rng.random(count) < 0.005
        out = np.empty(count, dtype=np.int64)
        n_private = int(private.sum())
        if n_private:
            start = _PRIVATE_POOL.base + self._private_next
            out[private] = np.arange(start, start + n_private, dtype=np.int64)
            self._private_next += n_private
        if n_private < count:
            out[~private] = self.plan.allocate_many(asn, count - n_private)
        return out

    # -- stage 1: budgets and city router counts ----------------------------

    def _zone_budgets(self) -> np.ndarray:
        weights = np.array(
            [z.online_millions * 1e6 * z.interfaces_per_online
             for z in self.world.zones]
        )
        shares = weights / weights.sum()
        budgets = np.floor(
            shares * self.config.total_routers * (1.0 - self.config.rural_router_fraction)
        ).astype(int)
        budgets = np.maximum(budgets, 2)
        return budgets

    def _city_attractiveness(self) -> np.ndarray:
        """Per-city router attraction: zone budget x population^alpha.

        A small uniform share (1%) of each zone's budget spreads across
        all of its cities regardless of size: carriers keep minimal
        presence in small towns, which is what gives real datasets their
        very large distinct-location counts.
        """
        attraction = np.zeros(len(self.world.cities))
        budgets = self._zone_budgets()
        for zi, zone in enumerate(self.world.zones):
            mask = self._city_zone == zi
            if not np.any(mask):
                continue
            alpha = self._alpha_for_zone(zone.name)
            weighted = self._city_pop[mask] ** alpha
            share = budgets[zi] * weighted / weighted.sum()
            floor = 0.01 * budgets[zi] / int(mask.sum())
            attraction[mask] = 0.99 * share + floor
        return attraction

    def _city_router_counts(self, attraction: np.ndarray) -> np.ndarray:
        """Multinomial split of each zone's budget across its cities."""
        counts = np.zeros(len(self.world.cities), dtype=int)
        budgets = self._zone_budgets()
        for zi in range(len(self.world.zones)):
            mask = self._city_zone == zi
            weights = attraction[mask]
            if weights.sum() <= 0:
                continue
            draw = self.rng.multinomial(int(budgets[zi]), weights / weights.sum())
            counts[np.flatnonzero(mask)] = draw
        return counts

    # -- stage 2: AS specifications ------------------------------------------

    def _as_sizes(self) -> np.ndarray:
        ranks = np.arange(1, self.config.n_ases + 1, dtype=float)
        shares = 1.0 / ranks**self.config.as_size_exponent
        shares /= shares.sum()
        sizes = np.maximum(
            np.round(shares * self.config.total_routers).astype(int), 1
        )
        return sizes

    def _make_as_specs(self, attraction: np.ndarray) -> list[_AsSpec]:
        cfg = self.config
        sizes = self._as_sizes()
        budgets = self._zone_budgets().astype(float)
        zone_probs = budgets / budgets.sum()
        specs: list[_AsSpec] = []
        for rank in range(cfg.n_ases):
            asn = 100 + rank
            tier = 1 if rank < cfg.tier1_count else (
                2 if rank < cfg.tier1_count + cfg.tier2_count else 3
            )
            stem = _NAME_STEMS[rank % len(_NAME_STEMS)]
            name = f"{stem}{asn}"
            zone = int(self.rng.choice(len(self.world.zones), p=zone_probs))
            zone_cities = np.flatnonzero(self._city_zone == zone)
            weights = attraction[zone_cities]
            if weights.sum() <= 0:
                weights = np.ones(zone_cities.size)
            home = int(self.rng.choice(zone_cities, p=weights / weights.sum()))
            # Naming discipline: most ISPs are strict, a minority sloppy,
            # and a few embed no location at all — those are the ASes
            # whose hundreds of interfaces geolocate to a couple of
            # whois-HQ points (the low line in the paper's Figure 8a).
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
                    name=name,
                    tier=tier,
                    target_size=int(sizes[rank]),
                    adherence=adherence,
                    home_city=home,
                )
            )
        return specs

    def _choose_pop_cities(self, spec: _AsSpec, attraction: np.ndarray) -> None:
        """Pick the cities where this AS is present (its PoPs)."""
        cfg = self.config
        n_cities = len(self.world.cities)
        raw = spec.target_size**0.72 * float(self.rng.lognormal(0.0, 0.4))
        n_pops = int(
            np.clip(
                round(raw),
                1,
                min(max(1, int(np.ceil(spec.target_size * cfg.max_pops_fraction))),
                    n_cities),
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
            home_lat = self._city_lat[spec.home_city]
            home_lon = self._city_lon[spec.home_city]
            dist = haversine_miles(home_lat, home_lon, self._city_lat, self._city_lon)
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
        # Global carriers keep a PoP on every continent (the paper's
        # "maximally dispersed" regime above the size cutoff): include
        # each zone's top city.
        if globally and (
            spec.tier == 1 or spec.target_size > cfg.global_dispersal_threshold
        ):
            for zi in range(len(self.world.zones)):
                zone_cities = np.flatnonzero(self._city_zone == zi)
                if zone_cities.size:
                    top = zone_cities[int(np.argmax(attraction[zone_cities]))]
                    pops.add(int(top))
        spec.pop_cities = sorted(pops)

    # -- stage 3: routers ----------------------------------------------------

    def _create_routers(
        self, specs: list[_AsSpec], city_counts: np.ndarray
    ) -> None:
        """Split each city's router count among the ASes present there."""
        cfg = self.config
        presence: dict[int, list[int]] = {c: [] for c in range(len(self.world.cities))}
        for si, spec in enumerate(specs):
            for city in spec.pop_cities:
                presence[city].append(si)
        # Zone incumbents (largest AS homed in the zone) absorb cities no
        # AS chose, so every placed router has an owner.
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
                if n_here == 0:
                    continue
                spec = specs[si]
                self._place_routers_in_city(spec, city, int(n_here))
        # Guarantee every AS exists in the topology with at least one router.
        for spec in specs:
            if not spec.router_ids:
                self._place_routers_in_city(spec, spec.home_city, 1)

    def _zone_incumbents(self, specs: list[_AsSpec]) -> dict[int, int]:
        incumbents: dict[int, int] = {}
        for si, spec in enumerate(specs):
            zone = int(self._city_zone[spec.home_city])
            best = incumbents.get(zone)
            if best is None or specs[best].target_size < spec.target_size:
                incumbents[zone] = si
        # Fall back to the globally largest AS for zones without a homed AS.
        largest = max(range(len(specs)), key=lambda i: specs[i].target_size)
        for zone in range(len(self.world.zones)):
            incumbents.setdefault(zone, largest)
        return incumbents

    def _place_routers_in_city(self, spec: _AsSpec, city: int, count: int) -> None:
        # Heavy-tailed metro sprawl: most routers sit near the city
        # core, a minority in exurban facilities.  (A Gaussian kernel
        # leaves a scale gap between city spacing and city size that
        # depresses the box-counting dimension far below the ~1.5 the
        # paper confirms for real router placement.)
        jitter = self.config.pop_jitter_deg
        code = self.world.cities[city].code
        radius = np.minimum(jitter * (self.rng.pareto(1.2, size=count) + 0.3), 1.5)
        angle = self.rng.uniform(0.0, 2.0 * np.pi, size=count)
        lats = np.clip(
            self._city_lat[city] + radius * np.sin(angle), -89.9, 89.9
        )
        lons = np.clip(
            self._city_lon[city] + radius * np.cos(angle), -179.9, 179.9
        )
        ids = self.topology.add_routers(
            spec.asn, lats, lons, code, self._allocate_addresses(spec.asn, count)
        ).tolist()
        spec.router_ids.extend(ids)
        spec.routers_by_city.setdefault(city, []).extend(ids)
        self._router_zone.extend([int(self._city_zone[city])] * count)

    def _create_rural_routers(self, specs: list[_AsSpec]) -> None:
        """Place the rural fraction at population points, owned by incumbents."""
        n_rural = int(self.config.total_routers * self.config.rural_router_fraction)
        if n_rural <= 0:
            return
        field_ = self.world.field
        weights = field_.weights / field_.weights.sum()
        idx = self.rng.choice(field_.lats.size, size=n_rural, p=weights)
        incumbents = self._zone_incumbents(specs)
        lats = np.clip(
            field_.lats[idx] + self.rng.normal(0.0, 0.05, size=n_rural),
            -89.9, 89.9,
        )
        lons = np.clip(
            field_.lons[idx] + self.rng.normal(0.0, 0.05, size=n_rural),
            -179.9, 179.9,
        )
        zones = field_.zone_index[idx].astype(np.intp)
        # One batch per owning AS; router creation order is grouped by
        # zone rather than point order, which only permutes ids.
        for zone in np.unique(zones).tolist():
            sel = zones == zone
            spec = specs[incumbents[int(zone)]]
            count = int(sel.sum())
            ids = self.topology.add_routers(
                spec.asn, lats[sel], lons[sel], "",
                self._allocate_addresses(spec.asn, count),
            ).tolist()
            spec.router_ids.extend(ids)
            for point, rid in zip(idx[sel].tolist(), ids):
                spec.routers_by_city.setdefault(-1 - int(point), []).append(rid)
            self._router_zone.extend([int(zone)] * count)

    # -- stage 4: links --------------------------------------------------------

    def _add_link_checked(self, ra: int, rb: int) -> bool:
        """Queue a link with fresh interface addresses; False on duplicates.

        The addresses are drawn now, so the random stream and the address
        plan advance exactly as for an immediate add; the link reaches
        the topology, in call order, at the next :meth:`_flush_links`.
        """
        if ra == rb:
            return False
        pair = (ra, rb) if ra < rb else (rb, ra)
        if pair in self._pending_pairs or self.topology.has_link(ra, rb):
            return False
        interface_a = self._allocate_address(self._router_asn[ra])
        interface_b = self._allocate_address(self._router_asn[rb])
        self._pending_links.append((ra, rb, interface_a, interface_b))
        self._pending_pairs.add(pair)
        return True

    def _flush_links(self) -> None:
        """Append the queued links to the topology in one batch."""
        if not self._pending_links:
            return
        columns = (np.array(c, dtype=np.int64) for c in zip(*self._pending_links))
        self.topology.add_links(*columns)
        self._pending_links.clear()
        self._pending_pairs.clear()

    def _add_links_batch(self, pairs_a: list[int], pairs_b: list[int]) -> int:
        """Batch :meth:`_add_link_checked`: silently drops duplicates.

        Returns the number of links actually added.  Interface addresses
        are allocated grouped per AS (ascending ASN), a different draw
        order from the scalar path but the same allocator state.
        """
        self._flush_links()
        if not pairs_a:
            return 0
        ra = np.asarray(pairs_a, dtype=np.intp)
        rb = np.asarray(pairs_b, dtype=np.intp)
        keep = ra != rb
        ra, rb = ra[keep], rb[keep]
        a = np.minimum(ra, rb)
        b = np.maximum(ra, rb)
        seen: set[tuple[int, int]] = set()
        selected: list[int] = []
        has_link = self.topology.has_link
        for i, pair in enumerate(zip(a.tolist(), b.tolist())):
            if pair in seen or has_link(*pair):
                continue
            seen.add(pair)
            selected.append(i)
        if not selected:
            return 0
        a = a[selected]
        b = b[selected]
        count = a.shape[0]
        r_asn = self.topology.router_asns()
        owner_asn = np.empty(2 * count, dtype=np.int64)
        owner_asn[0::2] = r_asn[a]
        owner_asn[1::2] = r_asn[b]
        addresses = np.empty(2 * count, dtype=np.int64)
        for asn in np.unique(owner_asn).tolist():
            sel = owner_asn == asn
            addresses[sel] = self._allocate_addresses(int(asn), int(sel.sum()))
        self.topology.add_links(a, b, addresses[0::2], addresses[1::2])
        return count

    def _intra_pop_links(self, spec: _AsSpec) -> None:
        pairs_a: list[int] = []
        pairs_b: list[int] = []
        for routers in spec.routers_by_city.values():
            pairs_a.extend(routers[:-1])
            pairs_b.extend(routers[1:])
            # A few redundant metro links in big PoPs.
            extra = len(routers) // 4
            for _ in range(extra):
                pair = self.rng.choice(len(routers), size=2, replace=False)
                pairs_a.append(routers[int(pair[0])])
                pairs_b.append(routers[int(pair[1])])
        self._add_links_batch(pairs_a, pairs_b)

    def _backbone_links(self, spec: _AsSpec) -> None:
        """Nearest-neighbour (Prim) tree over the AS's PoP gateways."""
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
        gateway_rad = haversine_operands(lats, lons)
        # Vectorised Prim: track the distance from each outside gateway
        # to its closest in-tree gateway, O(k) work per added edge.
        min_dist = haversine_miles_radians(
            *haversine_operands(lats[0], lons[0]), *gateway_rad
        )
        min_dist[0] = np.inf
        closest = np.zeros(k, dtype=np.intp)
        in_tree = np.zeros(k, dtype=bool)
        in_tree[0] = True
        pairs_a: list[int] = []
        pairs_b: list[int] = []
        for _ in range(k - 1):
            j = int(np.argmin(min_dist))
            pairs_a.append(int(gateways[j]))
            pairs_b.append(int(gateways[closest[j]]))
            in_tree[j] = True
            min_dist[j] = np.inf
            dists = haversine_miles_radians(
                *haversine_operands(lats[j], lons[j]), *gateway_rad
            )
            update = ~in_tree & (dists < min_dist)
            min_dist[update] = dists[update]
            closest[update] = j
        self._add_links_batch(pairs_a, pairs_b)

    def _waxman_extra_links(self, spec: _AsSpec, n_extra: int) -> None:
        """Distance-sampled (or occasionally long-range) intra-AS links."""
        members = spec.router_ids
        n = len(members)
        if n < 3 or n_extra <= 0:
            return
        all_lats, all_lons = self.topology.router_coordinates()
        lats = all_lats[members]
        lons = all_lons[members]
        member_rad = haversine_operands(lats, lons)
        zones = [self._zone_names[self._router_zone[r]] for r in members]
        added = 0
        attempts = 0
        while added < n_extra and attempts < n_extra * 8:
            attempts += 1
            ui = int(self.rng.integers(n))
            if self.rng.random() < self.config.long_range_fraction:
                vi = int(self.rng.integers(n))
            else:
                scale = self._waxman_l_for_zone(zones[ui])
                dists = haversine_miles_radians(
                    *haversine_operands(lats[ui], lons[ui]), *member_rad
                )
                weights = np.exp(-dists / scale)
                weights[ui] = 0.0
                total = weights.sum()
                if total <= 0:
                    continue
                vi = int(self.rng.choice(n, p=weights / total))
            if self._add_link_checked(members[ui], members[vi]):
                added += 1

    def _intra_as_links(self, specs: list[_AsSpec]) -> None:
        cfg = self.config
        target_total = cfg.mean_links_per_router * self.topology.n_routers
        target_inter = cfg.interdomain_link_fraction * target_total
        # No router is added from here on.
        self._router_asn = self.topology.router_asns().tolist()
        # Every router sits in one routers_by_city group (rural ones in a
        # pseudo-city per population point): the chain within each group
        # plus the tree over group gateways connects every AS.
        for spec in specs:
            self._intra_pop_links(spec)
            self._backbone_links(spec)
        structural = self.topology.n_links
        extra_budget = max(0, int(target_total - target_inter - structural))
        sizes = np.array([max(len(s.router_ids), 1) for s in specs], dtype=float)
        weights = sizes**1.1
        allocation = self.rng.multinomial(extra_budget, weights / weights.sum())
        for spec, n_extra in zip(specs, allocation):
            self._waxman_extra_links(spec, int(n_extra))

    # -- stage 5: interdomain -----------------------------------------------

    def _as_graph_edges(self, specs: list[_AsSpec]) -> list[tuple[int, int]]:
        edges: set[tuple[int, int]] = set()

        def add(a: int, b: int) -> None:
            if a != b:
                edges.add((min(a, b), max(a, b)))

        tier1 = [i for i, s in enumerate(specs) if s.tier == 1]
        tier12 = [i for i, s in enumerate(specs) if s.tier in (1, 2)]
        # Backbone: deterministic chain for connectivity + dense mesh.
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
            home_lat = self._city_lat[spec.home_city]
            home_lon = self._city_lon[spec.home_city]
            prov_lat = self._city_lat[[specs[p].home_city for p in candidates]]
            prov_lon = self._city_lon[[specs[p].home_city for p in candidates]]
            dist = haversine_miles(home_lat, home_lon, prov_lat, prov_lon)
            weights = sizes[candidates] / (1.0 + dist / 1000.0)
            weights = weights / weights.sum()
            n_providers = 1 + int(self.rng.random() < 0.45)
            n_providers = min(n_providers, len(candidates))
            chosen = self.rng.choice(
                len(candidates), size=n_providers, replace=False, p=weights
            )
            for c in chosen:
                add(si, candidates[int(c)])
        # Tier-2 peering, geographically biased.
        tier2 = [i for i, s in enumerate(specs) if s.tier == 2]
        n_peerings = len(tier2)
        for _ in range(n_peerings):
            if len(tier2) < 2:
                break
            a, b = self.rng.choice(len(tier2), size=2, replace=False)
            add(tier2[int(a)], tier2[int(b)])
        return sorted(edges)

    def _realize_interdomain(self, specs: list[_AsSpec],
                             edges: list[tuple[int, int]]) -> None:
        cfg = self.config
        target_total = cfg.mean_links_per_router * self.topology.n_routers
        budget = max(len(edges), int(cfg.interdomain_link_fraction * target_total))
        # Every AS edge gets one physical link; extras go to repeat draws.
        queue = list(edges)
        extra = budget - len(edges)
        if extra > 0 and edges:
            picks = self.rng.integers(0, len(edges), size=extra)
            queue.extend(edges[int(p)] for p in picks)
        for spec in specs:
            self._index_pops(spec)
        for a, b in queue:
            self._physical_interdomain_link(specs[a], specs[b])

    def _index_pops(self, spec: _AsSpec) -> None:
        """Fill ``spec.present_*`` from its (final) city router lists."""
        cities = [c for c in spec.routers_by_city if c >= 0]
        spec.present_cities = cities
        if not cities:
            return
        weights = np.array(
            [len(spec.routers_by_city[c]) for c in cities], dtype=float
        )
        spec.present_share = weights / weights.sum()
        spec.present_radians = haversine_operands(
            self._city_lat[cities], self._city_lon[cities]
        )

    def _physical_interdomain_link(self, x: _AsSpec, y: _AsSpec) -> None:
        """Join a random PoP of x to y's nearest PoP (typical peering shape)."""
        x_cities = x.present_cities
        y_cities = y.present_cities
        if not x_cities or not y_cities:
            x_all = x.router_ids
            y_all = y.router_ids
            self._add_link_checked(
                x_all[int(self.rng.integers(len(x_all)))],
                y_all[int(self.rng.integers(len(y_all)))],
            )
            return
        cx = x_cities[int(self.rng.choice(len(x_cities), p=x.present_share))]
        dists = haversine_miles_radians(
            *haversine_operands(self._city_lat[cx], self._city_lon[cx]),
            *y.present_radians,
        )
        cy = y_cities[int(np.argmin(dists))]
        rx = x.routers_by_city[cx][int(self.rng.integers(len(x.routers_by_city[cx])))]
        ry = y.routers_by_city[cy][int(self.rng.integers(len(y.routers_by_city[cy])))]
        self._add_link_checked(rx, ry)

    # -- stage 6: hostnames ------------------------------------------------

    def _assign_hostnames(self, specs: list[_AsSpec]) -> None:
        # Naming discipline is a per-router property: an ISP either names
        # a router with its location code or it does not, consistently
        # across that router's interfaces.  (Per-interface draws would
        # make Mercator's majority-location vote tie far more often than
        # the paper's observed 2.5-2.9%.)
        topology = self.topology
        adherence_by_asn = {spec.asn: spec.adherence for spec in specs}
        r_asn = topology.router_asns()
        adherence = np.array(
            [adherence_by_asn[asn] for asn in r_asn.tolist()], dtype=np.float64
        )
        embed_by_router = self.rng.random(topology.n_routers) < adherence
        domain_by_asn = {asn: asys.domain for asn, asys in topology.asns.items()}
        city_by_router = topology.router_city_codes()
        i_addr = topology.interface_addresses()
        i_router = topology.interface_routers()
        owner_list = i_router.tolist()
        hostnames = make_hostname_batch(
            router_ids=i_router,
            city_codes=[city_by_router[r] for r in owner_list],
            domains=[domain_by_asn[a] for a in r_asn[i_router].tolist()],
            rng=self.rng,
            embed_location=embed_by_router[i_router],
        )
        topology.hostnames.update(zip(i_addr.tolist(), hostnames))

    # -- driver ------------------------------------------------------------------

    def generate(self) -> Topology:
        """Run all generation stages; returns the validated topology."""
        attraction = self._city_attractiveness()
        city_counts = self._city_router_counts(attraction)
        specs = self._make_as_specs(attraction)
        for spec in specs:
            self._choose_pop_cities(spec, attraction)
        for spec in specs:
            home = self.world.cities[spec.home_city]
            self.topology.add_as(
                AutonomousSystem(
                    asn=spec.asn,
                    name=spec.name,
                    headquarters=home.location,
                    hostname_adherence=spec.adherence,
                    tier=spec.tier,
                )
            )
        self._create_routers(specs, city_counts)
        self._create_rural_routers(specs)
        self._intra_as_links(specs)
        edges = self._as_graph_edges(specs)
        self._realize_interdomain(specs, edges)
        self._flush_links()
        self._assign_hostnames(specs)
        self.topology.validate()
        if self.topology.n_links == 0:
            raise TopologyError("generation produced no links")
        inter = int(self.topology.link_interdomain().sum())
        self.report = GenerationReport(
            zone_router_budgets={
                z.name: int(b)
                for z, b in zip(self.world.zones, self._zone_budgets())
            },
            planted_alpha=dict(self.config.alpha),
            planted_waxman_l=dict(self.config.waxman_l_miles),
            n_routers=self.topology.n_routers,
            n_links=self.topology.n_links,
            n_interfaces=self.topology.n_interfaces,
            interdomain_fraction=inter / self.topology.n_links,
            as_sizes={
                spec.asn: len(spec.router_ids) for spec in specs
            },
        )
        return self.topology


def generate_ground_truth(
    world: World, config: GroundTruthConfig, rng: np.random.Generator
) -> tuple[Topology, AddressPlan, GenerationReport]:
    """Convenience wrapper: generate and return (topology, plan, report).

    The address plan is needed downstream to synthesise the BGP snapshot
    (the registry's prefix grants are what get announced).
    """
    generator = GroundTruthGenerator(world, config, rng)
    topology = generator.generate()
    assert generator.report is not None
    return topology, generator.plan, generator.report
