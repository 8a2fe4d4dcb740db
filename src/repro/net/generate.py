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

from repro.arrays import distinct
from repro.config import GroundTruthConfig
from repro.errors import ConfigError, TopologyError
from repro.geo.distance import (
    HaversineRows,
    haversine_matrix_radians,
    haversine_operands,
)
from repro.net.addressing import AddressPlan
from repro.net.elements import AutonomousSystem
from repro.net.hostnames import make_hostname_batch
from repro.net.ip import Prefix
from repro.net.topology import Topology, link_key
from repro.population.worldmodel import World

_NAME_STEMS = (
    "corenet", "globix", "transglobe", "netspan", "interlink", "backhaul",
    "fibernet", "pacrim", "atlantix", "eurolink", "quicknet", "telegrid",
    "omnipop", "densewave", "metrolight", "skyroute", "westlink", "eastnet",
    "polarnet", "equinet", "longhaul", "shortpath", "deeppeer", "fastlane",
)

#: Private 10/8 pool used for the occasional misconfigured interface.
_PRIVATE_POOL = Prefix.parse("10.0.0.0/8")

#: Most cells of a distance matrix built in one piece.  Larger ones are
#: built in row blocks; a Prim tree over more gateways computes each
#: row as it reaches it.
_MATRIX_CELLS = 1 << 16


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
    # Cities holding routers and the cdf of their router-count shares,
    # set once routers are placed (see _index_pops); ``nearest`` maps
    # each city an interdomain link to this AS may start from to this
    # AS's PoP nearest to it (see _nearest_pops).
    present_cities: list[int] = field(default_factory=list)
    present_cdf: np.ndarray | None = None
    nearest: dict[int, int] = field(default_factory=dict)


def _cdf(p: np.ndarray) -> np.ndarray:
    """The table ``Generator.choice(..., p=p)`` searches: cumsum of ``p``,
    normalised by its last entry."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _distance_blocks(sources: tuple, targets: tuple):
    """Yield :func:`haversine_matrix_radians` in row blocks of at most
    ``_MATRIX_CELLS`` cells, first rows first."""
    step = max(1, _MATRIX_CELLS // max(1, targets[0].shape[0]))
    for lo in range(0, sources[0].shape[0], step):
        yield haversine_matrix_radians(
            tuple(op[lo:lo + step] for op in sources), targets
        )


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
        # City routers drawn by _place_routers_in_city that _flush_routers
        # has not yet appended: (asn, city, sprawl, angle, loopbacks).
        self._pending_routers: list[tuple] = []
        self._n_pending_routers = 0
        # Owner ASN per router id, fixed once the link stage starts.
        self._router_asn: list[int] = []
        # link_key of every link queued so far, and the queued links that
        # _flush_links has not yet appended, as columns: router_a,
        # router_b, interface_a, interface_b.  Ints, not tuples, so that
        # the garbage collector has nothing per link to track.
        self._link_keys: set[int] = set()
        self._pending_links: tuple[list[int], ...] = ([], [], [], [])
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

    def _pick(self, cdf: np.ndarray) -> int:
        """``rng.choice(len(p), p=p)`` for ``cdf = _cdf(p)``.

        ``choice`` draws one uniform and searches this table; drawing it
        here skips the per-call checks of ``p`` and leaves the stream in
        the same place.
        """
        return int(cdf.searchsorted(self.rng.random(), side="right"))

    def _pick_distinct(self, p: np.ndarray, size: int) -> list[int]:
        """``rng.choice(len(p), size, replace=False, p=p)``, as a list.

        ``choice`` draws one uniform per missing pick against the table
        of ``p`` with the weights of earlier picks set to zero, keeps the
        first occurrence of each new index, and repeats until it has
        ``size``; so does this, without ``choice``'s per-call checks and
        ``np.unique``.  ``p`` needs ``size`` positive entries.
        """
        picks: list[int] = []
        while len(picks) < size:
            draws = self.rng.random(size - len(picks))
            if picks:
                p = p.copy()
                p[picks] = 0.0
            picks += dict.fromkeys(_cdf(p).searchsorted(draws, side="right").tolist())
        return picks

    def _pick_pairs(self, sizes: list[int]) -> list[tuple[int, int]]:
        """``rng.choice(n, size=2, replace=False)`` for each ``n`` in turn.

        ``choice`` picks such a pair by Floyd's algorithm, bounded
        integers below ``n - 1`` and below ``n`` (the second becomes
        ``n - 1`` if it repeats the first), then swaps the two unless an
        integer below 2 comes out 1.  One ``integers`` call with those
        bounds draws the same numbers in the same order.
        """
        highs: list[int] = []
        for n in sizes:
            highs += (n - 1, n, 2)
        draws = self.rng.integers(0, highs).tolist()
        pairs: list[tuple[int, int]] = []
        for n, first, second, keep in zip(
            sizes, draws[0::3], draws[1::3], draws[2::3]
        ):
            if second == first:
                second = n - 1
            pairs.append((first, second) if keep else (second, first))
        return pairs

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
        n_private = int(np.count_nonzero(private))
        if not n_private:
            return self.plan.allocate_many(asn, count)
        out = np.empty(count, dtype=np.int64)
        start = _PRIVATE_POOL.base + self._private_next
        out[private] = np.arange(start, start + n_private, dtype=np.int64)
        self._private_next += n_private
        if n_private < count:
            out[~private] = self.plan.allocate_many(asn, count - n_private)
        return out

    def _home_operands(self, specs: list[_AsSpec]) -> tuple:
        """Haversine operands of the ASes' home cities."""
        homes = [spec.home_city for spec in specs]
        return haversine_operands(self._city_lat[homes], self._city_lon[homes])

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
        zone_cdf = _cdf(budgets / budgets.sum())
        # Each zone's cities and home-city table, built on its first pick.
        homes: dict[int, tuple[list[int], np.ndarray]] = {}
        specs: list[_AsSpec] = []
        for rank in range(cfg.n_ases):
            asn = 100 + rank
            tier = 1 if rank < cfg.tier1_count else (
                2 if rank < cfg.tier1_count + cfg.tier2_count else 3
            )
            stem = _NAME_STEMS[rank % len(_NAME_STEMS)]
            name = f"{stem}{asn}"
            zone = self._pick(zone_cdf)
            if zone not in homes:
                zone_cities = np.flatnonzero(self._city_zone == zone)
                weights = attraction[zone_cities]
                if weights.sum() <= 0:
                    weights = np.ones(zone_cities.size)
                homes[zone] = (zone_cities.tolist(), _cdf(weights / weights.sum()))
            cities, home_cdf = homes[zone]
            home = cities[self._pick(home_cdf)]
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

    def _choose_pop_cities(
        self, specs: list[_AsSpec], attraction: np.ndarray
    ) -> None:
        """Pick the cities where each AS is present (its PoPs)."""
        cfg = self.config
        n_cities = len(self.world.cities)
        everywhere = np.arange(n_cities)
        weights = attraction + 1e-9
        everywhere_p = weights / weights.sum()
        city_rad = haversine_operands(self._city_lat, self._city_lon)
        log_radius = np.log(300.0)
        # Global carriers keep a PoP on every continent (the paper's
        # "maximally dispersed" regime above the size cutoff): each
        # zone's top city.
        tops: set[int] = set()
        for zi in range(len(self.world.zones)):
            zone_cities = np.flatnonzero(self._city_zone == zi)
            if zone_cities.size:
                tops.add(int(zone_cities[int(np.argmax(attraction[zone_cities]))]))
        carriers = [
            spec.target_size > cfg.global_dispersal_threshold or spec.tier == 1
            for spec in specs
        ]
        # Miles from each home city of a non-carrier to every city, in row
        # blocks of at most _MATRIX_CELLS.
        homes = sorted({
            spec.home_city for spec, carrier in zip(specs, carriers) if not carrier
        })
        home_dist = dict(zip(homes, (
            row
            for block in _distance_blocks(tuple(op[homes] for op in city_rad), city_rad)
            for row in block
        )))
        for spec, carrier in zip(specs, carriers):
            raw = spec.target_size**0.72 * float(self.rng.lognormal(0.0, 0.4))
            cap = min(
                max(1, int(np.ceil(spec.target_size * cfg.max_pops_fraction))),
                n_cities,
            )
            n_pops = min(max(round(raw), 1), cap)
            if carrier or self.rng.random() < cfg.small_global_probability:
                candidates, p = everywhere, everywhere_p
            else:
                dist = home_dist[spec.home_city]
                radius = float(self.rng.lognormal(log_radius, 1.1))
                candidates = np.flatnonzero(dist <= radius)
                if candidates.size < n_pops:
                    candidates = np.argsort(dist)[: max(n_pops, 4)]
                weights = attraction[candidates] + 1e-9
                p = weights / weights.sum()
            chosen = self._pick_distinct(p, min(n_pops, candidates.size))
            pops = set(candidates[chosen].tolist())
            pops.add(spec.home_city)
            if carrier:
                pops |= tops
            spec.pop_cities = sorted(pops)

    # -- stage 3: routers ----------------------------------------------------

    def _create_routers(
        self, specs: list[_AsSpec], city_counts: np.ndarray
    ) -> None:
        """Split each city's router count among the ASes present there."""
        presence: list[list[int]] = [[] for _ in self.world.cities]
        for si, spec in enumerate(specs):
            for city in spec.pop_cities:
                presence[city].append(si)
        # Zone incumbents (largest AS homed in the zone) absorb cities no
        # AS chose, so every placed router has an owner.
        incumbents = self._zone_incumbents(specs)
        for city in np.flatnonzero(city_counts).tolist():
            count = int(city_counts[city])
            owners = presence[city] or [incumbents[int(self._city_zone[city])]]
            if len(owners) == 1:
                split = [count]  # a one-way multinomial draws nothing
            else:
                weights = np.array(
                    [specs[si].target_size for si in owners], dtype=float
                )
                split = self.rng.multinomial(count, weights / weights.sum()).tolist()
            for si, n_here in zip(owners, split):
                if n_here:
                    self._place_routers_in_city(specs[si], city, n_here)
        # Guarantee every AS exists in the topology with at least one router.
        for spec in specs:
            if not spec.router_ids:
                self._place_routers_in_city(spec, spec.home_city, 1)
        self._flush_routers()

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
        """Queue ``count`` routers of the AS around the city.

        Their random draws (sprawl, angle, private-address rolls) and
        addresses are taken now, in call order; :meth:`_flush_routers`
        computes their coordinates and appends them.
        """
        sprawl = self.rng.pareto(1.2, size=count)
        angle = self.rng.uniform(0.0, 2.0 * np.pi, size=count)
        loopbacks = self._allocate_addresses(spec.asn, count)
        self._pending_routers.append((spec.asn, city, sprawl, angle, loopbacks))
        start = self.topology.n_routers + self._n_pending_routers
        self._n_pending_routers += count
        ids = range(start, start + count)
        spec.router_ids.extend(ids)
        spec.routers_by_city.setdefault(city, []).extend(ids)
        self._router_zone.extend([int(self._city_zone[city])] * count)

    def _flush_routers(self) -> None:
        """Append the queued city routers to the topology in one batch."""
        if not self._pending_routers:
            return
        asns, cities, sprawl, angle, loopbacks = zip(*self._pending_routers)
        counts = [block.shape[0] for block in loopbacks]
        city = np.repeat(np.array(cities, dtype=np.intp), counts)
        # Heavy-tailed metro sprawl: most routers sit near the city
        # core, a minority in exurban facilities.  (A Gaussian kernel
        # leaves a scale gap between city spacing and city size that
        # depresses the box-counting dimension far below the ~1.5 the
        # paper confirms for real router placement.)
        radius = np.minimum(
            self.config.pop_jitter_deg * (np.concatenate(sprawl) + 0.3), 1.5
        )
        angle = np.concatenate(angle)
        lats = np.clip(self._city_lat[city] + radius * np.sin(angle), -89.9, 89.9)
        lons = np.clip(self._city_lon[city] + radius * np.cos(angle), -179.9, 179.9)
        city_codes = [self.world.cities[c].code for c in cities]
        self.topology.add_routers(
            np.repeat(np.array(asns, dtype=np.int64), counts),
            lats,
            lons,
            [code for code, n in zip(city_codes, counts) for _ in range(n)],
            np.concatenate(loopbacks),
        )
        self._pending_routers.clear()
        self._n_pending_routers = 0

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
        for zone in distinct(zones).tolist():
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
        key = link_key(ra, rb)
        if key in self._link_keys:
            return False
        self._link_keys.add(key)
        routers_a, routers_b, interfaces_a, interfaces_b = self._pending_links
        routers_a.append(ra)
        routers_b.append(rb)
        interfaces_a.append(self._allocate_address(self._router_asn[ra]))
        interfaces_b.append(self._allocate_address(self._router_asn[rb]))
        return True

    def _queue_as_links(
        self, asn: int, pairs_a: list[int], pairs_b: list[int]
    ) -> None:
        """Queue links among routers of AS ``asn``, dropping duplicates.

        Each new link joins its lower router id to its higher one; the
        batch's interface addresses are one allocation, the lower
        router's first per link.
        """
        keys = self._link_keys
        low: list[int] = []
        high: list[int] = []
        for ra, rb in zip(pairs_a, pairs_b):
            if rb < ra:
                ra, rb = rb, ra
            key = link_key(ra, rb)
            if ra != rb and key not in keys:
                keys.add(key)
                low.append(ra)
                high.append(rb)
        if not low:
            return
        addresses = self._allocate_addresses(asn, 2 * len(low)).tolist()
        routers_a, routers_b, interfaces_a, interfaces_b = self._pending_links
        routers_a += low
        routers_b += high
        interfaces_a += addresses[0::2]
        interfaces_b += addresses[1::2]

    def _flush_links(self) -> None:
        """Append the queued links to the topology in one batch."""
        if not self._pending_links[0]:
            return
        self.topology.add_links(*self._pending_links)
        for column in self._pending_links:
            column.clear()

    def _intra_pop_links(self, spec: _AsSpec) -> tuple[list[int], list[int]]:
        """Chain each PoP's routers, plus a few redundant metro links."""
        groups = list(spec.routers_by_city.values())
        # A few redundant metro links in big PoPs: len // 4 random pairs
        # per group, drawn for the whole AS at once.
        extra = [len(routers) for routers in groups for _ in range(len(routers) // 4)]
        picks = iter(self._pick_pairs(extra) if extra else ())
        pairs_a: list[int] = []
        pairs_b: list[int] = []
        for routers in groups:
            pairs_a.extend(routers[:-1])
            pairs_b.extend(routers[1:])
            for _ in range(len(routers) // 4):
                i, j = next(picks)
                pairs_a.append(routers[i])
                pairs_b.append(routers[j])
        return pairs_a, pairs_b

    def _backbone_links(self, spec: _AsSpec) -> tuple[list[int], list[int]]:
        """Nearest-neighbour (Prim) tree over the AS's PoP gateways."""
        gateways = [routers[0] for routers in spec.routers_by_city.values()]
        k = len(gateways)
        if k <= 1:
            return [], []
        all_lats, all_lons = self.topology.router_coordinates()
        lats = all_lats[gateways]
        lons = all_lons[gateways]
        if k * k <= _MATRIX_CELLS:
            gateway_rad = haversine_operands(lats, lons)
            row = haversine_matrix_radians(gateway_rad, gateway_rad).__getitem__
        else:
            row = HaversineRows(lats, lons).row
        # Vectorised Prim: track the distance from each outside gateway
        # to its closest in-tree gateway, O(k) work per added edge.
        min_dist = np.full(k, np.inf)
        closest = np.zeros(k, dtype=np.intp)
        outside = np.ones(k, dtype=bool)
        update = np.empty(k, dtype=bool)
        pairs_a: list[int] = []
        pairs_b: list[int] = []
        j = 0
        for _ in range(k - 1):
            outside[j] = False
            min_dist[j] = np.inf
            dists = row(j)
            np.less(dists, min_dist, out=update)
            update &= outside
            np.copyto(min_dist, dists, where=update)
            np.copyto(closest, j, where=update)
            j = int(min_dist.argmin())
            pairs_a.append(gateways[j])
            pairs_b.append(gateways[closest[j]])
        return pairs_a, pairs_b

    def _waxman_extra_links(self, spec: _AsSpec, n_extra: int) -> None:
        """Distance-sampled (or occasionally long-range) intra-AS links."""
        members = spec.router_ids
        n = len(members)
        if n < 3 or n_extra <= 0:
            return
        all_lats, all_lons = self.topology.router_coordinates()
        rows = HaversineRows(all_lats[members], all_lons[members])
        zones = [self._zone_names[self._router_zone[r]] for r in members]
        rng = self.rng
        long_range = self.config.long_range_fraction
        added = 0
        attempts = 0
        while added < n_extra and attempts < n_extra * 8:
            attempts += 1
            ui = int(rng.integers(n))
            if rng.random() < long_range:
                vi = int(rng.integers(n))
            else:
                # w = exp(-d / L), w[ui] = 0, then _cdf(w / w.sum()), in
                # place in the row buffer (-d / L is d / -L bit for bit).
                w = rows.row(ui)
                np.divide(w, -self._waxman_l_for_zone(zones[ui]), out=w)
                np.exp(w, out=w)
                w[ui] = 0.0
                total = w.sum()
                if total <= 0:
                    continue
                np.divide(w, total, out=w)
                np.cumsum(w, out=w)
                w /= w[-1]
                vi = self._pick(w)
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
            # One batch per AS: the backbone draws nothing, so its links'
            # addresses follow the intra-PoP ones as if added after them.
            pop_a, pop_b = self._intra_pop_links(spec)
            backbone_a, backbone_b = self._backbone_links(spec)
            self._queue_as_links(spec.asn, pop_a + backbone_a, pop_b + backbone_b)
        # Every link waits in the queue until generate appends them all at
        # once (the topology's columns then grow once, to their size).
        structural = len(self._link_keys)
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
        # Backbone: deterministic chain for connectivity + dense mesh,
        # one draw per tier-1 pair (i < j) in row order.
        for i in range(1, len(tier1)):
            add(tier1[i - 1], tier1[i])
        mesh = [(i, j) for n, i in enumerate(tier1) for j in tier1[n + 1:]]
        for (i, j), draw in zip(mesh, self.rng.random(len(mesh)).tolist()):
            if draw < 0.8:
                add(i, j)
        # Providers of a tier-2 AS are the tier-1 ASes, of a tier-3 AS the
        # tier-1 and tier-2 ones; neither list holds the AS itself.
        # Each AS's provider weights: size / (1 + miles between homes /
        # 1000), normalised.
        sizes = np.array([s.target_size for s in specs], dtype=float)
        provider_lists = {2: tier1, 3: tier12}
        provider_weights: dict[int, np.ndarray] = {}
        for tier, providers in provider_lists.items():
            members = [si for si, s in enumerate(specs) if s.tier == tier]
            rows: list[np.ndarray] = []
            for dist in _distance_blocks(
                self._home_operands([specs[si] for si in members]),
                self._home_operands([specs[p] for p in providers]),
            ):
                weights = sizes[providers] / (1.0 + dist / 1000.0)
                rows.extend(weights / weights.sum(axis=1, keepdims=True))
            provider_weights.update(zip(members, rows))
        for si, spec in enumerate(specs):
            if spec.tier == 1:
                continue
            providers = provider_lists[spec.tier]
            n_providers = 1 + int(self.rng.random() < 0.45)
            n_providers = min(n_providers, len(providers))
            for c in self._pick_distinct(provider_weights[si], n_providers):
                add(si, providers[c])
        # Tier-2 peering, geographically biased.
        tier2 = [i for i, s in enumerate(specs) if s.tier == 2]
        if len(tier2) >= 2:
            for a, b in self._pick_pairs([len(tier2)] * len(tier2)):
                add(tier2[a], tier2[b])
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
            picks = self.rng.integers(0, len(edges), size=extra).tolist()
            queue.extend(edges[p] for p in picks)
        for spec in specs:
            self._index_pops(spec)
        self._nearest_pops(specs, edges)
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
        spec.present_cdf = _cdf(weights / weights.sum())

    def _nearest_pops(
        self, specs: list[_AsSpec], edges: list[tuple[int, int]]
    ) -> None:
        """Fill each ``y.nearest``: for every PoP city of an AS ``x`` with
        an edge ``(x, y)``, ``y``'s PoP city nearest to it.

        One distance matrix per ``y`` over every city an interdomain link
        of ``y`` may start from; ties go to ``y``'s first such city, as
        ``np.argmin`` breaks them.
        """
        city_rad = haversine_operands(self._city_lat, self._city_lon)
        starts: dict[int, set[int]] = {}
        for a, b in edges:
            starts.setdefault(b, set()).update(specs[a].present_cities)
        for b, cities in starts.items():
            y = specs[b]
            if not cities or not y.present_cities:
                continue
            sources = np.fromiter(cities, dtype=np.intp, count=len(cities))
            pops = np.array(y.present_cities)
            nearest = np.concatenate([
                dist.argmin(axis=1) for dist in _distance_blocks(
                    tuple(op[sources] for op in city_rad),
                    tuple(op[pops] for op in city_rad),
                )
            ])
            y.nearest = dict(zip(sources.tolist(), pops[nearest].tolist()))

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
        cx = x_cities[self._pick(x.present_cdf)]
        x_here = x.routers_by_city[cx]
        y_here = y.routers_by_city[y.nearest[cx]]
        rx = x_here[int(self.rng.integers(len(x_here)))]
        ry = y_here[int(self.rng.integers(len(y_here)))]
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
        hostnames = make_hostname_batch(
            interface_routers=topology.interface_routers(),
            city_codes=topology.router_city_codes(),
            domains=[domain_by_asn[asn] for asn in r_asn.tolist()],
            rng=self.rng,
            embed_location=embed_by_router,
        )
        i_addr = topology.interface_addresses()
        topology.hostnames.update(zip(i_addr.tolist(), hostnames))

    # -- driver ------------------------------------------------------------------

    def generate(self) -> Topology:
        """Run all generation stages; returns the validated topology."""
        attraction = self._city_attractiveness()
        city_counts = self._city_router_counts(attraction)
        specs = self._make_as_specs(attraction)
        self._choose_pop_cities(specs, attraction)
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
