"""Geolocator interface and the shared lookup context.

A geolocator maps interface addresses to geographic coordinates, or
declares them unmappable.  Both simulated tools (IxMapper, EdgeScape)
read from a :class:`GeoContext`: what a mapping service knows about the
world (city codes in DNS hostnames, DNS LOC records, the whois registry,
the ISPs' own location feeds), tabulated once per run as each source's
answer per topology interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.config import GeolocConfig
from repro.errors import GeolocationError
from repro.obs import current_metrics
from repro.obs import span as obs_span
from repro.geo.coords import GeoPoint
from repro.geo.distance import haversine_miles
from repro.geoloc.dnsloc import build_loc_records
from repro.geoloc.whois import WhoisRegistry
from repro.measure.inventory import positions
from repro.net.addressing import AddressPlan
from repro.net.hostnames import extract_city_codes
from repro.net.topology import Topology
from repro.population.worldmodel import World

#: Method tags a geolocator can report.
METHOD_HOSTNAME = "hostname"
METHOD_DNSLOC = "dnsloc"
METHOD_WHOIS = "whois"
METHOD_ISP = "isp"
METHOD_UNMAPPED = "unmapped"

#: Method codes of a :class:`Locations` batch: ``METHODS[code]`` is the
#: tag.  Code ``c > 0`` is also column ``c - 1`` of the context table.
METHODS = (METHOD_UNMAPPED, METHOD_HOSTNAME, METHOD_DNSLOC, METHOD_WHOIS, METHOD_ISP)


@dataclass(frozen=True, slots=True)
class MappingResult:
    """Outcome of locating one address.

    Attributes:
        location: coordinates, or None when unmappable.
        method: which technique produced the answer.
    """

    location: GeoPoint | None
    method: str

    @property
    def mapped(self) -> bool:
        """True when a location was produced."""
        return self.location is not None


@dataclass(frozen=True, slots=True)
class Locations:
    """Where a geolocator placed a batch of addresses.

    Attributes:
        lats, lons: coordinates per address, NaN where unmapped.
        methods: the :data:`METHODS` code of each answer (0: unmapped).
    """

    lats: np.ndarray
    lons: np.ndarray
    methods: np.ndarray

    def __len__(self) -> int:
        return int(self.methods.size)

    @property
    def mapped(self) -> np.ndarray:
        """True per address that was placed."""
        return self.methods != 0

    def results(self) -> list[MappingResult]:
        """One result per address, in order."""
        return [
            MappingResult(GeoPoint(lat, lon), METHODS[code])
            if code
            else MappingResult(None, METHOD_UNMAPPED)
            for lat, lon, code in zip(
                self.lats.tolist(), self.lons.tolist(), self.methods.tolist()
            )
        ]

    @classmethod
    def from_results(cls, results: Sequence[MappingResult]) -> "Locations":
        """The batch of per-address results (for tools that answer one
        address at a time)."""
        points = [
            (r.location.lat, r.location.lon) if r.mapped else (np.nan, np.nan)
            for r in results
        ]
        lats, lons = np.array(points, dtype=float).reshape(-1, 2).T
        methods = [METHODS.index(r.method) for r in results]
        return cls(lats, lons, np.array(methods, dtype=np.int8))


@dataclass(frozen=True)
class GeoContext:
    """What a mapping service knows, tabulated over topology interfaces.

    Attributes:
        addresses: the interface addresses, sorted: the table's rows.
        owner_asns: true owner AS per row (keys EdgeScape's ISP feed).
        lats, lons: ``(rows + 1, 4)`` answers per row and source, source
            ``METHODS[c]`` in column ``c - 1``: the hostname's city, the
            LOC record, the whois headquarters, the ISP feed's city; NaN
            where a source has none.  The last row (owner -1) answers
            nothing: it is row -1, read for addresses outside the table.
        whois: the registry, which also answers for addresses outside
            the table (no other source knows those).
    """

    addresses: np.ndarray
    owner_asns: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    whois: WhoisRegistry

    @classmethod
    def build(
        cls,
        topology: Topology,
        city_locations: Mapping[str, GeoPoint],
        hostnames: Mapping[int, str],
        whois: WhoisRegistry,
        loc_records: Mapping[int, GeoPoint],
    ) -> "GeoContext":
        """Tabulate each source's answer for every topology interface,
        with one regex pass over the hostnames.  Knowledge about other
        addresses is ignored."""
        order = np.argsort(topology.interface_addresses(), kind="stable")
        addresses = topology.interface_addresses()[order]
        routers = topology.interface_routers()[order]
        lats, lons = np.full((2, addresses.size + 1, len(METHODS) - 1), np.nan)
        # City centres, then a no-city entry.
        city_lats = np.array([p.lat for p in city_locations.values()] + [np.nan])
        city_lons = np.array([p.lon for p in city_locations.values()] + [np.nan])
        index = {code: i for i, code in enumerate(city_locations)}

        def cities(codes: list[str]) -> np.ndarray:
            return np.fromiter(map(index.get, codes, repeat(-1)), np.intp, len(codes))

        named = cities(extract_city_codes(list(hostnames.values())))
        points = list(loc_records.values())
        for column, known, known_lats, known_lons in (
            (0, hostnames, city_lats[named], city_lons[named]),
            (1, loc_records, [p.lat for p in points], [p.lon for p in points]),
        ):
            rows = positions(addresses, np.fromiter(known, np.int64, len(known)))
            lats[rows, column], lons[rows, column] = known_lats, known_lons
        lats[-1] = lons[-1] = np.nan  # where knowledge of other addresses landed
        lats[:-1, 2], lons[:-1, 2] = whois.headquarters(addresses)
        # The ISP feed: each router's PoP city, else the town nearest its
        # true position (the real service returns city or postal
        # centroids, never exact machine coordinates), else, with no towns
        # at all, the true position.
        router_lats, router_lons = topology.router_coordinates()
        feed = cities(topology.router_city_codes())
        far = np.flatnonzero(feed < 0) if city_locations else np.empty(0, np.intp)
        for start in range(0, far.size, 1024):
            chunk = far[start : start + 1024]
            distances = haversine_miles(
                router_lats[chunk, None],
                router_lons[chunk, None],
                city_lats[:-1],
                city_lons[:-1],
            )
            feed[chunk] = np.argmin(distances, axis=1)
        feed = feed[routers]
        lats[:-1, 3] = np.where(feed < 0, router_lats[routers], city_lats[feed])
        lons[:-1, 3] = np.where(feed < 0, router_lons[routers], city_lons[feed])
        owners = np.append(topology.router_asns()[routers], -1)
        return cls(addresses, owners, lats, lons, whois)

    def lookup(
        self, addresses: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Owner AS and the ``lats``/``lons`` table rows of a batch.

        Raises:
            AddressError: if an address outside the table lies outside
                the 32-bit space.
        """
        rows = positions(self.addresses, addresses)
        lats, lons = self.lats[rows], self.lons[rows]
        outside = rows < 0
        if np.any(outside):
            lats[outside, 2], lons[outside, 2] = self.whois.headquarters(
                addresses[outside]
            )
        return self.owner_asns[rows], lats, lons


def build_context(
    world: World,
    topology: Topology,
    plan: AddressPlan,
    config: GeolocConfig,
    rng: np.random.Generator,
) -> GeoContext:
    """Assemble the lookup table from the ground truth."""
    return GeoContext.build(
        topology,
        {city.code: city.location for city in world.cities},
        topology.hostnames,
        WhoisRegistry.from_plan(plan, topology.asns),
        build_loc_records(topology, config.ixmapper_dnsloc_rate, rng),
    )


class Geolocator(Protocol):
    """Anything that can place interface addresses on the map."""

    @property
    def name(self) -> str:
        """Tool name (used in dataset labels, e.g. Table I rows)."""
        ...

    def locate(self, address: int) -> MappingResult:
        """Locate one interface address."""
        ...

    def locate_many(self, addresses: np.ndarray) -> Locations:
        """Locate a batch of addresses, one answer per input, in order,
        drawing randomness as the same ``locate`` calls would."""
        ...


class WhoisBackedGeolocator:
    """Shared batch path of the tools that fall back on whois.

    One uniform failure draw per address, in order; every surviving
    address then takes the first answer down the tool's :attr:`chain` of
    context sources.  ``locate`` is a batch of one.
    """

    #: The tool's fallback chain: context sources in the order tried.
    chain: tuple[str, ...] = (METHOD_WHOIS,)
    #: Share of lookups failing at random, unless the caller sets one.
    failure_rate: float = 0.0

    def __init__(
        self,
        context: GeoContext,
        rng: np.random.Generator,
        failure_rate: float | None = None,
    ) -> None:
        if failure_rate is not None:
            self.failure_rate = failure_rate
        if not (0.0 <= self.failure_rate <= 1.0):
            raise GeolocationError("failure_rate must be in [0, 1]")
        self._context = context
        self._rng = rng

    def locate(self, address: int) -> MappingResult:
        """Locate one address."""
        return self.locate_many(np.array([address], dtype=np.int64)).results()[0]

    def locate_many(self, addresses) -> Locations:
        """Batch-locate addresses with one vectorised failure draw."""
        addresses = np.asarray(addresses, dtype=np.int64).reshape(-1)
        n = addresses.size
        failed = self._rng.random(n) < self.failure_rate
        lats, lons = self._answers(addresses)
        codes = np.array([METHODS.index(method) for method in self.chain])
        answered = ~np.isnan(lats[:, codes - 1]) & ~failed[:, None]
        first = np.argmax(answered, axis=1)
        hit = answered[np.arange(n), first]
        column = codes[first] - 1
        return Locations(
            np.where(hit, lats[np.arange(n), column], np.nan),
            np.where(hit, lons[np.arange(n), column], np.nan),
            np.where(hit, codes[first], 0).astype(np.int8),
        )

    def _answers(self, addresses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The context's table rows for the batch."""
        return self._context.lookup(addresses)[1:]


def locate_batch(geolocator: Geolocator, addresses) -> Locations:
    """Batch-locate through the tool's ``locate_many``.

    The tool sees each distinct address once, in first-occurrence order,
    and every duplicate input receives that one answer.  Under
    ``repro.obs`` each batch runs in a ``geoloc.locate_batch`` span and
    counts batches, addresses, duplicates saved, answers per method
    (``geoloc.method.<method>``) and the unmapped residual.
    """
    tool = getattr(geolocator, "name", type(geolocator).__name__)
    addresses = np.asarray(addresses, dtype=np.int64).reshape(-1)
    distinct, first, inverse = np.unique(
        addresses, return_index=True, return_inverse=True
    )
    by_first = np.argsort(first)
    slot = np.empty_like(by_first)
    slot[by_first] = np.arange(by_first.size)
    with obs_span(
        "geoloc.locate_batch",
        tool=tool,
        batch_size=int(addresses.size),
        unique=int(distinct.size),
    ):
        found = geolocator.locate_many(distinct[by_first])
    if len(found) != distinct.size:
        raise GeolocationError(
            f"{tool} returned {len(found)} results for {distinct.size} addresses"
        )
    at = slot[inverse]
    results = Locations(found.lats[at], found.lons[at], found.methods[at])
    metrics = current_metrics()
    if metrics is not None:
        metrics.counter("geoloc.batches").add(1)
        metrics.counter("geoloc.addresses").add(len(results))
        metrics.counter("geoloc.dedup_saved").add(len(results) - int(distinct.size))
        metrics.histogram("geoloc.batch_size").observe(len(results))
        codes, first_seen, counts = np.unique(
            results.methods, return_index=True, return_counts=True
        )
        for i in np.argsort(first_seen).tolist():
            metrics.counter(f"geoloc.method.{METHODS[codes[i]]}").add(int(counts[i]))
        metrics.counter("geoloc.unmapped").add(int(np.count_nonzero(~results.mapped)))
    return results
