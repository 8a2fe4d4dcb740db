"""Geolocator interface and the shared lookup context.

A geolocator maps one interface address to geographic coordinates, or
declares it unmappable.  Both simulated tools (IxMapper, EdgeScape) read
from a :class:`GeoContext` — the world knowledge a real mapping service
would have assembled: the city-code directory, observed DNS hostnames,
the whois registry, and published DNS LOC records.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.config import GeolocConfig
from repro.errors import GeolocationError
from repro.obs import current_metrics
from repro.obs import span as obs_span
from repro.geo.coords import GeoPoint
from repro.geoloc.dnsloc import build_loc_records
from repro.geoloc.whois import OrgRecord, WhoisRegistry
from repro.net.addressing import AddressPlan
from repro.net.topology import Topology
from repro.population.worldmodel import World

#: Method tags a geolocator can report.
METHOD_HOSTNAME = "hostname"
METHOD_DNSLOC = "dnsloc"
METHOD_WHOIS = "whois"
METHOD_ISP = "isp"
METHOD_UNMAPPED = "unmapped"


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


@dataclass(frozen=True)
class GeoContext:
    """Everything a mapping service knows about the world.

    Attributes:
        city_locations: city code -> city centre.
        hostnames: interface address -> DNS hostname.
        whois: the simulated registry.
        loc_records: interface address -> exact LOC-record location.
        as_of_address: precomputed true owner ASN per interface (used
            only by EdgeScape's ISP-feed path, which models contractual
            data shared by the ISPs themselves).
    """

    city_locations: dict[str, GeoPoint]
    hostnames: dict[int, str]
    whois: WhoisRegistry
    loc_records: dict[int, GeoPoint]
    as_of_address: dict[int, int]


def build_context(
    world: World,
    topology: Topology,
    plan: AddressPlan,
    config: GeolocConfig,
    rng: np.random.Generator,
) -> GeoContext:
    """Assemble the lookup context from the ground truth."""
    city_locations = {city.code: city.location for city in world.cities}
    whois = WhoisRegistry.from_plan(plan, topology.asns)
    loc_records = build_loc_records(topology, config.ixmapper_dnsloc_rate, rng)
    owner_asns = topology.router_asns()[topology.interface_routers()]
    as_of_address = dict(
        zip(topology.interface_addresses().tolist(), owner_asns.tolist())
    )
    return GeoContext(
        city_locations=city_locations,
        hostnames=dict(topology.hostnames),
        whois=whois,
        loc_records=loc_records,
        as_of_address=as_of_address,
    )


class Geolocator(Protocol):
    """Anything that can place an interface address on the map."""

    @property
    def name(self) -> str:
        """Tool name (used in dataset labels, e.g. Table I rows)."""
        ...

    def locate(self, address: int) -> MappingResult:
        """Locate one interface address."""
        ...

    def locate_many(self, addresses: Sequence[int]) -> list[MappingResult]:
        """Locate a batch of addresses, one result per input, in order.

        The mapping stage's hot path: implementations should vectorise
        whatever they can (the built-in tools batch their RNG draws) but
        must consume randomness exactly as an equivalent sequence of
        ``locate`` calls would, so batch size never changes results.
        """
        ...


class WhoisBackedGeolocator:
    """Shared batch path of the tools that fall back on whois.

    One uniform failure draw per address, in order, and one whois
    lookup for the whole batch; each surviving address then goes
    through the tool's deterministic :meth:`_resolve` chain.  Batch
    size therefore never changes results: ``locate`` is a batch of one.
    """

    def __init__(
        self, context: GeoContext, rng: np.random.Generator, failure_rate: float
    ) -> None:
        if not (0.0 <= failure_rate <= 1.0):
            raise GeolocationError("failure_rate must be in [0, 1]")
        self._context = context
        self._rng = rng
        self._failure_rate = failure_rate

    def locate(self, address: int) -> MappingResult:
        """Locate one address."""
        return self.locate_many((address,))[0]

    def locate_many(self, addresses: Sequence[int]) -> list[MappingResult]:
        """Batch-locate addresses with one vectorised failure draw."""
        n = len(addresses)
        if n == 0:
            return []
        failed = self._rng.random(n) < self._failure_rate
        orgs = self._context.whois.lookup_many(addresses)
        return [
            MappingResult(location=None, method=METHOD_UNMAPPED)
            if fail
            else self._resolve(address, org)
            for address, fail, org in zip(addresses, failed, orgs)
        ]

    def _resolve(self, address: int, org: OrgRecord | None) -> MappingResult:
        """The tool's fallback chain for one address (no randomness)."""
        raise NotImplementedError


def locate_batch(
    geolocator: Geolocator, addresses: Sequence[int]
) -> list[MappingResult]:
    """Batch-locate through the tool's ``locate_many``.

    Repeated addresses within one batch are resolved **once**: the tool
    sees each distinct address a single time (first-occurrence order)
    and every duplicate input receives that one result.  This keeps the
    query server's micro-batcher from geolocating the same IP twice per
    flush, and makes duplicate inputs deterministic even for tools with
    per-call randomness.  The pipeline's batches never contain
    duplicates, so its RNG consumption (and every golden value) is
    unchanged.

    When observability is active (``repro.obs``), each batch runs in a
    ``geoloc.locate_batch`` span and records batch size, per-source
    resolution counters (``geoloc.method.<method>``), the
    unknown-location residual (``geoloc.unmapped``), and the number of
    duplicate lookups saved (``geoloc.dedup_saved``).
    """
    tool = getattr(geolocator, "name", type(geolocator).__name__)
    unique: list[int] = []
    seen: dict[int, int] = {}
    for address in addresses:
        if address not in seen:
            seen[address] = len(unique)
            unique.append(address)
    n_duplicates = len(addresses) - len(unique)
    with obs_span(
        "geoloc.locate_batch",
        tool=tool,
        batch_size=len(addresses),
        unique=len(unique),
    ):
        unique_results = list(geolocator.locate_many(unique))
    if len(unique_results) != len(unique):
        raise GeolocationError(
            f"{tool} returned {len(unique_results)} results "
            f"for {len(unique)} addresses"
        )
    results = [unique_results[seen[address]] for address in addresses]
    metrics = current_metrics()
    if metrics is not None:
        metrics.counter("geoloc.batches").add(1)
        metrics.counter("geoloc.addresses").add(len(results))
        metrics.counter("geoloc.dedup_saved").add(n_duplicates)
        metrics.histogram("geoloc.batch_size").observe(len(results))
        by_method = Counter(result.method for result in results)
        for method, count in by_method.items():
            metrics.counter(f"geoloc.method.{method}").add(count)
        metrics.counter("geoloc.unmapped").add(
            by_method.get(METHOD_UNMAPPED, 0)
        )
    return results
