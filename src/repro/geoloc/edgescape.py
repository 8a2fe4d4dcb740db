"""EdgeScape-style geolocation.

Akamai's EdgeScape supplements hostname techniques with *internal ISP
geographical information* obtained through its network relationships and
server deployment.  The simulator models that as per-AS coverage: for a
covered AS, the tool knows the true city of every router (returned with
city-snap accuracy); otherwise it falls back to hostname parsing and
finally whois.  Coverage is broad, so the unmapped residual is smaller
than IxMapper's (the paper reports 0.3-0.6% vs 1-1.5%).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GeolocationError
from repro.geo.coords import GeoPoint
from repro.geo.distance import haversine_miles
from repro.geoloc.base import (
    METHOD_HOSTNAME,
    METHOD_ISP,
    METHOD_UNMAPPED,
    METHOD_WHOIS,
    GeoContext,
    MappingResult,
)
from repro.geoloc.whois import OrgRecord
from repro.net.hostnames import extract_city_code
from repro.net.topology import Topology


class EdgeScape:
    """ISP-feed-first geolocator with hostname and whois fallbacks."""

    def __init__(
        self,
        context: GeoContext,
        topology: Topology,
        rng: np.random.Generator,
        isp_coverage: float = 0.85,
        failure_rate: float = 0.004,
    ) -> None:
        if not (0.0 <= isp_coverage <= 1.0):
            raise GeolocationError("isp_coverage must be in [0, 1]")
        if not (0.0 <= failure_rate <= 1.0):
            raise GeolocationError("failure_rate must be in [0, 1]")
        self._context = context
        self._rng = rng
        self._failure_rate = failure_rate
        # Which ASes share location feeds: one draw per AS, fixed for the
        # lifetime of the tool (a contract either exists or does not).
        asn_list = list(topology.asns)
        coverage_draws = rng.random(len(asn_list))
        self._covered_asns = {
            asn
            for asn, draw in zip(asn_list, coverage_draws.tolist())
            if draw < isp_coverage
        }
        # The ISP feed reports each interface's city: the hosting PoP's
        # city when known, else the town nearest the true position (the
        # real service returns city/postal centroids, never exact
        # machine coordinates).
        self._isp_locations: dict[int, GeoPoint] = {}
        self._build_isp_locations(context, topology)

    def _build_isp_locations(
        self, context: GeoContext, topology: Topology
    ) -> None:
        """Resolve the feed's per-interface city centroids, batched."""
        if not self._covered_asns or topology.n_interfaces == 0:
            return
        city_by_code = context.city_locations
        city_points = list(city_by_code.values())
        city_lats = np.array([p.lat for p in city_points])
        city_lons = np.array([p.lon for p in city_points])
        interface_routers = topology.interface_routers()
        owner_asns = topology.router_asns()[interface_routers]
        covered = np.isin(
            owner_asns,
            np.fromiter(
                self._covered_asns, dtype=np.int64, count=len(self._covered_asns)
            ),
        )
        selected = np.flatnonzero(covered)
        if selected.size == 0:
            return
        # One location per distinct covered router, shared by all of its
        # interfaces; nearest-city searches run in vectorised chunks.
        lats, lons = topology.router_coordinates()
        city_codes = topology.router_city_codes()
        resolved: dict[int, GeoPoint] = {}
        need_nearest: list[int] = []
        for rid in np.unique(interface_routers[selected]).tolist():
            code = city_codes[rid]
            city = city_by_code.get(code) if code else None
            if city is not None:
                resolved[rid] = city
            elif city_lats.size:
                need_nearest.append(rid)
            else:
                resolved[rid] = GeoPoint(lat=float(lats[rid]), lon=float(lons[rid]))
        for start in range(0, len(need_nearest), 1024):
            chunk = np.asarray(need_nearest[start : start + 1024], dtype=np.intp)
            distances = haversine_miles(
                lats[chunk][:, None],
                lons[chunk][:, None],
                city_lats[None, :],
                city_lons[None, :],
            )
            for rid, index in zip(
                chunk.tolist(), np.argmin(distances, axis=1).tolist()
            ):
                resolved[rid] = city_points[index]
        addresses = topology.interface_addresses()
        for position in selected.tolist():
            self._isp_locations[int(addresses[position])] = resolved[
                int(interface_routers[position])
            ]

    @property
    def name(self) -> str:
        """Tool name as used in dataset labels."""
        return "EdgeScape"

    @property
    def covered_asns(self) -> set[int]:
        """ASes with ISP location feeds."""
        return set(self._covered_asns)

    def locate(self, address: int) -> MappingResult:
        """Locate an address via ISP feed, then hostname, then whois."""
        return self.locate_many((address,))[0]

    def locate_many(self, addresses: Sequence[int]) -> list[MappingResult]:
        """Batch-locate addresses with one vectorised failure draw.

        Consumes exactly one uniform variate per address, in order, so
        results are bit-identical to per-address ``locate`` calls.  The
        whois registry answers the whole batch in one lookup.
        """
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
        """The fallback chain for one address (no randomness)."""
        isp = self._isp_locations.get(address)
        if isp is not None:
            return MappingResult(location=isp, method=METHOD_ISP)
        hostname = self._context.hostnames.get(address)
        if hostname is not None:
            try:
                code = extract_city_code(hostname)
            except GeolocationError:
                code = None
            if code is not None:
                city = self._context.city_locations.get(code)
                if city is not None:
                    return MappingResult(location=city, method=METHOD_HOSTNAME)
        if org is not None:
            return MappingResult(location=org.headquarters, method=METHOD_WHOIS)
        return MappingResult(location=None, method=METHOD_UNMAPPED)
