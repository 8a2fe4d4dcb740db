"""IxMapper-style geolocation.

The simulated tool follows the real tool's documented fallback chain:

1. **Hostname-based mapping** — parse the ISP's city/airport code out of
   the interface's DNS name; accurate to city granularity (Padmanabhan &
   Subramanian).  Fails when the ISP embeds no code or uses a code the
   directory does not know.
2. **DNS LOC records** — exact, but rarely published.
3. **whois records** — the registered organisation's headquarters;
   systematically wrong for geographically dispersed organisations.

A small residual fraction is unmappable (no hostname, no LOC, no usable
whois, or random lookup failure), matching the paper's ~1-1.5%.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GeolocationError
from repro.geoloc.base import (
    METHOD_DNSLOC,
    METHOD_HOSTNAME,
    METHOD_UNMAPPED,
    METHOD_WHOIS,
    GeoContext,
    MappingResult,
)
from repro.geoloc.whois import OrgRecord
from repro.net.hostnames import extract_city_code


class IxMapper:
    """Hostname-first geolocator with LOC and whois fallbacks."""

    def __init__(
        self,
        context: GeoContext,
        rng: np.random.Generator,
        failure_rate: float = 0.012,
    ) -> None:
        if not (0.0 <= failure_rate <= 1.0):
            raise GeolocationError("failure_rate must be in [0, 1]")
        self._context = context
        self._rng = rng
        self._failure_rate = failure_rate

    @property
    def name(self) -> str:
        """Tool name as used in dataset labels."""
        return "IxMapper"

    def locate(self, address: int) -> MappingResult:
        """Locate an address via hostname, then LOC, then whois."""
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
        loc = self._context.loc_records.get(address)
        if loc is not None:
            return MappingResult(location=loc, method=METHOD_DNSLOC)
        if org is not None:
            return MappingResult(location=org.headquarters, method=METHOD_WHOIS)
        return MappingResult(location=None, method=METHOD_UNMAPPED)
