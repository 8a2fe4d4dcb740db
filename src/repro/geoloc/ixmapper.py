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

import numpy as np

from repro.errors import GeolocationError
from repro.geoloc.base import (
    METHOD_DNSLOC,
    METHOD_HOSTNAME,
    METHOD_UNMAPPED,
    METHOD_WHOIS,
    GeoContext,
    MappingResult,
    WhoisBackedGeolocator,
)
from repro.geoloc.whois import OrgRecord
from repro.net.hostnames import extract_city_code


class IxMapper(WhoisBackedGeolocator):
    """Hostname-first geolocator with LOC and whois fallbacks."""

    def __init__(
        self,
        context: GeoContext,
        rng: np.random.Generator,
        failure_rate: float = 0.012,
    ) -> None:
        super().__init__(context, rng, failure_rate)

    @property
    def name(self) -> str:
        """Tool name as used in dataset labels."""
        return "IxMapper"

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
