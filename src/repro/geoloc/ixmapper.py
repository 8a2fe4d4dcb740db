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

from repro.geoloc.base import (
    METHOD_DNSLOC,
    METHOD_HOSTNAME,
    METHOD_WHOIS,
    WhoisBackedGeolocator,
)


class IxMapper(WhoisBackedGeolocator):
    """Hostname-first geolocator with LOC and whois fallbacks."""

    chain = (METHOD_HOSTNAME, METHOD_DNSLOC, METHOD_WHOIS)
    failure_rate = 0.012

    @property
    def name(self) -> str:
        """Tool name as used in dataset labels."""
        return "IxMapper"
