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

import numpy as np

from repro.errors import GeolocationError
from repro.geoloc.base import (
    METHOD_HOSTNAME,
    METHOD_ISP,
    METHOD_WHOIS,
    METHODS,
    GeoContext,
    WhoisBackedGeolocator,
)
from repro.net.topology import Topology


class EdgeScape(WhoisBackedGeolocator):
    """ISP-feed-first geolocator with hostname and whois fallbacks.

    The feed reports each interface's city (the context's ISP column),
    but only for the ASes that share one with the tool.
    """

    chain = (METHOD_ISP, METHOD_HOSTNAME, METHOD_WHOIS)
    failure_rate = 0.004

    def __init__(
        self,
        context: GeoContext,
        topology: Topology,
        rng: np.random.Generator,
        isp_coverage: float = 0.85,
        failure_rate: float | None = None,
    ) -> None:
        if not (0.0 <= isp_coverage <= 1.0):
            raise GeolocationError("isp_coverage must be in [0, 1]")
        super().__init__(context, rng, failure_rate)
        # Which ASes share location feeds: one draw per AS, fixed for the
        # lifetime of the tool (a contract either exists or does not).
        asns = np.fromiter(topology.asns, dtype=np.int64, count=len(topology.asns))
        self._covered = asns[rng.random(asns.size) < isp_coverage]

    @property
    def name(self) -> str:
        """Tool name as used in dataset labels."""
        return "EdgeScape"

    @property
    def covered_asns(self) -> set[int]:
        """ASes with ISP location feeds."""
        return set(self._covered.tolist())

    def _answers(self, addresses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The context's table rows, the feed kept for covered ASes only."""
        owners, lats, lons = self._context.lookup(addresses)
        lats[~np.isin(owners, self._covered), METHODS.index(METHOD_ISP) - 1] = np.nan
        return lats, lons
