"""NetGeo-style geolocation: the whois-only baseline.

CAIDA's NetGeo — the ancestor IxMapper extends — built its database
primarily from whois lookups against the regional registries.  As the
paper notes, that is "generally accurate for small organizations but
may fail in cases where geographically dispersed hosts are mapped to an
organization's registered headquarters".  This mapper is useful as a
baseline in geolocation-sensitivity studies: it shows how far the
hostname/ISP techniques moved the state of the art.
"""

from __future__ import annotations

import numpy as np

from repro.geoloc.base import (
    METHOD_UNMAPPED,
    METHOD_WHOIS,
    GeoContext,
    MappingResult,
    WhoisBackedGeolocator,
)
from repro.geoloc.whois import OrgRecord


class NetGeo(WhoisBackedGeolocator):
    """Whois-registry-only geolocator (every host maps to its org HQ)."""

    def __init__(
        self,
        context: GeoContext,
        rng: np.random.Generator,
        failure_rate: float = 0.05,
    ) -> None:
        super().__init__(context, rng, failure_rate)

    @property
    def name(self) -> str:
        """Tool name as used in dataset labels."""
        return "NetGeo"

    def _resolve(self, address: int, org: OrgRecord | None) -> MappingResult:
        """The whois answer (the address itself plays no part)."""
        if org is None:
            return MappingResult(location=None, method=METHOD_UNMAPPED)
        return MappingResult(location=org.headquarters, method=METHOD_WHOIS)
