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

from typing import Sequence

import numpy as np

from repro.errors import GeolocationError
from repro.geoloc.base import (
    METHOD_UNMAPPED,
    METHOD_WHOIS,
    GeoContext,
    MappingResult,
)
from repro.geoloc.whois import OrgRecord


class NetGeo:
    """Whois-registry-only geolocator (every host maps to its org HQ)."""

    def __init__(
        self,
        context: GeoContext,
        rng: np.random.Generator,
        failure_rate: float = 0.05,
    ) -> None:
        if not (0.0 <= failure_rate <= 1.0):
            raise GeolocationError("failure_rate must be in [0, 1]")
        self._context = context
        self._rng = rng
        self._failure_rate = failure_rate

    @property
    def name(self) -> str:
        """Tool name as used in dataset labels."""
        return "NetGeo"

    def locate(self, address: int) -> MappingResult:
        """Locate an address via whois only."""
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
            else self._resolve(org)
            for fail, org in zip(failed, orgs)
        ]

    def _resolve(self, org: OrgRecord | None) -> MappingResult:
        """The whois answer for one address (no randomness)."""
        if org is None:
            return MappingResult(location=None, method=METHOD_UNMAPPED)
        return MappingResult(location=org.headquarters, method=METHOD_WHOIS)
