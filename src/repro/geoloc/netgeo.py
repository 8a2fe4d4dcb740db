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

from repro.geoloc.base import WhoisBackedGeolocator


class NetGeo(WhoisBackedGeolocator):
    """Whois-registry-only geolocator (every host maps to its org HQ)."""

    failure_rate = 0.05

    @property
    def name(self) -> str:
        """Tool name as used in dataset labels."""
        return "NetGeo"
