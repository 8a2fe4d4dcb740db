"""Simulated DNS LOC records (RFC 1876).

LOC records give an exact machine location but are optional and rarely
published; geolocators use them as a high-accuracy fallback.  We give a
small random subset of interfaces a LOC record carrying the true router
coordinates.
"""

from __future__ import annotations

import numpy as np

from repro.geo.coords import GeoPoint
from repro.net.topology import Topology


def build_loc_records(
    topology: Topology, rate: float, rng: np.random.Generator
) -> dict[int, GeoPoint]:
    """LOC records for a random ``rate`` fraction of interfaces.

    Returns:
        interface address -> exact router location.
    """
    if rate <= 0 or topology.n_interfaces == 0:
        return {}
    # One uniform draw per interface, in insertion order.
    selected = np.flatnonzero(rng.random(topology.n_interfaces) < rate)
    addresses = topology.interface_addresses()[selected].tolist()
    routers = topology.interface_routers()[selected]
    lats, lons = topology.router_coordinates()
    return {
        address: GeoPoint(lat=lat, lon=lon)
        for address, lat, lon in zip(
            addresses, lats[routers].tolist(), lons[routers].tolist()
        )
    }
