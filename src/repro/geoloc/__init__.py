"""Geolocation simulators: IxMapper and EdgeScape stand-ins."""

from repro.geoloc.base import (
    METHOD_DNSLOC,
    METHOD_HOSTNAME,
    METHOD_ISP,
    METHOD_UNMAPPED,
    METHOD_WHOIS,
    GeoContext,
    Geolocator,
    Locations,
    MappingResult,
    build_context,
    locate_batch,
)
from repro.geoloc.dnsloc import build_loc_records
from repro.geoloc.edgescape import EdgeScape
from repro.geoloc.ixmapper import IxMapper
from repro.geoloc.netgeo import NetGeo
from repro.geoloc.whois import OrgRecord, WhoisRegistry

__all__ = [
    "METHOD_DNSLOC",
    "METHOD_HOSTNAME",
    "METHOD_ISP",
    "METHOD_UNMAPPED",
    "METHOD_WHOIS",
    "GeoContext",
    "Geolocator",
    "Locations",
    "MappingResult",
    "build_context",
    "locate_batch",
    "build_loc_records",
    "EdgeScape",
    "IxMapper",
    "NetGeo",
    "OrgRecord",
    "WhoisRegistry",
]
