"""Ground-truth autonomous systems.

An :class:`AutonomousSystem` is the one per-element record of the
planted Internet.  Routers, links and interfaces — the paper's two
measurement units are routers (Mercator) and interfaces (Skitter) — are
rows of :class:`~repro.net.topology.Topology`'s columns: a router owns
one interface per incident link plus a loopback, and every link
connects two specific interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TopologyError
from repro.geo.coords import GeoPoint


@dataclass(frozen=True, slots=True)
class AutonomousSystem:
    """An autonomous system in the ground-truth world.

    Attributes:
        asn: autonomous system number (> 0).
        name: organisation name (drives hostnames and whois records).
        headquarters: registered HQ location — where whois-based
            geolocation will (sometimes wrongly) place the AS's hosts.
        hostname_adherence: probability that a router hostname embeds its
            city code (per-ISP naming discipline).
        tier: 1 for backbone carriers, 2 for regional, 3 for stubs.
    """

    asn: int
    name: str
    headquarters: GeoPoint
    hostname_adherence: float = 0.9
    tier: int = 3

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise TopologyError(f"ASN must be positive, got {self.asn}")
        if not (0.0 <= self.hostname_adherence <= 1.0):
            raise TopologyError("hostname_adherence must be in [0, 1]")
        if self.tier not in (1, 2, 3):
            raise TopologyError(f"tier must be 1, 2 or 3, got {self.tier}")

    @property
    def domain(self) -> str:
        """DNS domain for this AS's router hostnames."""
        slug = "".join(ch for ch in self.name.lower() if ch.isalnum())
        return f"{slug or 'as' + str(self.asn)}.net"
