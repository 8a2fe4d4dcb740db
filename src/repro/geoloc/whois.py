"""Simulated whois registry.

Whois-based geolocation resolves an address to the *registered
organisation* and returns the organisation's headquarters — accurate for
small single-site organisations, but systematically wrong for ISPs with
geographically dispersed infrastructure, whose every router then maps to
one HQ city.  That failure mode is important: it produces the piles of
interfaces at a handful of locations visible in the paper's Figure 8(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.bgp.table import PrefixMatch
from repro.geo.coords import GeoPoint
from repro.measure.inventory import positions
from repro.net.addressing import AddressPlan
from repro.net.elements import AutonomousSystem
from repro.net.ip import Prefix


@dataclass(frozen=True, slots=True)
class OrgRecord:
    """A whois organisation record.

    Attributes:
        asn: the organisation's AS number.
        name: organisation name.
        headquarters: registered address location.
    """

    asn: int
    name: str
    headquarters: GeoPoint


class WhoisRegistry:
    """Address -> organisation lookups backed by registry allocations.

    Allocations are matched with the same :class:`~repro.bgp.table.PrefixMatch`
    the RIB uses.  Whois lookups are not RIB lookups, so they add nothing
    to the ``bgp.lookups``/``bgp.misses`` counters.
    """

    def __init__(
        self, orgs: dict[int, OrgRecord], allocations: Mapping[Prefix, int]
    ) -> None:
        self._orgs = orgs
        self._match = PrefixMatch(allocations)
        self._org_asns = np.array(sorted(orgs), dtype=np.int64)
        # Headquarters per organisation (ASN order), then a no-org entry.
        self._hq = np.array(
            [(orgs[a].headquarters.lat, orgs[a].headquarters.lon) for a in sorted(orgs)]
            + [(np.nan, np.nan)]
        )

    @classmethod
    def from_plan(
        cls, plan: AddressPlan, asns: dict[int, AutonomousSystem]
    ) -> "WhoisRegistry":
        """Build the registry from the ground truth's address grants."""
        orgs = {
            asn: OrgRecord(asn=asn, name=asys.name, headquarters=asys.headquarters)
            for asn, asys in asns.items()
        }
        return cls(orgs, dict(plan.prefix_origin_pairs()))

    def lookup_many(self, addresses: Sequence[int]) -> list[OrgRecord | None]:
        """The organisation registered for each address, if any.

        One vectorised longest-prefix match over the whole batch.

        Raises:
            AddressError: if an address lies outside the 32-bit space.
        """
        orgs = self._orgs
        return [orgs.get(asn) for asn in self._match.origins(addresses).tolist()]

    def headquarters(self, addresses) -> tuple[np.ndarray, np.ndarray]:
        """``(lats, lons)`` of the organisation registered for each
        address, NaN where none is: :meth:`lookup_many` as arrays.

        Raises:
            AddressError: if an address lies outside the 32-bit space.
        """
        org = positions(self._org_asns, self._match.origins(addresses))
        return self._hq[org, 0], self._hq[org, 1]

    @property
    def n_orgs(self) -> int:
        """Number of registered organisations."""
        return len(self._orgs)
