"""BGP RIB snapshots and origin-AS lookup.

A :class:`BgpTable` is the processed equivalent of a RouteViews backbone
table dump: a set of announced prefixes, each with an origin AS.  The
paper maps every router/interface address to its parent AS through such
a table; addresses covered by no announced prefix go to a sentinel
"unmapped" group that Section VI's analysis omits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import AddressError
from repro.net.ip import ADDRESS_BITS, ADDRESS_SPACE, Prefix, check_address
from repro.obs import current_metrics

#: Sentinel ASN for addresses no announced prefix covers.
UNMAPPED_ASN = -1


@dataclass(frozen=True, slots=True)
class RibEntry:
    """One announced route.

    Attributes:
        prefix: the announced CIDR prefix.
        origin_asn: the AS originating the announcement.
    """

    prefix: Prefix
    origin_asn: int

    def __post_init__(self) -> None:
        if self.origin_asn <= 0:
            raise AddressError(
                f"origin ASN must be positive, got {self.origin_asn}"
            )


class PrefixMatch:
    """Compiled longest-prefix match over ``prefix -> origin`` routes.

    Per prefix length, longest first, the sorted prefix bases and their
    origins.  An address is matched by masking it to each length and
    finding the masked value among that length's bases with
    ``np.searchsorted``.  The RIB (:class:`BgpTable`) and the whois
    registry both answer through this one match.
    """

    def __init__(self, routes: Mapping[Prefix, int]) -> None:
        by_length: dict[int, list[tuple[int, int]]] = {}
        for prefix, asn in routes.items():
            by_length.setdefault(prefix.length, []).append((prefix.base, asn))
        self._levels: list[tuple[int, np.ndarray, np.ndarray]] = []
        for length in sorted(by_length, reverse=True):
            pairs = np.asarray(sorted(by_length[length]), dtype=np.int64)
            self._levels.append((length, pairs[:, 0].copy(), pairs[:, 1].copy()))

    def origins(self, addresses) -> np.ndarray:
        """Origin of the longest route covering each address.

        Returns:
            An int64 array parallel to ``addresses``: the origin, or
            :data:`UNMAPPED_ASN` where nothing matches.

        Raises:
            AddressError: if an address lies outside the 32-bit space.
        """
        addresses = np.asarray(addresses, dtype=np.int64).reshape(-1)
        if addresses.size and (
            addresses.min() < 0 or addresses.max() >= ADDRESS_SPACE
        ):
            bad = addresses[(addresses < 0) | (addresses >= ADDRESS_SPACE)][0]
            raise AddressError(f"address {int(bad)!r} outside 32-bit space")
        asns = np.full(addresses.shape, UNMAPPED_ASN, dtype=np.int64)
        open_rows = np.arange(addresses.size)
        for length, bases, origins in self._levels:
            if open_rows.size == 0:
                break
            shift = ADDRESS_BITS - length
            masked = (addresses[open_rows] >> shift) << shift
            slots = np.searchsorted(bases, masked)
            slots[slots == bases.size] = 0
            hit = bases[slots] == masked
            asns[open_rows[hit]] = origins[slots[hit]]
            open_rows = open_rows[~hit]
        return asns


class BgpTable:
    """An immutable-after-build RIB with longest-prefix-match lookup.

    Lookups run over a :class:`PrefixMatch` of the announcements, built
    on the first lookup after an announcement.
    """

    def __init__(self, entries: list[RibEntry] | None = None) -> None:
        self._routes: dict[Prefix, int] = {}
        self._entries: list[RibEntry] = []
        self._compiled: PrefixMatch | None = None
        for entry in entries or []:
            self.announce(entry)

    def announce(self, entry: RibEntry) -> None:
        """Add one announcement (later duplicates replace earlier origins)."""
        self._routes[entry.prefix] = entry.origin_asn
        self._entries.append(entry)
        self._compiled = None

    def __len__(self) -> int:
        return len(self._routes)

    @property
    def entries(self) -> list[RibEntry]:
        """All announcements in insertion order."""
        return list(self._entries)

    def _prefix_match(self) -> PrefixMatch:
        if self._compiled is None:
            self._compiled = PrefixMatch(self._routes)
        return self._compiled

    def origin_many(self, addresses) -> np.ndarray:
        """Origin AS of the longest announced prefix covering each address.

        When observability is active, the call adds the number of
        addresses to ``bgp.lookups`` and the number that nothing matches
        to ``bgp.misses`` on the active metrics registry.

        Returns:
            An int64 array parallel to ``addresses``: the origin ASN, or
            :data:`UNMAPPED_ASN` where nothing matches.

        Raises:
            AddressError: if an address lies outside the 32-bit space.
        """
        asns = self._prefix_match().origins(addresses)
        metrics = current_metrics()
        if metrics is not None:
            metrics.counter("bgp.lookups").add(int(asns.size))
            metrics.counter("bgp.misses").add(
                int(np.count_nonzero(asns == UNMAPPED_ASN))
            )
        return asns

    def origin_of(self, address: int) -> int:
        """Origin AS of the longest announced prefix covering ``address``.

        One :meth:`origin_many` lookup, counted the same way.

        Returns:
            The origin ASN, or :data:`UNMAPPED_ASN` when nothing matches.
        """
        check_address(address)
        return int(self.origin_many([address])[0])
