"""Processed (geographically mapped, AS-labelled) datasets.

A :class:`MappedDataset` is the paper's unit of analysis — one row of its
Table I: a measured node inventory where every node carries coordinates
and an origin AS, plus the observed links between nodes.  Nodes are
interfaces for Skitter-derived datasets and routers for
Mercator-derived ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bgp.table import UNMAPPED_ASN
from repro.errors import DatasetError
from repro.geo.coords import distinct_points
from repro.geo.distance import link_lengths_miles
from repro.geo.regions import Region

#: Decimal degrees of rounding that defines a "distinct location"
#: (roughly city granularity, the accuracy limit of the mapping tools).
#:
#: Two roundings use it.  The mapping stage's location vote
#: (``datasets.pipeline.build_snapshot``) groups interfaces with Python's
#: correctly rounded ``round``; :meth:`MappedDataset.location_keys` and
#: ``core.asgeo`` use ``np.round``, which scales, rounds and divides, and
#: differs at some half-way decimals (``round(0.15, 1)`` is 0.1,
#: ``np.round(0.15, 1)`` is 0.2).  Both stay as they are: switching either
#: one would change which routers tie or which points merge, and so change
#: published tables, while each is already cheap (the vote rounds only
#: the few hundred distinct points of a pass).
LOCATION_DECIMALS = 1


@dataclass(frozen=True)
class MappedDataset:
    """A fully processed snapshot.

    Attributes:
        label: e.g. ``"IxMapper, Skitter"`` (a Table I row name).
        kind: ``"skitter"`` or ``"mercator"``.
        addresses: node address per node (dense, parallel arrays follow).
        lats, lons: mapped coordinates per node.
        asns: origin AS per node (:data:`UNMAPPED_ASN` when the BGP
            table had no covering prefix).
        links: integer array of shape (n_links, 2): node indices.

    The columns are read-only once the dataset is built: derived
    structures (:attr:`points`, and the lookup tables of every index
    over the dataset) are memoised on first read, which is only sound
    while the data under them cannot change.  A caller that needs a
    changed column builds a new dataset from copies.
    """

    label: str
    kind: str
    addresses: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    asns: np.ndarray
    links: np.ndarray

    def __post_init__(self) -> None:
        n = self.addresses.shape[0]
        for name in ("lats", "lons", "asns"):
            if getattr(self, name).shape != (n,):
                raise DatasetError(f"{name} is not parallel to addresses")
        if self.links.size and (
            self.links.ndim != 2 or self.links.shape[1] != 2
        ):
            raise DatasetError("links must be an (m, 2) index array")
        if self.links.size:
            if self.links.min() < 0 or self.links.max() >= n:
                raise DatasetError("link index out of range")
            if np.any(self.links[:, 0] == self.links[:, 1]):
                raise DatasetError("dataset contains a self-loop link")
        for name in ("addresses", "lats", "lons", "asns", "links"):
            getattr(self, name).flags.writeable = False

    def __reduce__(self):
        # Pickle the columns alone: the copy is rebuilt through the
        # constructor, so it is read-only too and its memos start empty.
        return (
            type(self),
            (self.label, self.kind, self.addresses, self.lats, self.lons,
             self.asns, self.links),
        )

    # -- basic shape ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of mapped nodes."""
        return int(self.addresses.shape[0])

    @property
    def n_links(self) -> int:
        """Number of observed links."""
        return int(self.links.shape[0]) if self.links.size else 0

    def location_keys(self) -> np.ndarray:
        """Rounded (lat, lon) identity per node, as an (n, 2) array."""
        return np.column_stack(
            [
                np.round(self.lats, LOCATION_DECIMALS),
                np.round(self.lons, LOCATION_DECIMALS),
            ]
        )

    @property
    def n_locations(self) -> int:
        """Number of distinct rounded locations (a Table I column)."""
        if self.n_nodes == 0:
            return 0
        return int(np.unique(self.location_keys(), axis=0).shape[0])

    @property
    def points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The distinct node positions, ``(lats, lons, counts, inverse)``
        of :func:`~repro.geo.coords.distinct_points`, built on first read
        and memoised (read-only, like the columns).

        Mapped nodes sit at few distinct points, so per-region and per-AS
        work (pair counts, region membership, hull projection) runs over
        these instead of over every node.
        """
        memo = self.__dict__.get("_points")
        if memo is None:
            memo = distinct_points(self.lats, self.lons)
            for array in memo:
                array.flags.writeable = False
            object.__setattr__(self, "_points", memo)
        return memo

    # -- geometry ------------------------------------------------------------

    def link_lengths(self) -> np.ndarray:
        """Great-circle length in miles of every link."""
        if self.n_links == 0:
            return np.empty(0)
        return link_lengths_miles(
            self.lats, self.lons, self.links[:, 0], self.links[:, 1]
        )

    def interdomain_mask(self) -> np.ndarray:
        """Boolean per link: True when endpoints map to different ASes.

        Links with an unmapped endpoint are excluded (False) — the paper
        omits the unmapped group from AS analyses.
        """
        if self.n_links == 0:
            return np.empty(0, dtype=bool)
        a = self.asns[self.links[:, 0]]
        b = self.asns[self.links[:, 1]]
        known = (a != UNMAPPED_ASN) & (b != UNMAPPED_ASN)
        return known & (a != b)

    def intradomain_mask(self) -> np.ndarray:
        """Boolean per link: True when endpoints map to the same known AS."""
        if self.n_links == 0:
            return np.empty(0, dtype=bool)
        a = self.asns[self.links[:, 0]]
        b = self.asns[self.links[:, 1]]
        known = (a != UNMAPPED_ASN) & (b != UNMAPPED_ASN)
        return known & (a == b)

    # -- region restriction -----------------------------------------------------

    def restrict(self, region: Region) -> "MappedDataset":
        """The sub-dataset of nodes inside ``region`` with induced links."""
        mask = region.contains_mask(self.lats, self.lons)
        index = np.full(self.n_nodes, -1, dtype=np.intp)
        kept = np.flatnonzero(mask)
        index[kept] = np.arange(kept.size)
        if self.n_links:
            keep_link = mask[self.links[:, 0]] & mask[self.links[:, 1]]
            new_links = index[self.links[keep_link]]
        else:
            new_links = np.empty((0, 2), dtype=np.intp)
        return MappedDataset(
            label=f"{self.label} [{region.name}]",
            kind=self.kind,
            addresses=self.addresses[kept],
            lats=self.lats[kept],
            lons=self.lons[kept],
            asns=self.asns[kept],
            links=new_links,
        )
