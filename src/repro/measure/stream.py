"""Synthetic measurement streams: delta batches against a snapshot.

The paper's inventories are point-in-time unions of continuously
arriving traceroutes; this module simulates the arrival process so the
streaming-ingest path can be driven without a live measurement
infrastructure.  A :class:`DeltaStream` tracks the evolving snapshot
state (addresses, coordinates, origin ASes, adjacency) and emits
:class:`~repro.ingest.deltas.DeltaBatch` es that are always *valid*
against it: adds are fresh addresses, links never duplicate an
adjacency, moves and remaps target known addresses.  Nodes appear only
where mapped infrastructure already is: an added node takes the exact
coordinates of a random existing node, and a moved node jumps to the
point of another, so the stream's points stay the base snapshot's
point set, as a city-granularity mapper's output would.  Batches are a
pure function of the seed RNG, so a replayed stream is byte-for-byte
reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.bgp.table import UNMAPPED_ASN
from repro.datasets.mapped import MappedDataset
from repro.errors import MeasurementError
from repro.ingest.deltas import DeltaBatch


class DeltaStream:
    """Generates valid delta batches against an evolving snapshot.

    Attributes:
        n_nodes: node count of the tracked state (grows with adds).
        n_links: adjacency count of the tracked state.
    """

    def __init__(
        self,
        dataset: MappedDataset,
        rng: np.random.Generator,
        *,
        unmapped_share: float = 0.05,
        new_as_share: float = 0.1,
    ) -> None:
        if dataset.n_nodes == 0:
            raise MeasurementError("cannot stream deltas for an empty snapshot")
        if not (0.0 <= unmapped_share <= 1.0):
            raise MeasurementError("unmapped_share must be in [0, 1]")
        if not (0.0 <= new_as_share <= 1.0):
            raise MeasurementError("new_as_share must be in [0, 1]")
        self._rng = rng
        self._unmapped_share = unmapped_share
        self._new_as_share = new_as_share
        self._addresses = dataset.addresses.copy()
        self._lats = dataset.lats.copy()
        self._lons = dataset.lons.copy()
        self._asns = dataset.asns.copy()
        self._next_address = int(dataset.addresses.max()) + 1
        mapped = dataset.asns[dataset.asns != UNMAPPED_ASN]
        self._known_asns = (
            np.unique(mapped) if mapped.size else np.array([1], dtype=np.int64)
        )
        self._next_asn = int(self._known_asns.max()) + 1
        self._link_keys: set[tuple[int, int]] = set()
        for i, j in dataset.links.tolist():
            a, b = int(dataset.addresses[i]), int(dataset.addresses[j])
            self._link_keys.add((min(a, b), max(a, b)))

    # -- state ---------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Nodes in the tracked state."""
        return int(self._addresses.shape[0])

    @property
    def n_links(self) -> int:
        """Adjacencies in the tracked state."""
        return len(self._link_keys)

    # -- generation ----------------------------------------------------------

    def _pick_asns(self, n: int) -> np.ndarray:
        """Origin ASes for new nodes: existing, brand new, or unmapped."""
        asns = self._rng.choice(self._known_asns, size=n)
        roll = self._rng.random(n)
        for i in np.flatnonzero(roll < self._new_as_share).tolist():
            asns[i] = self._next_asn
            self._known_asns = np.append(self._known_asns, self._next_asn)
            self._next_asn += 1
        asns[roll >= 1.0 - self._unmapped_share] = UNMAPPED_ASN
        return asns.astype(np.int64)

    def next_batch(
        self,
        n_adds: int = 8,
        n_links: int = 12,
        n_moves: int = 4,
        n_remaps: int = 2,
    ) -> DeltaBatch:
        """One valid delta batch; the tracked state advances past it.

        Raises:
            MeasurementError: on negative counts.
        """
        if min(n_adds, n_links, n_moves, n_remaps) < 0:
            raise MeasurementError("delta counts must be >= 0")
        n_before = self.n_nodes

        add_addresses = np.arange(
            self._next_address, self._next_address + n_adds, dtype=np.int64
        )
        self._next_address += n_adds
        anchors = self._rng.integers(0, n_before, size=n_adds)
        add_lats, add_lons = self._lats[anchors], self._lons[anchors]
        add_asns = self._pick_asns(n_adds)
        self._addresses = np.concatenate([self._addresses, add_addresses])
        self._lats = np.concatenate([self._lats, add_lats])
        self._lons = np.concatenate([self._lons, add_lons])
        self._asns = np.concatenate([self._asns, add_asns])

        # Links: each new interface was observed on a path, so wire it
        # to an existing node first; remaining links join random pairs.
        # Rejection-sample around duplicates (bounded attempts).
        pairs: list[tuple[int, int]] = []
        for k in range(min(n_adds, n_links)):
            other = int(self._rng.integers(0, n_before))
            pairs.append((int(add_addresses[k]), int(self._addresses[other])))
        attempts = 0
        while len(pairs) < n_links and attempts < 20 * n_links:
            attempts += 1
            i, j = self._rng.integers(0, self.n_nodes, size=2)
            pairs.append((int(self._addresses[i]), int(self._addresses[j])))
        links: list[tuple[int, int]] = []
        for a, b in pairs:
            key = (min(a, b), max(a, b))
            if a == b or key in self._link_keys:
                continue
            self._link_keys.add(key)
            links.append((a, b))
        add_links = (
            np.array(links, dtype=np.int64)
            if links
            else np.empty((0, 2), dtype=np.int64)
        )

        move_rows = self._rng.choice(
            n_before, size=min(n_moves, n_before), replace=False
        )
        targets = self._rng.integers(0, self.n_nodes, size=move_rows.shape[0])
        move_lats, move_lons = self._lats[targets], self._lons[targets]
        self._lats[move_rows] = move_lats
        self._lons[move_rows] = move_lons

        remap_rows = self._rng.choice(
            n_before, size=min(n_remaps, n_before), replace=False
        )
        remap_asns = self._pick_asns(remap_rows.shape[0])
        self._asns[remap_rows] = remap_asns

        return DeltaBatch(
            add_addresses=add_addresses,
            add_lats=add_lats,
            add_lons=add_lons,
            add_asns=add_asns,
            add_links=add_links,
            move_addresses=self._addresses[move_rows],
            move_lats=move_lats,
            move_lons=move_lons,
            remap_addresses=self._addresses[remap_rows],
            remap_asns=remap_asns,
        )
