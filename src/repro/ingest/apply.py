"""Applying delta batches to mapped datasets.

:func:`patch_dataset` is the serving path's one application target: a
pure-functional patch of a :class:`~repro.datasets.mapped.MappedDataset`
(old rows keep their indices, adds append), returning a
:class:`PatchInfo` describing exactly which rows changed.

It raises :class:`~repro.errors.IngestError` on deltas that do not fit
the dataset (unknown addresses, re-added nodes, duplicate links), so a
journaled stream either applies cleanly or fails loudly — never half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrays import distinct
from repro.datasets.mapped import MappedDataset
from repro.errors import IngestError
from repro.ingest.deltas import DeltaBatch


@dataclass(frozen=True)
class PatchInfo:
    """Which rows of the patched dataset differ from the old one.

    Row indices refer to the *new* dataset; rows below ``n_old_nodes``
    existed before the patch at the same index (adds strictly append).

    Attributes:
        n_old_nodes, n_old_links: shape of the pre-patch dataset.
        added_rows: rows of newly added nodes (``n_old_nodes ..``).
        moved_rows: rows whose coordinates changed.
        remapped_rows: rows whose origin AS changed.
        new_link_rows: indices into the new ``links`` array of the
            appended links.
    """

    n_old_nodes: int
    n_old_links: int
    added_rows: np.ndarray
    moved_rows: np.ndarray
    remapped_rows: np.ndarray
    new_link_rows: np.ndarray


def _resolve_rows(
    order: np.ndarray, sorted_table: np.ndarray, queries: np.ndarray, *,
    what: str,
) -> np.ndarray:
    """Row index of each query address, given a table's stable argsort
    ``order`` and the sorted table ``sorted_table``.

    Raises:
        IngestError: when any query address is absent.
    """
    if queries.size == 0:
        return np.empty(0, dtype=np.intp)
    if sorted_table.size == 0:
        raise IngestError(f"{what} references unknown address "
                          f"{int(queries[0])}")
    pos = np.searchsorted(sorted_table, queries)
    pos = np.minimum(pos, sorted_table.shape[0] - 1)
    missing = sorted_table[pos] != queries
    if np.any(missing):
        bad = queries[missing][0]
        raise IngestError(f"{what} references unknown address {int(bad)}")
    return order[pos].astype(np.intp)


def _isin(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``np.isin(values, table)`` by one sort and a binary search."""
    if table.size == 0:
        return np.zeros(values.shape, dtype=bool)
    table = np.sort(table)
    pos = np.minimum(np.searchsorted(table, values), table.size - 1)
    return table[pos] == values


def patch_dataset(
    dataset: MappedDataset, batch: DeltaBatch
) -> tuple[MappedDataset, PatchInfo]:
    """Apply one delta batch to a mapped dataset, pure-functionally.

    Old rows keep their indices; added nodes append in batch order;
    added links append in batch order.  Moves and remaps may target
    addresses added by the *same* batch (add-then-refine streams).

    Raises:
        IngestError: when an add re-observes a known address, a move or
            remap targets an unknown address, or a link duplicates an
            existing adjacency (either orientation) or lacks endpoints.
    """
    n_old = dataset.n_nodes
    addresses = np.concatenate([dataset.addresses, batch.add_addresses])
    lats = np.concatenate([dataset.lats, batch.add_lats])
    lons = np.concatenate([dataset.lons, batch.add_lons])
    asns = np.concatenate([dataset.asns, batch.add_asns])
    n_new = addresses.shape[0]
    # One stable sort of the patched address column answers every
    # address question of the batch.  Among equal addresses the lowest
    # row sorts first, so an add clashes exactly when its first row is
    # an old one.
    order = np.argsort(addresses, kind="stable")
    sorted_addresses = addresses[order]
    if batch.add_addresses.size:
        first = order[np.searchsorted(sorted_addresses, batch.add_addresses)]
        clash = first < n_old
        if np.any(clash):
            bad = batch.add_addresses[clash][0]
            raise IngestError(f"address {int(bad)} already exists")

    if batch.add_links.size:
        end_a = _resolve_rows(
            order, sorted_addresses, batch.add_links[:, 0], what="add_links"
        )
        end_b = _resolve_rows(
            order, sorted_addresses, batch.add_links[:, 1], what="add_links"
        )
        new_pairs = np.column_stack([end_a, end_b]).astype(np.intp)
        lo = np.minimum(end_a, end_b).astype(np.int64)
        hi = np.maximum(end_a, end_b).astype(np.int64)
        new_keys = lo * n_new + hi
        if distinct(new_keys).size != new_keys.size:
            raise IngestError("add_links contains a duplicate adjacency")
        if dataset.links.size:
            # Only an old link between two rows the batch links can
            # repeat one of its links.
            touched = np.zeros(n_new, dtype=bool)
            touched[end_a] = touched[end_b] = True
            old = dataset.links[
                touched[dataset.links[:, 0]] & touched[dataset.links[:, 1]]
            ]
            old_keys = (
                np.minimum(old[:, 0], old[:, 1]).astype(np.int64) * n_new
                + np.maximum(old[:, 0], old[:, 1])
            )
            dup = _isin(new_keys, old_keys)
            if np.any(dup):
                a, b = new_pairs[dup][0]
                raise IngestError(
                    f"link between rows {int(a)} and {int(b)} "
                    "already exists"
                )
    else:
        new_pairs = np.empty((0, 2), dtype=np.intp)
    if dataset.links.size:
        links = np.concatenate(
            [dataset.links, new_pairs.astype(dataset.links.dtype)]
        )
    else:
        links = new_pairs

    moved_rows = _resolve_rows(
        order, sorted_addresses, batch.move_addresses, what="move_addresses"
    )
    if moved_rows.size:
        if distinct(moved_rows).size != moved_rows.size:
            raise IngestError("move_addresses contains duplicates")
        lats[moved_rows] = batch.move_lats
        lons[moved_rows] = batch.move_lons
    remapped_rows = _resolve_rows(
        order, sorted_addresses, batch.remap_addresses,
        what="remap_addresses",
    )
    if remapped_rows.size:
        if distinct(remapped_rows).size != remapped_rows.size:
            raise IngestError("remap_addresses contains duplicates")
        asns[remapped_rows] = batch.remap_asns

    patched = MappedDataset(
        label=dataset.label,
        kind=dataset.kind,
        addresses=addresses,
        lats=lats,
        lons=lons,
        asns=asns,
        links=links,
    )
    info = PatchInfo(
        n_old_nodes=n_old,
        n_old_links=dataset.n_links,
        added_rows=np.arange(n_old, n_new, dtype=np.intp),
        moved_rows=moved_rows,
        remapped_rows=remapped_rows,
        new_link_rows=np.arange(
            dataset.n_links, dataset.n_links + new_pairs.shape[0],
            dtype=np.intp,
        ),
    )
    return patched, info
