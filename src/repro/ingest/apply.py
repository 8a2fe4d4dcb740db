"""Applying delta batches to snapshots and topologies.

Two application targets share the :class:`~repro.ingest.deltas.DeltaBatch`
vocabulary:

- :func:`patch_dataset` — the serving path: pure-functional patch of a
  :class:`~repro.datasets.mapped.MappedDataset` (old rows keep their
  indices, adds append), returning a :class:`PatchInfo` describing
  exactly which rows changed;
- :func:`apply_to_topology` — the ground-truth path: in-place mutation
  of the SoA :class:`~repro.net.topology.Topology` through its append
  paths, so a WAL replay reconstructs the same world state
  (:func:`topology_digest` is the replay-equality witness).

Both raise :class:`~repro.errors.IngestError` on deltas that do not fit
the target (unknown addresses, re-added interfaces, duplicate links), so
a journaled stream either applies cleanly or fails loudly — never half.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.datasets.mapped import MappedDataset
from repro.errors import IngestError, TopologyError
from repro.geo.coords import GeoPoint
from repro.ingest.deltas import DeltaBatch
from repro.net.elements import AutonomousSystem
from repro.net.topology import Topology
from repro.obs.report import hash_column

#: Routers whose dataset origin AS is unmapped (:data:`UNMAPPED_ASN`)
#: are homed under this private-use ASN in the ground-truth topology,
#: because :class:`AutonomousSystem` requires a positive ASN.
STUB_UNMAPPED_ASN = 64512


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
    table: np.ndarray, queries: np.ndarray, *, what: str
) -> np.ndarray:
    """Row index of each query address in ``table``.

    Raises:
        IngestError: when any query address is absent.
    """
    if queries.size == 0:
        return np.empty(0, dtype=np.intp)
    if table.size == 0:
        raise IngestError(f"{what} references unknown address "
                          f"{int(queries[0])}")
    order = np.argsort(table, kind="stable")
    sorted_table = table[order]
    pos = np.searchsorted(sorted_table, queries)
    pos = np.minimum(pos, sorted_table.shape[0] - 1)
    missing = sorted_table[pos] != queries
    if np.any(missing):
        bad = queries[missing][0]
        raise IngestError(f"{what} references unknown address {int(bad)}")
    return order[pos].astype(np.intp)


def _isin(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``np.isin(values, table)`` by one sort and a binary search, which
    is much cheaper than ``np.isin`` when a batch's few values meet a
    whole column."""
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
    if batch.add_addresses.size and dataset.addresses.size:
        clash = _isin(batch.add_addresses, dataset.addresses)
        if np.any(clash):
            bad = batch.add_addresses[clash][0]
            raise IngestError(f"address {int(bad)} already exists")
    addresses = np.concatenate([dataset.addresses, batch.add_addresses])
    lats = np.concatenate([dataset.lats, batch.add_lats])
    lons = np.concatenate([dataset.lons, batch.add_lons])
    asns = np.concatenate([dataset.asns, batch.add_asns])
    n_new = addresses.shape[0]

    if batch.add_links.size:
        end_a = _resolve_rows(
            addresses, batch.add_links[:, 0], what="add_links"
        )
        end_b = _resolve_rows(
            addresses, batch.add_links[:, 1], what="add_links"
        )
        new_pairs = np.column_stack([end_a, end_b]).astype(np.intp)
        lo = np.minimum(end_a, end_b).astype(np.int64)
        hi = np.maximum(end_a, end_b).astype(np.int64)
        new_keys = lo * n_new + hi
        if np.unique(new_keys).size != new_keys.size:
            raise IngestError("add_links contains a duplicate adjacency")
        if dataset.links.size:
            old_lo = np.minimum(dataset.links[:, 0], dataset.links[:, 1])
            old_hi = np.maximum(dataset.links[:, 0], dataset.links[:, 1])
            old_keys = old_lo.astype(np.int64) * n_new + old_hi
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
        addresses, batch.move_addresses, what="move_addresses"
    )
    if moved_rows.size:
        if np.unique(moved_rows).size != moved_rows.size:
            raise IngestError("move_addresses contains duplicates")
        lats[moved_rows] = batch.move_lats
        lons[moved_rows] = batch.move_lons
    remapped_rows = _resolve_rows(
        addresses, batch.remap_addresses, what="remap_addresses"
    )
    if remapped_rows.size:
        if np.unique(remapped_rows).size != remapped_rows.size:
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


# -- ground-truth topology application ---------------------------------------


def _ensure_ases(
    topology: Topology, asns: np.ndarray, lats: np.ndarray, lons: np.ndarray
) -> None:
    """Register stub ASes for any mapped ASN the topology lacks.

    The headquarters is placed at the first delta node homed there (the
    only location evidence a measurement stream carries).
    """
    for asn in np.unique(asns).tolist():
        if asn in topology.asns:
            continue
        where = np.nonzero(asns == asn)[0]
        if where.size:
            hq = GeoPoint(float(lats[where[0]]), float(lons[where[0]]))
        else:
            hq = GeoPoint(0.0, 0.0)
        topology.add_as(AutonomousSystem(asn=int(asn), name=f"AS{asn}",
                                         headquarters=hq))


def _homed_asns(asns: np.ndarray) -> np.ndarray:
    """Dataset origin ASNs mapped into topology-legal (positive) ASNs."""
    return np.where(asns > 0, asns, STUB_UNMAPPED_ASN).astype(np.int64)


def _router_ids_of(topology: Topology, addresses: np.ndarray,
                   *, what: str) -> np.ndarray:
    """Owning router id per interface address.

    Raises:
        IngestError: when any address is unknown to the topology.
    """
    pos = topology.interface_positions(addresses)
    if np.any(pos < 0):
        bad = addresses[pos < 0][0]
        raise IngestError(f"{what} references unknown address {int(bad)}")
    return topology.interface_routers()[pos].astype(np.intp)


def apply_to_topology(topology: Topology, batch: DeltaBatch) -> None:
    """Mutate a ground-truth topology with one delta batch, in place.

    Added nodes become routers (one per node, loopback = node address)
    via the SoA append path; added links get deterministically
    synthesized fresh interface addresses (``max(existing) + 1``
    onwards, two per link in batch order), so replaying the same WAL
    always rebuilds the identical state.  Unmapped origin ASes home
    under :data:`STUB_UNMAPPED_ASN`.

    Raises:
        IngestError: when the batch does not fit this topology
            (re-added address, unknown move/remap target, duplicate or
            self-loop link).
    """
    try:
        if batch.n_adds:
            homed = _homed_asns(batch.add_asns)
            _ensure_ases(topology, homed, batch.add_lats, batch.add_lons)
            for asn in np.unique(homed).tolist():
                members = np.nonzero(homed == asn)[0]
                topology.add_routers(
                    int(asn),
                    batch.add_lats[members],
                    batch.add_lons[members],
                    "",
                    batch.add_addresses[members],
                )
        if batch.n_links:
            ids_a = _router_ids_of(
                topology, batch.add_links[:, 0], what="add_links"
            )
            ids_b = _router_ids_of(
                topology, batch.add_links[:, 1], what="add_links"
            )
            existing = topology.interface_addresses()
            base = int(existing.max()) + 1 if existing.size else 1
            count = batch.n_links
            iface_a = np.arange(
                base, base + 2 * count, 2, dtype=np.int64
            )
            iface_b = iface_a + 1
            topology.add_links(ids_a, ids_b, iface_a, iface_b)
        if batch.n_moves:
            ids = _router_ids_of(
                topology, batch.move_addresses, what="move_addresses"
            )
            topology.move_routers(ids, batch.move_lats, batch.move_lons)
        if batch.n_remaps:
            homed = _homed_asns(batch.remap_asns)
            _ensure_ases(
                topology, homed,
                np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64),
            )
            ids = _router_ids_of(
                topology, batch.remap_addresses, what="remap_addresses"
            )
            topology.set_router_asns(ids, homed)
    except TopologyError as exc:
        raise IngestError(f"delta does not fit the topology: {exc}") from exc


def topology_digest(topology: Topology) -> str:
    """SHA-256 over a topology's full logical state.

    Covers every SoA column (routers, links, interfaces), city codes,
    hostnames, and the registered AS inventory — two topologies with
    equal digests answer every structural query identically.  This is
    the replay-equality witness for WAL round-trip tests.
    """
    h = hashlib.sha256()
    lats, lons = topology.router_coordinates()
    hash_column(h, "router_lats", lats)
    hash_column(h, "router_lons", lons)
    hash_column(h, "router_asns", topology.router_asns())
    hash_column(h, "router_loopbacks", topology.router_loopbacks())
    h.update("\x00".join(topology.router_city_codes()).encode("utf-8"))
    end_a, end_b = topology.link_endpoints()
    hash_column(h, "link_end_a", end_a)
    hash_column(h, "link_end_b", end_b)
    ifc_a, ifc_b = topology.link_interfaces()
    hash_column(h, "link_ifc_a", ifc_a)
    hash_column(h, "link_ifc_b", ifc_b)
    hash_column(h, "interface_addresses", topology.interface_addresses())
    hash_column(h, "interface_routers", topology.interface_routers())
    hash_column(h, "interface_links", topology.interface_links())
    for address in sorted(topology.hostnames):
        h.update(f"{address}={topology.hostnames[address]}\x00".encode())
    for asn in sorted(topology.asns):
        asys = topology.asns[asn]
        h.update(
            f"{asn}:{asys.name}:{asys.headquarters.lat!r}:"
            f"{asys.headquarters.lon!r}:{asys.tier}\x00".encode()
        )
    return h.hexdigest()
