"""Measurement delta batches: the unit of streaming ingestion.

A :class:`DeltaBatch` carries one arrival's worth of measurement news
against a mapped snapshot, in the vocabulary of
:class:`~repro.datasets.mapped.MappedDataset` nodes (interface
addresses with mapped coordinates and an origin AS):

- **adds** — newly observed interfaces with their mapped location and
  origin AS (a new traceroute's previously unseen hops);
- **links** — newly observed adjacencies, as address pairs (the
  consecutive-hop edges of new traceroutes);
- **moves** — geolocation refinements: an already-known address whose
  mapped coordinates changed (a better DNS LOC record, say);
- **remaps** — AS-mapping changes: an address whose origin AS changed
  (a BGP table update re-homed its covering prefix).

Batches are immutable value objects with a canonical binary form
(:func:`delta_to_bytes` / :func:`delta_from_bytes`, an ``.npz``
archive in memory) and a content digest over the logical arrays
(:func:`delta_digest`) that is independent of zip-container
bookkeeping, so equal batches hash equal everywhere.
"""

from __future__ import annotations

import hashlib
import io
import zipfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from repro.arrays import distinct
from repro.errors import IngestError
from repro.obs.report import hash_column

_FORMAT_VERSION = 1

#: (field name, dtype) of every array field, in canonical digest order.
_ARRAY_FIELDS = (
    ("add_addresses", np.int64),
    ("add_lats", np.float64),
    ("add_lons", np.float64),
    ("add_asns", np.int64),
    ("add_links", np.int64),
    ("move_addresses", np.int64),
    ("move_lats", np.float64),
    ("move_lons", np.float64),
    ("remap_addresses", np.int64),
    ("remap_asns", np.int64),
)


def _empty(dtype, shape=(0,)) -> np.ndarray:
    return np.empty(shape, dtype=dtype)


@dataclass(frozen=True)
class DeltaBatch:
    """One immutable batch of measurement deltas.

    Attributes:
        add_addresses, add_lats, add_lons, add_asns: parallel arrays of
            newly observed interfaces.
        add_links: ``(m, 2)`` int64 array of *address* pairs (not row
            indices — rows are a property of one snapshot build).
        move_addresses, move_lats, move_lons: geolocation updates.
        remap_addresses, remap_asns: AS-mapping changes.
        created_unix: arrival wall-clock stamp (0.0 until the ingester
            stamps it at journaling time); feeds freshness metrics.
    """

    add_addresses: np.ndarray = None  # type: ignore[assignment]
    add_lats: np.ndarray = None  # type: ignore[assignment]
    add_lons: np.ndarray = None  # type: ignore[assignment]
    add_asns: np.ndarray = None  # type: ignore[assignment]
    add_links: np.ndarray = None  # type: ignore[assignment]
    move_addresses: np.ndarray = None  # type: ignore[assignment]
    move_lats: np.ndarray = None  # type: ignore[assignment]
    move_lons: np.ndarray = None  # type: ignore[assignment]
    remap_addresses: np.ndarray = None  # type: ignore[assignment]
    remap_asns: np.ndarray = None  # type: ignore[assignment]
    created_unix: float = 0.0

    def __post_init__(self) -> None:
        for name, dtype in _ARRAY_FIELDS:
            value = getattr(self, name)
            if value is None:
                shape = (0, 2) if name == "add_links" else (0,)
                value = _empty(dtype, shape)
            else:
                value = np.asarray(value, dtype=dtype)
            object.__setattr__(self, name, value)
        n = self.add_addresses.shape[0]
        for name in ("add_lats", "add_lons", "add_asns"):
            if getattr(self, name).shape != (n,):
                raise IngestError(f"{name} is not parallel to add_addresses")
        if self.add_links.size and (
            self.add_links.ndim != 2 or self.add_links.shape[1] != 2
        ):
            raise IngestError("add_links must be an (m, 2) address-pair array")
        if not self.add_links.size:
            object.__setattr__(
                self, "add_links", _empty(np.int64, (0, 2))
            )
        m = self.move_addresses.shape[0]
        for name in ("move_lats", "move_lons"):
            if getattr(self, name).shape != (m,):
                raise IngestError(f"{name} is not parallel to move_addresses")
        if self.remap_asns.shape != self.remap_addresses.shape:
            raise IngestError("remap_asns is not parallel to remap_addresses")
        if self.add_addresses.size and (
            distinct(self.add_addresses).size != self.add_addresses.size
        ):
            raise IngestError("add_addresses contains duplicates")
        for name in ("add_lats", "add_lons", "move_lats", "move_lons"):
            value = getattr(self, name)
            if value.size and not np.all(np.isfinite(value)):
                raise IngestError(f"{name} contains non-finite coordinates")
        for prefix in ("add", "move"):
            lats = getattr(self, f"{prefix}_lats")
            lons = getattr(self, f"{prefix}_lons")
            if lats.size and (lats.min() < -90.0 or lats.max() > 90.0):
                raise IngestError(f"{prefix}_lats out of [-90, 90]")
            if lons.size and (lons.min() < -180.0 or lons.max() > 180.0):
                raise IngestError(f"{prefix}_lons out of [-180, 180]")
        if self.add_links.size and np.any(
            self.add_links[:, 0] == self.add_links[:, 1]
        ):
            raise IngestError("add_links contains a self-loop")

    # -- shape ---------------------------------------------------------------

    @property
    def n_adds(self) -> int:
        """Number of newly observed interfaces."""
        return int(self.add_addresses.shape[0])

    @property
    def n_links(self) -> int:
        """Number of newly observed adjacencies."""
        return int(self.add_links.shape[0]) if self.add_links.size else 0

    @property
    def n_moves(self) -> int:
        """Number of geolocation updates."""
        return int(self.move_addresses.shape[0])

    @property
    def n_remaps(self) -> int:
        """Number of AS-mapping changes."""
        return int(self.remap_addresses.shape[0])

    @property
    def n_ops(self) -> int:
        """Total operations carried by this batch."""
        return self.n_adds + self.n_links + self.n_moves + self.n_remaps

    def stamped(self, created_unix: float) -> "DeltaBatch":
        """The same batch with an arrival stamp (for freshness metrics)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["created_unix"] = float(created_unix)
        return DeltaBatch(**values)

    def summary(self) -> dict:
        """JSON-ready operation counts."""
        return {
            "adds": self.n_adds,
            "links": self.n_links,
            "moves": self.n_moves,
            "remaps": self.n_remaps,
            "created_unix": round(self.created_unix, 3),
        }


def delta_digest(batch: DeltaBatch) -> str:
    """SHA-256 over the batch's logical arrays, container-independent.

    Hashing the framed field arrays (:func:`~repro.obs.report.hash_column`,
    in the fixed :data:`_ARRAY_FIELDS` order) rather than the serialised
    archive keeps the digest stable across zip metadata differences.
    ``created_unix`` is deliberately excluded: the same measurement news
    arriving at a different time is the same content.
    """
    h = hashlib.sha256()
    for name, dtype in _ARRAY_FIELDS:
        hash_column(h, name, getattr(batch, name), dtype)
    return h.hexdigest()


def delta_to_bytes(batch: DeltaBatch) -> bytes:
    """Serialise one batch to an in-memory, uncompressed ``.npz`` archive.

    Uncompressed because a record is written once per batch on the WAL
    hot path, where deflate costs more time than its bytes save;
    :func:`delta_from_bytes` reads compressed archives too.
    """
    buffer = io.BytesIO()
    arrays = {name: getattr(batch, name) for name, _ in _ARRAY_FIELDS}
    np.savez(
        buffer,
        format_version=np.int64(_FORMAT_VERSION),
        created_unix=np.float64(batch.created_unix),
        **arrays,
    )
    return buffer.getvalue()


def delta_from_bytes(payload: bytes) -> DeltaBatch:
    """Rebuild a batch written by :func:`delta_to_bytes`.

    Raises:
        IngestError: when the payload is not a delta archive or has a
            version/field mismatch.
    """
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            version = int(data["format_version"])
            if version != _FORMAT_VERSION:
                raise IngestError(
                    f"unsupported delta format version {version!r}"
                )
            values = {
                name: data[name].astype(dtype)
                for name, dtype in _ARRAY_FIELDS
            }
            created = float(data["created_unix"])
    except KeyError as exc:
        raise IngestError(f"delta payload missing field {exc}") from exc
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise IngestError(f"payload is not a delta archive: {exc}") from exc
    return DeltaBatch(created_unix=created, **values)


def save_delta(batch: DeltaBatch, path: str | Path) -> None:
    """Write one batch to a ``.npz`` delta file (the spool format)."""
    Path(path).write_bytes(delta_to_bytes(batch))


def load_delta(path: str | Path) -> DeltaBatch:
    """Read a delta file written by :func:`save_delta`.

    Raises:
        IngestError: when the file is missing or not a delta archive.
    """
    try:
        payload = Path(path).read_bytes()
    except OSError as exc:
        raise IngestError(f"cannot read delta from {path}: {exc}") from exc
    return delta_from_bytes(payload)
