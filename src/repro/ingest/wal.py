"""Append-only write-ahead log for measurement delta batches.

Every batch is journaled *before* it is applied, so ingest state is
always reconstructible: base snapshot + WAL replay = current topology.
The file layout is a fixed header followed by self-describing records::

    file   := "RWAL" u32(version)
    record := "RDB1" u64(seq) u64(payload_len) sha256(payload) payload

- **sequence numbers** are dense and ascending from 1; the reader
  rejects any gap or regression, so a record can never be applied
  twice or out of order;
- **content hashes** make torn writes detectable: on open the log is
  scanned to the last record whose length and digest both check out,
  and anything after it (a partial header, a short payload, a corrupt
  byte) is truncated away — the classic redo-log recovery contract;
- **appends** are flushed and ``fsync``\\ ed by default, so an
  acknowledged ``append`` survives a process kill; a newly created log
  also fsyncs its directory, so the file itself survives power loss.

The log stores opaque payload bytes; the delta-aware conveniences
(:meth:`WriteAheadLog.append_delta` / :meth:`replay_deltas`) wrap
:mod:`repro.ingest.deltas` serialisation around them.
"""

from __future__ import annotations

import os
import struct
import hashlib
import threading
from pathlib import Path
from typing import Iterator

from repro.durable import fsync_path
from repro.errors import IngestError
from repro.ingest.deltas import DeltaBatch, delta_from_bytes, delta_to_bytes

_FILE_MAGIC = b"RWAL"
_FILE_VERSION = 1
_FILE_HEADER = struct.Struct("<4sI")
_RECORD_MAGIC = b"RDB1"
_RECORD_HEADER = struct.Struct("<4sQQ32s")

#: Refuse absurd record lengths outright (also bounds corrupt headers).
MAX_RECORD_BYTES = 1 << 30


class WriteAheadLog:
    """Crash-safe append-only journal of sequence-numbered records."""

    def __init__(self, path: str | Path, *, sync: bool = True) -> None:
        self.path = Path(path)
        self.sync = sync
        self._lock = threading.Lock()
        self._last_seq = 0
        self._n_records = 0
        self._truncated_bytes = 0
        self._end_offset = _FILE_HEADER.size
        self._open()

    # -- recovery ------------------------------------------------------------

    def _open(self) -> None:
        if not self.path.exists() or self.path.stat().st_size == 0:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("wb") as handle:
                handle.write(_FILE_HEADER.pack(_FILE_MAGIC, _FILE_VERSION))
                handle.flush()
                os.fsync(handle.fileno())
            # The new file's directory entry must survive power loss too.
            fsync_path(self.path.parent)
            self._handle = self.path.open("r+b")
            self._handle.seek(0, os.SEEK_END)
            return
        handle = self.path.open("r+b")
        header = handle.read(_FILE_HEADER.size)
        if len(header) < _FILE_HEADER.size:
            handle.close()
            raise IngestError(f"{self.path} is not a WAL file (short header)")
        magic, version = _FILE_HEADER.unpack(header)
        if magic != _FILE_MAGIC:
            handle.close()
            raise IngestError(f"{self.path} is not a WAL file (bad magic)")
        if version != _FILE_VERSION:
            handle.close()
            raise IngestError(
                f"{self.path} has unsupported WAL version {version}"
            )
        # Scan to the last intact record; truncate any torn tail.
        good_end = _FILE_HEADER.size
        while True:
            raw = handle.read(_RECORD_HEADER.size)
            if len(raw) < _RECORD_HEADER.size:
                break
            rmagic, seq, length, digest = _RECORD_HEADER.unpack(raw)
            if (
                rmagic != _RECORD_MAGIC
                or seq != self._last_seq + 1
                or length > MAX_RECORD_BYTES
            ):
                break
            payload = handle.read(length)
            if len(payload) < length:
                break
            if hashlib.sha256(payload).digest() != digest:
                break
            self._last_seq = seq
            self._n_records += 1
            good_end = handle.tell()
        file_size = self.path.stat().st_size
        if file_size > good_end:
            self._truncated_bytes = file_size - good_end
            handle.truncate(good_end)
            handle.flush()
            os.fsync(handle.fileno())
        handle.seek(good_end)
        self._handle = handle
        self._end_offset = good_end

    # -- writing -------------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Durably journal one record; returns its sequence number.

        Raises:
            IngestError: on an oversized payload or a closed log.
        """
        if len(payload) > MAX_RECORD_BYTES:
            raise IngestError(
                f"record of {len(payload)} bytes exceeds the WAL limit"
            )
        with self._lock:
            if self._handle.closed:
                raise IngestError("the WAL has been closed")
            seq = self._last_seq + 1
            digest = hashlib.sha256(payload).digest()
            self._handle.write(
                _RECORD_HEADER.pack(_RECORD_MAGIC, seq, len(payload), digest)
            )
            self._handle.write(payload)
            self._handle.flush()
            if self.sync:
                os.fsync(self._handle.fileno())
            self._last_seq = seq
            self._n_records += 1
            self._end_offset = self._handle.tell()
            return seq

    def append_delta(self, batch: DeltaBatch) -> int:
        """Journal one delta batch; returns its sequence number."""
        return self.append(delta_to_bytes(batch))

    # -- reading -------------------------------------------------------------

    def entries(self, after_seq: int = 0) -> Iterator[tuple[int, bytes]]:
        """Yield ``(seq, payload)`` for every record with seq > after_seq.

        Reads through a separate handle, so replay and append can
        overlap; only records already durable at call time are yielded.
        """
        end = self._end_offset
        with self.path.open("rb") as handle:
            handle.seek(_FILE_HEADER.size)
            while handle.tell() < end:
                raw = handle.read(_RECORD_HEADER.size)
                if len(raw) < _RECORD_HEADER.size:
                    break
                _, seq, length, _ = _RECORD_HEADER.unpack(raw)
                payload = handle.read(length)
                if len(payload) < length:
                    break
                if seq > after_seq:
                    yield seq, payload

    def replay_deltas(
        self, after_seq: int = 0
    ) -> Iterator[tuple[int, DeltaBatch]]:
        """Yield ``(seq, DeltaBatch)`` for every journaled batch > after_seq.

        Raises:
            IngestError: when a durable record does not decode as a
                delta batch (version mismatch — not corruption, which
                recovery already truncated).
        """
        for seq, payload in self.entries(after_seq):
            yield seq, delta_from_bytes(payload)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable record (0 when empty)."""
        return self._last_seq

    def stats(self) -> dict:
        """JSON-ready journal facts."""
        return {
            "path": str(self.path),
            "last_seq": self._last_seq,
            "n_records": self._n_records,
            "size_bytes": self._end_offset,
            "truncated_bytes": self._truncated_bytes,
            "sync": self.sync,
        }

    def close(self) -> None:
        """Close the append handle (reads stay possible via new logs)."""
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
