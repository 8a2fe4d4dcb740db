"""The shard worker: a partition-serving :class:`SnapshotServer`.

A :class:`ShardServer` is an ordinary snapshot server whose index was
built with :meth:`SnapshotIndex.build_partition`, plus two extra
endpoint planes the coordinator uses:

- ``/internal/locate-lines`` — the scatter-gather leg of ``/locate``:
  a batch of addresses answered as newline-separated pre-encoded JSON
  records (``null`` for misses), so the coordinator can splice shard
  answers into client responses without re-encoding.
- ``/admin/…`` — the hot-swap protocol.  ``stage`` builds a new
  partition index for a new snapshot (and possibly new bounds) under a
  *generation* number while the old one keeps serving; ``activate``
  flips the default generation; ``retire`` drops old generations.

The public ``/distance-preference`` endpoint needs no internal leg: a
partition keeps the full snapshot, so any one shard computes the whole
single-process table.

Every query endpoint accepts ``?_gen=G``: the coordinator pins each
request to the generation its routing table was planned against, so a
swap mid-request can never mix answers from two snapshots.  The
generations map is replaced wholesale on every change (never mutated),
so readers take no lock.  A pinned generation this replica does not
hold (it was down through a reload) answers 503 — the coordinator
fails over to a replica that does.

Both planes are admission-exempt: staging a snapshot and health checks
must work exactly when query traffic is being shed.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.errors import OverloadError, ServeError
from repro.serve.batcher import MicroBatcher
from repro.serve.index import DEFAULT_CELL_ARCMIN, SnapshotIndex
from repro.serve.server import (
    SnapshotServer,
    encode_json,
    int_param,
    parse_address_list,
    parse_query,
)


class ShardServer(SnapshotServer):
    """One replica of one shard range, with internal and admin planes."""

    always_admit = SnapshotServer.always_admit + ("internal", "admin")

    def __init__(
        self,
        source: str | Path,
        addr_lo: int | None,
        addr_hi: int | None,
        *,
        gen: int = 1,
        cell_arcmin: float = DEFAULT_CELL_ARCMIN,
        **server_kw,
    ) -> None:
        self._cell_arcmin = cell_arcmin
        index = self._build_partition(source, addr_lo, addr_hi, gen)
        super().__init__(index, **server_kw)
        self._gen_lock = threading.Lock()  # serialises writers only
        self._active_gen = gen
        self._generations: dict[int, tuple[SnapshotIndex, MicroBatcher]] = {
            gen: (index, self.batcher)
        }

    # -- partition building --------------------------------------------------

    def _build_partition(
        self, source: str | Path, lo: int | None, hi: int | None, gen: int
    ) -> SnapshotIndex:
        index = SnapshotIndex.build_partition(
            source, lo, hi, self._cell_arcmin
        )
        index.gen = gen
        return index

    # -- generation resolution -----------------------------------------------

    def _resolve(
        self, params: dict[str, str], index: SnapshotIndex
    ) -> tuple[SnapshotIndex, MicroBatcher]:
        # Unpinned requests stay on ``index``, the generation their
        # cache key was read from, even if an activate lands meanwhile.
        gen = int_param(params["_gen"], "_gen") if "_gen" in params else index.gen
        entry = self._generations.get(gen)
        if entry is None:
            # 503, not 400: the coordinator treats it as failover —
            # this replica missed a reload and a peer holds the data.
            raise OverloadError(
                f"generation {gen} is not staged on this shard"
            )
        return entry

    def _dispatch(
        self,
        endpoint: str,
        path: str,
        raw_query: str,
        index: SnapshotIndex,
        trace_id: str,
    ):
        params = parse_query(raw_query)
        if endpoint == "admin":
            return self._handle_admin(path, params)
        index, batcher = self._resolve(params, index)
        if endpoint == "internal":
            return self._handle_internal(path, params, index)
        return self._route(endpoint, path, params, index, batcher)

    # -- internal plane ------------------------------------------------------

    def _handle_internal(
        self, path: str, params: dict[str, str], index: SnapshotIndex
    ):
        _, _, verb = path.lstrip("/").partition("/")
        if verb == "locate-lines":
            addresses = parse_address_list(params.get("addresses", ""))
            records = index.locate_many(addresses)
            lines = [
                b"null" if record is None else encode_json(record)
                for record in records
            ]
            return 200, b"\n".join(lines)
        return 404, {"error": f"unknown internal endpoint {path!r}"}

    # -- admin plane (hot snapshot swap) -------------------------------------

    def _handle_admin(self, path: str, params: dict[str, str]):
        _, _, verb = path.lstrip("/").partition("/")
        if verb == "stage":
            return self._admin_stage(params)
        if verb == "activate":
            return self._admin_activate(params)
        if verb == "retire":
            return self._admin_retire(params)
        if verb == "status":
            return 200, self._admin_status()
        return 404, {"error": f"unknown admin endpoint {path!r}"}

    def _admin_stage(self, params: dict[str, str]):
        snapshot = params.get("snapshot")
        if not snapshot:
            raise ServeError("stage requires ?snapshot=PATH")
        gen = int_param(params.get("gen", ""), "gen")
        lo = int_param(params["lo"], "lo") if "lo" in params else None
        hi = int_param(params["hi"], "hi") if "hi" in params else None
        index = self._build_partition(snapshot, lo, hi, gen)
        batcher = MicroBatcher(index.locate_many, **self._batcher_conf)
        with self._gen_lock:
            generations = dict(self._generations)
            generations[gen] = (index, batcher)
            self._generations = generations
        return 200, {
            "gen": gen,
            "snapshot_hash": index.snapshot_hash,
            "n_owned": index.dataset.n_nodes,
            "addr_lo": lo,
            "addr_hi": hi,
        }

    def _admin_activate(self, params: dict[str, str]):
        gen = int_param(params.get("gen", ""), "gen")
        entry = self._generations.get(gen)
        if entry is None:
            raise ServeError(f"generation {gen} is not staged")
        with self._gen_lock:
            self._active_gen = gen
            # Plain attribute swap: in-flight requests captured the old
            # pair at dispatch and finish against it safely.
            self.index, self.batcher = entry
        return 200, {
            "active_gen": gen,
            "snapshot_hash": entry[0].snapshot_hash,
        }

    def _admin_retire(self, params: dict[str, str]):
        keep = int_param(params.get("keep", ""), "keep")
        if keep not in self._generations:
            raise ServeError(f"generation {keep} is not staged")
        with self._gen_lock:
            dropped = {
                g: entry
                for g, entry in self._generations.items()
                if g != keep
            }
            self._generations = {keep: self._generations[keep]}
        for _, batcher in dropped.values():
            batcher.close()
        return 200, {"kept": keep, "dropped": sorted(dropped)}

    def _admin_status(self) -> dict:
        generations = self._generations
        return {
            "active_gen": self._active_gen,
            "staged_gens": sorted(generations),
            "generations": {
                str(g): {
                    "snapshot_hash": index.snapshot_hash,
                    "n_owned": index.dataset.n_nodes,
                    "built_unix": round(index.built_unix, 3),
                }
                for g, (index, _) in generations.items()
            },
        }

    # -- bookkeeping ---------------------------------------------------------

    def stats(self) -> dict:
        facts = super().stats()
        facts["shard"] = self._admin_status()
        return facts

    def stop(self) -> None:
        super().stop()
        for _, batcher in self._generations.values():
            batcher.close()
