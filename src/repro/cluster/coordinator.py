"""The cluster coordinator: one front door over N shard ranges × R replicas.

Serves the exact protocol of a single-process
:class:`~repro.serve.server.SnapshotServer` — byte-identical bodies,
same status codes, same error messages — by routing and merging:

- ``/locate`` — binary search over the routing table's range bounds
  picks the one owning shard; point lookups flow through the
  coordinator's own :class:`MicroBatcher` so concurrent misses coalesce
  into per-shard ``/internal/locate-lines`` batches whose pre-encoded
  JSON lines are spliced straight into responses.
- ``/near`` — scatter to every range, merge by ``(miles, address)``
  (the index's own tie-break, so the merged order equals the
  single-process order), truncate to ``k``/``limit``.
- ``/as/<asn>`` — scatter; exactly one shard owns any AS, so the first
  ``200`` is relayed verbatim.
- ``/distance-preference`` — forwarded to range 0 alone, without a
  hedge: every shard keeps the full snapshot and computes the
  single-process table, so that one shard's status and body relay
  verbatim.

Every shard request is pinned to the routing *generation* it was
planned against (``?_gen=``) and carries the coordinator's trace id in
the ``X-Repro-Trace`` header.  Failures fail over between replicas with
hedged retry (:func:`request_with_failover`); a hot snapshot swap
(:meth:`ClusterCoordinator.reload`) stages the new snapshot shard by
shard, then atomically replaces the routing object — requests in
flight finish against the old generation, which is retired only after
its pin count drains.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from urllib.parse import quote

import numpy as np

from repro.errors import AnalysisError, ServeError
from repro.obs.export import merge_expositions, render_prometheus
from repro.cluster.client import (
    HealthChecker,
    ReplicaSet,
    ShardClient,
    ShardShedding,
    ShardUnavailable,
    request_with_failover,
)
from repro.cluster.plan import ShardRange, partition_bounds, range_indices
from repro.serve.server import (
    FrontEnd,
    int_param,
    locate_miss_message,
    overload_body,
    parse_address_list,
    parse_as_path,
    parse_near_query,
    parse_query,
)

#: Threads fanning requests out to shard ranges.
FAN_WORKERS = 8
#: Threads running replica tries, hedges included.
REPLICA_WORKERS = 16
#: Seconds a replica may take to stage a new snapshot on reload.
STAGE_TIMEOUT_S = 300.0


class Routing:
    """One immutable generation of the cluster's routing state.

    Replaced wholesale on reload — readers grab a reference once per
    request and *pin* it, so a swap mid-request can never mix two
    snapshots, and the old generation is retired only after its pin
    count drains to zero.
    """

    def __init__(
        self,
        gen: int,
        ranges: list[ShardRange],
        replica_sets: list[ReplicaSet],
        snapshot_hash: str,
    ) -> None:
        if len(ranges) != len(replica_sets):
            raise ServeError("one replica set per shard range required")
        self.gen = gen
        self.ranges = ranges
        self.replica_sets = replica_sets
        self.snapshot_hash = snapshot_hash
        self.built_unix = time.time()
        self._inflight = 0
        self._lock = threading.Lock()

    def __enter__(self) -> "Routing":
        with self._lock:
            self._inflight += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight


class ClusterCoordinator(FrontEnd):
    """Scatter-gather front end over a fleet of :class:`ShardServer`.

    Keyword options not named here are :class:`FrontEnd`'s.
    """

    # Cheap local reads (and admin) bypass admission control and the
    # response cache; "analytics" is store-backed, so caching on the
    # snapshot hash would hide newly analyzed generations anyway.
    always_admit = FrontEnd.always_admit + ("admin", "analytics")
    metric_prefix = "coord"
    access_tags = {"component": "coordinator"}

    def __init__(
        self,
        routing: Routing,
        *,
        shard_timeout_s: float = 5.0,
        hedge_delay_s: float = 0.05,
        health_interval_s: float = 0.5,
        analytics_db: str | Path | None = None,
        analytics_campaign: str = "ingest",
        **frontend_kw,
    ) -> None:
        self._routing = routing
        self._analytics_db = (
            None if analytics_db is None else Path(analytics_db)
        )
        self._analytics_campaign = analytics_campaign
        self._analytics_store = None
        self._shard_timeout_s = shard_timeout_s
        self._hedge_delay_s = hedge_delay_s
        self._reload_lock = threading.Lock()
        # Two pools so range-level fan-out tasks never wait on workers
        # they themselves occupy: ranges fan on one, replica tries
        # (including hedges) run on the other.
        self._fan_pool = ThreadPoolExecutor(
            max_workers=FAN_WORKERS, thread_name_prefix="coord-fan"
        )
        self._replica_pool = ThreadPoolExecutor(
            max_workers=REPLICA_WORKERS, thread_name_prefix="coord-replica"
        )
        self._health = HealthChecker(
            lambda: self._routing, interval_s=health_interval_s
        )
        super().__init__(self._locate_lines_batch, **frontend_kw)

    # -- lifecycle -----------------------------------------------------------

    @property
    def routing(self) -> Routing:
        """The active routing generation (read-only view)."""
        return self._routing

    def start(self) -> "ClusterCoordinator":
        super().start()
        self._health.start()
        return self

    def stop(self) -> None:
        self._health.stop()
        super().stop()
        self._fan_pool.shutdown(wait=False)
        self._replica_pool.shutdown(wait=False)
        for rset in self._routing.replica_sets:
            rset.close()

    # -- request handling ----------------------------------------------------

    def _snapshot(self) -> Routing:
        return self._routing

    def _error(self, exc):
        if isinstance(exc, ShardShedding):
            # Every replica of some range is shedding: relay the
            # shard's own 503 envelope so clients back off the same
            # way they would against a single overloaded server.
            self.metrics.counter("coord.upstream_shed").add(1)
            return 503, exc.body
        if isinstance(exc, ShardUnavailable):
            self.metrics.counter("coord.unavailable").add(1)
            return 503, overload_body(str(exc))
        return super()._error(exc)

    def _dispatch(
        self,
        endpoint: str,
        path: str,
        raw_query: str,
        routing: Routing,
        trace_id: str,
    ):
        params = parse_query(raw_query)
        if endpoint == "admin":
            return self._handle_admin(path, params)
        if endpoint == "analytics":
            return self._handle_analytics(path, params, routing)
        # Pin the generation for the fan-out: a reload retires it only
        # after the pins drain.
        with routing:
            if endpoint == "locate":
                return self._handle_locate(params, routing, trace_id)
            if endpoint == "near":
                return self._handle_near(
                    params, path, raw_query, routing, trace_id
                )
            if endpoint == "as":
                return self._handle_as(path, raw_query, routing, trace_id)
            if endpoint == "distance-preference":
                # Every shard keeps the full snapshot and computes the
                # single-process table, so one range answers verbatim.
                # No hedge: a first table per region can outlast the
                # hedge delay, and a hedge would compute it twice.
                target = self._pinned(path, raw_query, routing.gen)
                return self._range_request(
                    routing, 0, target, trace_id, hedge=False
                )
        return super()._dispatch(endpoint, path, raw_query, routing, trace_id)

    # -- locate --------------------------------------------------------------

    def _handle_locate(
        self, params: dict[str, str], routing: Routing, trace_id: str
    ):
        if "addresses" in params:
            addresses = parse_address_list(params["addresses"])
            lines = self._fetch_locate_lines(routing, addresses, trace_id)
            # Splicing pre-encoded lines reproduces the single-process
            # body byte for byte: compact JSON composes.
            return 200, b'{"results":[' + b",".join(lines) + b"]}"
        if "address" not in params:
            raise ServeError("locate requires ?address=N (or ?addresses=a,b)")
        address = int_param(params["address"], "address")
        future = self.batcher.submit(address)
        self.metrics.gauge("coord.queue_depth").set(self.batcher.queue_depth)
        line = future.result()
        if line == b"null":
            return 404, {"error": locate_miss_message(address)}
        return 200, line

    def _locate_lines_batch(self, addresses: list[int]) -> list[bytes]:
        """The coordinator batcher's compute fn: route, fan, reassemble."""
        routing = self._routing
        with routing:
            return self._fetch_locate_lines(routing, list(addresses), "")

    def _fetch_locate_lines(
        self, routing: Routing, addresses: list[int], trace_id: str
    ) -> list[bytes]:
        owners = range_indices(
            routing.ranges, np.asarray(addresses, dtype=np.int64)
        )
        groups: dict[int, list[int]] = {}
        for position, owner in enumerate(owners):
            groups.setdefault(int(owner), []).append(position)
        futures = {}
        for owner, positions in groups.items():
            joined = ",".join(str(addresses[p]) for p in positions)
            target = (
                f"/internal/locate-lines?addresses={joined}"
                f"&_gen={routing.gen}"
            )
            futures[owner] = self._fan_pool.submit(
                self._range_request, routing, owner, target, trace_id
            )
        lines: list[bytes] = [b""] * len(addresses)
        for owner, positions in groups.items():
            status, body = futures[owner].result()
            if status != 200:
                raise ShardUnavailable(
                    f"locate fan-out to range {owner} answered {status}"
                )
            shard_lines = body.split(b"\n")
            if len(shard_lines) != len(positions):
                raise ShardUnavailable(
                    f"range {owner} returned {len(shard_lines)} lines "
                    f"for {len(positions)} addresses"
                )
            for position, line in zip(positions, shard_lines):
                lines[position] = line
        return lines

    # -- scatter-gather ------------------------------------------------------

    def _range_request(
        self,
        routing: Routing,
        owner: int,
        target: str,
        trace_id: str,
        *,
        hedge: bool = True,
    ) -> tuple[int, bytes]:
        return request_with_failover(
            routing.replica_sets[owner],
            target,
            executor=self._replica_pool,
            trace_id=trace_id,
            timeout_s=self._shard_timeout_s,
            hedge_delay_s=self._hedge_delay_s if hedge else None,
            metrics=self.metrics,
        )

    def _fan_all(
        self, routing: Routing, target: str, trace_id: str
    ) -> list[tuple[int, bytes]]:
        """The same pinned target against every shard range, concurrently."""
        futures = [
            self._fan_pool.submit(
                self._range_request, routing, owner, target, trace_id
            )
            for owner in range(len(routing.ranges))
        ]
        return [future.result() for future in futures]

    @staticmethod
    def _pinned(path: str, raw_query: str, gen: int) -> str:
        separator = "&" if raw_query else ""
        return f"{path}?{raw_query}{separator}_gen={gen}"

    def _handle_near(
        self,
        params: dict[str, str],
        path: str,
        raw_query: str,
        routing: Routing,
        trace_id: str,
    ):
        query, limit = parse_near_query(params)
        target = self._pinned(path, raw_query, routing.gen)
        responses = self._fan_all(routing, target, trace_id)
        for status, body in responses:
            if status != 200:
                # Parameter validation is data-independent, so every
                # shard produced this same error body — relay it.
                return status, body
        merged: list[dict] = []
        for _, body in responses:
            merged.extend(json.loads(body)["results"])
        merged.sort(key=lambda record: (record["miles"], record["address"]))
        return 200, {"query": query, "results": merged[:limit]}

    def _handle_as(
        self, path: str, raw_query: str, routing: Routing, trace_id: str
    ):
        parse_as_path(path)  # identical 400s before any fan-out
        target = self._pinned(path, raw_query, routing.gen)
        responses = self._fan_all(routing, target, trace_id)
        for status, body in responses:
            if status == 200:
                # Exactly one shard owns an AS (minimum-address rule);
                # its precomputed full-snapshot record relays verbatim.
                return status, body
        return responses[0]

    # -- observability -------------------------------------------------------

    def _metrics_body(self) -> bytes:
        bodies = [render_prometheus(self.metrics)]
        routing = self._routing
        for rset in routing.replica_sets:
            for idx, client in enumerate(rset.clients):
                if not rset.is_healthy(idx):
                    continue
                try:
                    status, body = client.get("/metrics", timeout_s=2.0)
                except ShardUnavailable:
                    continue
                if status == 200:
                    bodies.append(body.decode("utf-8", errors="replace"))
        return merge_expositions(bodies).encode("utf-8")

    def stats(self) -> dict:
        routing = self._routing
        stats = {
            "cluster": {
                "gen": routing.gen,
                "snapshot_hash": routing.snapshot_hash,
                "built_unix": round(routing.built_unix, 3),
                "inflight_pins": routing.inflight,
                "ranges": [
                    {
                        "range": rng.label(),
                        "n_healthy": rset.n_healthy,
                        "replicas": rset.snapshot(),
                    }
                    for rng, rset in zip(
                        routing.ranges, routing.replica_sets
                    )
                ],
            },
            **super().stats(),
        }
        analytics = self._analytics_stats()
        if analytics is not None:
            stats["analytics"] = analytics
        return stats

    # -- hot snapshot swap ---------------------------------------------------

    def _handle_admin(self, path: str, params: dict[str, str]):
        _, _, verb = path.lstrip("/").partition("/")
        if verb == "reload":
            snapshot = params.get("snapshot")
            if not snapshot:
                raise ServeError("reload requires ?snapshot=PATH")
            return 200, self.reload(snapshot)
        if verb == "status":
            return 200, self.stats()
        return 404, {"error": f"unknown admin endpoint {path!r}"}

    # -- continuous analytics ------------------------------------------------

    def _analytics(self):
        """The lazily opened metric store (None when not configured)."""
        if self._analytics_db is None:
            return None
        if self._analytics_store is None:
            from repro.analytics import MetricStore

            self._analytics_store = MetricStore(self._analytics_db)
        return self._analytics_store

    def _handle_analytics(
        self, path: str, params: dict[str, str], routing: Routing
    ):
        """``/analytics/latest`` and ``/analytics/history`` reads.

        Store-backed, not scatter-gather: the analytics series is
        global (the ingest observer computes it on the full snapshot),
        so the coordinator answers from the shared metric store.
        """
        store = self._analytics()
        if store is None:
            raise ServeError(
                "analytics is not configured (start with --analytics-db)"
            )
        campaign_id = store.campaign_id(self._analytics_campaign)
        if campaign_id is None:
            raise AnalysisError(
                f"no analytics recorded for campaign "
                f"{self._analytics_campaign!r}"
            )
        _, _, verb = path.lstrip("/").partition("/")
        if verb == "latest":
            record = store.latest(campaign_id)
            if record is None:
                raise AnalysisError("no generation analyzed yet")
            return 200, {
                "campaign": self._analytics_campaign,
                **record,
                "in_sync": record["snapshot_hash"] == routing.snapshot_hash,
                "alerts": store.alerts(campaign_id, limit=20),
            }
        if verb == "history":
            metric = params.get("metric")
            if not metric:
                raise ServeError("history requires ?metric=NAME")
            limit = int_param(params.get("limit", "50"), "limit")
            if limit < 1:
                raise ServeError("limit must be >= 1")
            points = store.history(campaign_id, metric, limit=limit)
            if not points:
                raise AnalysisError(
                    f"no recorded values for metric {metric!r}"
                )
            return 200, {
                "campaign": self._analytics_campaign,
                "metric": metric,
                "points": [
                    {"gen": gen, "value": value} for gen, value in points
                ],
            }
        return 404, {"error": f"unknown analytics endpoint {path!r}"}

    def _analytics_stats(self) -> dict | None:
        """The ``stats()`` analytics block (None when unconfigured)."""
        store = self._analytics()
        if store is None:
            return None
        routing = self._routing
        block: dict = {
            "campaign": self._analytics_campaign,
            "latest_gen": None,
            "in_sync": False,
        }
        campaign_id = store.campaign_id(self._analytics_campaign)
        if campaign_id is None:
            return block
        record = store.latest(campaign_id)
        if record is None:
            return block
        block["latest_gen"] = record["gen"]
        block["in_sync"] = record["snapshot_hash"] == routing.snapshot_hash
        # The store does not know the cluster's generation numbering
        # (a reload bumps routing.gen independently), so lag is exact
        # only when the hashes line up.
        block["lag"] = 0 if block["in_sync"] else None
        block["age_s"] = round(time.time() - record["created_unix"], 3)
        block["alerts"] = len(store.alerts(campaign_id, limit=10_000))
        return block

    def reload(self, snapshot_path: str | Path) -> dict:
        """Hot-swap the whole fleet onto a new snapshot, dropping nothing.

        Stage on every reachable replica (the expensive part — the old
        generation serves throughout), verify every stage reported one
        consistent snapshot hash, activate, then atomically flip the
        routing object.  Requests pinned to the old generation drain
        before it is retired.  A replica that is down through the
        reload stays ejected: its ``/healthz`` hash no longer matches
        the routing generation, so the health checker will not readmit
        it until a later reload re-stages it.

        Raises:
            ServeError: when planning fails, a *healthy* replica fails
                to stage, any range would end up with no staged
                replica, or the staged hashes disagree.
        """
        with self._reload_lock:
            old = self._routing
            new_gen = old.gen + 1
            path = Path(snapshot_path)
            ranges = partition_bounds(
                _snapshot_addresses(path), len(old.ranges)
            )
            staged: list[ShardClient] = []
            hashes: set[str] = set()
            for slot, rng in enumerate(ranges):
                rset = old.replica_sets[slot]
                staged_in_slot = 0
                for idx, client in enumerate(rset.clients):
                    target = _stage_target(path, new_gen, rng)
                    try:
                        status, body = client.get(
                            target, timeout_s=STAGE_TIMEOUT_S
                        )
                    except ShardUnavailable as exc:
                        if rset.is_healthy(idx):
                            raise ServeError(
                                f"reload aborted: staging on {client.url} "
                                f"failed: {exc}"
                            ) from exc
                        continue
                    if status != 200:
                        raise ServeError(
                            f"reload aborted: stage on {client.url} answered "
                            f"{status}: {body[:200].decode('utf-8', 'replace')}"
                        )
                    hashes.add(json.loads(body)["snapshot_hash"])
                    staged.append(client)
                    staged_in_slot += 1
                if staged_in_slot == 0:
                    raise ServeError(
                        f"reload aborted: no replica of range {rng.label()} "
                        "could stage the new snapshot"
                    )
            if len(hashes) != 1:
                raise ServeError(
                    f"reload aborted: inconsistent snapshot hashes {hashes}"
                )
            for client in staged:
                status, body = client.get(
                    f"/admin/activate?gen={new_gen}", timeout_s=10.0
                )
                if status != 200:
                    raise ServeError(
                        f"reload aborted: activate on {client.url} answered "
                        f"{status}"
                    )
            self._routing = Routing(
                new_gen, ranges, old.replica_sets, next(iter(hashes))
            )
            # Zero dropped requests: old-generation pins drain before
            # the shards may forget that generation.
            deadline = time.monotonic() + 5.0
            while old.inflight > 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            for client in staged:
                try:
                    client.get(f"/admin/retire?keep={new_gen}", timeout_s=10.0)
                except ShardUnavailable:
                    pass
            self.metrics.counter("coord.reloads").add(1)
            return {
                "gen": new_gen,
                "snapshot_hash": next(iter(hashes)),
                "ranges": [rng.label() for rng in ranges],
                "staged_replicas": len(staged),
            }


# --- fleet construction ------------------------------------------------------


def _snapshot_addresses(path: Path) -> np.ndarray:
    """The address column of a snapshot, loaded as lazily as possible."""
    if path.suffix == ".npz":
        try:
            with np.load(path, allow_pickle=False) as payload:
                return np.asarray(payload["addresses"], dtype=np.int64)
        except (OSError, KeyError, ValueError) as exc:
            raise ServeError(
                f"cannot read addresses from {path}: {exc}"
            ) from exc
    from repro.datasets.serialize import load_dataset

    return load_dataset(path).addresses


def _stage_target(path: Path, gen: int, rng: ShardRange) -> str:
    target = (
        f"/admin/stage?snapshot={quote(str(path), safe='')}&gen={gen}"
    )
    if rng.addr_lo is not None:
        target += f"&lo={rng.addr_lo}"
    if rng.addr_hi is not None:
        target += f"&hi={rng.addr_hi}"
    return target


def build_routing(
    ranges: list[ShardRange],
    urls_by_slot: list[list[str]],
    *,
    gen: int = 1,
    timeout_s: float = 5.0,
    wait_timeout_s: float = 60.0,
) -> Routing:
    """Connect to a freshly spawned fleet and assemble its routing table.

    Waits for every replica's ``/healthz``, verifies all replicas agree
    on one snapshot hash, and returns the generation-``gen`` routing.

    Raises:
        ServeError: on timeout or on a snapshot-hash mismatch (a shard
            was pointed at the wrong file).
    """
    if len(ranges) != len(urls_by_slot):
        raise ServeError("one url list per shard range required")
    replica_sets = [
        ReplicaSet([ShardClient(url, timeout_s) for url in urls])
        for urls in urls_by_slot
    ]
    hashes: set[str] = set()
    deadline = time.monotonic() + wait_timeout_s
    for rset in replica_sets:
        for client in rset.clients:
            while True:
                payload = client.probe(timeout_s=2.0)
                if payload is not None:
                    hashes.add(payload["snapshot_hash"])
                    break
                if time.monotonic() > deadline:
                    raise ServeError(
                        f"shard {client.url} not healthy after "
                        f"{wait_timeout_s:.0f}s"
                    )
                time.sleep(0.05)
    if len(hashes) != 1:
        raise ServeError(
            f"shards disagree on the snapshot: hashes {hashes}"
        )
    return Routing(gen, ranges, replica_sets, next(iter(hashes)))
