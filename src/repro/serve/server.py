"""The package's one HTTP front end, and the snapshot query server on it.

:class:`SnapshotServer` exposes one :class:`~repro.serve.index.SnapshotIndex`
over a small JSON/HTTP protocol:

==============================  ==============================================
endpoint                        answers
==============================  ==============================================
``/locate?address=N``           coordinates, origin AS, degree of one address
``/locate?addresses=a,b,c``     the batch form (one vectorised lookup)
``/as/<asn>``                   per-AS summary: nodes, locations, hull, degree
``/near?lat=&lon=&k=``          k nearest nodes (``radius=`` for a disc query)
``/distance-preference?region=``  Section V ``f_hat(d)`` (``d=`` for one value)
``/healthz``                    liveness + version (never shed)
``/stats``                      cache/batcher/index/metrics counters (never shed)
``/metrics``                    Prometheus text exposition (never shed)
==============================  ==============================================

Three load-management layers keep the service responsive instead of
collapsing under pressure:

- **response cache** — an LRU keyed on ``(request target, snapshot
  hash)`` serves repeated queries without touching the index;
- **micro-batching** — concurrent ``/locate`` cache misses coalesce
  into one vectorised ``locate_many`` flush
  (:mod:`repro.serve.batcher`);
- **backpressure** — both the in-flight request count and the batcher
  queue are bounded; beyond either bound the server sheds with
  ``503`` + ``Retry-After`` while ``/healthz`` keeps answering.

HTTP handling is a deliberately minimal HTTP/1.1 subset over
``socketserver.ThreadingTCPServer`` (GET only, keep-alive, explicit
``Content-Length``) — ``BaseHTTPRequestHandler``'s header parsing costs
more than the queries themselves at the request rates the benchmark
drives.

Instrumentation goes through :mod:`repro.obs`: per-endpoint request
counters and latency histograms, shed counters, cache hit/miss
counters, and a queue-depth gauge land in a
:class:`~repro.obs.metrics.MetricsRegistry`; :meth:`SnapshotServer.stats_report`
bundles them into a schema-valid, RunReport-compatible snapshot.  The
same registry is scrape-able live at ``/metrics`` (Prometheus text
format, see :mod:`repro.obs.export`).  Each request additionally emits
one structured ``access`` event — endpoint, status, latency, trace ID —
onto the server's :class:`~repro.obs.bus.TelemetryBus` (or the
context-active bus), with per-request tracing gated by an optional
:class:`~repro.obs.trace.TraceSampler` so tracing cost follows the
sample rate, not the request rate.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
import time
from typing import Any, Callable
from urllib.parse import unquote_plus

from repro import __version__
from repro.core.distance import DistancePreference, f_hat_at
from repro.errors import (
    AnalysisError,
    GeoError,
    OverloadError,
    ReportError,
    ReproError,
    ServeError,
)
from repro.geo.regions import Region, region_by_name
from repro.obs.bus import TelemetryBus, publish as _bus_publish
from repro.obs.export import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RunReport, validate_report
from repro.obs.trace import (
    TraceContext,
    Tracer,
    TraceSampler,
    new_trace_id,
    use_trace_context,
)
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import LruCache
from repro.serve.index import SnapshotIndex

_JSON_TYPE = b"application/json"
_TEXT_METRICS_TYPE = _METRICS_CONTENT_TYPE.encode("latin-1")

#: Request header carrying the caller's trace id (coordinator -> shard).
TRACE_HEADER = "x-repro-trace"

#: Seconds a shed client is told to wait (``Retry-After`` and the body).
RETRY_AFTER_S = 1


class FrontEnd:
    """A threaded HTTP front end: everything but the endpoints themselves.

    Owns the socket and lifecycle, admission control with the 503 +
    ``Retry-After`` envelope, the ``(target, snapshot hash)`` response
    cache, trace sampling, per-endpoint counters and latency
    histograms, access events, ``/metrics``, ``/healthz`` and the
    shared ``/stats`` fields.  Subclasses (the snapshot server, the
    cluster coordinator, the ingest endpoint) implement
    :meth:`_snapshot` and :meth:`_dispatch`, set the class attributes
    below, and override :meth:`_metrics_body`, :meth:`_error`,
    :meth:`stats`, :meth:`start` or :meth:`stop` where they differ.
    ``batch_fn`` feeds the front end's :class:`MicroBatcher`, if any.
    """

    #: Endpoints exempt from admission control and from the response
    #: cache: the service must stay observable exactly when it is
    #: shedding everything else.
    always_admit: tuple[str, ...] = ("healthz", "stats", "metrics")
    #: Namespace of the counters, histograms and spans (``serve.shed``).
    metric_prefix = "serve"
    #: Extra fields stamped on every access event.
    access_tags: dict[str, str] = {}
    #: Whether 200 answers of shed-able endpoints are cached.
    response_cache = True

    def __init__(
        self,
        batch_fn: Callable[[list[int]], list] | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 8192,
        max_inflight: int = 64,
        max_pending: int = 4096,
        max_batch: int = 512,
        batch_window_s: float = 0.002,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        bus: TelemetryBus | None = None,
        trace_sampler: TraceSampler | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ServeError(f"max_inflight must be >= 1, got {max_inflight}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.bus = bus
        self.trace_sampler = trace_sampler
        self.cache = LruCache(cache_size)
        # Kept so a subclass can build further batchers (shard staging).
        self._batcher_conf = {
            "max_batch": max_batch,
            "max_wait_s": batch_window_s,
            "max_pending": max_pending,
        }
        self.batcher = (
            None if batch_fn is None else MicroBatcher(batch_fn, **self._batcher_conf)
        )
        self._max_inflight = max_inflight
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._started_unix = time.time()
        self._httpd = _TcpServer((host, port), _Handler)
        self._httpd.app = self
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def host(self) -> str:
        """Bound host address."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (the actual one when constructed with port 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "FrontEnd":
        """Serve in a background thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"{self.metric_prefix}-accept",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down cleanly: stop accepting, then drain the batcher."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self.batcher is not None:
            self.batcher.close()

    def __enter__(self) -> "FrontEnd":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- admission control ---------------------------------------------------

    def _admit(self) -> bool:
        with self._inflight_lock:
            if self._inflight >= self._max_inflight:
                return False
            self._inflight += 1
            return True

    def _release(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        """Requests currently being processed (shed-able endpoints)."""
        with self._inflight_lock:
            return self._inflight

    # -- request handling ----------------------------------------------------

    def handle_target(
        self, target: str, trace_parent: str = ""
    ) -> tuple[int, bytes, bytes]:
        """Answer one GET target; returns ``(status, body, content_type)``.

        ``trace_parent`` is the caller's trace id (from the
        ``X-Repro-Trace`` header); a propagated trace is always kept —
        the sampling decision was the originator's to make.
        """
        path, _, raw_query = target.partition("?")
        endpoint = endpoint_of(path)
        prefix = self.metric_prefix
        start = time.perf_counter()
        sampled = bool(trace_parent) or (
            self.trace_sampler.should_sample()
            if self.trace_sampler is not None
            else True
        )
        if trace_parent:
            trace_id = trace_parent
        else:
            trace_id = (
                new_trace_id() if (sampled and self.tracer is not None) else ""
            )
        shed_able = endpoint not in self.always_admit
        cached_here = shed_able and self.response_cache
        admitted = False
        status = 500
        try:
            if endpoint == "metrics":
                status = 200
                return status, self._metrics_body(), _TEXT_METRICS_TYPE
            if shed_able:
                admitted = self._admit()
                if not admitted:
                    status = 503
                    self.metrics.counter(f"{prefix}.shed").add(1)
                    return status, overload_body("over capacity"), _JSON_TYPE
            # Read once: the cache key and the answer share one generation.
            view = self._snapshot()
            if cached_here:
                hit, cached = self.cache.get((target, view.snapshot_hash))
                if hit:
                    status = 200
                    self.metrics.counter(f"{prefix}.cache.hits").add(1)
                    return status, cached, _JSON_TYPE
                self.metrics.counter(f"{prefix}.cache.misses").add(1)
            try:
                if self.tracer is not None and sampled and shed_able:
                    context = TraceContext(trace_id=trace_id)
                    with use_trace_context(context), self.tracer.span(
                        f"{prefix}.{endpoint}"
                    ):
                        status, payload = self._answer(
                            endpoint, path, raw_query, view, trace_id
                        )
                else:
                    status, payload = self._answer(
                        endpoint, path, raw_query, view, trace_id
                    )
            except (ServeError, AnalysisError, GeoError) as exc:
                status, payload = self._error(exc)
            # Internal endpoints may hand back pre-encoded bytes (the
            # shard's line protocol); everything else is JSON.
            body = payload if isinstance(payload, bytes) else encode_json(payload)
            if cached_here and status == 200:
                self.cache.put((target, view.snapshot_hash), body)
            return status, body, _JSON_TYPE
        finally:
            if admitted:
                self._release()
            wall_ms = (time.perf_counter() - start) * 1e3
            self.metrics.counter(f"{prefix}.requests.{endpoint}").add(1)
            self.metrics.histogram(f"{prefix}.latency_ms.{endpoint}").observe(
                wall_ms
            )
            self._publish_access(endpoint, target, status, wall_ms, trace_id)

    def _answer(
        self, endpoint: str, path: str, raw_query: str, view: Any, trace_id: str
    ) -> tuple[int, Any]:
        if endpoint == "healthz":
            return 200, {
                "status": "ok",
                "version": __version__,
                "snapshot_hash": view.snapshot_hash,
                "gen": view.gen,
                "built_unix": round(view.built_unix, 3),
                "uptime_s": round(time.time() - self._started_unix, 3),
            }
        if endpoint == "stats":
            return 200, self.stats()
        return self._dispatch(endpoint, path, raw_query, view, trace_id)

    def _snapshot(self) -> Any:
        """The generation one request is answered against.

        Anything with ``snapshot_hash``, ``gen`` and ``built_unix``.
        """
        raise NotImplementedError

    def _dispatch(
        self, endpoint: str, path: str, raw_query: str, view: Any, trace_id: str
    ) -> tuple[int, Any]:
        """``(status, payload)`` for the subclass's own endpoints.

        ``bytes`` payloads go out verbatim, others as JSON; raised
        errors become responses through :meth:`_error`.
        """
        return 404, {"error": f"unknown endpoint {path!r}"}

    def _error(self, exc: ReproError) -> tuple[int, Any]:
        """Map a handler's error to ``(status, payload)``."""
        if isinstance(exc, OverloadError):
            self.metrics.counter(f"{self.metric_prefix}.shed").add(1)
            return 503, overload_body(str(exc))
        if isinstance(exc, ServeError):
            return 400, {"error": str(exc)}
        return 404, {"error": str(exc)}

    def _metrics_body(self) -> bytes:
        """The ``/metrics`` exposition."""
        return render_prometheus(self.metrics).encode("utf-8")

    def _publish_access(
        self, endpoint: str, target: str, status: int, wall_ms: float, trace_id: str
    ) -> None:
        """One structured access-log event per request, onto the bus.

        Uses the server's own bus when configured, else whatever bus is
        active in the handling thread's context (a no-op without one).
        """
        fields = {
            "endpoint": endpoint,
            "target": target,
            "status": status,
            "ms": round(wall_ms, 3),
            "trace_id": trace_id,
            "sampled": bool(trace_id),
            **self.access_tags,
        }
        if self.bus is not None:
            self.bus.publish("access", **fields)
        else:
            _bus_publish("access", **fields)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready operational counters for ``/stats``."""
        facts: dict[str, Any] = {
            "cache": self.cache.stats(),
            "inflight": self.inflight,
            "max_inflight": self._max_inflight,
            # Ejection inputs for a fronting coordinator: how hard this
            # replica is shedding and how deep its lookup queue runs.
            "shed_requests": int(
                self.metrics.counter(f"{self.metric_prefix}.shed").value
            ),
        }
        if self.batcher is not None:
            facts["batcher"] = self.batcher.stats()
            facts["queue_depth"] = self.batcher.queue_depth
        facts["uptime_s"] = round(time.time() - self._started_unix, 3)
        facts["metrics"] = self.metrics.snapshot()
        return facts


class SnapshotServer(FrontEnd):
    """A threaded HTTP query server over one immutable snapshot index.

    Keyword options are :class:`FrontEnd`'s.
    """

    def __init__(self, index: SnapshotIndex, **frontend_kw: Any) -> None:
        self.index = index
        super().__init__(index.locate_many, **frontend_kw)

    def _snapshot(self) -> SnapshotIndex:
        return self.index

    def _dispatch(
        self,
        endpoint: str,
        path: str,
        raw_query: str,
        index: SnapshotIndex,
        trace_id: str,
    ) -> tuple[int, Any]:
        return self._route(
            endpoint, path, parse_query(raw_query), index, self.batcher
        )

    def _route(
        self,
        endpoint: str,
        path: str,
        params: dict[str, str],
        index: SnapshotIndex,
        batcher: MicroBatcher,
    ) -> tuple[int, Any]:
        """Route one parsed request against an explicit index/batcher.

        Handlers take the index and batcher as arguments rather than
        reading ``self`` so a shard can resolve a *generation* (during
        hot snapshot swap, old and new indexes serve side by side) and
        still share every handler with the single-process server.
        """
        if endpoint == "locate":
            return self._handle_locate(params, index, batcher)
        if endpoint == "as":
            return self._handle_as(path, index)
        if endpoint == "near":
            return self._handle_near(params, index)
        if endpoint == "distance-preference":
            return self._handle_preference(params, index)
        return 404, {"error": f"unknown endpoint {path!r}"}

    def _handle_locate(
        self,
        params: dict[str, str],
        index: SnapshotIndex,
        batcher: MicroBatcher,
    ) -> tuple[int, Any]:
        if "addresses" in params:
            addresses = parse_address_list(params["addresses"])
            results = index.locate_many(addresses)
            return 200, {"results": results}
        if "address" not in params:
            raise ServeError("locate requires ?address=N (or ?addresses=a,b)")
        address = int_param(params["address"], "address")
        # Cache miss path: coalesce with concurrent misses in one flush.
        future = batcher.submit(address)
        self.metrics.gauge("serve.queue_depth").set(batcher.queue_depth)
        record = future.result()
        if record is None:
            return 404, {"error": locate_miss_message(address)}
        return 200, record

    def _handle_as(self, path: str, index: SnapshotIndex) -> tuple[int, Any]:
        asn = parse_as_path(path)
        record = index.as_record(asn)
        if record is None:
            return 404, {"error": as_miss_message(asn)}
        return 200, record

    def _handle_near(
        self, params: dict[str, str], index: SnapshotIndex
    ) -> tuple[int, Any]:
        query, limit = parse_near_query(params)
        if "radius" in query:
            results = index.within_radius(
                query["lat"], query["lon"], query["radius"], limit=limit
            )
        else:
            results = index.nearest(query["lat"], query["lon"], k=query["k"])
        return 200, {"query": query, "results": results}

    def _handle_preference(
        self, params: dict[str, str], index: SnapshotIndex
    ) -> tuple[int, Any]:
        pref = index.distance_preference(parse_region(params))
        return 200, preference_payload(pref, params)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        return {"index": self.index.stats(), **super().stats()}

    def stats_report(self) -> RunReport:
        """The server's counters as a schema-valid :class:`RunReport`.

        The snapshot is listed as the single artifact (label -> content
        hash) and every serve counter/histogram lands in ``metrics``, so
        ``repro report show`` / ``report diff`` work on service stats
        exactly as on pipeline runs.

        Raises:
            ReportError: if the assembled report fails schema validation
                (a bug guard, not an expected path).
        """
        report = RunReport(
            seed=0,
            config={
                "service": "snapshot-query",
                "snapshot_label": self.index.dataset.label,
                "snapshot_hash": self.index.snapshot_hash,
                "host": self.host,
                "port": self.port,
                "max_inflight": self._max_inflight,
                "cache_capacity": self.cache.capacity,
            },
            metrics=self.metrics.snapshot(),
            spans=self.tracer.to_dicts() if self.tracer is not None else [],
            artifacts={self.index.dataset.label: self.index.snapshot_hash},
            created_unix=time.time(),
        )
        errors = validate_report(report.to_dict())
        if errors:
            raise ReportError(
                "serve stats report failed validation: " + "; ".join(errors[:3])
            )
        return report


# --- transport layer ---------------------------------------------------------


class _TcpServer(socketserver.ThreadingTCPServer):
    """Thread-per-connection TCP server with a bounded accept backlog."""

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 128
    app: FrontEnd  # attached right after construction


class _Handler(socketserver.StreamRequestHandler):
    """Minimal HTTP/1.1 GET handler (keep-alive, explicit lengths).

    Parsing is by hand because this loop *is* the hot path: the standard
    ``BaseHTTPRequestHandler`` spends more time in ``email``-based header
    parsing than the index spends answering the query.
    """

    timeout = 60
    wbufsize = -1  # fully buffered writes; one flush per response

    def handle(self) -> None:
        app = self.server.app  # type: ignore[attr-defined]
        try:
            while True:
                line = self.rfile.readline(8192)
                if not line or line in (b"\r\n", b"\n"):
                    return
                try:
                    method, target, version = (
                        line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    self._respond(400, b'{"error": "malformed request line"}', False)
                    return
                keep_alive = version == "HTTP/1.1"
                trace_parent = ""
                while True:  # drain headers: Connection: and the trace id
                    header = self.rfile.readline(8192)
                    if header in (b"\r\n", b"\n", b""):
                        break
                    lowered = header.decode("latin-1").strip().lower()
                    if lowered.startswith("connection:"):
                        value = lowered.partition(":")[2].strip()
                        keep_alive = value != "close" and (
                            keep_alive or value == "keep-alive"
                        )
                    elif lowered.startswith(TRACE_HEADER + ":"):
                        trace_parent = lowered.partition(":")[2].strip()
                if method != "GET":
                    self._respond(
                        405, b'{"error": "only GET is supported"}', keep_alive
                    )
                else:
                    status, body, content_type = app.handle_target(
                        target, trace_parent
                    )
                    extra = (
                        f"Retry-After: {RETRY_AFTER_S}\r\n".encode()
                        if status == 503
                        else b""
                    )
                    self._respond(
                        status, body, keep_alive, extra, content_type
                    )
                if not keep_alive:
                    return
        except (TimeoutError, socket.timeout, ConnectionError, BrokenPipeError):
            return

    def _respond(
        self,
        status: int,
        body: bytes,
        keep_alive: bool,
        extra: bytes = b"",
        content_type: bytes = _JSON_TYPE,
    ) -> None:
        reason = _REASONS.get(status, "OK")
        connection = b"keep-alive" if keep_alive else b"close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n".encode()
            + b"Content-Type: "
            + content_type
            + b"\r\n"
            + f"Content-Length: {len(body)}\r\n".encode()
            + b"Connection: "
            + connection
            + b"\r\n"
            + extra
            + b"\r\n"
        )
        self.wfile.write(head + body)
        self.wfile.flush()


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}


# --- small helpers (public: the cluster coordinator imports the request
# --- parsers, overload_body and locate_miss_message, and shard servers
# --- encode_json, so errors and bodies match the single-process server) ------


def encode_json(payload: Any) -> bytes:
    """The one JSON encoding used on the wire (compact separators)."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def overload_body(message: str) -> bytes:
    """The 503 envelope; the transport adds the matching ``Retry-After``."""
    return encode_json({"error": message, "retry_after_s": RETRY_AFTER_S})


def endpoint_of(path: str) -> str:
    head = path.lstrip("/").split("/", 1)[0]
    return head or "root"


def parse_query(raw_query: str) -> dict[str, str]:
    if not raw_query:
        return {}
    params: dict[str, str] = {}
    for piece in raw_query.split("&"):
        key, _, value = piece.partition("=")
        if "%" in value or "+" in value:
            value = unquote_plus(value)
        params[key] = value
    return params


def int_param(value: str, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ServeError(f"{name} must be an integer, got {value!r}") from None


def float_param(value: str, name: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ServeError(f"{name} must be a number, got {value!r}") from None


def parse_address_list(raw: str) -> list[int]:
    """Parse the ``?addresses=a,b,c`` batch form."""
    addresses = [int_param(part, "addresses") for part in raw.split(",") if part]
    if not addresses:
        raise ServeError("addresses must be a comma-separated list")
    return addresses


def parse_near_query(params: dict[str, str]) -> tuple[dict[str, Any], int]:
    """Parse ``/near`` parameters into ``(query, limit)``.

    The returned query dict is exactly the one echoed in the response
    body (key order included); ``limit`` is the result-count cap —
    ``k`` for nearest-neighbour queries, ``limit`` for disc queries.
    """
    if "lat" not in params or "lon" not in params:
        raise ServeError("near requires ?lat=&lon=")
    lat = float_param(params["lat"], "lat")
    lon = float_param(params["lon"], "lon")
    if "radius" in params:
        radius = float_param(params["radius"], "radius")
        limit = int_param(params.get("limit", "1000"), "limit")
        if limit < 1:
            raise ServeError(f"limit must be >= 1, got {limit}")
        return {"lat": lat, "lon": lon, "radius": radius}, limit
    k = int_param(params.get("k", "1"), "k")
    return {"lat": lat, "lon": lon, "k": k}, k


def parse_as_path(path: str) -> int:
    """Extract the ASN from an ``/as/<asn>`` path."""
    _, _, tail = path.lstrip("/").partition("/")
    if not tail:
        raise ServeError("expected /as/<asn>")
    return int_param(tail, "asn")


def parse_region(params: dict[str, str]) -> Region:
    """Resolve the ``?region=`` of the distance-preference endpoints."""
    name = params.get("region")
    if not name:
        raise ServeError(
            "distance-preference requires ?region= (e.g. US, Europe, Japan)"
        )
    return region_by_name(name)


def locate_miss_message(address: int) -> str:
    return f"address {address} is not in this snapshot"


def as_miss_message(asn: int) -> str:
    return f"AS {asn} is not in this snapshot"


def preference_payload(
    pref: DistancePreference, params: dict[str, str]
) -> dict[str, Any]:
    """The ``/distance-preference`` response body for a computed curve.

    The coordinator forwards ``/distance-preference`` to one shard,
    which builds this same body from its full-snapshot index, so the
    cluster relays the single-process JSON byte for byte.
    """
    payload: dict[str, Any] = {
        "region": pref.region,
        "bin_miles": pref.bin_miles,
        "n_nodes": pref.n_nodes,
        "n_bins": int(pref.bin_left.size),
    }
    if "d" in params:
        d = float_param(params["d"], "d")
        if not math.isfinite(d) or d < 0:
            raise ServeError(f"distance must be >= 0, got {d}")
        payload["d"] = d
        payload["f_hat"] = f_hat_at(pref, d)
    else:
        f_hat = [(float(v) if v == v else None) for v in pref.f_hat.tolist()]
        payload["bin_left"] = pref.bin_left.tolist()
        payload["f_hat"] = f_hat
        payload["link_counts"] = pref.link_counts.tolist()
        payload["pair_counts"] = pref.pair_counts.tolist()
    return payload

