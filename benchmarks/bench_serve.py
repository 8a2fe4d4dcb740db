"""Load benchmark for the snapshot query service.

A multi-threaded generator drives ``/locate`` over persistent
keep-alive connections against a server indexing the small snapshot,
reporting sustained throughput and latency quantiles; acceptance is
>= 5k req/s (DESIGN.md section 5).  A second scenario shrinks the
server's admission and queue bounds and verifies the backpressure
contract under a deliberate overload: some requests shed with 503
while ``/healthz`` stays responsive.

Machine-readable results land in ``BENCH_serve.json`` at the repo root
via :mod:`record` (the shared envelope the bench-history trend table
reads).
"""

from __future__ import annotations

import http.client
import threading
import time

import numpy as np
import pytest

from record import record_bench

from repro.config import small_scenario
from repro.datasets.pipeline import run_pipeline
from repro.serve import OverloadError, SnapshotClient, SnapshotIndex, SnapshotServer

MIN_THROUGHPUT_RPS = 5_000


@pytest.fixture(scope="module")
def serve_index() -> SnapshotIndex:
    """An index over the small snapshot (the serving benchmark substrate)."""
    dataset = run_pipeline(small_scenario()).dataset("IxMapper", "Skitter")
    return SnapshotIndex(dataset)


def _drive(
    url: str,
    paths: list[str],
    n_threads: int,
    requests_per_thread: int,
) -> tuple[float, np.ndarray, int]:
    """Hammer the server; returns (wall_s, latencies_ms, errors)."""
    host, port = url.removeprefix("http://").split(":")
    latencies: list[list[float]] = [[] for _ in range(n_threads)]
    errors = [0] * n_threads
    barrier = threading.Barrier(n_threads + 1)

    def worker(tid: int) -> None:
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        mine = latencies[tid]
        barrier.wait()
        for i in range(requests_per_thread):
            path = paths[(tid * requests_per_thread + i) % len(paths)]
            t0 = time.perf_counter()
            try:
                conn.request("GET", path)
                resp = conn.getresponse()
                resp.read()
                if resp.status != 200:
                    errors[tid] += 1
            except OSError:
                errors[tid] += 1
                conn.close()
                conn = http.client.HTTPConnection(host, int(port), timeout=30)
            mine.append((time.perf_counter() - t0) * 1e3)
        conn.close()

    threads = [
        threading.Thread(target=worker, args=(tid,), daemon=True)
        for tid in range(n_threads)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    flat = np.asarray([ms for per in latencies for ms in per])
    return wall, flat, sum(errors)


def test_bench_locate_throughput(serve_index):
    """Sustained ``/locate`` throughput over keep-alive connections.

    The address pool is larger than one batch but far smaller than the
    cache, so steady state exercises the LRU fast path with periodic
    misses through the micro-batcher — the intended serving profile.
    """
    rng = np.random.default_rng(42)
    pool = rng.choice(serve_index.dataset.addresses, size=512, replace=False)
    paths = [f"/locate?address={int(a)}" for a in pool]
    n_threads, per_thread = 8, 4_000

    with SnapshotServer(
        serve_index, port=0, max_inflight=256, cache_size=8192
    ) as server:
        # Warm-up: prime the cache so the timed run measures steady state.
        _drive(server.url, paths, 2, len(paths))
        wall, lat_ms, errors = _drive(server.url, paths, n_threads, per_thread)
        stats = server.stats()

    total = n_threads * per_thread
    rps = total / wall
    p50, p95, p99 = (float(np.percentile(lat_ms, q)) for q in (50, 95, 99))
    payload = {
        "scenario": "locate-throughput",
        "n_threads": n_threads,
        "requests": total,
        "wall_s": round(wall, 4),
        "throughput_rps": round(rps, 1),
        "latency_ms": {
            "p50": round(p50, 4),
            "p95": round(p95, 4),
            "p99": round(p99, 4),
        },
        "errors": errors,
        "cache_hit_ratio": round(stats["cache"]["hit_ratio"], 4),
        "batcher_mean_batch": round(stats["batcher"]["mean_batch"], 2),
    }
    record_bench(
        "serve",
        {"throughput": payload},
        headline={
            "throughput_rps": (rps, "higher"),
            "p99_ms": (p99, "lower"),
        },
        merge=True,
    )
    print(
        f"/locate throughput: {rps:,.0f} req/s over {total:,} requests "
        f"({n_threads} threads)\n"
        f"latency ms: p50={p50:.3f} p95={p95:.3f} p99={p99:.3f}\n"
        f"errors={errors}  cache_hit_ratio="
        f"{stats['cache']['hit_ratio']:.3f}"
    )
    assert errors == 0
    assert rps >= MIN_THROUGHPUT_RPS, (
        f"sustained {rps:,.0f} req/s, need >= {MIN_THROUGHPUT_RPS:,}"
    )


def test_bench_overload_sheds_cleanly(serve_index):
    """Over-capacity burst: 503s appear, /healthz keeps answering."""
    dataset = serve_index.dataset
    server = SnapshotServer(
        serve_index,
        port=0,
        max_inflight=2,
        max_pending=2,
        batch_window_s=0.05,
        cache_size=1,
    )
    shed = ok = 0
    lock = threading.Lock()
    with server:
        url = server.url

        def fire(address: int) -> None:
            nonlocal shed, ok
            try:
                SnapshotClient(url, max_retries=0).locate(address)
                outcome = "ok"
            except OverloadError:
                outcome = "shed"
            except Exception:
                outcome = "other"
            with lock:
                if outcome == "ok":
                    ok += 1
                elif outcome == "shed":
                    shed += 1

        threads = [
            threading.Thread(target=fire, args=(int(a),))
            for a in dataset.addresses[:64]
        ]
        for t in threads:
            t.start()
        # Liveness during the burst is the contract under test.
        health = SnapshotClient(url).healthz()
        for t in threads:
            t.join()
        stats = SnapshotClient(url).stats()

    assert health["status"] == "ok"
    assert shed > 0, "expected some 503s from the overloaded server"
    assert ok > 0, "expected some requests to still be served"
    assert stats["metrics"]["counters"]["serve.shed"] >= shed
    record_bench(
        "serve",
        {
            "overload": {
                "scenario": "overload-burst",
                "burst": 64,
                "served": ok,
                "shed": shed,
                "healthz_during_burst": health["status"],
            }
        },
        merge=True,
    )
