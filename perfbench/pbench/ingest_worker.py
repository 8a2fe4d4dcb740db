"""The ``ingest`` workload's measured process.

    python -m pbench.ingest_worker --base BASE.npz --work DIR --seed N
        --seconds S [--trace-out PATH]

Sets up an :class:`Ingester` with an :class:`AnalyticsRunner` attached
(the ``repro ingest run --analytics`` defaults: publish every 3
batches, fsynced WAL) several times, then submits seeded
``DeltaStream.next_batch()`` batches from a single producer in a closed
loop until the time is up and the last batch is published.  Afterwards
it checks the published generation against a from-scratch rebuild and
the stored analytics against a fresh engine, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

SETUP_REPEATS = 3
PUBLISH_BATCHES = 3
CAMPAIGN = "ingest"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--base", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    import numpy as np

    from repro.analytics import AnalyticsRunner, DriftConfig
    from repro.analytics.engine import AnalyticsEngine
    from repro.datasets.serialize import load_dataset
    from repro.ingest import Ingester, patch_dataset
    from repro.measure.stream import DeltaStream
    from repro.serve import SnapshotIndex

    from pbench import checks, common

    recorder = None
    if args.trace_out is not None:
        from pbench import hooks
        from pbench.spans import Recorder

        recorder = Recorder("ingest")
        hooks.install_ingest(recorder)

    work = Path(args.work)
    setups = []
    ingester = runner = None
    for attempt in range(SETUP_REPEATS):
        if ingester is not None:
            ingester.close()
        out = work / f"ingest-{attempt}"
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        ingester = Ingester(args.base, out, publish_batches=PUBLISH_BATCHES, sync=True)
        runner = AnalyticsRunner(
            out / "analytics.db", CAMPAIGN,
            drift_config=DriftConfig(warmup=4, threshold=6.0),
        )
        runner.attach(ingester)
        setups.append(time.perf_counter() - start)

    base = load_dataset(args.base)
    stream = DeltaStream(base, np.random.default_rng([args.seed, 7]))
    batches = [stream.next_batch() for _ in range(64)]
    submitted = []
    freshness = []
    pending: list[float] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline or pending:
        if len(submitted) == len(batches):
            batches += [stream.next_batch() for _ in range(64)]
        batch = batches[len(submitted)].stamped(time.time())
        result = ingester.submit(batch)
        submitted.append(batch)
        pending.append(batch.created_unix)
        if result["published"]:
            now = time.time()
            freshness += [now - stamp for stamp in pending]
            pending = []
    loop_s = time.perf_counter() - start
    rss_mb = common.self_peak_rss_mb()
    if recorder is not None:
        recorder.dump(Path(args.trace_out))

    # Correctness: the published generation against a from-scratch
    # rebuild of the base patched by every batch, and the stored
    # analytics of that generation against a fresh engine.
    checkpoint = json.loads((ingester.out_dir / "checkpoint.json").read_text())
    dataset = base
    for batch in submitted:
        dataset, _ = patch_dataset(dataset, batch)
    reference = SnapshotIndex(dataset)
    problems = checks.generation_problems(checkpoint["snapshot_hash"], reference.snapshot_hash)
    stored = runner.store.generation(runner.campaign_id, int(checkpoint["gen"]))
    if stored is None:
        problems.append(f"no analytics stored for generation {checkpoint['gen']}")
    else:
        fresh = AnalyticsEngine(dataset, index=reference).metrics()
        problems += checks.analytics_problems(stored["metrics"], fresh)
    ingester.close()
    print(json.dumps({
        "setups": setups,
        "batches": len(submitted),
        "loop_s": loop_s,
        "freshness_s": freshness,
        "rss_mb": rss_mb,
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
