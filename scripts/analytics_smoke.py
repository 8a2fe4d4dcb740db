"""End-to-end smoke test of continuous analytics (CI gate).

Exercises the ingest → analytics → drift pipeline through real OS
processes, exactly as an operator would:

1. ``repro snapshot`` builds the small base snapshot; six chained
   delta batches are synthesized from it — five benign arrival batches
   followed by one remap-heavy batch that reassigns 400 interfaces to
   new ASes, collapsing the intradomain link share;
2. ``repro ingest run --analytics`` consumes the spool at
   publish-every-batch cadence, computing per-generation paper
   metrics and scoring ``intradomain_share`` for drift:
   the five benign generations stay quiet, the remap batch raises
   **exactly one** trigger alert, visible on the ingester's
   ``/metrics`` endpoint (``repro_analytics_*`` gauges) and in
   ``repro ingest status`` (analytics lag 0);
3. after a clean shutdown, ``repro analytics status`` shows every
   published generation stored with the single trigger recorded;
   ``history`` renders the per-generation series and ``diff`` flags
   the drifted metrics between the last two generations;
4. an offline ``repro analytics run`` over the same WAL and store
   is idempotent — it re-analyzes every generation onto the same keys
   and raises zero new alerts.

Run from the repo root with
``PYTHONPATH=src python scripts/analytics_smoke.py``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datasets.serialize import load_dataset  # noqa: E402
from repro.ingest import save_delta  # noqa: E402
from repro.measure.stream import DeltaStream  # noqa: E402

INGEST_RE = re.compile(
    r"ingest pid=(?P<pid>\d+) wal_seq=(?P<seq>\d+) gen=(?P<gen>\d+) "
    r"hash=(?P<hash>[0-9a-f]+) out=(?P<out>\S+)"
)
METRICS_RE = re.compile(r"ingest metrics on (?P<url>http://\S+)")
ANALYTICS_RE = re.compile(r"ingest analytics db=(?P<db>\S+)")

#: Five benign arrival batches, then one remap-heavy drift batch.
BENIGN = dict(n_adds=6, n_links=8, n_moves=3, n_remaps=0)
DRIFT = dict(n_adds=6, n_links=8, n_moves=3, n_remaps=400)
N_BATCHES = 6
WATCHED = "intradomain_share"


def _cli_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + os.pathsep + existing if existing else src
    return env


def _run_cli(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        check=check,
        env=_cli_env(),
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


def _popen_cli(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_cli_env(),
        cwd=REPO_ROOT,
    )


def _read_until(proc: subprocess.Popen, pattern: re.Pattern,
                timeout_s: float = 300.0) -> re.Match:
    deadline = time.monotonic() + timeout_s
    seen: list[str] = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        assert line, (
            f"process exited ({proc.poll()}) before {pattern.pattern!r}; "
            f"output: {seen[-5:]}"
        )
        seen.append(line.strip())
        match = pattern.search(line)
        if match:
            return match
    raise AssertionError(
        f"no match for {pattern.pattern!r} in {timeout_s}s: {seen[-5:]}"
    )


def _scrape_gauges(metrics_url: str) -> dict[str, float]:
    body = urllib.request.urlopen(f"{metrics_url}/metrics").read().decode()
    gauges: dict[str, float] = {}
    for line in body.splitlines():
        if line.startswith("#") or " " not in line:
            continue
        name, _, value = line.rpartition(" ")
        try:
            gauges[name] = float(value)
        except ValueError:
            continue
    return gauges


def _wait_analyzed(metrics_url: str, gen: int,
                   timeout_s: float = 180.0) -> dict[str, float]:
    deadline = time.monotonic() + timeout_s
    gauges: dict[str, float] = {}
    while time.monotonic() < deadline:
        gauges = _scrape_gauges(metrics_url)
        if gauges.get("repro_analytics_analyzed_gen", 0.0) >= gen:
            return gauges
        time.sleep(0.25)
    raise AssertionError(
        f"analytics never reached gen {gen}: "
        f"{gauges.get('repro_analytics_analyzed_gen')}"
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="analytics-smoke-") as tmp:
        tmp_path = Path(tmp)
        snap = tmp_path / "base.npz"
        spool = tmp_path / "spool"
        ing_dir = tmp_path / "ingest"
        spool.mkdir()

        print("== building base snapshot and delta spool ==", flush=True)
        _run_cli("snapshot", "--scale", "small", "--out", str(snap))
        base = load_dataset(snap)
        stream = DeltaStream(base, np.random.default_rng(5))
        for i in range(N_BATCHES):
            shape = DRIFT if i == N_BATCHES - 1 else BENIGN
            save_delta(
                stream.next_batch(**shape), spool / f"delta-{i:03d}.npz"
            )

        print("== ingesting with live analytics ==", flush=True)
        ingest = _popen_cli(
            "ingest", "run", "--base", str(snap), "--out", str(ing_dir),
            "--spool", str(spool), "--publish-batches", "1",
            "--publish-age-s", "3600", "--metrics-port", "0",
            "--analytics", "--drift-metrics", WATCHED,
            "--drift-warmup", "4",
        )
        try:
            # The analytics line precedes the pid banner.
            db = _read_until(ingest, ANALYTICS_RE).group("db")
            banner = _read_until(ingest, INGEST_RE)
            assert banner.group("seq") == "0", banner.group(0)
            metrics_url = _read_until(ingest, METRICS_RE).group("url")

            # Base gen 1 + six published batches = gen 7 analyzed.
            gauges = _wait_analyzed(metrics_url, 1 + N_BATCHES)
            assert gauges["repro_analytics_alerts_total"] == 1.0, gauges
            print(
                f"analyzed gen "
                f"{gauges['repro_analytics_analyzed_gen']:.0f}, "
                f"{gauges['repro_analytics_alerts_total']:.0f} drift "
                f"alert on /metrics",
                flush=True,
            )

            status = _run_cli("ingest", "status", "--out", str(ing_dir))
            facts = json.loads(status.stdout)
            analytics = facts["analytics"]
            assert analytics["analyzed_gen"] == 1 + N_BATCHES, analytics
            assert analytics["lag"] == 0, analytics
            print(
                f"ingest status: analytics lag {analytics['lag']}, "
                f"{analytics['alerts']} recorded alerts",
                flush=True,
            )

            ingest.send_signal(signal.SIGINT)
            assert ingest.wait(timeout=60) == 0
            ingest = None
        finally:
            if ingest is not None and ingest.poll() is None:
                ingest.kill()
                ingest.wait(timeout=30)

        print("== repro analytics status/history/diff ==", flush=True)
        status = _run_cli("analytics", "status", "--db", db)
        report = json.loads(status.stdout)
        assert report["generations"] >= 2, report
        assert report["triggers"] == 1, report
        triggers = [
            a for a in report["alerts"] if a["kind"] == "trigger"
        ]
        assert len(triggers) == 1 and triggers[0]["metric"] == WATCHED, (
            report["alerts"]
        )
        assert report["latest"]["gen"] == 1 + N_BATCHES, report["latest"]
        print(
            f"{report['generations']} generations stored, 1 trigger on "
            f"{WATCHED} at gen {triggers[0]['gen']}",
            flush=True,
        )

        history = _run_cli(
            "analytics", "history", "--db", db, "--metric", WATCHED
        )
        rows = [
            line for line in history.stdout.splitlines()[1:] if line.strip()
        ]
        assert len(rows) == report["generations"], history.stdout
        print(f"history renders {len(rows)} points", flush=True)

        diff = _run_cli(
            "analytics", "diff", "--db", db, "--threshold", "0.05",
            check=False,
        )
        assert diff.returncode == 1, (diff.returncode, diff.stdout)
        assert WATCHED in diff.stdout, diff.stdout
        print("diff flags the drifted generation", flush=True)

        print("== offline replay is idempotent ==", flush=True)
        replay = _run_cli(
            "analytics", "run", "--base", str(snap),
            "--wal", str(ing_dir / "ingest.wal"), "--db", db,
            "--drift-metrics", WATCHED, "--drift-warmup", "4",
        )
        summary = json.loads(replay.stdout)
        assert summary["final_gen"] == 1 + N_BATCHES, summary
        assert summary["new_alerts"] == 0, summary
        # The offline pass also stores the base generation the live
        # observer never published; re-running adds nothing further.
        again = json.loads(
            _run_cli(
                "analytics", "run", "--base", str(snap),
                "--wal", str(ing_dir / "ingest.wal"), "--db", db,
                "--drift-metrics", WATCHED, "--drift-warmup", "4",
            ).stdout
        )
        assert again["generations_stored"] == summary["generations_stored"]
        assert again["new_alerts"] == 0, again
        report = json.loads(
            _run_cli("analytics", "status", "--db", db).stdout
        )
        assert report["triggers"] == 1, report
        print(
            f"replay stored {summary['generations_stored']} generations, "
            f"0 new alerts across two re-runs",
            flush=True,
        )

    print("analytics smoke: ALL OK")
    return 0


if __name__ == "__main__":
    start = time.perf_counter()
    code = main()
    print(f"({time.perf_counter() - start:.1f}s)")
    sys.exit(code)
