"""Paths, statistics, process handling and the result record."""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs and run state (gitignored).
WORK = PERFBENCH / ".work"
TRACEHOOK = PERFBENCH / "tracehook"


class BenchError(Exception):
    """The benchmark cannot run (missing program, failed start-up)."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")


def child_env(*, traced: bool = False, trace_dir: Path | None = None,
              extra_paths: tuple[Path, ...] = ()) -> dict[str, str]:
    """Environment for a measured subprocess.

    The untraced environment only puts ``src`` on the path.  The traced
    one also puts the ``tracehook`` directory first, whose
    ``sitecustomize`` installs the span recorders in every Python
    process of the workload (shards spawned by a coordinator inherit it).
    """
    env = dict(os.environ)
    paths = [str(p) for p in extra_paths] + [str(SRC)]
    if traced:
        paths.insert(0, str(TRACEHOOK))
        paths.append(str(PERFBENCH))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# --- statistics ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; ``inf`` entries sort last."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi or ordered[hi] == ordered[lo]:
        return float(ordered[lo])
    if math.isinf(ordered[hi]):
        return math.inf
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def median(values) -> float:
    return percentile(values, 50.0)


#: Windows of the tail estimate (see :func:`windowed_percentile`).
TAIL_WINDOWS = 4
#: The tail percentile reported as ``latency_p90_ms``.  A stall of the
#: host (another tenant taking the CPU for a few milliseconds) lands in
#: the top percent of a serving run's requests, so a p99 reads the host;
#: the slowest tenth is the program's own miss path.
TAIL_Q = 90.0


def window_percentiles(values, q: float = TAIL_Q, windows: int = TAIL_WINDOWS) -> list[float]:
    """The ``q``-th percentile of each of ``windows`` consecutive, equal windows."""
    return [percentile(chunk, q) for chunk in np.array_split(np.asarray(values), windows)
            if len(chunk)]


def windowed_percentile(values, q: float = TAIL_Q, windows: int = TAIL_WINDOWS) -> float:
    """The median over consecutive windows of each window's ``q``-th percentile.

    A stall of the host inflates the tail of the window it falls in, not
    the median over windows, so the tail estimate repeats from run to
    run; it is the run's percentile when the host is quiet.
    """
    return median(window_percentiles(values, q, windows))


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# --- processes -------------------------------------------------------------------


def peak_rss_mb(pid: int) -> float:
    """A live process's resident-set high-water mark (VmHWM) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def cpu_s(pid: int) -> float:
    """A live process's CPU time so far (user plus system), in seconds."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def self_peak_rss_mb() -> float:
    return peak_rss_mb(os.getpid())


def stop_process(proc: subprocess.Popen, timeout_s: float = 20.0) -> int:
    """SIGINT (the servers' clean-shutdown signal), then escalate."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout_s)
    return proc.returncode


def _alive(pid: int) -> bool:
    """Whether a process exists and has not exited (zombies count as gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False


def stop_pid(pid: int, timeout_s: float = 5.0) -> None:
    """Terminate a process that is not this one's child, and wait until
    it is gone (a shard whose coordinator exited before stopping it)."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        if not _alive(pid):
            return
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + timeout_s
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)


def read_line_matching(proc: subprocess.Popen, needle: str,
                       timeout_s: float = 120.0) -> tuple[str, list[str]]:
    """Read a child's stdout until a line containing ``needle``.

    Returns that line and every line read before it.
    """
    import select

    seen: list[str] = []
    deadline = time.monotonic() + timeout_s
    assert proc.stdout is not None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no {needle!r} line within {timeout_s:.0f}s: {seen[-5:]}")
        ready, _, _ = select.select([proc.stdout], [], [], min(remaining, 0.5))
        if not ready:
            if proc.poll() is not None:
                raise BenchError(f"process exited ({proc.returncode}) early: {seen[-5:]}")
            continue
        raw = proc.stdout.readline()
        if not raw:
            raise BenchError(f"process closed stdout early: {seen[-5:]}")
        line = raw.decode("utf-8", "replace").rstrip("\n")
        if needle in line:
            return line, seen
        seen.append(line)


# --- the result record ---------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def emit(outcome: Outcome, names: list[tuple[str, str]]) -> None:
    """Print the one-line JSON result the benchmark contract asks for.

    ``names`` fixes which metrics appear (name, unit); a metric the run
    did not produce is reported as 0.
    """
    metrics = {}
    for name, unit in names:
        value = outcome.metrics.get(name, (0.0, unit))[0]
        if not math.isfinite(value):
            value = 1e9 if value > 0 else -1e9
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(int(outcome.attempted), 1),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    sys.stdout.flush()
