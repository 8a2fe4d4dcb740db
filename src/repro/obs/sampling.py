"""Stdlib-only background sampling profiler (collapsed-stack output).

A :class:`SamplingProfiler` wakes a daemon thread at a configurable
frequency, snapshots every thread's Python stack via
``sys._current_frames()``, and accumulates *collapsed stacks* — the
``outer;inner;leaf count`` lines flamegraph tooling (Brendan Gregg's
``flamegraph.pl``, speedscope, inferno) consumes directly.

Compared to ``cProfile`` this is the right tool for the long-running
processes this repo now has (the query server, sweep campaigns): it
attaches to an *already running* workload, costs a bounded amount per
sample instead of per function call (~the stack depth, at the chosen
Hz), and needs no instrumentation in the profiled code.  The price is
statistics instead of exact counts — frames are attributed whole
sampling periods.

``sys._current_frames()`` is CPython-specific but stdlib; sampling
happens with the GIL held, so stacks are internally consistent.  The
profiler's own sampler thread is excluded from its samples.

Wired into the CLI as ``--profile-sampling OUT.collapsed`` on ``run``,
``serve``, and ``sweep run``/``resume`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any

from repro.errors import ReproError

#: Default sampling frequency.  97 Hz, a prime, so sampling cannot lock
#: onto periodic workload behaviour (timers, batch windows).
DEFAULT_HZ = 97.0


class ProfilerError(ReproError):
    """The sampling profiler was misused."""


def _frame_label(frame: Any) -> str:
    """One collapsed-stack frame label: ``module:qualname``."""
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    # co_qualname appeared in 3.11; co_name is the 3.10 fallback.
    name = getattr(code, "co_qualname", code.co_name)
    return f"{module}:{name}"


class SamplingProfiler:
    """Samples all thread stacks at ``hz`` into collapsed-stack counts.

    Usage::

        profiler = SamplingProfiler(hz=97).start()
        ...  # workload
        profiler.stop()
        profiler.write("profile.collapsed")

    Also usable as a context manager.  ``start``/``stop`` are
    idempotent-safe in the directions that matter: double ``start``
    raises (two samplers would double-count), ``stop`` after ``stop``
    is a no-op.
    """

    def __init__(self, hz: float = DEFAULT_HZ) -> None:
        if hz <= 0:
            raise ProfilerError(f"sampling frequency must be > 0, got {hz}")
        self.hz = float(hz)
        self._interval = 1.0 / self.hz
        self._counts: Counter[tuple[str, ...]] = Counter()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.samples = 0
        self.started_unix = 0.0
        self.stopped_unix = 0.0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Start the sampler thread; returns self for chaining."""
        if self._thread is not None:
            raise ProfilerError("profiler is already running")
        self._stop.clear()
        self.started_unix = time.time()
        self._thread = threading.Thread(
            target=self._run, name="sampling-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and join the sampler thread (no-op when idle)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        self.stopped_unix = time.time()

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- sampling ------------------------------------------------------------

    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self._interval):
            self._sample(own_id)

    def _sample(self, own_id: int) -> None:
        """Take one sample of every thread's stack."""
        try:
            frames = sys._current_frames()
        except AttributeError:  # pragma: no cover - non-CPython
            self._stop.set()
            return
        stacks: list[tuple[str, ...]] = []
        for thread_id, frame in frames.items():
            if thread_id == own_id:
                continue
            stack: list[str] = []
            while frame is not None:
                stack.append(_frame_label(frame))
                frame = frame.f_back
            if stack:
                stack.reverse()  # collapsed format is outermost-first
                stacks.append(tuple(stack))
        with self._lock:
            self.samples += 1
            for stack in stacks:
                self._counts[stack] += 1

    # -- output --------------------------------------------------------------

    def collapsed(self) -> str:
        """The collapsed-stack report, most-sampled stacks first."""
        with self._lock:
            items = sorted(
                self._counts.items(), key=lambda kv: (-kv[1], kv[0])
            )
        return "\n".join(
            f"{';'.join(stack)} {count}" for stack, count in items
        ) + ("\n" if items else "")

    def write(self, path: str | Path) -> Path:
        """Write the collapsed-stack report to a file.

        Raises:
            ProfilerError: when the destination cannot be written.
        """
        destination = Path(path)
        try:
            destination.parent.mkdir(parents=True, exist_ok=True)
            destination.write_text(self.collapsed(), encoding="utf-8")
        except OSError as exc:
            raise ProfilerError(f"cannot write profile {path}: {exc}")
        return destination
