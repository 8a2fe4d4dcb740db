"""Per-stage telemetry: wall time, memory high-water mark, counters.

The executor records one :class:`StageEvent` per stage (whether it ran
or was served from the artifact cache).  Events are structured — a sink
callable can stream them elsewhere — and :meth:`Telemetry.render_profile`
formats the collected events as the ``--profile`` summary table.

RSS is read via :func:`resource.getrusage`, i.e. it is the *process*
high-water mark observed when the stage finished, not a per-stage peak;
with concurrent stages the attribution is approximate by nature.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.obs.bus import publish as bus_publish

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

#: Event statuses.
STATUS_RAN = "ran"
STATUS_CACHE_HIT = "cache-hit"


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark in MiB (0.0 if unknown)."""
    if resource is None:
        return 0.0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    if sys.platform == "darwin":  # pragma: no cover
        return rss / (1024.0 * 1024.0)
    return rss / 1024.0


def artifact_counters(value: Any) -> dict[str, int]:
    """Best-effort node/link counters for a stage artifact.

    Understands anything exposing ``n_nodes``/``n_links`` (inventories,
    mapped datasets), topologies exposing ``n_routers``/``n_interfaces``,
    BGP tables exposing ``entries``, and tuples of the above (first
    member providing each counter wins).
    """
    counters: dict[str, int] = {}
    if isinstance(value, tuple):
        for member in value:
            for key, count in artifact_counters(member).items():
                counters.setdefault(key, count)
        return counters
    n_nodes = getattr(value, "n_nodes", None)
    n_links = getattr(value, "n_links", None)
    if isinstance(n_nodes, int):
        counters["nodes"] = n_nodes
    if isinstance(n_links, int):
        counters["links"] = n_links
    n_routers = getattr(value, "n_routers", None)
    n_interfaces = getattr(value, "n_interfaces", None)
    if isinstance(n_routers, int):
        counters.setdefault("nodes", n_routers)
    if isinstance(n_interfaces, int):
        counters.setdefault("interfaces", n_interfaces)
    entries = getattr(value, "entries", None)
    if hasattr(entries, "__len__"):
        counters.setdefault("entries", len(entries))
    return counters


@dataclass(frozen=True, slots=True)
class StageEvent:
    """One stage's execution record.

    Attributes:
        stage: stage name.
        status: ``"ran"`` or ``"cache-hit"``.
        wall_s: wall-clock seconds spent producing (or loading) the
            artifact.
        rss_mb: process RSS high-water mark when the stage finished.
        counters: artifact size counters (nodes, links, ...).
        start_s: monotonic start time (``time.perf_counter()``), shared
            clock across all stages of one run.
        end_s: monotonic end time.
    """

    stage: str
    status: str
    wall_s: float
    rss_mb: float
    counters: Mapping[str, int]
    start_s: float = 0.0
    end_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable view of the event."""
        return {
            "stage": self.stage,
            "status": self.status,
            "wall_s": self.wall_s,
            "rss_mb": self.rss_mb,
            "counters": dict(self.counters),
            "start_s": self.start_s,
            "end_s": self.end_s,
        }


class Telemetry:
    """Collects stage events for one pipeline run (thread-safe)."""

    def __init__(self, sink: Callable[[StageEvent], None] | None = None) -> None:
        self._events: list[StageEvent] = []
        self._sink = sink
        self._lock = threading.Lock()

    def record(self, event: StageEvent) -> None:
        """Append one event (and forward it to the sink and live bus).

        When a :class:`~repro.obs.bus.TelemetryBus` is active in the
        calling context, the stage event is also published as a
        ``stage`` event, so live consumers see stage completions as
        they happen instead of after the run.
        """
        with self._lock:
            self._events.append(event)
        if self._sink is not None:
            self._sink(event)
        bus_publish("stage", **event.to_dict())

    @property
    def events(self) -> tuple[StageEvent, ...]:
        """All recorded events, in completion order."""
        with self._lock:
            return tuple(self._events)

    def __iter__(self) -> Iterator[StageEvent]:
        return iter(self.events)

    def event_for(self, stage: str) -> StageEvent | None:
        """The latest event recorded for a stage, if any."""
        for event in reversed(self.events):
            if event.stage == stage:
                return event
        return None

    def total_wall_s(self) -> float:
        """Sum of per-stage wall times (serial-equivalent cost)."""
        return sum(event.wall_s for event in self.events)

    def render_profile(self) -> str:
        """The ``--profile`` summary table.

        Rows are ordered by stage start time (name breaks ties), so the
        table is deterministic under ``--jobs N`` where completion order
        depends on the schedule.
        """
        events = sorted(self.events, key=lambda e: (e.start_s, e.stage))
        if not events:
            return "PIPELINE STAGE PROFILE\n(no stages recorded)"
        name_width = max(len("stage"), max(len(e.stage) for e in events))
        lines = [
            "PIPELINE STAGE PROFILE",
            f"{'stage':<{name_width}}  {'status':<9}  {'wall s':>8}  "
            f"{'rss MB':>8}  counters",
        ]
        for event in events:
            counters = ", ".join(
                f"{key}={value}" for key, value in sorted(event.counters.items())
            )
            lines.append(
                f"{event.stage:<{name_width}}  {event.status:<9}  "
                f"{event.wall_s:>8.3f}  {event.rss_mb:>8.1f}  {counters}"
            )
        peak_mb = max(e.rss_mb for e in events)
        lines.append(
            f"{'total':<{name_width}}  {'':<9}  {self.total_wall_s():>8.3f}  "
            f"{peak_mb:>8.1f}"
        )
        return "\n".join(lines)


@dataclass
class StageTimer:
    """Context manager measuring one stage's wall time.

    Attributes:
        wall_s: elapsed seconds (valid after exit).
        start_s: monotonic entry time (``time.perf_counter()``).
        end_s: monotonic exit time (valid after exit).
    """

    wall_s: float = field(default=0.0)
    start_s: float = field(default=0.0)
    end_s: float = field(default=0.0)

    def __enter__(self) -> "StageTimer":
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end_s = time.perf_counter()
        self.wall_s = self.end_s - self.start_s
