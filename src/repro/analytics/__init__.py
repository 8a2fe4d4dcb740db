"""Continuous analytics: paper metrics over snapshot generations.

The batch experiments in :mod:`repro.core` answer the paper's questions
once; this package answers them *per generation* as streaming ingestion
evolves the snapshot — an :class:`AnalyticsEngine` that recomputes the
metrics with the core instruments, a generation-keyed :class:`MetricStore`,
EWMA/CUSUM :class:`DriftDetector` alerts, and the
:class:`AnalyticsRunner` observer that wires them into the ingest
publish path.
"""

from repro.analytics.drift import DriftConfig, DriftDetector, DriftEvent
from repro.analytics.engine import AnalyticsEngine
from repro.analytics.runner import (
    DEFAULT_CAMPAIGN,
    DEFAULT_DB_NAME,
    AnalyticsRunner,
    analytics_lag,
    replay_wal,
)
from repro.analytics.store import MetricStore

__all__ = [
    "AnalyticsEngine",
    "AnalyticsRunner",
    "DEFAULT_CAMPAIGN",
    "DEFAULT_DB_NAME",
    "DriftConfig",
    "DriftDetector",
    "DriftEvent",
    "MetricStore",
    "analytics_lag",
    "replay_wal",
]
