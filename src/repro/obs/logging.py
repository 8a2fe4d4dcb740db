"""Structured JSON logging behind ``-v/--verbose``.

One handler on the ``repro`` root logger emits one JSON object per line
to stderr, so verbose runs stay machine-parseable (pipe through ``jq``)
and quiet runs stay quiet: without ``--verbose`` only warnings and
errors surface.  Library modules obtain child loggers via
:func:`get_logger` and never configure handlers themselves.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Any, TextIO

#: Root logger name for the whole package.
ROOT_LOGGER = "repro"

#: LogRecord attributes that are plumbing, not payload.
_STANDARD_ATTRS = frozenset(
    vars(
        logging.LogRecord("x", logging.INFO, "x", 0, "x", None, None)
    )
) | {"message", "asctime", "taskName"}


class JsonLogFormatter(logging.Formatter):
    """Formats each record as one JSON object per line.

    Extra attributes passed via ``logger.info(..., extra={...})`` are
    merged into the object (non-JSON values fall back to ``repr``).
    """

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        for key, value in vars(record).items():
            if key in _STANDARD_ATTRS or key in payload:
                continue
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                value = repr(value)
            payload[key] = value
        if record.exc_info:
            payload["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=False)


class BusLogHandler(logging.Handler):
    """Forwards log records onto the active telemetry bus as ``log`` events.

    Costs one context lookup per record when no bus is active, so it is
    safe to leave attached permanently.  Extra attributes (``extra={}``)
    travel with the event like they do in the JSON formatter.
    """

    def emit(self, record: logging.LogRecord) -> None:
        from repro.obs.bus import publish

        fields: dict[str, Any] = {
            key: value
            for key, value in vars(record).items()
            if key not in _STANDARD_ATTRS
        }
        try:
            publish(
                "log",
                level=record.levelname,
                logger=record.name,
                message=record.getMessage(),
                **fields,
            )
        except Exception:  # noqa: BLE001 - logging must never raise
            self.handleError(record)


def setup_logging(
    verbose: bool = False, stream: TextIO | None = None
) -> logging.Logger:
    """(Re)configure the package logger; idempotent per call.

    Args:
        verbose: emit DEBUG and up when True, else WARNING and up.
        stream: destination (default ``sys.stderr``).

    Returns:
        The configured ``repro`` logger.
    """
    logger = logging.getLogger(ROOT_LOGGER)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLogFormatter())
    for old in list(logger.handlers):
        logger.removeHandler(old)
    logger.addHandler(handler)
    logger.addHandler(BusLogHandler())
    logger.setLevel(logging.DEBUG if verbose else logging.WARNING)
    logger.propagate = False
    return logger


def get_logger(name: str) -> logging.Logger:
    """A child logger under the ``repro`` namespace."""
    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")
