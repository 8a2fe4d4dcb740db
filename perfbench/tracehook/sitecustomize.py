"""Installs the benchmark's span recorders in a traced run's processes.

A traced run puts this directory first on ``PYTHONPATH`` and names an
output directory in ``PERFBENCH_TRACE_DIR``.  Python imports this module
at start-up in every process, including shard workers a coordinator
spawns; for a ``python -m repro.cli`` command of a traced role it wraps
that role's layer calls and writes the recorded spans to
``<dir>/<role>-<pid>.json`` when the process exits.  The program itself
runs unchanged.
"""

import os
import sys


def _install() -> None:
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if not trace_dir:
        return
    from pathlib import Path

    from pbench import hooks
    from pbench.spans import Recorder

    found = hooks.role_of(list(getattr(sys, "orig_argv", sys.argv)))
    if found is None:
        return
    role, install = found
    recorder = Recorder(role)
    install(recorder)

    import atexit
    import signal

    atexit.register(recorder.dump, Path(trace_dir) / f"{role}-{os.getpid()}.json")
    # Shard workers are stopped with SIGTERM; exit through the normal
    # shutdown path so the spans are written.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))


try:
    _install()
except Exception as exc:  # never break the interpreter start-up
    sys.stderr.write(f"perfbench trace hook not installed: {exc!r}\n")
