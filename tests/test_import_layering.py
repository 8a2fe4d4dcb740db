"""Import layering: processes that never route load neither scipy nor the
generation/measurement pipeline.

The query servers, shard workers, analytics and the ingest writer import
``repro`` packages whose ``__init__`` would pull in the whole pipeline
(and scipy with it) if it re-exported the pipeline eagerly.  Each check
runs in a fresh interpreter, since this test process has long since
loaded everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Entry points of the serve, ingest, analytics and cluster processes.
ENTRY_MODULES = (
    "repro",
    "repro.serve",
    "repro.ingest",
    "repro.analytics",
    "repro.measure.stream",
    "repro.datasets.serialize",
    "repro.cluster.shard",
    "repro.cluster.coordinator",
    "repro.cli",
)

#: What those processes must not load.
PIPELINE_MODULES = (
    "scipy",
    "repro.routing",
    "repro.measure.skitter",
    "repro.measure.mercator",
    "repro.datasets.pipeline",
    "repro.sweep",
)

#: Packages whose ``__all__`` is partly resolved on first use.
LAZY_PACKAGES = ("repro", "repro.datasets", "repro.measure", "repro.serve")


def _run(code: str) -> object:
    """Run ``code`` in a fresh interpreter; return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_serving_entry_points_skip_the_pipeline():
    loaded = _run(
        f"""
        import importlib, json, sys
        for name in {ENTRY_MODULES!r}:
            importlib.import_module(name)
        banned = {PIPELINE_MODULES!r}
        print(json.dumps(sorted(
            m for m in sys.modules
            if any(m == b or m.startswith(b + ".") for b in banned)
        )))
        """
    )
    assert loaded == []


def test_run_loads_nothing_after_the_first_stage():
    late = _run(
        """
        import contextlib, io, json, sys
        from repro import cli
        from repro.core import experiments

        seen = {}
        prepare = experiments.prepare_result

        def prepare_result(config, **kwargs):
            seen["modules"] = set(sys.modules)
            return prepare(config, **kwargs)

        experiments.prepare_result = prepare_result
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", "--scale", "small", "--seed", "1",
                             "--experiments", "all", "--jobs", "1"])
        assert code == 0 and "modules" in seen
        print(json.dumps(sorted(
            m for m in set(sys.modules) - seen["modules"]
            if m.startswith(("repro.", "scipy."))
        )))
        """
    )
    assert late == []


def test_lazy_exports_resolve():
    unresolved = _run(
        f"""
        import importlib, json
        missing = []
        for name in {LAZY_PACKAGES!r}:
            package = importlib.import_module(name)
            for export in package.__all__:
                try:
                    getattr(package, export)
                except AttributeError:
                    missing.append(name + "." + export)
        print(json.dumps(missing))
        """
    )
    assert unresolved == []


def test_unknown_name_is_an_attribute_error():
    # ``from package import submodule`` relies on it to import the module.
    import repro.measure

    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(repro.measure, "no_such_export")
