"""One seed of the ``paper`` workload, in its own process.

    python -m pbench.paper_worker --seed N [--trace-out PATH]

Runs the unchanged ``repro run --scale small --seed N --experiments all
--jobs 1`` (no artifact cache) in-process with its stdout captured,
then ``validate_recovery`` on the same pipeline result, and prints one
JSON line: when the first pipeline stage started, when the tables were
rendered and validated, digests of the rendered tables and of the
recovery report, the laws not recovered and the process's peak RSS.  With ``--trace-out`` the
paper layers' spans are recorded and written there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from repro import cli
    from repro.core import experiments, validation

    from pbench import checks, common

    recorder = None
    if args.trace_out is not None:
        from pbench import hooks
        from pbench.spans import Recorder

        recorder = Recorder("paper")
        hooks.install_paper(recorder)

    captured = {}
    prepare = experiments.prepare_result

    def prepare_result(config, **kwargs):
        captured["first_stage"] = time.perf_counter()
        captured["result"] = prepare(config, **kwargs)
        return captured["result"]

    experiments.prepare_result = prepare_result
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", "--scale", "small", "--seed", str(args.seed),
                         "--experiments", "all", "--jobs", "1"])
    problems = [] if code == 0 else [f"repro run exited {code}"]
    misses, n_checks, recovery = [], 0, ""
    if "result" in captured:
        report = validation.validate_recovery(captured["result"], "IxMapper")
        misses = checks.recovery_misses(report)
        n_checks = len(report.checks)
        recovery = checks.tables_digest(report.render())
    else:
        problems.append("the pipeline produced no result")
    end = time.perf_counter()
    if recorder is not None:
        recorder.dump(Path(args.trace_out))
    print(json.dumps({
        "seed": args.seed,
        "first_stage": captured.get("first_stage", end),
        "end": end,
        "digest": checks.tables_digest(stdout.getvalue()),
        "recovery_digest": recovery,
        "recovery_misses": misses,
        "recovery_checks": n_checks,
        "problems": problems,
        "rss_mb": common.self_peak_rss_mb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
