"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload {paper,ingest,cluster} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload untraced and then traced, and prints
the per-layer metrics plus the tracing overhead (traced minus untraced
end-to-end numbers).  Progress and detail go to stderr; the last line
of stdout is the result.  The exit code is non-zero when any
correctness check failed or the program cannot be run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pbench import common, harness  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_program()
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    try:
        outcome = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if outcome.attempted < 1:
        outcome.fail("no operation was attempted")
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    names = harness.per_layer(args.workload) if args.trace else harness.END_TO_END
    common.emit(outcome, names)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
