"""Correctness checks: each workload's outputs against a reference.

A check returns a list of problems (empty when the outputs are right);
the workload turns each problem into a failed operation, and any
failure makes the run exit non-zero.
"""

from __future__ import annotations

import hashlib
import math

from repro.serve import SnapshotIndex
from repro.serve.server import encode_json, parse_as_path, parse_near_query, parse_query


class ServingReference:
    """What an in-process :class:`SnapshotIndex` answers for a target."""

    def __init__(self, index: SnapshotIndex) -> None:
        self.index = index

    def expected(self, target: str) -> bytes:
        path, _, raw_query = target.partition("?")
        params = parse_query(raw_query)
        if path == "/locate":
            return encode_json(self.index.locate(int(params["address"])))
        if path == "/near":
            query, _ = parse_near_query(params)
            results = self.index.nearest(query["lat"], query["lon"], k=query["k"])
            return encode_json({"query": query, "results": results})
        if path.startswith("/as/"):
            return encode_json(self.index.as_record(parse_as_path(path)))
        raise ValueError(f"no reference for {target!r}")

    def verify(self, responses: dict[str, bytes]) -> list[str]:
        """Targets whose recorded answer differs from the reference."""
        return [
            f"wrong answer for {target}"
            for target, body in responses.items()
            if body != self.expected(target)
        ]


class ResponseLog:
    """First answer per distinct target, plus any target answered two ways.

    ``record`` runs on the load generator's threads, so it does no more
    than a dict lookup and a bytes comparison.
    """

    def __init__(self) -> None:
        self.first: dict[str, bytes] = {}
        self.inconsistent: set[str] = set()

    def record(self, target: str, status: int, body: bytes) -> bool:
        if status != 200:
            return False
        seen = self.first.setdefault(target, body)
        if seen is not body and seen != body:
            self.inconsistent.add(target)
            return False
        return True


def tables_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Recovery checks the small scenario may miss per seed on average.  The
#: repository's own test of the small scenario allows two misses
#: (tests/test_new_modules.py); at ~2.5k routers the density exponents
#: and Waxman scales are noisy, and a few seeds miss three.
SMALL_SCALE_MISSES = 2
MIN_RECOVERY_CHECKS = 6


def recovery_misses(report) -> list[str]:
    """Planted laws a recovery report did not recover within their bands."""
    return [check.law for check in report.checks if not check.ok]


def recovery_problems(misses_per_seed: dict[str, list[str]], checks_per_seed: dict[str, int]) -> list[str]:
    """The run's recovery verdict over every seed it ran.

    Each seed must compute at least :data:`MIN_RECOVERY_CHECKS` checks;
    the seeds together may miss at most :data:`SMALL_SCALE_MISSES`
    bands per seed.
    """
    problems = [
        f"{key}: only {n} recovery checks computed"
        for key, n in checks_per_seed.items()
        if n < MIN_RECOVERY_CHECKS
    ]
    missed = sum(len(m) for m in misses_per_seed.values())
    if missed > SMALL_SCALE_MISSES * len(misses_per_seed):
        worst = max(misses_per_seed.items(), key=lambda kv: len(kv[1]))
        problems.append(
            f"{missed} recovery checks failed over {len(misses_per_seed)} seeds "
            f"(most in {worst[0]}: {', '.join(worst[1])})"
        )
    return problems


def generation_problems(published_hash: str, reference_hash: str) -> list[str]:
    if published_hash != reference_hash:
        return [
            f"published generation {published_hash[:16]} != "
            f"from-scratch rebuild {reference_hash[:16]}"
        ]
    return []


def analytics_problems(stored: dict[str, float], fresh: dict[str, float]) -> list[str]:
    """Stored per-generation metrics against a fresh engine's."""
    problems = []
    for name in sorted(set(stored) | set(fresh)):
        a, b = stored.get(name), fresh.get(name)
        if a is None or b is None:
            problems.append(f"analytics metric {name} missing on one side")
        elif not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"analytics metric {name}: stored {a!r} != fresh {b!r}")
    return problems
