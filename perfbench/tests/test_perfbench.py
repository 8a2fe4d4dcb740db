"""Tests of the benchmark itself: smoke runs, negative checks, seeding.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  The smoke tests drive ``perfbench/run.py`` end to end at a small
measured time, so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as run_module
from pbench import checks, common, harness, inputs, loadgen, serving, spans

RUN = common.PERFBENCH / "run.py"
BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = common.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], capture_output=True,
                          text=True, cwd=cwd, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- the catalogue and BENCHMARK.json agree ----------------------------------------


def test_benchmark_json_matches_the_catalogue():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == harness.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(harness.WORKLOADS)


# --- smoke: each workload end to end at a small size ---------------------------------


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_smoke_untraced(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == harness.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_cluster():
    proc = _run("--workload", "cluster", "--seed", "3", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = _result(proc)["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == harness.per_layer("cluster")
    for name in ("cluster.coord.handle_target_ms", "cluster.coord.batcher.wait_ms",
                 "cluster.rpc_ms", "cluster.shard.handle_target_ms",
                 "serve.index.locate_many_ms", "serve.index.build_s", "cluster.spawn_s"):
        assert metrics[name]["value"] > 0, name
    assert metrics["core.preference_calls"]["value"] == 0


# --- negative: a wrong output fails the run -------------------------------------------


def test_corrupted_response_fails_the_check():
    from repro.serve import SnapshotIndex

    dataset = inputs.tiled(inputs.base_dataset(inputs.SNAPSHOT_SEED), 1)
    reference = checks.ServingReference(SnapshotIndex(dataset))
    traffic = inputs.TrafficModel.for_dataset(dataset, np.random.default_rng(0))
    targets = traffic.targets(50, np.random.default_rng(1))
    log = checks.ResponseLog()
    for target in targets:
        assert log.record(target, 200, reference.expected(target))
    assert reference.verify(log.first) == []
    corrupted = dict(log.first)
    victim = targets[0]
    corrupted[victim] = corrupted[victim].replace(b"1", b"2", 1) + b" "
    assert reference.verify(corrupted) == [f"wrong answer for {victim}"]
    # The same target answered two ways is caught on the generator side.
    assert not log.record(victim, 200, corrupted[victim])
    assert victim in log.inconsistent


def test_stub_answers_fail_a_serving_run():
    """A server answering the wrong bytes makes every request fail."""
    from repro.serve import SnapshotIndex

    dataset = inputs.tiled(inputs.base_dataset(inputs.SNAPSHOT_SEED), 1)
    traffic = inputs.TrafficModel.for_dataset(dataset, np.random.default_rng(0))
    env = common.child_env(extra_paths=(common.PERFBENCH,))
    proc = subprocess.Popen([sys.executable, "-m", "pbench.stub_server"],
                            stdout=subprocess.PIPE, env=env)
    try:
        line, _ = common.read_line_matching(proc, "stub on port", timeout_s=30.0)
        targets = traffic.targets(40, np.random.default_rng(2))
        log = checks.ResponseLog()
        due = np.linspace(0.0, 0.2, len(targets))
        result = loadgen.run_open_loop("127.0.0.1", int(line.split()[-1]), due, targets,
                                       check=log.record)
    finally:
        common.stop_process(proc)
    assert result.n_failed == 0  # 200s with consistent bodies ...
    problems = checks.ServingReference(SnapshotIndex(dataset)).verify(log.first)
    assert len(problems) == len(log.first)  # ... but every one is wrong


def test_closed_loop_keeps_two_requests_in_flight():
    env = common.child_env(extra_paths=(common.PERFBENCH,))
    proc = subprocess.Popen([sys.executable, "-m", "pbench.stub_server"],
                            stdout=subprocess.PIPE, env=env)
    try:
        line, _ = common.read_line_matching(proc, "stub on port", timeout_s=30.0)
        result = loadgen.run_closed_loop("127.0.0.1", int(line.split()[-1]),
                                         ["/stub"] * 100000, 0.4)
    finally:
        common.stop_process(proc)
    answered = result.n - result.n_unsent
    assert 0 < answered < result.n and result.n_failed == 0
    assert result.was_sent[:answered].all() and not result.was_sent[answered:].any()
    assert (result.done[:answered] >= result.sent[:answered]).all()
    # Each request goes out once an earlier one on its connection is done.
    assert (result.sent[2:answered] >= np.sort(result.done[:answered])[:answered - 2]).all()
    rates = serving.window_rates(result, 0.4, windows=4)
    assert len(rates) == 4 and sum(rates) * 0.1 <= answered


def test_wrong_generation_hash_fails():
    assert checks.generation_problems("a" * 64, "a" * 64) == []
    assert checks.generation_problems("a" * 64, "b" * 64)
    assert checks.analytics_problems({"x": 1.0}, {"x": 1.0}) == []
    assert checks.analytics_problems({"x": 1.0}, {"x": 1.5})
    assert checks.analytics_problems({"x": 1.0}, {})


def test_failed_recovery_check_fails():
    runs = {f"seed {i}": [] for i in range(3)}
    counts = {key: 12 for key in runs}
    assert checks.recovery_problems(runs, counts) == []
    runs["seed 0"] = ["density exponent (US)", "Waxman L miles (US)", "x", "y", "z",
                      "u", "v"]
    assert checks.recovery_problems(runs, counts)
    assert checks.recovery_problems({"seed 0": []}, {"seed 0": 2})


def test_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    outcome = common.Outcome(attempted=5)
    outcome.put("setup_s", 1.0, "s")
    outcome.fail("wrong answer for /locate?address=1")
    monkeypatch.setattr(harness, "run", lambda *a, **k: outcome)
    code = run_module.main(["--workload", "cluster", "--seed", "1", "--seconds", "1"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- seeds change the inputs, never the metric names --------------------------------


def test_seed_changes_inputs_not_metric_names():
    dataset = inputs.tiled(inputs.base_dataset(inputs.SNAPSHOT_SEED), 1)
    first = inputs.TrafficModel.for_dataset(dataset, np.random.default_rng([1, 0]))
    second = inputs.TrafficModel.for_dataset(dataset, np.random.default_rng([2, 0]))
    t1 = first.targets(200, np.random.default_rng([1, 2]))
    t2 = second.targets(200, np.random.default_rng([2, 2]))
    assert t1 != t2
    assert t1 == first.targets(200, np.random.default_rng([1, 2]))
    assert not np.array_equal(serving.poisson(200, 2, 1, 2), serving.poisson(200, 2, 2, 2))
    names = {}
    for seed in (4, 5):
        proc = _run("--workload", "paper", "--seed", str(seed), "--seconds", "1")
        assert proc.returncode == 0, proc.stderr[-2000:]
        names[seed] = list(_result(proc)["metrics"])
    assert names[4] == names[5] == [name for name, _ in harness.END_TO_END]


# --- span arithmetic -------------------------------------------------------------------


def test_self_time_subtracts_merged_children():
    recorded = [
        spans.Span(1, 0, "outer", 0.0, 10.0),
        spans.Span(2, 1, "a", 1.0, 4.0),
        spans.Span(3, 1, "b", 3.0, 6.0),  # overlaps a
        spans.Span(4, 0, "other", 2.0, 3.0),  # not a child
    ]
    selfs = spans.self_times(recorded)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(3.0)


def test_recorder_wraps_and_nests():
    class Layer:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

    rec = spans.Recorder("test")
    rec.wrap(Layer, "inner", "layer.inner")
    rec.wrap(Layer, "outer", "layer.outer")
    assert Layer().outer() == 2
    by_name = {s.name: s for s in rec.spans}
    assert by_name["layer.inner"].parent == by_name["layer.outer"].id
    assert by_name["layer.outer"].parent == 0
