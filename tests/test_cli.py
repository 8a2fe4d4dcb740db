"""Tests for the repro.cli experiment driver."""

import json

import pytest

from repro.cli import EXIT_DIFF, EXIT_INVALID, EXIT_OK, main
from repro.obs import load_report, validate_report


class TestCli:
    def test_single_experiment_runs(self, capsys):
        code = main(["--scale", "small", "--experiments", "table1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "IxMapper, Skitter" in out

    def test_multiple_experiments(self, capsys):
        code = main(
            ["--scale", "small", "--experiments", "table4", "table6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HOMOGENEITY" in out
        assert "INTERDOMAIN" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["--experiments", "table99"])

    def test_seed_override(self, capsys):
        code = main(["--scale", "small", "--seed", "5", "--experiments", "table1"])
        assert code == 0

    def test_edgescape_mapper(self, capsys):
        code = main(
            [
                "--scale", "small", "--mapper", "EdgeScape",
                "--experiments", "figure2",
            ]
        )
        assert code == 0
        assert "FIGURE 2" in capsys.readouterr().out

    def test_parallel_jobs_and_profile(self, capsys):
        code = main(
            [
                "--scale", "small", "--jobs", "4", "--profile",
                "--experiments", "table1",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "TABLE I" in captured.out
        assert "PIPELINE STAGE PROFILE" in captured.err

    def test_invalid_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["--jobs", "0", "--experiments", "table1"])

    def test_cache_dir_warm_run_hits_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = [
            "--scale", "small", "--cache-dir", cache_dir,
            "--profile", "--experiments", "table1",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        # Every stage of the warm run is served from the cache.
        profile = capsys.readouterr().err
        assert profile.count("cache-hit") == 10

    def test_run_subcommand_is_explicit_alias(self, capsys):
        code = main(["run", "--scale", "small", "--experiments", "table1"])
        assert code == 0
        assert "TABLE I" in capsys.readouterr().out

    def test_verbose_emits_json_logs(self, capsys):
        code = main(
            ["--scale", "small", "--experiments", "table1", "--verbose"]
        )
        assert code == 0
        err = capsys.readouterr().err
        started = [
            line for line in err.splitlines()
            if line.startswith("{") and '"run starting"' in line
        ]
        assert started, err
        payload = json.loads(started[0])
        assert payload["scale"] == "small"
        assert payload["jobs"] == 1

    def test_pipeline_error_exits_cleanly(self, capsys, monkeypatch):
        from repro.core import experiments
        from repro.errors import ReproError

        def explode(config, **kwargs):
            raise ReproError("synthetic pipeline failure")

        monkeypatch.setattr(experiments, "prepare_result", explode)
        code = main(["--scale", "small", "--experiments", "table1"])
        assert code == 1
        captured = capsys.readouterr()
        assert "synthetic pipeline failure" in captured.err
        assert "Traceback" not in captured.err


class TestReportCli:
    """The --report flag and the `repro report` subcommand."""

    @pytest.fixture(scope="class")
    def report_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("reports") / "run.json"
        code = main(
            [
                "run", "--scale", "small", "--experiments", "table1",
                "--jobs", "2", "--report", str(path),
            ]
        )
        assert code == 0
        return path

    def test_report_is_schema_valid_with_deep_spans(self, report_path):
        payload = json.loads(report_path.read_text())
        assert validate_report(payload) == []
        report = load_report(report_path)
        # run -> pipeline -> stage:* -> geoloc.locate_batch
        assert report.span_depth() >= 3
        assert report.counter("geoloc.addresses") > 0
        assert report.counter("bgp.lookups") > 0
        assert len(report.stage_events) == 10
        assert len(report.artifacts) == 4

    def test_report_show(self, report_path, capsys):
        assert main(["report", "show", str(report_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "RUN REPORT" in out
        assert "SPAN TREE" in out

    def test_report_diff_identical_is_clean(self, report_path, capsys):
        code = main(["report", "diff", str(report_path), str(report_path)])
        assert code == EXIT_OK
        assert "no regressions" in capsys.readouterr().out

    def test_report_diff_flags_regression(self, report_path, tmp_path, capsys):
        payload = json.loads(report_path.read_text())
        for event in payload["stage_events"]:
            event["wall_s"] = event["wall_s"] * 10 + 1.0
        slowed = tmp_path / "slowed.json"
        slowed.write_text(json.dumps(payload))
        code = main(["report", "diff", str(report_path), str(slowed)])
        assert code == EXIT_DIFF
        assert "REGRESSION" in capsys.readouterr().out

    def test_report_diff_threshold_is_tunable(self, report_path, tmp_path):
        payload = json.loads(report_path.read_text())
        for event in payload["stage_events"]:
            event["wall_s"] = event["wall_s"] * 10 + 1.0
        slowed = tmp_path / "slowed.json"
        slowed.write_text(json.dumps(payload))
        args = ["report", "diff", str(report_path), str(slowed)]
        assert main(args + ["--threshold", "1e9"]) == EXIT_OK

    def test_report_commands_reject_invalid_files(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["report", "show", str(bad)]) == EXIT_INVALID
        assert main(["report", "diff", str(bad), str(bad)]) == EXIT_INVALID
        assert (
            main(["report", "show", str(tmp_path / "missing.json")])
            == EXIT_INVALID
        )
        assert "error:" in capsys.readouterr().err


class TestTelemetryCli:
    """The live-telemetry CLI surface: profiler, trace, follow, bench."""

    @pytest.fixture()
    def campaign(self, tmp_path):
        """A tiny finished synthetic campaign behind a result store."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "clismoke",
            "seeds": [1, 2],
            "synthetic": [{"duration_s": 0.01}],
        }))
        db = tmp_path / "sweep.db"
        code = main(["sweep", "run", str(spec), "--db", str(db),
                     "--workers", "0"])
        assert code == 0
        return db

    def test_sweep_run_profile_sampling_writes_collapsed(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "profiled",
            "seeds": [1, 2, 3, 4],
            "synthetic": [{"duration_s": 0.05}],
        }))
        out = tmp_path / "profile.collapsed"
        code = main([
            "sweep", "run", str(spec), "--db", str(tmp_path / "p.db"),
            "--workers", "0", "--profile-sampling", str(out),
            "--sampling-hz", "200",
        ])
        assert code == 0
        body = out.read_text()
        assert body, "profiler collected nothing during the campaign"
        stack, _, count = body.splitlines()[0].rpartition(" ")
        assert int(count) >= 1 and ";" in stack

    def test_sweep_trace_renders_and_jsons(self, campaign, capsys):
        code = main(["sweep", "trace", "clismoke", "--db", str(campaign)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "campaign:clismoke" in out
        assert out.count("sweep:trial") == 2

        code = main(["sweep", "trace", "clismoke", "--db", str(campaign),
                     "--json"])
        assert code == EXIT_OK
        tree = json.loads(capsys.readouterr().out)
        assert len(tree["children"]) == 2

    def test_sweep_trace_unknown_campaign_fails(self, campaign, capsys):
        code = main(["sweep", "trace", "ghost", "--db", str(campaign)])
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_sweep_status_follow_replays_finished_campaign(
        self, campaign, capsys
    ):
        code = main(["sweep", "status", "clismoke", "--db", str(campaign),
                     "--follow", "--interval", "0.01"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count(" start ") + out.count(" start  ") >= 2
        assert "clismoke: done" in out

    def test_sweep_status_follow_requires_campaign(self, campaign):
        with pytest.raises(SystemExit):
            main(["sweep", "status", "--db", str(campaign), "--follow"])

    @staticmethod
    def _history_line(bench, rev, created, headline, machine=None):
        return json.dumps({
            "schema": "repro-bench",
            "schema_version": 1,
            "bench": bench,
            "git_rev": rev,
            "created_unix": created,
            "machine": machine or {},
            "headline": {
                name: {"value": value, "better": better}
                for name, (value, better) in headline.items()
            },
        })

    def test_bench_history_renders_and_checks(self, tmp_path, capsys):
        history = tmp_path / "BENCH_history.jsonl"
        history.write_text("\n".join([
            self._history_line("serve", "aaa", 1.0,
                               {"p99_ms": (1.0, "lower")}),
            self._history_line("serve", "bbb", 2.0,
                               {"p99_ms": (2.0, "lower")}),
        ]) + "\n")
        code = main(["bench", "history", str(tmp_path)])
        assert code == EXIT_OK  # informational without --check
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "regressed" in captured.err

        code = main(["bench", "history", str(tmp_path), "--check"])
        assert code == EXIT_DIFF
        # a generous threshold waves the same history through
        code = main(["bench", "history", str(tmp_path), "--check",
                     "--threshold", "5.0"])
        assert code == EXIT_OK

    def test_bench_history_compares_within_one_machine(
        self, tmp_path, capsys
    ):
        one_cpu, two_cpu = {"cpus": 1}, {"cpus": 2}
        history = tmp_path / "BENCH_history.jsonl"
        lines = [
            self._history_line("ingest", "aaa", 1.0,
                               {"p99_s": (0.06, "lower")}, one_cpu),
            self._history_line("ingest", "bbb", 2.0,
                               {"p99_s": (0.02, "lower")}, two_cpu),
            # A slower host is not a regression of the faster one.
            self._history_line("ingest", "ccc", 3.0,
                               {"p99_s": (0.05, "lower")}, one_cpu),
        ]
        history.write_text("\n".join(lines) + "\n")
        code = main(["bench", "history", str(tmp_path), "--check"])
        assert code == EXIT_OK
        assert "REGRESSED" not in capsys.readouterr().out

        # The same host getting slower is.
        lines.append(
            self._history_line("ingest", "ddd", 4.0,
                               {"p99_s": (0.03, "lower")}, two_cpu)
        )
        history.write_text("\n".join(lines) + "\n")
        code = main(["bench", "history", str(tmp_path), "--check"])
        assert code == EXIT_DIFF
        assert "+50.0%  REGRESSED" in capsys.readouterr().out

    def test_bench_history_change_column_means_worse(self, tmp_path, capsys):
        history = tmp_path / "BENCH_history.jsonl"
        history.write_text("\n".join([
            self._history_line("stages", "aaa", 1.0, {
                "total_wall_s": (1.0, "lower"),
                "routers_per_sec": (100.0, "higher"),
            }),
            self._history_line("stages", "bbb", 2.0, {
                "total_wall_s": (2.0, "lower"),
                "routers_per_sec": (169.0, "higher"),
            }),
        ]) + "\n")
        assert main(["bench", "history", str(tmp_path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "worse by" in lines[1] and "change" not in lines[1]
        rows = {line.split()[1]: line for line in lines[2:]}
        # A slower run is worse; a faster one is better, so negative.
        assert "+100.0%  REGRESSED" in rows["total_wall_s"]
        assert "-69.0%" in rows["routers_per_sec"]
        assert "REGRESSED" not in rows["routers_per_sec"]

    def test_bench_history_rejects_empty_dir(self, tmp_path, capsys):
        code = main(["bench", "history", str(tmp_path)])
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err


def test_every_bench_record_is_in_the_envelope():
    """Each committed ``BENCH_<name>.json`` is one ``record_bench`` envelope."""
    from pathlib import Path

    from repro.obs.benchtrend import BENCH_GLOB, BENCH_SCHEMA

    root = Path(__file__).resolve().parents[1]
    records = sorted(root.glob(BENCH_GLOB))
    assert records
    for path in records:
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload.get("schema") == BENCH_SCHEMA, path.name
        assert payload.get("bench") == path.stem.removeprefix("BENCH_"), path.name


class TestBenchRecordRevision:
    """``benchmarks/record.py`` stamps which revision a run measured."""

    @pytest.fixture
    def record(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "benchmarks" / "record.py"
        spec = importlib.util.spec_from_file_location("bench_record", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_dirty_tree_is_marked(self, record, tmp_path):
        import subprocess

        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t",
                 *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        git("init", "-q")
        (tmp_path / "code.py").write_text("x = 1\n")
        (tmp_path / "BENCH_ingest.json").write_text("{}\n")
        output = tmp_path / "benchmarks" / "output"
        output.mkdir(parents=True)
        (output / "table1.txt").write_text("rendered\n")
        git("add", "-A")
        git("commit", "-q", "-m", "init")
        clean = record.git_rev(tmp_path)
        assert clean and not clean.endswith("-dirty")

        # Re-recorded bench files, re-rendered bench artefacts and
        # untracked files keep it clean.
        (tmp_path / "BENCH_ingest.json").write_text('{"new": 1}\n')
        (output / "table1.txt").write_text("rendered again\n")
        (tmp_path / "scratch.txt").write_text("untracked\n")
        assert record.git_rev(tmp_path) == clean

        (tmp_path / "code.py").write_text("x = 2\n")
        assert record.git_rev(tmp_path) == f"{clean}-dirty"

        # The history keeps the committed revision's line.
        record.record_bench("ingest", {}, {"p99_s": 1.0}, root=tmp_path)
        revs = [
            json.loads(line)["git_rev"]
            for line in (tmp_path / "BENCH_history.jsonl").read_text().splitlines()
        ]
        assert revs == [f"{clean}-dirty"]
