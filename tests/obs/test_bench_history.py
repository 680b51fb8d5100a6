"""Perf-regression tracking (repro.obs.bench_history.BenchHistory)."""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib

import pytest

from repro.errors import ConfigError
from repro.obs.bench_history import (
    HISTORY_BASENAME,
    HISTORY_SCHEMA,
    BenchHistory,
    current_git_sha,
    lower_is_better,
    metrics_from_bench_dir,
    metrics_from_reports,
)


@pytest.fixture
def history(tmp_path):
    return BenchHistory(str(tmp_path / "hist.jsonl"))


class TestRecords:
    def test_append_and_read_back(self, history):
        record = history.append({"m": 1.0}, sha="abc123")
        assert record["schema"] == HISTORY_SCHEMA
        assert record["sha"] == "abc123"
        records = history.records()
        assert len(records) == 1
        assert records[0]["metrics"] == {"m": 1.0}

    def test_defaults_to_repo_sha(self, history):
        record = history.append({"m": 1.0})
        assert record["sha"] == current_git_sha()

    def test_append_dedups_same_sha_and_metrics(self, history):
        history.append({"m": 1.0}, sha="abc")
        history.append({"m": 1.0}, sha="abc")  # repeat CI build: no-op
        assert len(history.records()) == 1
        history.append({"m": 2.0}, sha="abc")  # new numbers: recorded
        history.append({"m": 2.0}, sha="def")  # new commit: recorded
        assert len(history.records()) == 3

    def test_missing_file_reads_empty(self, history):
        assert history.records() == []

    def test_torn_final_line_is_skipped(self, history):
        history.append({"m": 1.0}, sha="a")
        with open(history.path, "a", encoding="utf-8") as f:
            f.write('{"schema": 1, "metrics": {"m": 2.')  # hard kill
        assert len(history.records()) == 1

    def test_foreign_schema_lines_are_skipped(self, history):
        with open(history.path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"schema": 99, "metrics": {"m": 1.0}}) + "\n")
            f.write(json.dumps({"not": "a record"}) + "\n")
        history.append({"m": 2.0}, sha="a")
        assert len(history.records()) == 1

    def test_at_resolves_directory(self, tmp_path):
        history = BenchHistory.at(str(tmp_path))
        assert history.path == os.path.join(str(tmp_path), HISTORY_BASENAME)

    def test_at_keeps_explicit_file(self, tmp_path):
        path = str(tmp_path / "custom.jsonl")
        assert BenchHistory.at(path).path == path


class TestValidation:
    def test_rejects_bad_window(self, tmp_path):
        with pytest.raises(ConfigError):
            BenchHistory(str(tmp_path / "h.jsonl"), window=0)

    def test_rejects_bad_threshold(self, tmp_path):
        with pytest.raises(ConfigError):
            BenchHistory(str(tmp_path / "h.jsonl"), threshold=1.5)


class TestBaseline:
    def test_rolling_median_uses_last_window(self, history):
        for i, value in enumerate([10.0, 10.0, 1.0, 2.0, 3.0, 4.0, 5.0]):
            history.append({"m": value}, sha=f"s{i}")
        base, samples = history.baseline("m")
        assert samples == 5  # window, not full history
        assert base == 3.0  # median of the last five

    def test_unknown_metric_has_no_baseline(self, history):
        history.append({"m": 1.0}, sha="a")
        assert history.baseline("other") == (None, 0)


class TestCheck:
    def seed(self, history, value=100.0, n=3):
        for i in range(n):
            history.append({"throughput": value}, sha=f"s{i}")

    def test_twenty_percent_slowdown_regresses(self, history):
        self.seed(history)
        (verdict,) = history.check({"throughput": 80.0})
        assert verdict.regressed
        assert verdict.mode == "relative"
        assert verdict.delta == pytest.approx(-0.20)
        assert "REGRESSED" in verdict.describe()

    def test_five_percent_wobble_passes(self, history):
        self.seed(history)
        (verdict,) = history.check({"throughput": 95.0})
        assert not verdict.regressed
        assert "[ok]" in verdict.describe()

    def test_improvement_passes(self, history):
        self.seed(history)
        (verdict,) = history.check({"throughput": 130.0})
        assert not verdict.regressed

    def test_overhead_metrics_gate_on_absolute_rise(self, history):
        for i in range(3):
            history.append({"obs.null_overhead": 0.01}, sha=f"s{i}")
        assert lower_is_better("obs.null_overhead")
        (bad,) = history.check({"obs.null_overhead": 0.15})
        assert bad.regressed and bad.mode == "absolute"
        (fine,) = history.check({"obs.null_overhead": 0.05})
        assert not fine.regressed

    def test_no_history_yields_no_verdicts(self, history):
        assert history.check({"throughput": 1.0}) == []
        assert "no baselines yet" in history.render([])

    def test_render_lists_every_metric(self, history):
        self.seed(history)
        history.append({"other": 1.0}, sha="x")
        verdicts = history.check({"throughput": 70.0, "other": 1.0})
        text = history.render(verdicts)
        assert "2 metric(s), 1 regressed" in text
        assert "throughput" in text and "other" in text


class TestMetricsExtraction:
    def test_metrics_from_reports(self):
        metrics = metrics_from_reports(
            {"bfs": {"vectorized_quanta_per_sec": 350.0, "speedup": 2.4}},
            {"bfs": {"null_overhead_vs_baseline": 0.01}},
        )
        assert metrics == {
            "hotpath.bfs.vectorized_quanta_per_sec": 350.0,
            "hotpath.bfs.speedup": 2.4,
            "obs.bfs.null_overhead": 0.01,
        }

    def test_metrics_from_bench_dir(self, tmp_path):
        with open(tmp_path / "BENCH_hotpath.json", "w") as f:
            json.dump(
                {"cases": {"bfs": {"vectorized_quanta_per_sec": 10.0}}}, f
            )
        metrics = metrics_from_bench_dir(str(tmp_path))
        assert metrics == {"hotpath.bfs.vectorized_quanta_per_sec": 10.0}

    def test_empty_dir_yields_no_metrics(self, tmp_path):
        assert metrics_from_bench_dir(str(tmp_path)) == {}


class TestEndToEnd:
    def test_regression_story(self, tmp_path):
        """Seed a healthy baseline, then a 20% slower build must fail."""
        history = BenchHistory.at(str(tmp_path))
        healthy = {
            "hotpath.bfs.vectorized_quanta_per_sec": 350.0,
            "obs.bfs.null_overhead": 0.01,
        }
        for i in range(4):
            history.append(healthy, sha=f"good{i}")
        slow = dict(healthy)
        slow["hotpath.bfs.vectorized_quanta_per_sec"] = 280.0  # -20%
        verdicts = history.check(slow)
        regressed = [v for v in verdicts if v.regressed]
        assert [v.metric for v in regressed] == [
            "hotpath.bfs.vectorized_quanta_per_sec"
        ]
        assert "REGRESSED" in history.render(verdicts)


PERF_SMOKE = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "perf_smoke.py"
)


@pytest.fixture(scope="module")
def perf_smoke():
    spec = importlib.util.spec_from_file_location("perf_smoke", PERF_SMOKE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPerfSmokeCheckOnly:
    """``--check-only`` gates committed numbers but never records them."""

    def test_check_only_leaves_history_byte_identical(self, perf_smoke, tmp_path):
        history_path = tmp_path / "hist.jsonl"
        history = BenchHistory(str(history_path))
        for i in range(3):
            history.append({"hotpath.bfs.speedup": 2.5 + 0.1 * i}, sha=f"s{i}")
        before = history_path.read_bytes()
        ok = perf_smoke.check_bench_history(
            str(history_path),
            {"hotpath.bfs.speedup": 2.6},
            str(tmp_path / "out"),
            record=False,
        )
        assert ok
        assert history_path.read_bytes() == before
        assert (tmp_path / "out" / "BENCH_history_diff.txt").exists()

    def test_timed_run_appends(self, perf_smoke, tmp_path):
        history_path = tmp_path / "hist.jsonl"
        perf_smoke.check_bench_history(
            str(history_path), {"hotpath.bfs.speedup": 2.6}, str(tmp_path)
        )
        [record] = BenchHistory(str(history_path)).records()
        assert record["nproc"] == os.cpu_count()
        assert {"python", "numpy", "sha"} <= set(record)

    def test_main_check_only_does_not_record(
        self, perf_smoke, tmp_path, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(perf_smoke, "run_functional_checks", lambda: True)
        monkeypatch.setattr(
            perf_smoke,
            "check_bench_history",
            lambda *args, **kwargs: calls.append(kwargs) or True,
        )
        assert perf_smoke.main(["--check-only", "--against", str(tmp_path)]) == 0
        assert calls == [{"record": False}]
