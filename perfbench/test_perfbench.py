"""Tests of the benchmark's own code (no simulator needed).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- percentile rule ----------------------------------------------------


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = list(range(1, 1001))  # 1000 samples
    p, value, n = common.tail_percentile(samples)
    assert (p, value, n) == (99.0, 990, 1000)
    assert common.beyond(1000, 99.0) == 10
    assert common.beyond(1000, 99.9) == 1


def test_tail_steps_down_the_ladder_with_fewer_samples():
    assert common.tail_percentile(list(range(200)))[0] == 95.0
    assert common.tail_percentile(list(range(199)))[0] == 90.0
    assert common.tail_percentile(list(range(20)))[0] == 50.0
    assert common.tail_percentile(list(range(19))) is None
    assert common.tail_percentile([]) is None


def test_percentile_is_nearest_rank():
    assert common.percentile([5, 1, 3, 2, 4], 50) == 3
    assert common.percentile([5, 1, 3, 2, 4], 100) == 5
    assert common.percentile([5, 1, 3, 2, 4], 0) == 1


# -- spans --------------------------------------------------------------


def _clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_children_and_counts_overlap_once():
    spans = [
        common.Span(0, "root", 0.0, 10.0, None, 1),
        common.Span(1, "a", 1.0, 4.0, 0, 1),
        common.Span(2, "b", 3.0, 6.0, 0, 2),  # overlaps a (other thread)
        common.Span(3, "leaf", 1.5, 2.0, 1, 1),
    ]
    own = common.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)  # a and b cover 1..6
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(0.5)
    assert common.uncovered_share(spans, "root") == pytest.approx(0.5)


def test_uncovered_share_counts_spans_of_other_threads_and_processes():
    spans = [
        common.Span(0, "bench", 0.0, 10.0, None, 1),
        common.Span(1, "client", 1.0, 3.0, None, 2),  # another thread
        common.Span(2, "server", 2.0, 6.0, None, 3),  # another process
    ]
    assert common.uncovered_share(spans, "bench") == pytest.approx(0.5)


def test_tracer_nests_spans_of_patched_methods():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = common.Tracer(clock=_clock([0.0, 1.0, 3.0, 10.0]))
    tracer.patch(Box, "outer", "outer")
    tracer.patch(Box, "inner", "inner")
    assert Box().outer() == 2
    layers = common.layer_times(tracer.spans)
    assert layers["outer"].total == 10.0
    assert layers["outer"].self_time == 8.0
    assert layers["inner"].self_time == 2.0


def test_inactive_tracer_records_nothing():
    tracer = common.Tracer()
    tracer.active = False
    fn = tracer.wrap(lambda: 7, "f")
    assert fn() == 7
    assert tracer.spans == []


def test_loaded_spans_shift_ids(tmp_path):
    tracer = common.Tracer(clock=_clock([0.0, 1.0, 2.0, 3.0]))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    path = tmp_path / "spans.jsonl"
    tracer.dump(str(path))
    spans = common.load_spans(str(path), offset=100)
    assert sorted(s.sid for s in spans) == [100, 101]
    inner = next(s for s in spans if s.name == "inner")
    assert inner.parent == 100


# -- seed determinism ---------------------------------------------------


def test_derived_seeds_are_stable_and_distinct():
    assert common.derive_seed(3, "graph") == common.derive_seed(3, "graph")
    assert common.derive_seed(3, "graph") != common.derive_seed(4, "graph")
    assert common.derive_seed(3, "graph") != common.derive_seed(3, "weights")


def test_sources_depend_only_on_seed_and_come_from_the_top_degrees():
    degrees = [0, 3, 1, 0, 2, 5, 1, 0, 4, 1]
    a = common.pick_sources(7, degrees, 3, pool=4)
    assert a == common.pick_sources(7, degrees, 3, pool=4)
    assert set(a) <= {5, 8, 1, 4}  # the four highest out-degrees
    assert len(set(a)) == 3
    assert common.pick_sources(7, degrees, 7, pool=10) == [1, 2, 4, 5, 6, 8, 9]
    with pytest.raises(ValueError):
        common.pick_sources(7, degrees, 8, pool=10)


def test_serve_ops_are_deterministic_three_hits_per_miss():
    warm = [common.derive_seed(5, f"warm-{i}") for i in range(8)]
    ops = common.serve_ops(5, 0, 400, 8, warm)
    assert ops == common.serve_ops(5, 0, 400, 8, warm)
    assert ops != common.serve_ops(6, 0, 400, 8, warm)
    assert sum(op.kind == "miss" for op in ops) == 100
    misses = [op.graph_seed for op in ops if op.kind == "miss"]
    other = [op.graph_seed for op in common.serve_ops(5, 1, 400, 8, warm)
             if op.kind == "miss"]
    assert len(set(misses)) == len(misses)
    assert not set(misses) & set(warm)
    assert not set(misses) & set(other)
    assert all(0 <= op.warm < 8 for op in ops if op.kind == "hit")


def test_sweep_grid_inputs_come_from_the_seed(tmp_path, monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs"))

    def grid(seed):
        wl = workloads.SweepGrid(seed, str(tmp_path), 1.0)
        wl.setup()
        return [(s.workload, s.graph, s.source, s.config.num_gpns)
                for s in wl.specs]

    first = grid(4)
    assert first == grid(4)
    assert first != grid(5)
    assert {cell[1].seed for cell in first} == {common.derive_seed(4, "graph")}


# -- failure counting ---------------------------------------------------


def test_tally_counts_each_failed_operation_once():
    tally = common.Tally()
    tally.attempt(10)
    tally.fail("job1", "refused: 429")
    tally.check("job1", False, "wrong answer")  # same op: not twice
    tally.check("job2", True, "fine")
    tally.check("job3", False, "differs from oracle")
    assert tally.failed == 2
    assert tally.failed_frac == pytest.approx(0.2)
    assert not tally.correct
    assert tally.failed_ids["job1"] == "refused: 429"


def test_tally_with_nothing_attempted_is_not_correct():
    tally = common.Tally()
    assert not tally.correct
    tally.attempt()
    assert tally.correct and tally.failed_frac == 0.0


# -- stamps, digests and the declared metrics ---------------------------


def test_stamp_names_commit_machine_versions_and_seed(tmp_path):
    stamp = common.stamp(str(tmp_path), 9)
    assert stamp["git_sha"] == "unknown"  # not a git checkout
    assert stamp["seed"] == 9 and stamp["nproc"] >= 1
    assert {"python", "numpy", "scipy"} <= set(stamp)


def test_sim_digest_changes_with_any_count():
    case = {"case": "x", "quanta": 3, "sim_seconds": repr(0.1)}
    assert common.sim_digest([case]) == common.sim_digest([dict(case)])
    assert common.sim_digest([case]) != common.sim_digest(
        [dict(case, quanta=4)]
    )


def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        workloads.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        workloads.PER_LAYER
    )
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
