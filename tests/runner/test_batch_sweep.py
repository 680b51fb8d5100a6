"""Graph-grouped sweep execution, and the pieces that ride with it:
pool-collapse recovery, the graph-digest memo, and SIGALRM timer
restoration.

``SweepRunner`` groups a round's cells by graph and dispatches each
group as one worker task that flushes every finished cell to the cache.
The contract under test: one bad cell fails alone, a worker death
recovers the group's flushed prefix, and a pool collapse charges only
the cell that actually killed its worker.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.obs import FAULT_COUNTERS
from repro.runner.batch import (
    MAX_CHUNK,
    attempt_group,
    group_cells,
    recover_group,
)
from repro.runner.cache import RunCache, _DIGEST_MEMO, graph_digest, spec_key
from repro.runner.fault import RetryPolicy, RunFailure
from repro.runner.spec import GraphSpec, RunSpec, _GRAPH_MEMO
from repro.runner.sweep import (
    SweepRunner,
    _execute_with_timeout,
    _run_nova,
    execute_spec,
    register_system,
)
from repro.graph.generators import rmat
from repro.sim.config import scaled_config

# The killer/poison injected systems are registered at import time by
# the fault-tolerance suite; reuse them rather than redefining.
from tests.runner.test_fault_tolerance import (  # noqa: F401
    FAST_POLICY,
    _kill_worker,
    nova_spec,
)


def _sleep_then_run(spec):
    time.sleep(1.0)
    return _run_nova(spec)


register_system("test.slow", _sleep_then_run)


@pytest.fixture(scope="module")
def graph():
    return rmat(9, 8, seed=5)


@pytest.fixture(scope="module")
def config():
    return scaled_config(num_gpns=1, scale=1.0 / 1024.0)


@pytest.fixture(autouse=True)
def _reset_fault_counters():
    FAULT_COUNTERS.reset()
    yield
    FAULT_COUNTERS.reset()


# ----------------------------------------------------------------------
# Grouping
# ----------------------------------------------------------------------


def test_group_cells_groups_by_graph_and_chunks(graph, config):
    spec_a = GraphSpec("rmat:9:8", seed=1)
    spec_b = GraphSpec("rmat:9:8", seed=2)
    items = [
        (f"a{i}", RunSpec("bfs", spec_a, config=config, source=i))
        for i in range(4)
    ] + [
        (f"b{i}", RunSpec("bfs", spec_b, config=config, source=i))
        for i in range(2)
    ]
    groups = group_cells(items, workers=2)
    # chunk = ceil(6 / 2) = 3: graph A splits 3+1, graph B stays whole.
    assert sorted(len(g) for g in groups) == [1, 2, 3]
    for group in groups:
        graphs = {spec.graph for _, spec in group}
        assert len(graphs) == 1  # never mixes graphs
    # Submission order survives within each group (crash recovery
    # depends on in-order execution).
    flat = [key for group in groups for key, _ in group]
    assert [k for k in flat if k.startswith("a")] == [f"a{i}" for i in range(4)]

    # A large grid is cut at MAX_CHUNK cells, not ceil(n / workers).
    items = [
        (f"c{i}", RunSpec("bfs", spec_a, config=config, source=i))
        for i in range(2 * MAX_CHUNK + 1)
    ]
    groups = group_cells(items, workers=2)
    assert [len(g) for g in groups] == [MAX_CHUNK, MAX_CHUNK, 1]

    # Prebuilt in-memory graphs group by object identity.
    other = rmat(9, 8, seed=6)
    items = [
        ("x", RunSpec("bfs", graph, config=config, source=0)),
        ("y", RunSpec("bfs", other, config=config, source=0)),
        ("z", RunSpec("bfs", graph, config=config, source=1)),
    ]
    groups = group_cells(items, workers=1)
    assert sorted(len(g) for g in groups) == [1, 2]


# ----------------------------------------------------------------------
# Parity: grouped forked sweep == one cell at a time, bit for bit
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_batched_sweep_matches_unbatched_bit_for_bit(tmp_path, config):
    # A mixed grid: two graphs, two configs, and a polygraph cell.
    # Graph A's eight cells exceed the ceil(11 / 2) = 6 chunk, so that
    # graph spans two pool tasks; graph B's three cells make the third.
    two_gpn = scaled_config(num_gpns=2, scale=1.0 / 1024.0)
    graph_a = GraphSpec("rmat:9:8", seed=11)
    graph_b = GraphSpec("rmat:9:8", seed=12)
    grid = [
        RunSpec("bfs", gspec, config=cfg, source=s)
        for gspec, sources in ((graph_a, range(4)), (graph_b, range(1)))
        for cfg in (config, two_gpn)
        for s in sources
    ]
    grid.append(RunSpec("bfs", graph_b, system="polygraph", source=0))
    keys = [spec_key(spec) for spec in grid]
    assert len(group_cells(list(zip(keys, grid)), workers=2)) == 3

    # The unbatched reference: every cell run on its own, in process.
    plain = [execute_spec(spec) for spec in grid]
    runner = SweepRunner(
        workers=2, cache_dir=str(tmp_path), policy=FAST_POLICY
    )
    batched, stats = runner.run(grid)
    assert (stats.total, stats.computed, stats.failed) == (11, 11, 0)
    for a, b in zip(plain, batched):
        assert a.system == b.system
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.quanta == b.quanta
        assert np.array_equal(a.result, b.result)
        assert a.breakdown == b.breakdown
        assert a.traffic == b.traffic
        assert a.utilization == b.utilization
    assert batched[-1].system == "polygraph"

    # Every cell was flushed to the cache by the worker that computed
    # it: a rerun is pure hits.
    assert all(runner.cache.load(key) is not None for key in keys)
    assert stats.fault_counters["sweep.checkpoint_flushes"] == 11
    _, again = runner.run(grid)
    assert (again.hits, again.computed) == (11, 0)


# ----------------------------------------------------------------------
# Fault isolation inside a group
# ----------------------------------------------------------------------


def test_batched_cell_failure_is_isolated(tmp_path, config):
    gspec = GraphSpec("rmat:9:8", seed=11)
    specs = [
        RunSpec("bfs", gspec, config=config, source=0),
        RunSpec(
            "bfs", gspec, config=config, source=0, system="test.poison"
        ),
        RunSpec("bfs", gspec, config=config, source=1),
    ]
    runner = SweepRunner(
        workers=2, cache_dir=str(tmp_path), policy=FAST_POLICY
    )
    results, stats = runner.run(specs, on_failure="return")
    assert (stats.computed, stats.failed) == (2, 1)
    assert isinstance(results[1], RunFailure)
    assert results[1].kind == "error"
    assert results[1].error_type == "ValueError"
    assert results[0].workload == "bfs"
    assert results[2].workload == "bfs"


@pytest.mark.slow
def test_batched_worker_death_recovers_flushed_prefix(tmp_path, config):
    gspec = GraphSpec("rmat:9:8", seed=11)
    specs = [RunSpec("bfs", gspec, config=config, source=s) for s in range(6)]
    specs[1] = RunSpec(
        "bfs", gspec, config=config, source=1, system="test.killer"
    )
    keys = [spec_key(spec) for spec in specs]
    policy = RetryPolicy(retries=1, backoff_seconds=0.0)
    runner = SweepRunner(
        workers=2, cache_dir=str(tmp_path), policy=policy
    )
    results, stats = runner.run(specs, on_failure="return")
    assert (stats.computed, stats.failed) == (5, 1)
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.kind == "worker-died"
    assert failure.attempts == 2  # one retry, in isolation
    for slot in (0, 2, 3, 4, 5):
        assert results[slot].workload == "bfs"
        assert runner.cache.load(keys[slot]) is not None
    # Groupmates that had already flushed before the crash were
    # recovered from the cache, not recomputed from scratch.
    _, again = runner.run(specs, on_failure="return")
    assert (again.hits, again.computed, again.failed) == (5, 0, 1)


def test_recover_group_classifies_flushed_suspect_requeue(tmp_path, config):
    gspec = GraphSpec("rmat:9:8", seed=11)
    group = [
        (f"k{i}", RunSpec("bfs", gspec, config=config, source=i))
        for i in range(3)
    ]
    cache = RunCache(str(tmp_path))
    # Simulate a worker that flushed cell 0 and died inside cell 1.
    done = attempt_group(group[:1], None, cache.root)
    assert done[0][1].ok and done[0][1].stored

    verdicts = recover_group(group, cache)
    assert verdicts[0][1].ok  # recovered from the flush trail
    assert verdicts[1][1].worker_died  # first unflushed: the suspect
    assert verdicts[2][1] == "requeue"  # innocent tail: free re-run

    # Without a cache there is no trail: any cell may have been the one
    # executing, so every cell is a suspect (re-run alone, uncharged).
    verdicts = recover_group(group, None)
    assert all(verdict.worker_died for _, verdict in verdicts)


# ----------------------------------------------------------------------
# Pool collapse: one victim, no innocent retries
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_pool_collapse_charges_only_the_victim(tmp_path, graph, config):
    """Regression: one worker death used to break the shared pool and
    mark every in-flight sibling ``worker_died``, burning their retry
    budget.  Only the actual victim may be charged; innocents re-queue
    free of charge.
    """
    policy = RetryPolicy(retries=1, backoff_seconds=0.0)
    runner = SweepRunner(
        workers=2, cache_dir=str(tmp_path), policy=policy
    )
    specs = [
        nova_spec(graph, config, source=0),
        nova_spec(graph, config, source=0, system="test.killer"),
        nova_spec(graph, config, source=1),
        nova_spec(graph, config, source=2),
    ]
    results, stats = runner.run(specs, on_failure="return")
    assert (stats.computed, stats.failed) == (3, 1)
    assert isinstance(results[1], RunFailure)
    assert results[1].kind == "worker-died"

    # The killer dies once in the shared pool and once isolated -- and
    # nobody else is ever declared dead.
    assert FAULT_COUNTERS.get("sweep.worker_deaths") == 2
    # Exactly one retry was spent, by the victim.  Innocents either
    # finished before the collapse or re-queued for free.
    assert FAULT_COUNTERS.get("sweep.retries") == 1
    assert stats.retried == 1


@pytest.mark.slow
def test_collapse_with_two_groups_in_flight_charges_only_the_killer(
    tmp_path, config
):
    """Regression: one worker death breaks *every* in-flight group of
    the shared pool.  The other group's head was still running -- its
    worker was alive -- yet it used to be charged ``worker_died`` too.
    """
    spec_a = GraphSpec("rmat:9:8", seed=11)
    spec_b = GraphSpec("rmat:9:8", seed=12)
    specs = [
        RunSpec("bfs", spec_a, config=config, source=0),
        RunSpec("bfs", spec_a, config=config, source=1, system="test.killer"),
        RunSpec("bfs", spec_a, config=config, source=2),
        # Sleeps past the killer's death, so group B is mid-cell then.
        RunSpec("bfs", spec_b, config=config, source=0, system="test.slow"),
        RunSpec("bfs", spec_b, config=config, source=1),
        RunSpec("bfs", spec_b, config=config, source=2),
    ]
    keys = [spec_key(spec) for spec in specs]
    # chunk = ceil(6 / 2) = 3: exactly one group per graph, both in
    # flight at once on the two workers.
    groups = group_cells(list(zip(keys, specs)), workers=2)
    assert [[key for key, _ in g] for g in groups] == [keys[:3], keys[3:]]

    policy = RetryPolicy(retries=1, backoff_seconds=0.0)
    runner = SweepRunner(workers=2, cache_dir=str(tmp_path), policy=policy)
    results, stats = runner.run(specs, on_failure="return")
    assert (stats.computed, stats.failed) == (5, 1)
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.kind == "worker-died"
    assert failure.attempts == 2
    # Both deaths are the killer's own, in isolation; the collapse of
    # the shared pool charged nobody.
    assert FAULT_COUNTERS.get("sweep.worker_deaths") == 2
    assert FAULT_COUNTERS.get("sweep.retries") == 1
    assert stats.retried == 1
    for slot in (0, 2, 3, 4, 5):
        assert results[slot].workload == "bfs"
        assert runner.cache.load(keys[slot]) is not None


# ----------------------------------------------------------------------
# Graph-digest memoization
# ----------------------------------------------------------------------


def test_graph_digest_memoizes_store_artifacts(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs"))
    _GRAPH_MEMO.clear()
    _DIGEST_MEMO.clear()

    gspec = GraphSpec("rmat:9:8", seed=3)
    stored = gspec.build()  # store-backed: arrays are mmaps with filenames
    in_memory = rmat(9, 8, seed=3)

    base = FAULT_COUNTERS.snapshot()
    first = graph_digest(stored)
    assert FAULT_COUNTERS.delta_since(base).get(
        "cache.digest_memo_hits", 0
    ) == 0
    second = graph_digest(stored)
    assert second == first
    assert FAULT_COUNTERS.delta_since(base)["cache.digest_memo_hits"] == 1

    # The memoized digest is byte-identical to hashing the same graph
    # built in memory -- cache keys cannot drift.
    assert graph_digest(in_memory) == first
    spec = RunSpec("bfs", gspec, source=0)
    assert spec_key(spec) == spec_key(
        RunSpec("bfs", in_memory, source=0)
    )

    # In-memory graphs never populate the memo (nothing pins them).
    memo_size = len(_DIGEST_MEMO)
    graph_digest(in_memory)
    assert len(_DIGEST_MEMO) == memo_size


# ----------------------------------------------------------------------
# SIGALRM watchdog hygiene
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="needs SIGALRM watchdog"
)
def test_timeout_rejects_nonpositive():
    spec = RunSpec("bfs", rmat(6, 4, seed=1), source=0)
    for bad in (0.0, -1.0):
        with pytest.raises(ConfigError, match="timeout"):
            _execute_with_timeout(spec, bad, run=lambda s: "never")


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="needs SIGALRM watchdog"
)
def test_timeout_restores_preexisting_itimer():
    """Regression: the watchdog used to disarm any ITIMER_REAL the host
    application had armed.  It must re-arm the remaining time instead.
    """
    spec = RunSpec("bfs", rmat(6, 4, seed=1), source=0)
    fired = []
    previous = signal.signal(signal.SIGALRM, lambda *a: fired.append(1))
    try:
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        out = _execute_with_timeout(spec, 5.0, run=lambda s: "ran")
        assert out == "ran"
        remaining, interval = signal.getitimer(signal.ITIMER_REAL)
        assert 0.0 < remaining <= 60.0
        assert interval == 0.0
        assert not fired
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="needs SIGALRM watchdog"
)
def test_timeout_leaves_timer_disarmed_when_none_existed():
    spec = RunSpec("bfs", rmat(6, 4, seed=1), source=0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    _execute_with_timeout(spec, 5.0, run=lambda s: "ran")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
