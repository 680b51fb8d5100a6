"""Golden equivalence: vectorized engine vs the scalar reference.

The flat-batched :class:`~repro.core.engine.NovaEngine` must be
*bit-identical* to :class:`~repro.core.engine_scalar.ScalarNovaEngine`
-- same simulated time, same quanta count, same counters, same vertex
state -- on every workload and graph shape.  These tests compare full
runs across traversal (bfs, sssp) and iterative (pr) workloads on
power-law, grid, and uniform-random graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import NovaEngine
from repro.core.engine_scalar import ScalarNovaEngine
from repro.core.system import NovaSystem, make_placement
from repro.graph.generators import rmat, with_uniform_weights
from repro.workloads import get_workload


def run_both(config, graph, workload, source=None, **kwargs):
    runs = []
    for engine in ("scalar", "vectorized"):
        system = NovaSystem(config, graph, placement="random", engine=engine)
        runs.append(
            system.run(workload, source=source, **kwargs)
        )
    return runs


def assert_identical(scalar, vectorized):
    assert vectorized.elapsed_seconds == scalar.elapsed_seconds
    assert vectorized.quanta == scalar.quanta
    assert np.array_equal(vectorized.result, scalar.result)
    assert vectorized.messages_sent == scalar.messages_sent
    assert vectorized.messages_processed == scalar.messages_processed
    assert vectorized.useful_messages == scalar.useful_messages
    assert vectorized.redundant_messages == scalar.redundant_messages
    assert vectorized.coalesced_messages == scalar.coalesced_messages
    assert vectorized.activations == scalar.activations
    assert vectorized.edges_traversed == scalar.edges_traversed
    assert vectorized.breakdown == scalar.breakdown
    assert vectorized.traffic == scalar.traffic
    assert vectorized.utilization == scalar.utilization


GRAPHS = ("rmat_graph", "grid_graph", "random_graph")


@pytest.mark.parametrize("graph_name", GRAPHS)
def test_bfs_parity(request, two_gpn_config, graph_name):
    graph = request.getfixturevalue(graph_name)
    source = int(np.argmax(graph.out_degrees()))
    scalar, vectorized = run_both(two_gpn_config, graph, "bfs", source=source)
    assert_identical(scalar, vectorized)


@pytest.mark.parametrize("graph_name", GRAPHS)
def test_sssp_parity(request, two_gpn_config, graph_name):
    graph = with_uniform_weights(request.getfixturevalue(graph_name), seed=7)
    source = int(np.argmax(graph.out_degrees()))
    scalar, vectorized = run_both(two_gpn_config, graph, "sssp", source=source)
    assert_identical(scalar, vectorized)


@pytest.mark.parametrize("graph_name", GRAPHS)
def test_pr_parity(request, two_gpn_config, graph_name):
    graph = request.getfixturevalue(graph_name)
    scalar, vectorized = run_both(
        two_gpn_config, graph, "pr", max_supersteps=3
    )
    assert_identical(scalar, vectorized)


def test_bfs_parity_single_gpn_spill_heavy(small_config, rmat_graph):
    """The 1-GPN small config spills aggressively -- covers the FIFO path."""
    source = int(np.argmax(rmat_graph.out_degrees()))
    scalar, vectorized = run_both(small_config, rmat_graph, "bfs", source=source)
    assert_identical(scalar, vectorized)


def test_fifo_vmu_mode_parity(two_gpn_config, rmat_graph):
    """The fifo VMU ablation keeps its own (scalar) supply path."""
    config = two_gpn_config.with_updates(vmu_mode="fifo")
    source = int(np.argmax(rmat_graph.out_degrees()))
    scalar, vectorized = run_both(config, rmat_graph, "bfs", source=source)
    assert_identical(scalar, vectorized)


@pytest.mark.parametrize("vmu_mode", ("tracker", "fifo"))
@pytest.mark.parametrize("workload", ("bfs", "pr"))
def test_trace_parity(two_gpn_config, workload, vmu_mode):
    """``trace=True`` rows match across engines, async (bfs) and BSP (pr).

    The ``inbox_backlog`` and ``buffer_occupancy`` columns come from each
    backend's own queue read-outs, so this also pins those read-outs.  A
    dense graph and one-latency-floor batches keep both columns non-zero.
    """
    graph = rmat(10, 32, seed=5)
    config = two_gpn_config.with_updates(vmu_mode=vmu_mode, quantum_overlap=1.0)
    placement = make_placement("random", graph, config.num_pes, seed=1)
    if workload == "bfs":
        source, kwargs = int(np.argmax(graph.out_degrees())), {}
    else:
        source, kwargs = None, {"max_supersteps": 3}
    traces = []
    for engine_cls in (ScalarNovaEngine, NovaEngine):
        engine = engine_cls(
            config,
            graph,
            get_workload(workload, **kwargs),
            placement=placement,
            source=source,
            trace=True,
        )
        run = engine.run()
        assert len(engine.trace) == run.quanta > 0
        traces.append(engine.trace.samples)
    scalar, vectorized = traces
    assert vectorized == scalar
    assert any(sample.inbox_backlog for sample in scalar)
    assert any(sample.buffer_occupancy for sample in scalar)


def test_vectorized_answers_match_reference_oracle(two_gpn_config, rmat_graph):
    """Beyond engine-vs-engine: the vectorized answer is *correct*."""
    source = int(np.argmax(rmat_graph.out_degrees()))
    system = NovaSystem(
        two_gpn_config, rmat_graph, placement="random", engine="vectorized"
    )
    system.run("bfs", source=source, compute_reference=True)
