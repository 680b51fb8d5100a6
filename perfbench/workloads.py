"""The four benchmark workloads, driven through the program's public API.

Each workload builds its inputs from the run seed, times passes of its
work with tracing off or on, and checks every answer outside the timed
regions.  Importing this module imports nothing from ``repro``; the
classes import it lazily so ``run.py`` can start the set-up clock
before ``import repro``.

Why these four (one per layer the roadmap plans to cut):

- ``nova-suite`` is one suite-scale ``repro run``: the NOVA engine
  phases do nearly all of its time.  Async BFS/SSSP and BSP PageRank
  are both present because barrier cost only shows in the BSP mode.
- ``polygraph-sliced`` runs the PolyGraph and Ligra baselines on the
  13-slice ``host`` graph, where per-wavefront slice handling is the
  cost; the NOVA engine does none of its work.
- ``serve-mix`` drives a ``repro serve`` child with two closed-loop
  clients, mostly cache hits: HTTP, the job journal, ``spec_key`` and
  the run cache take the time, the engine little.
- ``sweep-grid`` is ``repro sweep`` over one shared graph, cold then
  warm: the process-pool executor and the run cache take the time.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import common
from common import LayerTime, Tally

HERE = os.path.dirname(os.path.abspath(__file__))

#: Tries of each warm (cache-hit) run in a pass; ``warm_s`` sums medians.
WARM_REPS = 30

#: Warm reruns of the sweep grid per pass; ``warm_s`` is their median.
WARM_SWEEPS = 5

#: Spans recorded around the program's public functions in a traced run:
#: (module, owner attribute or None for the module itself, attribute,
#: span name).  Module functions are rebound wherever imported by name.
TRACE_TARGETS = (
    ("repro.graph.generators", None, "power_law", "graph.generate"),
    ("repro.graph.generators", None, "uniform_random", "graph.generate"),
    ("repro.graph.generators", None, "rmat", "graph.generate"),
    ("repro.graph.generators", None, "with_uniform_weights", "graph.generate"),
    ("repro.graph.csr", "CSRGraph", "from_edges", "graph.from_edges"),
    ("repro.graph.store", "GraphStore", "put", "graph.store_publish"),
    ("repro.graph.store", "GraphStore", "load", "graph.store_map"),
    ("repro.runner.spec", "GraphSpec", "build", "graph.resolve"),
    ("repro.runner.cache", None, "spec_key", "runner.spec_key"),
    ("repro.runner.cache", "RunCache", "load", "runner.cache_load"),
    ("repro.runner.cache", "RunCache", "store", "runner.cache_store"),
    ("repro.runner.sweep", "SweepRunner", "run", "runner.sweep"),
    ("repro.runner.sweep", None, "execute_spec", "runner.execute"),
    ("repro.core.system", "NovaSystem", "run", "core.nova_run"),
    ("repro.baselines.polygraph", "PolyGraphSystem", "run",
     "baselines.pg_run"),
    ("repro.baselines.ligra", "LigraModel", "run", "baselines.ligra_run"),
    ("repro.service.client", "ServiceClient", "submit", "service.client"),
    ("repro.service.client", "ServiceClient", "wait", "service.client"),
)

#: Modules imported before patching so name-bound copies are rebound.
_PRELOAD = (
    "repro.cli",
    "repro.graph.suites",
    "repro.runner",
    "repro.service.http",
    "repro.service.scheduler",
)


def install_tracing(tracer: common.Tracer) -> None:
    import importlib

    for name in _PRELOAD:
        importlib.import_module(name)
    for module_name, owner, attr, span_name in TRACE_TARGETS:
        module = importlib.import_module(module_name)
        target = getattr(module, owner) if owner else module
        tracer.patch(target, attr, span_name)


# ----------------------------------------------------------------------
# Metric names (kept equal to BENCHMARK.json by the tests)
# ----------------------------------------------------------------------

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "process.import_s": "s",
    "graph.generate_s": "s",
    "graph.from_edges_s": "s",
    "graph.store_publish_s": "s",
    "graph.store_map_ms": "ms",
    "core.mpu_s": "s",
    "core.vmu_s": "s",
    "core.mgu_s": "s",
    "core.close_s": "s",
    "core.quanta": "count",
    "core.host_us_per_quantum": "us",
    "baselines.pg_run_s": "s",
    "baselines.pg_residencies": "count",
    "baselines.pg_slice_switches": "count",
    "baselines.pg_host_us_per_residency": "us",
    "baselines.ligra_run_s": "s",
    "runner.spec_key_ms": "ms",
    "runner.cache_load_ms": "ms",
    "runner.cache_store_ms": "ms",
    "runner.pool_overhead_s": "s",
    "runner.cells_computed": "count",
    "runner.cells_cached": "count",
    "service.queue_wait_ms": "ms",
    "service.run_ms": "ms",
    "service.front_ms": "ms",
    "service.cache_hits": "count",
    "service.rejected": "count",
    "core.sim_ms": "ms",
    "core.messages_sent": "count",
    "core.coalesce_ratio": "ratio",
    "core.useful_ratio": "ratio",
    "memory.hbm_wasteful_read_bytes": "B",
    "memory.ddr_bytes": "B",
    "network.bytes": "B",
    "baselines.pg_sim_ms": "ms",
    "obs.trace_overhead_frac": "ratio",
    "obs.uncovered_frac": "ratio",
    "obs.sim_digest": "id",
}


def span_metrics(layers: Dict[str, LayerTime]) -> Dict[str, float]:
    """Per-layer self times the spans give directly."""

    def own(name: str, factor: float = 1.0) -> float:
        layer = layers.get(name)
        return layer.self_time * factor if layer else 0.0

    return {
        "graph.generate_s": own("graph.generate"),
        "graph.from_edges_s": own("graph.from_edges"),
        "graph.store_publish_s": own("graph.store_publish"),
        "graph.store_map_ms": own("graph.store_map", 1e3),
        "runner.spec_key_ms": own("runner.spec_key", 1e3),
        "runner.cache_load_ms": own("runner.cache_load", 1e3),
        "runner.cache_store_ms": own("runner.cache_store", 1e3),
        "baselines.pg_run_s": own("baselines.pg_run"),
        "baselines.ligra_run_s": own("baselines.ligra_run"),
    }


# ----------------------------------------------------------------------
# Exact simulated statistics
# ----------------------------------------------------------------------


def case_stats(label: str, result) -> Dict[str, Any]:
    """Every simulated count of one result, for the model-unchanged check."""
    stats = result.stats.flat() if result.stats is not None else {}
    return {
        "case": label,
        "system": result.system,
        "workload": result.workload,
        "sim_seconds": repr(result.elapsed_seconds),
        "quanta": result.quanta,
        "edges_traversed": result.edges_traversed,
        "messages_sent": result.messages_sent,
        "messages_processed": result.messages_processed,
        "useful_messages": result.useful_messages,
        "coalesced_messages": result.coalesced_messages,
        "activations": result.activations,
        "traffic": dict(sorted(result.traffic.items())),
        "residencies": stats.get("residencies"),
        "slice_switches": stats.get("slice_switches"),
        "result_sha256": hashlib.sha256(result.result.tobytes()).hexdigest(),
    }


def model_metrics(cases: List[Dict[str, Any]]) -> Dict[str, float]:
    """The exact-count per-layer metrics summed over a workload's cases."""
    nova = [c for c in cases if c["system"] == "nova"]
    pg = [c for c in cases if c["system"] == "polygraph"]
    sent = sum(c["messages_sent"] for c in nova)
    processed = sum(c["messages_processed"] for c in nova)
    digest = common.sim_digest(cases)
    return {
        "core.sim_ms": sum(float(c["sim_seconds"]) for c in nova) * 1e3,
        "core.messages_sent": sent,
        "core.coalesce_ratio": (
            sum(c["coalesced_messages"] for c in nova) / sent if sent else 0.0
        ),
        "core.useful_ratio": (
            sum(c["useful_messages"] for c in nova) / processed
            if processed else 0.0
        ),
        "memory.hbm_wasteful_read_bytes": sum(
            c["traffic"].get("hbm_wasteful_read_bytes", 0) for c in nova
        ),
        "memory.ddr_bytes": sum(
            c["traffic"].get("ddr_bytes", 0) for c in nova
        ),
        "network.bytes": sum(
            c["traffic"].get("network_bytes", 0) for c in nova
        ),
        "baselines.pg_sim_ms": sum(float(c["sim_seconds"]) for c in pg) * 1e3,
        # 52 bits of the digest: exactly representable as a JSON number.
        "obs.sim_digest": int(digest[:13], 16),
    }


def same_result(a, b) -> bool:
    """Bit-identical answers and simulated statistics (failures never are)."""
    from repro.runner import RunFailure

    if isinstance(a, RunFailure) or isinstance(b, RunFailure):
        return False
    return case_stats("", a) == case_stats("", b)


class Oracle:
    """Sequential references, computed once per (workload, graph, source)."""

    def __init__(self) -> None:
        self._expected: Dict[Tuple, Any] = {}

    def check(self, workload: str, kwargs: Dict[str, Any], graph, source,
              graph_id: str, actual) -> Optional[str]:
        from repro.core.system import verify_result
        from repro.workloads import get_workload

        key = (workload, tuple(sorted(kwargs.items())), graph_id, source)
        if key not in self._expected:
            program = get_workload(workload, **kwargs)
            self._expected[key] = program.reference(graph, source)[0]
        try:
            verify_result(workload, actual, self._expected[key])
        except AssertionError as exc:
            return str(exc)
        return None


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass
class PassResult:
    """What one timed pass measured (all host wall clock).

    ``cost_s`` is the pass's own work, compared between an untraced and
    a traced pass to give the tracing overhead.
    """

    run_s: float
    warm_s: float
    cost_s: float
    traced: bool
    detail: Dict[str, Any]


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str, seconds: float) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.seconds = seconds
        self.tally = Tally()
        self.cases: List[Dict[str, Any]] = []
        self._dirs = 0

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work_dir, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def setup(self) -> None:
        """Everything before the first timed operation (``setup_s``)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work between set-up and the first pass."""

    def run_pass(self, tracer: Optional[common.Tracer],
                 seconds: float) -> PassResult:
        raise NotImplementedError

    def before_pass(self, traced: bool) -> None:
        """Untimed preparation of a traced or untraced pass."""

    def check_pass(self, result: PassResult) -> None:
        """Untimed checks of one pass, made before the next pass starts."""

    def after_traced(self, tracer: common.Tracer) -> None:
        """Extra traced measurements, outside the traced pass."""

    def verify(self) -> None:
        """Check every answer not yet checked; failures go to the tally."""

    def layer_metrics(self, passes: List[PassResult]) -> Dict[str, float]:
        return {}

    def report(self, passes: List[PassResult]) -> List[str]:
        return []

    def close(self) -> None:
        """Stop every process the workload started."""

    def server_spans(self, offset: int) -> List[common.Span]:
        """Spans recorded in child processes, ids shifted by ``offset``."""
        return []

    def live_children_peak_kb(self) -> int:
        """Peak resident set of child processes still running, in KiB."""
        return 0


class _RunnerSuite(Workload):
    """Simulations submitted as RunSpecs through ``SweepRunner(workers=1)``.

    A pass submits each spec once against a fresh run cache, as a cold
    ``repro run`` (``run_s`` sums them), then ``WARM_REPS`` more times,
    answered from the cache (``warm_s`` sums each spec's median).
    """

    def build_specs(self) -> List[Tuple[str, Any]]:
        raise NotImplementedError

    def setup(self) -> None:
        self.specs = self.build_specs()
        self.results: Dict[str, Any] = {}

    def run_pass(self, tracer: Optional[common.Tracer],
                 seconds: float) -> PassResult:
        from repro.obs.config import ObsConfig
        from repro.runner import RunFailure, SweepRunner

        obs = None
        if tracer is not None:
            obs = ObsConfig(phases=True, phase_sample_every=1)
        specs = [
            replace(spec, obs=obs) if spec.system == "nova" else spec
            for _, spec in self.specs
        ]
        runner = SweepRunner(workers=1, cache_dir=self.fresh_dir("cache"))
        run_s = warm_s = 0.0
        results = {}
        for (label, _), spec in zip(self.specs, specs):
            start = time.perf_counter()
            [cold], _ = runner.run([spec], on_failure="return")
            run_s += time.perf_counter() - start
            warm_times = []
            for rep in range(WARM_REPS):
                start = time.perf_counter()
                [warm], _ = runner.run([spec], on_failure="return")
                warm_times.append(time.perf_counter() - start)
                self.tally.check(f"{label}:warm{rep}", same_result(cold, warm),
                                 "warm answer differs from cold")
            warm_s += common.median(warm_times)
            self.tally.attempt(1 + WARM_REPS)
            if isinstance(cold, RunFailure):
                self.tally.fail(f"{label}:cold", f"run failed: {cold.message}")
            else:
                results[label] = cold
        self._record(results)
        return PassResult(
            run_s=run_s,
            warm_s=warm_s,
            cost_s=run_s + warm_s * WARM_REPS,
            traced=tracer is not None,
            detail={"results": results},
        )

    def _record(self, results: Dict[str, Any]) -> None:
        cases = [case_stats(label, results[label])
                 for label in sorted(results)]
        if not self.cases:
            self.cases = cases
            self.results = results
        elif cases != self.cases:
            self.tally.fail("model",
                            "simulated statistics differ between passes")

    def verify(self) -> None:
        oracle = Oracle()
        for label, spec in self.specs:
            result = self.results.get(label)
            if result is None:
                continue
            error = oracle.check(
                spec.workload, spec.workload_kwargs, spec.resolve_graph(),
                spec.source, repr(spec.graph), result.result,
            )
            if error:
                self.tally.fail(f"{label}:cold", error)

    def layer_metrics(self, passes: List[PassResult]) -> Dict[str, float]:
        _, traced = passes
        out: Dict[str, float] = {}
        results = traced.detail["results"]
        nova = [r for r in results.values() if r.system == "nova"]
        pg = [r for r in results.values() if r.system == "polygraph"]
        for phase in ("mpu", "vmu", "mgu", "close"):
            out[f"core.{phase}_s"] = sum(
                r.stats.flat().get(f"obs.phase_ns.{phase}", 0) for r in nova
            ) / 1e9
        out["core.quanta"] = sum(r.quanta for r in nova)
        out["baselines.pg_residencies"] = sum(
            r.stats.get("residencies", 0) for r in pg
        )
        out["baselines.pg_slice_switches"] = sum(
            r.stats.get("slice_switches", 0) for r in pg
        )
        return out

    def report(self, passes: List[PassResult]) -> List[str]:
        runs = [p.run_s for p in passes]
        warm = [p.warm_s for p in passes]
        return [
            f"run_s        {common.median(runs):10.4f} s    "
            f"(median of {len(runs)} pass(es), "
            f"each {len(self.specs)} cold runs)",
            f"warm_s       {common.median(warm):10.6f} s    "
            f"(median of {len(warm)} pass(es), each the same runs answered "
            f"from the run cache, median of {WARM_REPS} tries per run)",
        ]


class NovaSuite(_RunnerSuite):
    """``repro run`` of NOVA bfs, sssp and pr on ``suite:twitter`` at 1/256."""

    name = "nova-suite"
    SCALE = 1.0 / 256.0

    def build_specs(self):
        from repro import scaled_config
        from repro.runner import GraphSpec, RunSpec
        from repro.runner.spec import resolve_source

        graph_seed = common.derive_seed(self.seed, "graph")
        base = GraphSpec("suite:twitter", seed=graph_seed, scale=self.SCALE)
        weighted = replace(
            base, weighted=True,
            weight_seed=common.derive_seed(self.seed, "weights"),
        )
        source = resolve_source(base.build(), "bfs")
        weighted.build()
        config = scaled_config(num_gpns=1, scale=self.SCALE)
        return [
            ("nova/bfs", RunSpec("bfs", base, config, source=source)),
            ("nova/sssp", RunSpec("sssp", weighted, config, source=source)),
            ("nova/pr", RunSpec("pr", base, config,
                                workload_kwargs={"max_supersteps": 5})),
        ]


class PolyGraphSliced(_RunnerSuite):
    """PolyGraph bfs/pr/sssp and Ligra bfs/pr on 13-slice host graphs.

    The Fig 4 configuration at 1/4096 instead of 1/256: the on-chip
    memory scales with the graph, so the slice count stays 13.  A pass
    covers ``GRAPHS`` seed-drawn graphs, because how much work async
    SSSP does differs by up to half between two draws of one graph;
    averaging draws keeps the run's time about the code, not the draw.
    """

    name = "polygraph-sliced"
    SCALE = 1.0 / 4096.0
    GRAPHS = 4

    def build_specs(self):
        from repro import LigraConfig, PolyGraphConfig
        from repro.graph import suites
        from repro.runner import GraphSpec, RunSpec
        from repro.runner.spec import resolve_source

        pg = PolyGraphConfig(
            onchip_bytes=suites.scaled_onchip_bytes(self.SCALE)
        )
        ligra = LigraConfig()
        pr = {"max_supersteps": 5}
        specs = []
        for index in range(self.GRAPHS):
            base = GraphSpec(
                "suite:host", scale=self.SCALE,
                seed=common.derive_seed(self.seed, f"graph-{index}"),
            )
            weighted = replace(
                base, weighted=True,
                weight_seed=common.derive_seed(self.seed, f"weights-{index}"),
            )
            source = resolve_source(base.build(), "bfs")
            weighted.build()
            specs += [
                (f"g{index}/polygraph/bfs",
                 RunSpec("bfs", base, pg, "polygraph", source)),
                (f"g{index}/polygraph/pr",
                 RunSpec("pr", base, pg, "polygraph", workload_kwargs=pr)),
                (f"g{index}/polygraph/sssp",
                 RunSpec("sssp", weighted, pg, "polygraph", source)),
                (f"g{index}/ligra/bfs",
                 RunSpec("bfs", base, ligra, "ligra", source)),
                (f"g{index}/ligra/pr",
                 RunSpec("pr", base, ligra, "ligra", workload_kwargs=pr)),
            ]
        return specs


class SweepGrid(Workload):
    """A cold ``SweepRunner(workers=2)`` over one graph, then warm again."""

    name = "sweep-grid"
    GRAPH = "rmat:13:8"
    SOURCES = 16
    #: Sources come from this many highest out-degree vertices, which all
    #: reach the graph's core, so every draw gives cells of similar work.
    SOURCE_POOL = 256
    GPNS = (1, 2, 4)

    def setup(self) -> None:
        from repro import scaled_config
        from repro.runner import GraphSpec, RunSpec

        graph_seed = common.derive_seed(self.seed, "graph")
        base = GraphSpec(self.GRAPH, seed=graph_seed)
        variants = {
            "bfs": base,
            "sssp": replace(base, weighted=True),
            "cc": replace(base, symmetrized=True),
            "pr": base,
        }
        for spec in set(variants.values()):
            spec.build()
        sources = common.pick_sources(
            self.seed, base.build().out_degrees().tolist(), self.SOURCES,
            self.SOURCE_POOL,
        )
        self.specs = []
        for gpns in self.GPNS:
            config = scaled_config(num_gpns=gpns)
            for workload in ("bfs", "sssp"):
                for source in sources:
                    self.specs.append(RunSpec(
                        workload, variants[workload], config, source=source
                    ))
            self.specs.append(RunSpec("cc", variants["cc"], config))
            self.specs.append(RunSpec(
                "pr", variants["pr"], config,
                workload_kwargs={"max_supersteps": 5},
            ))

    def _sweep(self, cache_dir: str):
        from repro.runner import SweepRunner

        runner = SweepRunner(workers=2, cache_dir=cache_dir)
        start = time.perf_counter()
        results, stats = runner.run(self.specs, on_failure="return")
        return results, stats, time.perf_counter() - start

    def run_pass(self, tracer: Optional[common.Tracer],
                 seconds: float) -> PassResult:
        from repro.runner import RunFailure

        cache_dir = self.fresh_dir("cache")
        cold, cold_stats, cold_s = self._sweep(cache_dir)
        warm_times = []
        for rep in range(WARM_SWEEPS):
            warm, warm_stats, warm_s = self._sweep(cache_dir)
            warm_times.append(warm_s)
            for index, (c, w) in enumerate(zip(cold, warm)):
                self.tally.check(f"cell{index}:warm{rep}", same_result(c, w),
                                 "warm answer differs from cold")
            if warm_stats.computed:
                self.tally.fail(f"warm{rep}",
                                f"{warm_stats.computed} cells recomputed")
        self.tally.attempt((1 + WARM_SWEEPS) * len(self.specs))
        for index, c in enumerate(cold):
            if isinstance(c, RunFailure):
                self.tally.fail(f"cell{index}:cold", f"run failed: {c.message}")
        cases = [
            dict(case_stats(f"cell{i}", r), source=s.source,
                 gpns=s.config.num_gpns)
            for i, (s, r) in enumerate(zip(self.specs, cold))
            if not isinstance(r, RunFailure)
        ]
        if not self.cases:
            self.cases, self.results = cases, cold
        elif cases != self.cases:
            self.tally.fail("model",
                            "simulated statistics differ between passes")
        return PassResult(
            run_s=cold_s, warm_s=common.median(warm_times),
            cost_s=cold_s + sum(warm_times),
            traced=tracer is not None,
            detail={"cold": cold_stats, "warm": warm_stats},
        )

    def verify(self) -> None:
        from repro.runner import RunFailure

        oracle = Oracle()
        for index, (spec, result) in enumerate(zip(self.specs, self.results)):
            if isinstance(result, RunFailure):  # already counted
                continue
            error = oracle.check(
                spec.workload, spec.workload_kwargs, spec.resolve_graph(),
                spec.source, repr(spec.graph), result.result,
            )
            if error:
                self.tally.fail(f"cell{index}:cold", error)

    def after_traced(self, tracer: common.Tracer) -> None:
        """Time the grid's per-cell compute, run inline with no cache."""
        from repro.runner import SweepRunner

        before = len(tracer.spans)
        SweepRunner(workers=1, use_cache=False).run(self.specs)
        self.compute_s = sum(
            span.duration for span in tracer.spans[before:]
            if span.name == "runner.execute"
        )

    def layer_metrics(self, passes: List[PassResult]) -> Dict[str, float]:
        plain, traced = passes
        return {
            "runner.pool_overhead_s": plain.run_s - self.compute_s / 2,
            "runner.cells_computed": traced.detail["cold"].computed,
            "runner.cells_cached": traced.detail["warm"].hits,
        }

    def report(self, passes: List[PassResult]) -> List[str]:
        cells = len(self.specs)
        rates = [cells / p.run_s for p in passes]
        return [
            f"cells_per_s  {common.median(rates):10.2f} 1/s  "
            f"(cold, {cells} cells, median of {len(rates)} pass(es))",
            f"run_s        {common.median(p.run_s for p in passes):10.4f} s    "
            "(cold sweep wall time)",
            f"warm_s       {common.median(p.warm_s for p in passes):10.4f} s    "
            f"(warm rerun, median of {len(passes)} pass(es) of "
            f"{WARM_SWEEPS} reruns)",
        ]


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------


def _die_with_parent() -> None:
    """Ask Linux to SIGTERM the service if the benchmark dies first."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


@dataclass
class JobRecord:
    op: common.ServeOp
    latency_s: float
    job: Optional[Dict[str, Any]]
    error: Optional[str]
    refused: bool = False


class ServeMix(Workload):
    """Two closed-loop clients against a ``repro serve`` child.

    Three requests in four resubmit one of ``WARM`` warm jobs (cache
    hits); one in four is a tiny job on a never-seen graph seed (a miss
    that builds, simulates and stores).  ``run_s`` is the median miss
    and ``warm_s`` the median hit, each submit-to-done at the client.
    """

    name = "serve-mix"
    GRAPH = "rmat:10:8"
    WARM = 8
    CLIENTS = 2
    PR_KWARGS = {"max_supersteps": 5}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.proc: Optional[subprocess.Popen] = None
        self.server_traced = False
        self.warm_sha: List[str] = []
        self.warm_results: Dict[str, Any] = {}
        self.spans_path: Optional[str] = None

    # -- server lifetime ------------------------------------------------

    def _spec(self, workload: str, graph_seed: int) -> Dict[str, Any]:
        spec = {"workload": workload, "graph": self.GRAPH, "seed": graph_seed}
        if workload == "pr":
            spec["workload_kwargs"] = dict(self.PR_KWARGS)
        return spec

    def _boot(self, traced: bool) -> None:
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        root = self.fresh_dir("serve")
        self.cache_dir = os.path.join(root, "cache")
        args = [
            "serve", "--port", "0", "--job-workers", "2",
            "--state-dir", os.path.join(root, "state"),
            "--cache-dir", self.cache_dir,
        ]
        if traced:
            self.spans_path = os.path.join(root, "spans.jsonl")
            cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                   self.spans_path, *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        env = dict(os.environ, REPRO_GRAPH_STORE_DIR=os.path.join(root, "graphs"))
        self.log_path = os.path.join(root, "serve.log")
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                preexec_fn=_die_with_parent,
            )
        self.server_traced = traced
        deadline = time.monotonic() + 60
        self.url = self._wait_banner(deadline)
        self.client = ServiceClient(self.url, timeout=60)
        while True:
            try:
                if self.client.health().get("status"):
                    return
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.005)

    def _wait_banner(self, deadline: float) -> str:
        marker = "listening on "
        while time.monotonic() < deadline:
            with open(self.log_path) as log:
                for line in log:
                    if marker in line:
                        return line.split(marker, 1)[1].strip()
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"repro serve did not start; see {self.log_path}")

    def _stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None

    def close(self) -> None:
        self._stop()

    def live_children_peak_kb(self) -> int:
        if self.proc is None:
            return 0
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def _warm_up(self) -> None:
        """Compute the warm set: the misses every later hit must equal."""
        shas = []
        for index in range(self.WARM):
            workload = ("bfs", "pr")[index % 2]
            graph_seed = common.derive_seed(self.seed, f"warm-{index}")
            self.tally.attempt()
            job = self.client.submit(self._spec(workload, graph_seed))
            job = self.client.wait(job["id"], timeout=60)
            if job["state"] != "done":
                self.tally.fail(f"warm{index}", f"job {job['state']}")
                shas.append("")
                continue
            shas.append(self.client.result(job["id"])["result"]["result_sha256"])
            result = self._check_miss(f"warm{index}", workload, graph_seed, job)
            if result is not None:
                self.warm_results[f"warm{index}"] = result
        if self.warm_sha and shas != self.warm_sha:
            self.tally.fail("warm", "warm set differs between servers")
        self.warm_sha = shas

    def setup(self) -> None:
        self._boot(traced=False)

    def prepare(self) -> None:
        self._warm_up()

    # -- the closed loop ------------------------------------------------

    def _client_loop(self, index: int, ops, deadline: float, out: list) -> None:
        from repro.errors import ReproError, ThrottledError
        from repro.service.client import ServiceClient

        client = ServiceClient(self.url, timeout=60)
        for op in ops:
            if time.perf_counter() >= deadline:
                return
            if op.kind == "hit":
                workload = ("bfs", "pr")[op.warm % 2]
                spec = self._spec(
                    workload, common.derive_seed(self.seed, f"warm-{op.warm}")
                )
            else:
                spec = self._spec(op.workload, op.graph_seed)
            start = time.perf_counter()
            job, error, refused = None, None, False
            try:
                job = client.submit(spec)
                if job["state"] not in ("done", "failed", "cancelled"):
                    job = client.wait(job["id"], timeout=60)
            except ThrottledError as exc:
                error, refused = f"refused: {exc}", True
            except ReproError as exc:
                error = f"{type(exc).__name__}: {exc}"
            out.append(JobRecord(op, time.perf_counter() - start, job, error,
                                 refused))

    def run_pass(self, tracer: Optional[common.Tracer],
                 seconds: float) -> PassResult:
        traced = tracer is not None
        before = self.client.metrics()
        taken = [common.derive_seed(self.seed, f"warm-{i}")
                 for i in range(self.WARM)]
        count = max(2000, int(seconds * 500))
        streams = [
            common.serve_ops(self.seed, c, count, self.WARM, taken)
            for c in range(self.CLIENTS)
        ]
        outs: List[List[JobRecord]] = [[] for _ in range(self.CLIENTS)]
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(target=self._client_loop,
                             args=(c, streams[c], deadline, outs[c]))
            for c in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        after = self.client.metrics()
        records = [r for out in outs for r in out]
        hits = [r.latency_s for r in records if r.op.kind == "hit"]
        misses = [r.latency_s for r in records if r.op.kind == "miss"]
        return PassResult(
            run_s=common.median(misses),
            warm_s=common.median(hits),
            cost_s=sum(r.latency_s for r in records) / len(records),
            traced=traced,
            detail={"hits": hits, "misses": misses, "records": records,
                    "jobs": len(records), "wall": wall,
                    "client_s": sum(r.latency_s for r in records),
                    "before": before, "after": after,
                    "refused": sum(r.refused for r in records)},
        )

    # -- checks -----------------------------------------------------------

    def _check_miss(self, op_id: str, workload: str, graph_seed: int,
                    job: Dict[str, Any]):
        """Check a computed job against its oracle; returns its result."""
        from repro.runner import GraphSpec, RunCache
        from repro.runner.spec import resolve_source

        result = RunCache(self.cache_dir).load(job["key"])
        if result is None:
            self.tally.fail(op_id, "result missing from the run cache")
            return None
        graph = GraphSpec(self.GRAPH, seed=graph_seed).build_uncached()
        kwargs = self.PR_KWARGS if workload == "pr" else {}
        error = Oracle().check(
            workload, kwargs, graph, resolve_source(graph, workload),
            str(graph_seed), result.result,
        )
        if error:
            self.tally.fail(op_id, error)
        return result

    def before_pass(self, traced: bool) -> None:
        """Switch to a freshly warmed traced or untraced service."""
        if traced != self.server_traced:
            self._stop()
            self._boot(traced)
            self._warm_up()

    def check_pass(self, result: PassResult) -> None:
        """Check one pass's jobs while their server still runs."""
        records = result.detail.pop("records")
        first = self.tally.attempted
        self.tally.attempt(len(records))
        for index, record in enumerate(records, start=first):
            op_id = f"job{index}"
            if record.error:
                self.tally.fail(op_id, record.error)
                continue
            job = record.job
            if job["state"] != "done":
                self.tally.fail(op_id, f"job {job['state']}")
                continue
            sha = self.client.result(job["id"])["result"]["result_sha256"]
            if record.op.kind == "hit":
                self.tally.check(op_id, sha == self.warm_sha[record.op.warm],
                                 "hit differs from the miss that computed it")
            else:
                self._check_miss(op_id, record.op.workload,
                                 record.op.graph_seed, job)

    def verify(self) -> None:
        self.cases = [
            case_stats(name, self.warm_results[name])
            for name in sorted(self.warm_results)
        ]

    def layer_metrics(self, passes: List[PassResult]) -> Dict[str, float]:
        _, traced = passes
        detail = traced.detail

        def hist_sum(name: str) -> float:
            a = detail["after"]["histograms"].get(name, {})
            b = detail["before"]["histograms"].get(name, {})
            return a.get("sum", 0.0) - b.get("sum", 0.0)

        def counter(name: str) -> int:
            return (detail["after"]["counters"].get(name, 0)
                    - detail["before"]["counters"].get(name, 0))

        jobs = max(1, detail["jobs"])
        wait_s = hist_sum("service.queue_wait_seconds")
        run_s = hist_sum("service.run_seconds")
        return {
            "service.queue_wait_ms": wait_s / jobs * 1e3,
            "service.run_ms": run_s / jobs * 1e3,
            "service.front_ms": (detail["client_s"] - wait_s - run_s) / jobs * 1e3,
            "service.cache_hits": counter("service.cache_hits"),
            "service.rejected": counter("service.rejected") + detail["refused"],
        }

    def server_spans(self, offset: int) -> List[common.Span]:
        self._stop()
        if self.spans_path and os.path.exists(self.spans_path):
            return common.load_spans(self.spans_path, offset)
        return []

    def report(self, passes: List[PassResult]) -> List[str]:
        lines = [
            f"run_s        {common.median(p.run_s for p in passes):10.6f} s    "
            "(miss_p50 below)",
            f"warm_s       {common.median(p.warm_s for p in passes):10.6f} s    "
            "(hit_p50 below)",
        ]
        for kind in ("hits", "misses"):
            samples = [s * 1e3 for p in passes for s in p.detail[kind]]
            name = "hit" if kind == "hits" else "miss"
            lines.append(
                f"{name}_p50_ms   {common.median(samples):10.3f} ms   "
                f"(n={len(samples)})"
            )
            n = len(samples)
            if common.beyond(n, 95.0) >= common.MIN_BEYOND:
                lines.append(
                    f"{name}_p95_ms   {common.percentile(samples, 95.0):10.3f} ms"
                    f"   (n={n}, {common.beyond(n, 95.0)} beyond)"
                )
            tail = common.tail_percentile(samples)
            if tail is not None:
                p, value, n = tail
                lines.append(
                    f"{name}_tail     {value:10.3f} ms   (p{p:g}, n={n}, "
                    f"{common.beyond(n, p)} beyond)"
                )
        jobs = sum(p.detail["jobs"] for p in passes)
        wall = sum(p.detail["wall"] for p in passes)
        lines.append(
            f"jobs_per_s   {jobs / wall:10.2f} 1/s  ({jobs} jobs, "
            f"{self.CLIENTS} closed-loop clients, {wall:.2f} s)"
        )
        return lines


WORKLOADS = {
    cls.name: cls for cls in (NovaSuite, PolyGraphSliced, ServeMix, SweepGrid)
}
