"""Repository benchmark: host time of the simulator, the job service and
the sweep executor, on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload nova-suite --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs an untraced, a traced and another untraced pass and
reports the per-layer metrics instead (self time of spans recorded around calls
into the program's public functions, exact simulated counts, and the
tracing overhead).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every simulator answer is checked against
its sequential oracle outside the timed regions; any failure makes
``correct`` false and the exit code 1.

Each run works in a fresh directory under ``.perfbench/`` (graph store,
run caches, service state), removed when the run ends; the run's
stamped record is appended to ``.perfbench/records.jsonl`` and a traced
run's spans are written to ``.perfbench/trace-<workload>-<seed>.jsonl``.
The benchmark reports host wall-clock time only: it claims no simulated
speed-ups, and paper fidelity is checked by the figure suite under
``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import common  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per run (this process plus fresh-interpreter probes).
SETUPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all four one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def hermetic_env(root: str, work: str) -> None:
    """Drop inherited program settings; point every store into ``work``."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    src = os.path.join(root, "src")
    os.environ["PYTHONPATH"] = src
    os.environ["REPRO_GRAPH_STORE_DIR"] = os.path.join(work, "graphs")
    os.environ["REPRO_CACHE_DIR"] = os.path.join(work, "default-cache")
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    sys.path.insert(0, src)


def probe_setup(args) -> float:
    """One set-up in a fresh interpreter; returns its ``setup_s``."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb(wl) -> float:
    """Largest resident set of any process of the workload so far.

    Covers this process, every waited-for child (set-up probes, sweep
    pool workers) and the children still running (the service).  Taken
    before the oracle checks, which are the benchmark's, not the
    workload's.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids, wl.live_children_peak_kb()) / 1024.0


def measure(wl, seconds):
    """Whole passes for about ``seconds``: at least one, and no pass that
    the previous one says would end past the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(wl.run_pass(None, seconds))
        wl.check_pass(passes[-1])
        now = time.perf_counter()
        if now + (now - began) > start + seconds:
            return passes


def traced_run(wl, tracer, seconds):
    """Untraced, traced, untraced passes; returns the last two.

    The first pass after set-up runs slower than later ones (fresh heap
    and page-cache state), so it only warms up: the overhead compares
    the traced pass with the untraced pass after it.
    """
    tracer.active = False
    wl.check_pass(wl.run_pass(None, seconds / 3))
    wl.before_pass(traced=True)
    tracer.active = True
    with tracer.span("bench"):
        traced = wl.run_pass(tracer, seconds / 3)
    tracer.active = False
    wl.check_pass(traced)
    wl.before_pass(traced=False)
    plain = wl.run_pass(None, seconds / 3)
    wl.check_pass(plain)
    tracer.active = True
    wl.after_traced(tracer)
    tracer.active = False
    return [plain, traced]


def layer_report(wl, passes, spans, import_s):
    layers = common.layer_times(spans)
    metrics = {name: 0.0 for name in workloads.PER_LAYER}
    metrics.update(workloads.span_metrics(layers))
    metrics["process.import_s"] = import_s
    metrics.update(wl.layer_metrics(passes))
    nova_run = layers.get("core.nova_run")
    if nova_run and metrics["core.quanta"]:
        metrics["core.host_us_per_quantum"] = (
            nova_run.total / metrics["core.quanta"] * 1e6
        )
    if metrics["baselines.pg_residencies"]:
        metrics["baselines.pg_host_us_per_residency"] = (
            metrics["baselines.pg_run_s"]
            / metrics["baselines.pg_residencies"] * 1e6
        )
    metrics.update(workloads.model_metrics(wl.cases))
    plain, traced = passes
    metrics["obs.trace_overhead_frac"] = (
        (traced.cost_s - plain.cost_s) / plain.cost_s
    )
    metrics["obs.uncovered_frac"] = common.uncovered_share(spans, "bench")
    lines = [f"{'span':<24}{'calls':>7}{'total_s':>12}{'self_s':>12}"]
    for name in sorted(layers, key=lambda n: -layers[n].self_time):
        layer = layers[name]
        lines.append(
            f"{name:<24}{layer.count:>7}{layer.total:>12.4f}"
            f"{layer.self_time:>12.4f}"
        )
    lines.append(
        f"uncovered share of traced pass: {metrics['obs.uncovered_frac']:.4f}"
    )
    return metrics, lines


def run(args, root: str, work: str) -> int:
    import_start = time.perf_counter()
    import repro  # noqa: F401  (the set-up clock covers the import)

    import_s = time.perf_counter() - import_start
    tracer = None
    if args.trace:
        tracer = common.Tracer()
        workloads.install_tracing(tracer)
    wl = workloads.WORKLOADS[args.workload](args.seed, work, args.seconds)
    try:
        if tracer is not None:
            with tracer.span("bench"):
                wl.setup()
        else:
            wl.setup()
        setup_s = time.perf_counter() - import_start
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s]
        if tracer is None:
            setups += [probe_setup(args) for _ in range(SETUPS - 1)]
        wl.prepare()

        if tracer is not None:
            passes = traced_run(wl, tracer, args.seconds)
        else:
            passes = measure(wl, args.seconds)
            rss = peak_rss_mb(wl)
        wl.verify()
    finally:
        wl.close()
    server_spans = []
    if tracer is not None:
        server_spans = wl.server_spans(offset=len(tracer.spans) + 1)

    stamp = common.stamp(root, args.seed)
    tally = wl.tally
    digest = common.sim_digest(wl.cases)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if tracer is None:
        metrics = {
            "setup_s": common.median(setups),
            "run_s": common.median(p.run_s for p in passes),
            "warm_s": common.median(p.warm_s for p in passes),
            "peak_rss_mb": rss,
        }
        print(f"setup_s      {metrics['setup_s']:10.4f} s    (median of "
              f"{len(setups)} set-ups: "
              + ", ".join(f"{s:.3f}" for s in setups) + ")")
        for line in wl.report(passes):
            print(line)
        print(f"peak_rss_mb  {rss:10.1f} MB   (largest process)")
    else:
        metrics, lines = layer_report(
            wl, passes, tracer.spans + server_spans, import_s
        )
        tracer.spans.extend(server_spans)
        tracer.dump(os.path.join(
            root, ".perfbench", f"trace-{args.workload}-{args.seed}.jsonl"
        ))
        for line in lines:
            print(line)
        for name, value in metrics.items():
            print(f"{name:<36}{value:>20.6g} {workloads.PER_LAYER[name]}")
    print(f"failed_frac  {tally.failed_frac:10.4f}      "
          f"({tally.failed} of {tally.attempted} operations)")
    for op_id, reason in sorted(tally.failed_ids.items())[:20]:
        print(f"  FAILED {op_id}: {reason}")
    print(f"sim_digest   {digest}  ({len(wl.cases)} cases)")
    for case in wl.cases[:12]:
        print("  case " + json.dumps(case, sort_keys=True))
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "stamp": stamp,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "passes": [{"run_s": p.run_s, "warm_s": p.warm_s} for p in passes],
        "sim_digest": digest,
        "cases": wl.cases,
    }
    with open(os.path.join(root, ".perfbench", "records.jsonl"), "a") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if tally.correct else 1


def _terminate(signum, frame):
    # Unwind through the finally blocks that stop child processes.
    sys.exit(128 + signum)


def run_all(args) -> int:
    """Each workload in its own interpreter, as the benchmark runs them."""
    status = 0
    for name in workloads.WORKLOADS:
        status |= subprocess.run([
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "all":
        return run_all(args)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    work = tempfile.mkdtemp(
        prefix=f"{args.workload}-", dir=os.path.join(root, ".perfbench")
    )
    hermetic_env(root, work)
    try:
        return run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
