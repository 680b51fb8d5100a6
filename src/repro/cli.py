"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``       simulate a workload on NOVA / PolyGraph / Ligra
- ``sweep``     run a (workload x GPN-count x source) sweep through the
  cached process-parallel runner (see :mod:`repro.runner`), with a live
  progress/ETA line on stderr
- ``report``    aggregate a cached sweep into a cross-run bottleneck /
  outlier report (markdown + schema-versioned JSON, see
  :mod:`repro.obs.report`)
- ``profile``   run one instrumented NOVA simulation and print a
  bottleneck-attribution report (see :mod:`repro.obs`)
- ``serve``     boot the async job service (HTTP, see :mod:`repro.service`);
  ``--workers N`` additionally spawns a local fleet of N worker
  subprocesses sharing the coordinator's run cache
- ``worker``    boot one fleet worker and join it to a coordinator
  (register + heartbeat over ``/v1/workers``)
- ``submit``    post one simulation job to a running service
- ``status``    service health + job ledger (or one job's detail)
- ``fetch``     download a completed job's result as JSON
- ``graph``     manage the content-addressed graph artifact store
  (``build`` prebuilds mmap-able CSR artifacts, ``ls`` lists them,
  ``gc`` evicts least-recently-used artifacts past a byte budget --
  see :mod:`repro.graph.store`)
- ``generate``  build a synthetic graph and save it
- ``info``      print the system configuration (Table II) and tracker sizing
- ``resources`` print Table IV terascale requirements

Every command that describes one run -- ``run``, ``profile``,
``submit`` and each (workload, gpns, source) cell of a ``sweep`` /
``report`` grid -- lowers its flags through one
:class:`~repro.service.store.JobSpec` (:func:`_job_spec`), so a cell
has one cache key whichever front end runs it.  Each shared flag is
declared once, by an ``_add_*_args`` helper per group: graph and seed;
NOVA knobs (``--scale``, always NOVA's capacity scale against Table II,
``--placement``, ``--pr-supersteps``); one cell (``--workload``,
``--gpns``, ``--source``); system (``--system``, ``--onchip``);
``--timeline``; ``--cache-dir``; the job client (``--url``,
``--client``, ``--priority``, ``--wait``, ``--wait-timeout``); and the
service process (``--host``, ``--port``, ``--state-dir``, queue and
worker counts, ``--drain-timeout``).  Comma-separated lists parse
through one argparse type (:func:`_comma_list`).

Graph specifiers (for ``--graph`` and ``generate --kind``, e.g.
``rmat:16:16``, ``suite:twitter`` or a file path) are listed in
:mod:`repro.graph.specifier`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from repro import NovaSystem, scaled_config
from repro.analysis.resources import terascale_requirements
from repro.errors import ConfigError, ReproError
from repro.graph import io as graph_io
from repro.graph.generators import with_uniform_weights
from repro.graph.specifier import graph_from_specifier
from repro.units import bytes_to_human, parse_size, rate_to_human
from repro.workloads import get_workload, workload_names


def _job_spec(args: argparse.Namespace, **cell):
    """The :class:`JobSpec` these flags describe: the one lowering of
    every run front end.

    Each JobSpec field takes the value of the flag of the same name;
    ``cell`` sets the fields a grid enumerates (``workload``, ``gpns``,
    ``source``).  PageRank carries ``--pr-supersteps``.
    """
    import dataclasses

    from repro.service.store import JobSpec

    names = {f.name for f in dataclasses.fields(JobSpec)}
    fields = {k: v for k, v in vars(args).items() if k in names}
    fields.update(cell)
    if fields["workload"] == "pr":
        fields["workload_kwargs"] = {"max_supersteps": args.pr_supersteps}
    return JobSpec(**fields)


def _write(path: str, text: str) -> None:
    """Write a command's ``--json``/``--md`` output file and say so."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    print(f"wrote {path}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runner import RunCache, execute_spec, spec_key

    spec = _job_spec(args).to_run_spec()
    if spec.system == "nova" and args.vmu_mode != "tracker":
        spec.config = spec.config.with_updates(vmu_mode=args.vmu_mode)

    # Single runs go through the same content-addressed cache as sweeps
    # and service jobs, so a repeated run (from any front end) is a hit.
    # --verify runs uncached: the oracle pass decorates the result with
    # reference counts the cache key does not distinguish.
    if args.verify or args.no_cache:
        print(f"uncached {spec.describe()}")
        run = execute_spec(spec)
        if args.verify:
            from repro.core.system import verify_result

            program = get_workload(spec.workload, **spec.workload_kwargs)
            expected, run.reference_edges = program.reference(
                spec.resolve_graph(), spec.source
            )
            verify_result(spec.workload, run.result, expected)
    else:
        cache = RunCache(args.cache_dir)
        key = spec_key(spec)
        run = cache.load(key)
        if run is not None:
            print(f"cache hit {key[:12]} ({cache.root})")
        else:
            print(f"cache miss {key[:12]}")
            run = execute_spec(spec)
            try:
                cache.store(key, run)
            except OSError:
                pass  # a full disk must not fail a finished run

    print(run.describe())
    for name, seconds in run.breakdown.items():
        print(f"  {name:>12}: {seconds * 1e3:9.4f} ms")
    for name, value in run.utilization.items():
        print(f"  util {name:>7}: {value:8.1%}")
    if args.verify:
        print("  result verified against the sequential oracle")
    return 0


def _sweep_grid(args: argparse.Namespace):
    """Build the (spec, row) grid shared by ``sweep`` and ``report``.

    Both subcommands must resolve the *same* grid from the same
    arguments -- ``repro report`` recomputes the sweep's cache keys to
    read its results without re-running anything -- so the grid logic
    lives here.  Each cell lowers through :func:`_job_spec`, like a
    ``repro run`` of the same inputs.  Returns ``(specs, rows)`` with
    rows of ``(workload, gpns, source)`` aligned with the specs.
    """
    import dataclasses

    from repro.core.harness import sample_sources
    from repro.runner import GraphSpec
    from repro.runner.spec import SOURCELESS_WORKLOADS

    specs = []
    rows = []  # (workload, gpns, source) aligned with specs
    for workload in args.workloads:
        # The cells' jobs are checked before their graph is built.
        jobs = [_job_spec(args, workload=workload, gpns=g) for g in args.gpns]
        sources = [None]
        if workload not in SOURCELESS_WORKLOADS:
            graph = GraphSpec.for_workload(
                args.graph, workload, seed=args.seed
            ).build()
            sources = [
                int(s)
                for s in sample_sources(graph, args.sources, seed=args.seed)
            ]
        for job in jobs:
            for source in sources:
                cell = dataclasses.replace(job, source=source)
                specs.append(cell.to_run_spec())
                rows.append((workload, cell.gpns, source))
    return specs, rows


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.obs import render_counts
    from repro.runner import (
        RetryPolicy,
        RunFailure,
        SweepCheckpoint,
        SweepMonitor,
        SweepRunner,
        spec_key,
    )

    specs, rows = _sweep_grid(args)

    import dataclasses

    overrides = {"timeout_seconds": args.timeout, "retries": args.retries}
    policy = dataclasses.replace(
        RetryPolicy.from_env(),
        **{k: v for k, v in overrides.items() if v is not None},
    )
    runner = SweepRunner(
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        policy=policy,
    )

    checkpoint = None
    if runner.cache is not None:
        keys = [spec_key(spec) for spec in specs]
        checkpoint = SweepCheckpoint.for_keys(runner.cache.root, keys)
        if args.resume:
            if not checkpoint.exists():
                raise ConfigError(
                    "no interrupted sweep to resume (checkpoint "
                    f"{checkpoint.sweep_id[:12]} not found); run without "
                    "--resume to start it"
                )
            done = len(checkpoint.completed_keys() & set(keys))
            print(
                f"resuming sweep {checkpoint.sweep_id[:12]}: "
                f"{done}/{len(set(keys))} runs already checkpointed"
            )
    elif args.resume:
        raise ConfigError("--resume needs the run cache (drop --no-cache)")

    monitor = (
        None
        if args.no_progress
        else SweepMonitor(stream=sys.stderr, interval_seconds=1.0)
    )
    results, stats = runner.run(
        specs, on_failure="return", checkpoint=checkpoint, monitor=monitor
    )

    print(f"{'workload':>8} {'gpns':>4} {'source':>8} {'time(ms)':>10} {'GTEPS':>8}")
    failures = []
    for (workload, gpns, source), run in zip(rows, results):
        src = "-" if source is None else str(source)
        if isinstance(run, RunFailure):
            failures.append(run)
            print(
                f"{workload:>8} {gpns:>4} {src:>8} "
                f"{'FAILED':>10} {run.kind:>8}"
            )
            continue
        print(
            f"{workload:>8} {gpns:>4} {src:>8} "
            f"{run.elapsed_seconds * 1e3:>10.4f} {run.gteps:>8.2f}"
        )
    print(stats)
    if stats.failed or stats.retried:
        # Per-sweep counter deltas, not the process-cumulative registry:
        # consecutive sweeps in one process each report their own counts.
        print(render_counts(stats.fault_counters))
        # Duplicate slots alias one key and share its failure.
        for failure in {failure.key: failure for failure in failures}.values():
            print(f"  failed: {failure.describe()}")
    if checkpoint is not None:
        if stats.failed:
            print(
                f"checkpoint kept ({checkpoint.sweep_id[:12]}); fix and "
                "rerun with --resume to recompute only unfinished runs"
            )
        else:
            checkpoint.finish()
    return 1 if stats.failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        GROUPABLE_DIMS,
        SweepReport,
        entry_from_result,
    )
    from repro.runner import RunCache, SweepCheckpoint, spec_key

    for dim in args.group_by:
        if dim not in GROUPABLE_DIMS:
            raise ConfigError(
                f"cannot group by {dim!r}; choose from "
                f"{', '.join(GROUPABLE_DIMS)}"
            )

    specs, rows = _sweep_grid(args)
    cache = RunCache(args.cache_dir)
    keys = [spec_key(spec) for spec in specs]

    # An interrupted sweep leaves its checkpoint manifest behind; note
    # it so a partial report is never mistaken for a complete one.
    checkpoint = SweepCheckpoint.for_keys(cache.root, keys)
    if checkpoint.exists():
        done = len(checkpoint.completed_keys() & set(keys))
        print(
            f"note: sweep {checkpoint.sweep_id[:12]} is incomplete "
            f"({done}/{len(set(keys))} runs checkpointed); reporting on "
            "what finished",
            file=sys.stderr,
        )

    entries = []
    seen = set()
    found = 0
    for spec, key, (workload, gpns, source) in zip(specs, keys, rows):
        if key in seen:  # duplicate slots alias one cache entry
            continue
        seen.add(key)
        result = cache.load(key)
        if result is not None:
            found += 1
        entries.append(
            entry_from_result(
                key=key,
                workload=workload,
                graph=args.graph,
                gpns=gpns,
                source=source,
                result=result,
                pes=spec.config.num_pes,
            )
        )
    if not found:
        print(
            "error: no cached runs found for this grid; run the matching "
            "`repro sweep` first (same --graph/--workloads/--gpns/... "
            "arguments, including --timeline)",
            file=sys.stderr,
        )
        return 1

    report = SweepReport(
        entries, group_by=tuple(args.group_by), z_threshold=args.z_threshold
    )
    markdown = report.render_markdown()
    print(markdown, end="")
    if args.json:
        _write(args.json, report.to_json())
    if args.md:
        _write(args.md, markdown)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        FAULT_COUNTERS,
        BottleneckReport,
        ObsConfig,
        make_recorder,
        trace_span,
    )

    spec = _job_spec(args).to_run_spec()
    obs = ObsConfig(
        timeline=True,
        timeline_capacity=args.timeline_capacity,
        phases=not args.no_phases,
        phase_sample_every=args.phase_every,
    )
    recorder = make_recorder(obs)
    system = NovaSystem(
        spec.config,
        spec.resolve_graph(),
        placement=spec.placement,
        seed=spec.placement_seed,
    )
    # `--json` with no path streams the machine-readable report to
    # stdout; the rendered view moves to stderr so stdout stays pure
    # JSON for pipelines (`repro profile --json | jq ...`).
    json_stdout = args.json == "-"
    view = sys.stderr if json_stdout else sys.stdout
    print(system.describe(), file=view)
    with trace_span("cli.profile", workload=spec.workload, graph=args.graph):
        run = system.run(
            spec.workload,
            source=spec.source,
            max_quanta=spec.max_quanta,
            recorder=recorder,
            **spec.workload_kwargs,
        )
    print(run.describe(), file=view)
    print(file=view)
    report = BottleneckReport.from_timeline(run.timeline)
    print(report.render(), file=view)
    profiler = recorder.phase_profiler
    if profiler is not None:
        print(file=view)
        print(profiler.render(), file=view)
    # Sweep-level fault/retry/timeout accounting (nonzero only when this
    # process also drove instrumented sweeps, e.g. via the runner API).
    print(FAULT_COUNTERS.render(), file=view)
    if json_stdout:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.json:
        payload = {
            "report": report.to_dict(),
            "timeline": run.timeline,
            "phases": profiler.to_dict() if profiler is not None else None,
            "fault_counters": FAULT_COUNTERS.snapshot(),
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
        print(f"\nwrote {args.json}")
    return 0


def _graph_variants(args: argparse.Namespace):
    """The GraphSpec recipes a ``repro graph build`` invocation names.

    ``--workloads`` builds the per-workload variants a sweep over those
    workloads maps (:meth:`GraphSpec.for_workload`), so prebuilding with
    the same workload list guarantees the sweep's exact artifacts exist.
    """
    from repro.runner import GraphSpec

    fields = {"seed": args.seed, "scale": args.suite_scale}
    if args.workloads:
        variants = (
            GraphSpec.for_workload(args.graph, workload, **fields)
            for workload in args.workloads
        )
        return list(dict.fromkeys(variants))  # de-dup, preserve order
    return [
        GraphSpec(
            args.graph,
            weighted=args.weighted,
            symmetrized=args.symmetrized,
            **fields,
        )
    ]


def _variant_label(spec: str, weighted: bool, symmetrized: bool) -> str:
    """``spec`` tagged ``+w`` (weighted) and ``+sym`` (symmetrized)."""
    return spec + ("+w" if weighted else "") + ("+sym" if symmetrized else "")


def _cmd_graph_build(args: argparse.Namespace) -> int:
    import time

    from repro.graph.store import GraphStore, spec_digest

    store = GraphStore(args.store_dir)
    for gspec in _graph_variants(args):
        digest = spec_digest(gspec)
        known = store.load(digest) is not None
        start = time.perf_counter()
        # Variants derive from their base through this same store.
        graph = store.get_or_build(gspec, lambda: gspec.build_uncached(store))
        elapsed = time.perf_counter() - start
        action = "mapped" if known else "built"
        label = _variant_label(gspec.spec, gspec.weighted, gspec.symmetrized)
        print(
            f"{action} {digest[:12]} {label} "
            f"V={graph.num_vertices} E={graph.num_edges} "
            f"({elapsed:.2f}s, {store.root})"
        )
    return 0


def _cmd_graph_ls(args: argparse.Namespace) -> int:
    import time

    from repro.graph.store import GraphStore

    store = GraphStore(args.store_dir)
    now = time.time()
    rows = []
    for digest, size, mtime, manifest in sorted(
        store.entries(), key=lambda item: item[2], reverse=True
    ):
        prov = manifest.get("provenance") or {}
        spec_fields = prov.get("spec") or {}
        rows.append({
            "digest": digest,
            "spec": spec_fields.get("spec"),
            "weighted": bool(spec_fields.get("weighted")),
            "symmetrized": bool(spec_fields.get("symmetrized")),
            "num_vertices": manifest.get("num_vertices", 0),
            "num_edges": manifest.get("num_edges", 0),
            "bytes": size,
            "age_seconds": max(0.0, now - mtime),
        })
    total = sum(row["bytes"] for row in rows)
    if args.json:
        import json

        payload = {
            "root": str(store.root),
            "artifacts": rows,
            "total_bytes": total,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not rows:
        print(f"no graph artifacts in {store.root}")
        return 0
    print(f"{'digest':>12} {'spec':>24} {'V':>9} {'E':>11} {'size':>10} "
          f"{'last use':>9}")
    for row in rows:
        label = _variant_label(
            row["spec"] or "?", row["weighted"], row["symmetrized"]
        )
        age = row["age_seconds"]
        if age < 120:
            age_text = f"{age:.0f}s ago"
        elif age < 7200:
            age_text = f"{age / 60:.0f}m ago"
        else:
            age_text = f"{age / 3600:.0f}h ago"
        print(
            f"{row['digest'][:12]:>12} {label:>24} "
            f"{row['num_vertices']:>9} {row['num_edges']:>11} "
            f"{bytes_to_human(row['bytes']):>10} {age_text:>9}"
        )
    print(f"{len(rows)} artifact(s), {bytes_to_human(total)} in {store.root}")
    return 0


def _cmd_graph_gc(args: argparse.Namespace) -> int:
    from repro.graph.store import GraphStore

    store = GraphStore(args.store_dir)
    max_bytes = parse_size(args.max_bytes)
    before = store.total_bytes()
    removed = store.prune(max_bytes)
    after = store.total_bytes()
    print(
        f"evicted {removed} artifact(s): {bytes_to_human(before)} -> "
        f"{bytes_to_human(after)} (budget {bytes_to_human(max_bytes)}, "
        f"{store.root})"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = graph_from_specifier(args.kind, seed=args.seed)
    if args.weights:
        graph = with_uniform_weights(graph, seed=args.seed)
    if args.out.endswith(".npz"):
        graph_io.save_npz(graph, args.out)
    elif args.out.endswith(".gr"):
        graph_io.save_dimacs(graph, args.out)
    else:
        graph_io.save_edge_list(graph, args.out)
    print(f"wrote {graph} to {args.out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    config = scaled_config(num_gpns=args.gpns, scale=args.scale)
    print(f"NOVA configuration (Table II, scale {args.scale:g}):")
    print(f"  GPNs x PEs:        {config.num_gpns} x {config.pes_per_gpn}")
    print(f"  frequency:         {config.frequency_hz / 1e9:.1f} GHz")
    print(f"  cache / PE:        {bytes_to_human(config.cache_bytes_per_pe)}")
    print(
        f"  vertex channel:    {bytes_to_human(config.vertex_channel.capacity_bytes)}"
        f" @ {rate_to_human(config.vertex_channel.peak_bandwidth)}"
    )
    print(
        f"  edge pool / GPN:   {bytes_to_human(config.edge_pool.capacity_bytes)}"
        f" @ {rate_to_human(config.edge_pool.peak_bandwidth)}"
    )
    print(
        f"  FUs / GPN:         {config.reduce_fus_per_gpn} reduce + "
        f"{config.propagate_fus_per_gpn} propagate"
    )
    print(
        f"  tracker:           superblock_dim={config.superblock_dim}, "
        f"{config.tracker_capacity_bits() / 8 / 1024:.1f} KiB per PE "
        f"(Eq 1-2)"
    )
    print(
        f"  on-chip / GPN:     {bytes_to_human(config.onchip_bytes_per_gpn())}"
    )
    return 0


def _cmd_resources(args: argparse.Namespace) -> int:
    print("Resources to support WDC12 (Table IV):")
    for row in terascale_requirements():
        print("  " + row.row())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation import validate_all

    graph = graph_from_specifier(args.graph, seed=args.seed)
    reports = validate_all(graph, scale=args.scale)
    failed = 0
    for report in reports:
        print(report.summary())
        if not report.passed:
            failed += 1
    print(
        f"{len(reports) - failed}/{len(reports)} workloads validated "
        "across functional/NOVA/PolyGraph/Ligra"
    )
    return 1 if failed else 0


def _service(args: argparse.Namespace, role: str, **options):
    """The :class:`ReproService` a ``serve`` or ``worker`` process runs.

    Its runner, queue and drain come from the shared service flags; the
    job journal defaults to ``<cache-dir>/<role>``.  ``options`` are
    the command's own service settings.
    """
    from repro.runner import SweepRunner, default_cache_dir
    from repro.service import ReproService

    runner = SweepRunner(workers=args.run_workers, cache_dir=args.cache_dir)
    state_dir = args.state_dir or os.path.join(
        args.cache_dir or default_cache_dir(), role
    )
    return ReproService(
        state_dir,
        runner=runner,
        max_queue_depth=args.queue_depth,
        job_workers=args.job_workers,
        drain_timeout=args.drain_timeout,
        **options,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.worker import LocalWorkerPool

    service = _service(
        args,
        "service",
        lease_seconds=args.lease,
        max_requeues=args.max_requeues,
        quota_max_active=args.quota_max_active,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        batch_limit=args.batch_limit,
    )

    pool: Optional[LocalWorkerPool] = None

    def on_ready(port: int) -> None:
        nonlocal pool
        print(
            f"repro service listening on http://{args.host}:{port}",
            flush=True,
        )
        print(f"  state: {service.store.root}", flush=True)
        print(f"  cache: {service.runner.cache.root}", flush=True)
        if args.workers > 0:
            pool = LocalWorkerPool(
                f"http://{args.host}:{port}",
                count=args.workers,
                cache_dir=service.runner.cache.root,
                state_root=os.path.join(service.store.root, "fleet"),
                host=args.host,
                lease_seconds=args.lease,
            )
            pids = pool.start()
            print(
                f"  fleet: {args.workers} local worker(s), pids "
                f"{','.join(str(p) for p in pids)}",
                flush=True,
            )

    try:
        summary = asyncio.run(
            service.serve_forever(args.host, args.port, on_ready=on_ready)
        )
    finally:
        if pool is not None:
            pool.stop()
    print(
        "drained: running "
        + ("finished" if summary["drained"] else "interrupted")
        + f", {summary['queued']} queued job(s) persisted for restart",
        flush=True,
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.worker import WorkerAgent

    service = _service(args, "worker")

    async def main() -> dict:
        port = await service.start(args.host, args.port)
        service._install_signal_handlers()
        advertise = args.advertise or f"http://{args.host}:{port}"
        agent = WorkerAgent(
            args.coordinator,
            advertise,
            capacity=args.capacity,
            lease_seconds=args.lease,
        )
        agent_task = asyncio.create_task(agent.run())
        print(
            f"repro worker listening on http://{args.host}:{port}",
            flush=True,
        )
        print(f"  coordinator: {args.coordinator}", flush=True)
        print(f"  cache: {service.runner.cache.root}", flush=True)
        assert service._stop is not None
        await service._stop.wait()
        await agent.stop()
        agent_task.cancel()
        try:
            await agent_task
        except asyncio.CancelledError:
            pass
        return await service.stop()

    summary = asyncio.run(main())
    print(
        "worker drained: running "
        + ("finished" if summary["drained"] else "interrupted")
        + f", {summary['queued']} queued job(s) persisted",
        flush=True,
    )
    return 0


def _settle(client, job: dict, args: argparse.Namespace) -> int:
    """Follow a submitted job: print its state (with ``--wait``, until it
    settles), then a finished job's summary -- writing the payload to
    ``--json`` where the command has it -- or a failed job's error."""
    import json

    from repro.service import TERMINAL_STATES

    suffix = " (served from cache)" if job.get("cached") else ""
    print(f"job {job['id']}: {job['state']}{suffix}")
    if args.wait and job["state"] not in TERMINAL_STATES:
        job = client.wait(job["id"], timeout=args.wait_timeout)
        print(f"job {job['id']}: {job['state']}")
    if job["state"] == "done" and (args.wait or job.get("cached")):
        payload = client.result(job["id"])
        print(payload["result"]["summary"])
        if getattr(args, "json", None):
            _write(args.json, json.dumps(payload, indent=2, sort_keys=True))
    if job["state"] == "failed":
        print(
            f"error: {job.get('error_type')}: {job.get('error_message')}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _client(args)
    job = client.submit(
        _job_spec(args).to_dict(), client=args.client, priority=args.priority
    )
    return _settle(client, job, args)


def _client(args: argparse.Namespace):
    """The client of the service at ``--url``."""
    from repro.service.client import ServiceClient

    return ServiceClient(args.url)


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    client = _client(args)
    if args.job:
        print(json.dumps(client.job(args.job), indent=2, sort_keys=True))
        return 0
    health = client.health()
    print(
        f"service {health['status']} | queue "
        f"{health['queue_depth']}/{health['max_queue_depth']} | "
        f"running {health['running']}/{health['job_workers']}"
    )
    jobs = client.jobs()
    if not jobs:
        print("no jobs")
        return 0
    print(f"{'id':>16} {'state':>10} {'client':>12} {'prio':>4}  spec")
    for job in jobs:
        spec = job["spec"]
        cached = " (cached)" if job.get("cached") else ""
        print(
            f"{job['id']:>16} {job['state']:>10} {job['client']:>12} "
            f"{job['priority']:>4}  {spec['system']}/{spec['workload']} "
            f"{spec['graph']}{cached}"
        )
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    import json

    client = _client(args)
    payload = client.result(args.job)
    print(payload["result"]["summary"], file=sys.stderr)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json:
        _write(args.json, text)
    else:
        print(text)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.stitch import (
        load_trace_records,
        render_tree,
        resolve_trace_id,
        stitch,
    )

    files = list(args.files)
    if not files:
        target = os.environ.get("REPRO_TRACE", "").strip()
        if target and target.lower() not in ("1", "true", "stderr"):
            files = [target]
    if not files:
        print(
            "error: no trace files -- pass paths or set REPRO_TRACE "
            "to a file path",
            file=sys.stderr,
        )
        return 1
    missing = [path for path in files if not os.path.exists(path)]
    if missing:
        print(f"error: no such trace file: {missing[0]}", file=sys.stderr)
        return 1
    records = load_trace_records(files)
    trace_id = resolve_trace_id(records, args.id)
    if trace_id is None:
        print(
            f"error: no trace matching {args.id!r} among "
            f"{len(records)} records",
            file=sys.stderr,
        )
        return 1
    roots, orphans = stitch(records, trace_id)
    print(render_tree(roots, orphans, trace_id))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.service.top import ServiceTop

    top = ServiceTop(
        _client(args),
        stream=sys.stdout,
        interval_seconds=args.interval,
    )
    iterations = 1 if args.once else args.iterations
    top.run(iterations=iterations)
    return 0


def _parse_edge_list(text: Optional[str]) -> list:
    """``"1:2,3:4"`` -> ``[[1, 2], [3, 4]]`` (empty/None -> ``[]``)."""
    if not text:
        return []
    edges = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            src, dst = part.split(":")
            edges.append([int(src), int(dst)])
        except ValueError:
            raise ReproError(
                f"bad edge {part!r}: expected src:dst, e.g. 1:2"
            ) from None
    return edges


def _print_session(record: dict) -> None:
    print(
        f"session {record['id']}: {record['state']} {record['graph']} "
        f"seed={record['seed']} version={record['version_digest'][:12]} "
        f"deltas={record['delta_seq']}"
    )


def _cmd_stream_session(args: argparse.Namespace) -> int:
    client = _client(args)
    record = client.create_session(
        args.graph, seed=args.seed, client=args.client
    )
    _print_session(record)
    return 0


def _cmd_stream_ls(args: argparse.Namespace) -> int:
    client = _client(args)
    records = client.sessions()
    if not records:
        print("no sessions")
        return 0
    print(f"{'id':>16} {'state':>7} {'graph':>20} {'version':>12} "
          f"{'deltas':>6}  client")
    for record in records:
        print(
            f"{record['id']:>16} {record['state']:>7} "
            f"{record['graph']:>20} {record['version_digest'][:12]:>12} "
            f"{record['delta_seq']:>6}  {record['client']}"
        )
    return 0


def _cmd_stream_apply(args: argparse.Namespace) -> int:
    import json

    inserts = _parse_edge_list(args.insert)
    deletes = _parse_edge_list(args.delete)
    if args.file:
        with open(args.file, "r", encoding="utf-8") as f:
            payload = json.load(f)
        inserts.extend(payload.get("inserts", []))
        deletes.extend(payload.get("deletes", []))
    if not inserts and not deletes:
        print("error: empty delta -- pass --insert/--delete/--file",
              file=sys.stderr)
        return 1
    client = _client(args)
    record = client.apply_delta(
        args.session, inserts=inserts, deletes=deletes
    )
    print(
        f"applied +{len(inserts)}/-{len(deletes)} edge(s): ",
        end="",
    )
    _print_session(record)
    return 0


def _cmd_stream_query(args: argparse.Namespace) -> int:
    client = _client(args)
    job = client.session_submit(
        args.session,
        workload=args.workload,
        mode=args.mode,
        source=args.source,
        client=args.client,
        priority=args.priority,
    )
    return _settle(client, job, args)


def _cmd_stream_compact(args: argparse.Namespace) -> int:
    client = _client(args)
    record = client.compact_session(args.session)
    print("compacted: ", end="")
    _print_session(record)
    return 0


def _cmd_stream_close(args: argparse.Namespace) -> int:
    client = _client(args)
    record = client.close_session(args.session)
    _print_session(record)
    return 0


_PLACEMENTS = ("interleave", "random", "load_balanced", "locality")


def _comma_list(item=str):
    """An argparse ``type=``: a comma-separated list of ``item``.  Blank
    items are skipped; a bad item or an empty list is a usage error."""

    def parse(text: str) -> list:
        try:
            items = [item(p.strip()) for p in text.split(",") if p.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad item in {text!r}") from None
        if not items:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        return items

    return parse


def _add_seed_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42,
                        help="graph generator seed")


def _add_graph_args(
    parser: argparse.ArgumentParser, required: bool = False
) -> None:
    parser.add_argument("--graph", default="rmat:14:16", required=required,
                        help="graph specifier (see --help header)")
    _add_seed_arg(parser)


def _add_scale_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1 / 256,
                        help="NOVA capacity scale vs Table II")


def _add_nova_args(parser: argparse.ArgumentParser) -> None:
    _add_scale_arg(parser)
    parser.add_argument("--placement", default="random", choices=_PLACEMENTS)
    parser.add_argument("--pr-supersteps", type=int, default=10)


def _add_cell_args(
    parser: argparse.ArgumentParser, workloads=None, gpns: bool = True
) -> None:
    parser.add_argument("--workload", default="bfs",
                        choices=workloads or workload_names())
    if gpns:
        parser.add_argument("--gpns", type=int, default=1)
    parser.add_argument("--source", type=int, default=None,
                        help="source vertex (default: highest out-degree)")


def _add_system_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--system", choices=("nova", "polygraph", "ligra"),
                        default="nova")
    parser.add_argument("--onchip", default=None,
                        help="PolyGraph on-chip size, e.g. 128KiB "
                             "(default: 32 MiB x --scale)")


def _add_timeline_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeline", action="store_true",
                        help="instrument every run with a per-quantum "
                             "timeline (cached separately; gives "
                             "`repro report` bottleneck shares)")


def _add_cache_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None,
                        help="run-cache root shared by every front end "
                             "(default: REPRO_CACHE_DIR or "
                             "~/.cache/repro-nova)")


def _add_client_args(
    parser: argparse.ArgumentParser, client: bool = False, job: bool = False
) -> None:
    """The service client: its URL; with ``client`` the tenant name;
    with ``job`` also the job's priority and how to wait for it."""
    parser.add_argument("--url", default="http://127.0.0.1:8734",
                        help="service base URL")
    if client or job:
        parser.add_argument("--client", default="cli",
                            help="client name for fairness accounting")
    if job:
        parser.add_argument("--priority", type=int, default=0,
                            help="higher runs first")
        parser.add_argument("--wait", action="store_true",
                            help="long-poll events until the job settles")
        parser.add_argument("--wait-timeout", type=float, default=None,
                            help="give up waiting after this many seconds")


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    """A ``serve`` or ``worker`` process (see :func:`_service`)."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (0 picks a free one)")
    _add_cache_arg(parser)
    parser.add_argument("--state-dir", default=None,
                        help="job-journal directory (default: "
                             "<cache-dir>/service, or <cache-dir>/worker "
                             "for a worker)")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="waiting jobs admitted before 429 backpressure")
    parser.add_argument("--job-workers", type=int, default=1,
                        help="jobs executed concurrently")
    parser.add_argument("--run-workers", type=int, default=1,
                        help="SweepRunner processes per job; >=2 adds "
                             "per-job process isolation")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        help="seconds to let running jobs finish on "
                             "SIGTERM before giving up")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NOVA graph-accelerator reproduction (HPCA 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a workload")
    _add_graph_args(run)
    _add_cell_args(run)
    _add_system_args(run)
    _add_nova_args(run)
    run.add_argument("--vmu-mode", default="tracker",
                     choices=("tracker", "fifo"))
    run.add_argument("--verify", action="store_true",
                     help="check results against the sequential oracle "
                          "(runs uncached)")
    run.add_argument("--no-cache", action="store_true",
                     help="recompute even if the run cache has this spec")
    _add_cache_arg(run)
    run.set_defaults(func=_cmd_run)

    def add_grid_args(parser: argparse.ArgumentParser) -> None:
        """The sweep-grid arguments `sweep` and `report` must share --
        `report` rebuilds the same grid to recompute the cache keys."""
        _add_graph_args(parser)
        parser.add_argument("--workloads", default="bfs", type=_comma_list(),
                            help="comma-separated, e.g. bfs,sssp,pr")
        parser.add_argument("--gpns", default="1", type=_comma_list(int),
                            help="comma-separated GPN counts, e.g. 1,2,4,8")
        parser.add_argument("--sources", type=int, default=4,
                            help="sampled sources per traversal workload")
        _add_nova_args(parser)
        _add_timeline_arg(parser)
        _add_cache_arg(parser)

    sweep = sub.add_parser(
        "sweep",
        help="run a cached, process-parallel sweep of NOVA simulations",
    )
    add_grid_args(sweep)
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: REPRO_WORKERS or "
                            "cpu count)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="recompute every run and store nothing")
    sweep.add_argument("--resume", action="store_true",
                       help="resume an interrupted sweep: require its "
                            "checkpoint and recompute only unfinished runs")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-run wall-clock timeout in seconds "
                            "(default: REPRO_RUN_TIMEOUT or none)")
    sweep.add_argument("--retries", type=int, default=None,
                       help="extra attempts for transient failures "
                            "(default: REPRO_RUN_RETRIES or 1)")
    sweep.add_argument("--no-progress", action="store_true",
                       help="suppress the live progress line on stderr")
    sweep.set_defaults(func=_cmd_sweep)

    rep = sub.add_parser(
        "report",
        help="aggregate a cached sweep into a cross-run bottleneck report",
    )
    add_grid_args(rep)
    rep.add_argument("--group-by", default="workload,graph,gpns",
                     type=_comma_list(),
                     help="comma-separated grouping dimensions "
                          "(workload, graph, gpns, source)")
    rep.add_argument("--z-threshold", type=float, default=3.0,
                     help="flag runs whose throughput diverges from their "
                          "group by more than this many standard deviations")
    rep.add_argument("--json", default=None,
                     help="write the schema-versioned JSON report here")
    rep.add_argument("--md", default=None,
                     help="write the rendered markdown report here")
    rep.set_defaults(func=_cmd_report)

    prof = sub.add_parser(
        "profile",
        help="run one instrumented NOVA simulation and attribute its time",
    )
    _add_graph_args(prof)
    _add_cell_args(prof)
    _add_nova_args(prof)
    prof.add_argument("--timeline-capacity", type=int, default=4096,
                      help="ring-buffer quanta kept in the timeline")
    prof.add_argument("--phase-every", type=int, default=16,
                      help="sample wall-time one quantum in every N")
    prof.add_argument("--no-phases", action="store_true",
                      help="skip wall-clock phase profiling")
    prof.add_argument("--json", nargs="?", const="-", default=None,
                      help="bare --json: print the bottleneck report as "
                           "JSON on stdout (rendered view moves to "
                           "stderr); --json PATH: write the full payload "
                           "(report + timeline + phases) to PATH")
    prof.set_defaults(func=_cmd_profile, graph="rmat:12:8")

    serve = sub.add_parser(
        "serve",
        help="run the async job service (submit simulations over HTTP)",
    )
    _add_service_args(serve)
    serve.add_argument("--workers", type=int, default=0,
                       help="spawn N local fleet workers sharing this "
                            "coordinator's run cache (0 = run jobs "
                            "in-process)")
    serve.add_argument("--lease", type=float, default=10.0,
                       help="worker lease in seconds; a worker missing "
                            "heartbeats this long is declared dead and "
                            "its jobs re-queue")
    serve.add_argument("--max-requeues", type=int, default=3,
                       help="times one job may be re-queued after "
                            "worker loss before failing")
    serve.add_argument("--quota-max-active", type=int, default=None,
                       help="per-tenant cap on concurrently active "
                            "jobs (429 above it)")
    serve.add_argument("--quota-rate", type=float, default=None,
                       help="per-tenant submissions per second "
                            "(token bucket; 429 above it)")
    serve.add_argument("--quota-burst", type=float, default=None,
                       help="token-bucket burst size (default: rate)")
    serve.add_argument("--batch-limit", type=int, default=1,
                       help="same-graph batch lane width: a job worker "
                            "claims up to this many queued jobs sharing "
                            "one graph and runs them as a single sweep "
                            "(1 disables; fleet dispatch unaffected)")
    serve.set_defaults(func=_cmd_serve, port=8734, job_workers=2)

    worker = sub.add_parser(
        "worker",
        help="run one fleet worker and join it to a coordinator",
    )
    worker.add_argument("--coordinator", required=True,
                        help="coordinator base URL to register with")
    _add_service_args(worker)
    worker.add_argument("--advertise", default=None,
                        help="URL the coordinator should dial back "
                             "(default: http://<host>:<port>)")
    worker.add_argument("--capacity", type=int, default=1,
                        help="in-flight dispatches advertised to the "
                             "coordinator's router")
    worker.add_argument("--lease", type=float, default=None,
                        help="requested lease seconds (default: the "
                             "coordinator's lease)")
    worker.set_defaults(func=_cmd_worker)

    submit = sub.add_parser(
        "submit", help="submit one simulation job to a running service"
    )
    _add_client_args(submit, job=True)
    _add_graph_args(submit)
    _add_cell_args(submit)
    _add_system_args(submit)
    _add_nova_args(submit)
    _add_timeline_arg(submit)
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser(
        "status", help="show service health and the job ledger"
    )
    _add_client_args(status)
    status.add_argument("job", nargs="?", default=None,
                        help="job id for a single-job detail view")
    status.set_defaults(func=_cmd_status)

    fetch = sub.add_parser(
        "fetch", help="fetch a completed job's result as JSON"
    )
    _add_client_args(fetch)
    fetch.add_argument("job", help="job id")
    fetch.add_argument("--json", default=None,
                       help="write the payload here instead of stdout")
    fetch.set_defaults(func=_cmd_fetch)

    trace = sub.add_parser(
        "trace",
        help="stitch REPRO_TRACE JSONL files into one trace's span tree",
    )
    trace.add_argument(
        "id",
        help="trace id (or unique prefix), traceparent, or job id",
    )
    trace.add_argument(
        "files", nargs="*", default=[],
        help="trace JSONL files (default: the REPRO_TRACE file)",
    )
    trace.set_defaults(func=_cmd_trace)

    top = sub.add_parser(
        "top", help="live dashboard over a running service"
    )
    _add_client_args(top)
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between polls")
    top.add_argument("--iterations", type=int, default=None,
                     help="stop after this many frames (default: forever)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit")
    top.set_defaults(func=_cmd_top)

    stream = sub.add_parser(
        "stream",
        help="resident graph sessions: deltas and incremental queries",
    )
    ssub = stream.add_subparsers(dest="stream_command", required=True)

    ssession = ssub.add_parser(
        "session", help="pin a base graph as a resident session"
    )
    _add_client_args(ssession, client=True)
    _add_graph_args(ssession)
    ssession.set_defaults(func=_cmd_stream_session)

    sls = ssub.add_parser("ls", help="list resident sessions")
    _add_client_args(sls)
    sls.set_defaults(func=_cmd_stream_ls)

    sapply = ssub.add_parser(
        "apply", help="append one edge-delta batch to a session"
    )
    _add_client_args(sapply)
    sapply.add_argument("session", help="session id")
    sapply.add_argument("--insert", default=None,
                        help="edges to insert, e.g. 1:2,3:4")
    sapply.add_argument("--delete", default=None,
                        help="edges to delete, e.g. 5:6")
    sapply.add_argument("--file", default=None,
                        help="JSON file with inserts/deletes arrays")
    sapply.set_defaults(func=_cmd_stream_apply)

    squery = ssub.add_parser(
        "query", help="run a workload against the session's current version"
    )
    _add_client_args(squery, job=True)
    squery.add_argument("session", help="session id")
    # repro.stream.session.STREAM_WORKLOADS, not imported: the stream
    # engine loads only where sessions are served.
    _add_cell_args(squery, workloads=("bfs", "cc", "pr"), gpns=False)
    squery.add_argument("--mode", choices=("incremental", "cold"),
                        default="incremental",
                        help="incremental reuses resident state; cold "
                             "recomputes on the materialized graph")
    squery.add_argument("--json", default=None,
                        help="write the result payload here")
    squery.set_defaults(func=_cmd_stream_query, workload="pr")

    scompact = ssub.add_parser(
        "compact",
        help="merge a session's deltas into a fresh published CSR",
    )
    _add_client_args(scompact)
    scompact.add_argument("session", help="session id")
    scompact.set_defaults(func=_cmd_stream_compact)

    sclose = ssub.add_parser("close", help="close a session")
    _add_client_args(sclose)
    sclose.add_argument("session", help="session id")
    sclose.set_defaults(func=_cmd_stream_close)

    graph = sub.add_parser(
        "graph",
        help="manage the graph artifact store (build once, mmap everywhere)",
    )
    gsub = graph.add_subparsers(dest="graph_command", required=True)

    def add_store_arg(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--store-dir", default=None,
                            help="artifact store root (default: "
                                 "REPRO_GRAPH_STORE_DIR or <cache>/graphs)")

    gbuild = gsub.add_parser(
        "build",
        help="prebuild a graph artifact so later runs map instead of build",
    )
    _add_graph_args(gbuild, required=True)
    gbuild.add_argument("--suite-scale", type=float, default=None,
                        help="suite: graph scale (default: suite default)")
    gbuild.add_argument("--weighted", action="store_true",
                        help="attach uniform edge weights (the sssp variant)")
    gbuild.add_argument("--symmetrized", action="store_true",
                        help="symmetrize edges (the cc variant)")
    gbuild.add_argument("--workloads", default=None, type=_comma_list(),
                        help="comma-separated workload list; builds the "
                             "exact per-workload variants a sweep over "
                             "these workloads will map (overrides "
                             "--weighted/--symmetrized)")
    add_store_arg(gbuild)
    gbuild.set_defaults(func=_cmd_graph_build)

    gls = gsub.add_parser("ls", help="list stored graph artifacts")
    gls.add_argument("--json", action="store_true",
                     help="machine-readable listing with byte sizes")
    add_store_arg(gls)
    gls.set_defaults(func=_cmd_graph_ls)

    ggc = gsub.add_parser(
        "gc", help="evict least-recently-used artifacts past a byte budget"
    )
    ggc.add_argument("--max-bytes", required=True,
                     help="byte budget, e.g. 512MiB or 2GiB")
    add_store_arg(ggc)
    ggc.set_defaults(func=_cmd_graph_gc)

    gen = sub.add_parser("generate", help="build and save a graph")
    gen.add_argument("--kind", required=True, help="graph specifier")
    gen.add_argument("--out", required=True, help=".npz / .gr / .txt path")
    gen.add_argument("--weights", action="store_true")
    _add_seed_arg(gen)
    gen.set_defaults(func=_cmd_generate)

    info = sub.add_parser("info", help="print the system configuration")
    info.add_argument("--gpns", type=int, default=1)
    _add_scale_arg(info)
    info.set_defaults(func=_cmd_info, scale=1.0)

    res = sub.add_parser("resources", help="Table IV terascale sizing")
    res.set_defaults(func=_cmd_resources)

    val = sub.add_parser(
        "validate",
        help="run every workload on every engine and check the oracles",
    )
    _add_graph_args(val)
    _add_scale_arg(val)
    val.set_defaults(func=_cmd_validate, graph="rmat:11:8")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
