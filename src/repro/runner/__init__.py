"""Process-parallel sweep execution with a content-addressed run cache.

The simulator's experiments (scaling curves, sensitivity sweeps,
multi-source harness runs) are embarrassingly parallel: every
(config, graph, workload, source) combination is an independent
simulation.  This subsystem runs such sweeps across a
:class:`concurrent.futures.ProcessPoolExecutor` worker pool, one task
per graph-grouped chunk of cells (:mod:`repro.runner.batch`), and caches
each completed :class:`~repro.core.metrics.RunResult` on disk, keyed by
a digest of everything that determines the outcome -- so re-invoking a
benchmark suite recomputes nothing that already ran.

Execution is fault-tolerant: a spec that raises, exceeds its timeout,
or kills its worker yields a structured
:class:`~repro.runner.fault.RunFailure` while sibling runs complete and
store normally; transient failures retry with exponential backoff
(:class:`~repro.runner.fault.RetryPolicy`); and completed results flush
to the cache as they finish, so an interrupted sweep resumes with zero
recomputation (:class:`~repro.runner.checkpoint.SweepCheckpoint` +
``repro sweep --resume``).

Environment knobs:

- ``REPRO_WORKERS``: worker-process count (default: ``os.cpu_count()``).
- ``REPRO_CACHE_DIR``: cache root (default ``~/.cache/repro-nova``).
- ``REPRO_CACHE_MAX_BYTES``: if set, prune least-recently-used entries
  past this size after each sweep.
- ``REPRO_RUN_TIMEOUT``: per-run wall-clock timeout in seconds
  (default: none).
- ``REPRO_RUN_RETRIES``: extra attempts granted to transient failures
  (default 1).
- ``REPRO_RETRY_BACKOFF``: base backoff seconds between retry rounds
  (default 0.25, doubling per round).
- ``REPRO_GRAPH_STORE`` / ``REPRO_GRAPH_STORE_DIR`` /
  ``REPRO_GRAPH_STORE_MAX_BYTES``: the content-addressed mmap graph
  artifact store GraphSpec recipes resolve through (see
  :mod:`repro.graph.store`).
- ``REPRO_GRAPH_MEMO_SIZE``: per-process built-graph LRU memo capacity
  (default 8; 0 disables memoization).

Public entry points: :class:`~repro.runner.sweep.SweepRunner`,
:class:`~repro.runner.spec.RunSpec`, :class:`~repro.runner.spec.GraphSpec`.
"""

from repro.runner.batch import group_cells
from repro.runner.cache import RunCache, default_cache_dir, graph_digest, spec_key
from repro.runner.checkpoint import SweepCheckpoint, sweep_id
from repro.runner.fault import RetryPolicy, RunFailure
from repro.runner.monitor import SweepMonitor
from repro.runner.spec import GraphSpec, RunSpec
from repro.runner.sweep import (
    SweepRunner,
    SweepStats,
    execute_spec,
    register_system,
)

__all__ = [
    "GraphSpec",
    "RetryPolicy",
    "RunCache",
    "RunFailure",
    "RunSpec",
    "SweepCheckpoint",
    "SweepMonitor",
    "SweepRunner",
    "SweepStats",
    "default_cache_dir",
    "execute_spec",
    "graph_digest",
    "group_cells",
    "register_system",
    "spec_key",
    "sweep_id",
]
