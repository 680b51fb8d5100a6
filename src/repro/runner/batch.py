"""Graph-grouped sweep execution and its crash recovery.

An N-cell sweep grid typically varies (workload, config, source) over a
handful of graphs.  :class:`~repro.runner.sweep.SweepRunner` groups each
round's cells by graph identity and dispatches every group as **one**
worker task, so per-task fixed costs (pool dispatch, pickling, the
graph-memo resolve) are paid per group rather than per cell.  The
worker runs the group's cells in order, each through
:func:`~repro.runner.sweep.execute_spec` under its own SIGALRM timeout
and exception flattening, so one raising or timing-out cell fails alone
while its groupmates complete.

Every completed cell is flushed to the
:class:`~repro.runner.cache.RunCache` *individually and immediately* by
the worker.  That flush trail is what crash recovery reads: after a
pool collapse, :func:`recover_group` tells the cells that finished from
the one that was executing and the ones that never started.

Grouping is by graph *identity*, not digest: a :class:`GraphSpec`
recipe is a frozen dataclass (equal recipes resolve to the same store
artifact), and in-memory :class:`CSRGraph` objects group by ``id()``
(specs sharing one parent-built graph object group together).  Large
groups are chunked so one huge group still spreads across the worker
pool, and capped at :data:`MAX_CHUNK` cells so cost differences between
graphs cannot leave one worker with a long tail.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.runner.cache import RunCache
from repro.runner.spec import GraphSpec, RunSpec

#: Most cells in one task.  Cells on different graph variants of one
#: grid differ in cost by ~3x (weighted SSSP vs BFS), so a per-graph
#: chunk of ``ceil(n / workers)`` cells can leave one worker computing
#: long after the other idles; smaller chunks let the pool balance.
MAX_CHUNK = 8


def group_cells(
    items: List[Tuple[str, RunSpec]], workers: int
) -> List[List[Tuple[str, RunSpec]]]:
    """Group (key, spec) cells by graph identity, chunked for the pool.

    The chunk size targets at least ``workers`` tasks overall so a
    single same-graph grid still keeps every worker busy, and at most
    :data:`MAX_CHUNK` cells; cells keep their submission order inside
    each chunk (in-order execution is what makes mid-group crash
    recovery precise).
    """
    grouped: Dict[object, List[Tuple[str, RunSpec]]] = {}
    for key, spec in items:
        gid: object
        if isinstance(spec.graph, GraphSpec):
            gid = spec.graph
        else:
            gid = id(spec.graph)
        grouped.setdefault(gid, []).append((key, spec))
    chunk = min(MAX_CHUNK, max(1, math.ceil(len(items) / max(1, workers))))
    out: List[List[Tuple[str, RunSpec]]] = []
    for cells in grouped.values():
        for start in range(0, len(cells), chunk):
            out.append(cells[start:start + chunk])
    return out


def run_group(
    items: List[Tuple[str, RunSpec]],
    timeout: Optional[float],
    cache_root: Optional[str],
) -> Iterator[Tuple[str, object]]:
    """Run a group's cells in order, yielding ``(key, _Outcome)`` pairs.

    Completed results are stored to the cache here, before the pair is
    yielded (``stored=True`` tells the parent to skip the redundant
    flush); a store failure leaves ``stored=False`` and the parent
    stores as usual.
    """
    from repro.runner.sweep import _attempt

    cache = RunCache(cache_root) if cache_root is not None else None
    for key, spec in items:
        outcome = _attempt(spec, timeout)
        if outcome.ok and cache is not None:
            try:
                cache.store(key, outcome.result)
                outcome.stored = True
            except OSError:
                pass  # parent-side flush will retry the store
        yield key, outcome


def attempt_group(
    items: List[Tuple[str, RunSpec]],
    timeout: Optional[float],
    cache_root: Optional[str],
) -> List[Tuple[str, object]]:
    """Pool-task entry point: :func:`run_group` collected into a list."""
    return list(run_group(items, timeout, cache_root))


def recover_group(
    group: List[Tuple[str, RunSpec]], cache: Optional[RunCache]
) -> List[Tuple[str, Union[object, str]]]:
    """Classify a group's cells after its pool broke mid-group.

    Cells whose results already landed in the cache come back as
    successful outcomes.  The first cell with no cached result is the
    ``worker_died`` suspect: it was executing when the pool broke,
    unless the group never started.  Every later cell never started
    and returns the string ``"requeue"`` (re-run without charging
    retry budget).

    Without a cache there is no flush trail, so any cell may have been
    the one executing: every cell is a suspect.

    A suspect is not a conviction.  In a shared pool one dead worker
    breaks every in-flight group, so the caller re-runs suspects alone
    and charges only a death there.
    """
    from repro.runner.sweep import _Outcome, _WORKER_DIED

    out: List[Tuple[str, Union[object, str]]] = []
    suspect_found = False
    for key, _spec in group:
        result = cache.load(key) if cache is not None else None
        if result is not None:
            out.append(
                (key, _Outcome(ok=True, result=result, stored=True))
            )
        elif cache is None or not suspect_found:
            suspect_found = True
            out.append((key, _WORKER_DIED))
        else:
            out.append((key, "requeue"))
    return out
