"""Pure helpers of the repository benchmark.

Nothing here imports ``repro``: the statistics, the span tracer, the
failure tally, the seed-derived input generators and the result stamp
are plain Python, so ``test_perfbench.py`` covers them without the
simulator and ``run.py`` can use them before ``import repro`` starts
the set-up clock.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

#: Percentiles tried, highest first, when picking the reported tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # Rounded first so 99.9% of 1000 is rank 999, not 1000.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the ``ceil(p/100 * n)``-th smallest."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the nearest-rank ``p`` percentile."""
    return n - _rank(n, p)


def tail_percentile(
    samples: Sequence[float], ladder: Sequence[float] = TAIL_LADDER
) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``MIN_BEYOND`` samples beyond.

    Returns ``(p, value, n)`` -- the percentile, its value and the
    sample count it was taken from -- or ``None`` when even the lowest
    rung of ``ladder`` has too few samples beyond it.
    """
    n = len(samples)
    for p in sorted(ladder, reverse=True):
        if n and beyond(n, p) >= MIN_BEYOND:
            return p, percentile(samples, p), n
    return None


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sid": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
        }


class Tracer:
    """In-memory spans around calls into the program's public functions.

    ``patch`` wraps a function or method so each call records a span
    whose parent is the innermost open span of the calling thread.
    ``active`` switches recording off without unpatching, so one process
    can time the same pass with and without tracing.  Spans stay in
    memory until :meth:`dump`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident())
                )

    def wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` (a class attribute or module function)
        for the rest of the process.

        A module-level function is also rebound in every loaded module
        of the same package that imported it by name, so calls through
        ``from x import f`` are timed too.
        """
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name))
            else:
                wrapped = self.wrap(raw, name)
            setattr(owner, attr, wrapped)
            return
        raw = getattr(owner, attr)
        wrapped = self.wrap(raw, name)
        package = owner.__name__.split(".")[0]
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != package:
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def load_spans(path: str, offset: int = 0) -> List[Span]:
    """Spans written by :meth:`Tracer.dump`, ids shifted by ``offset``.

    Another process numbers its spans from zero too; a shift past this
    process's ids keeps parent links apart when the two sets merge.
    """
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                span = Span(**json.loads(line))
                span.sid += offset
                if span.parent is not None:
                    span.parent += offset
                spans.append(span)
    return spans


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.sid, [])
            if c.end > span.start and c.start < span.end
        ]
        out[span.sid] = span.duration - _union_length(covered)
    return out


@dataclass
class LayerTime:
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0


def layer_times(spans: Sequence[Span]) -> Dict[str, LayerTime]:
    """Per span name: call count, total duration and total self time."""
    own = self_times(spans)
    out: Dict[str, LayerTime] = {}
    for span in spans:
        layer = out.setdefault(span.name, LayerTime())
        layer.count += 1
        layer.total += span.duration
        layer.self_time += own[span.sid]
    return out


def uncovered_share(spans: Sequence[Span], root: str) -> float:
    """Share of the ``root`` spans' time that no other span covers.

    Any span counts, whatever its thread or process: client threads and
    a traced child process record spans that are not children of the
    root, yet they account for its time.
    """
    roots = [span for span in spans if span.name == root]
    others = [(s.start, s.end) for s in spans if s.name != root]
    total = sum(span.duration for span in roots)
    uncovered = sum(
        span.duration - _union_length([
            (max(start, span.start), min(end, span.end))
            for start, end in others
            if end > span.start and start < span.end
        ])
        for span in roots
    )
    return uncovered / total if total else 0.0


# ----------------------------------------------------------------------
# Failures
# ----------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and the ones that failed, with reasons.

    An operation fails when it raised, was refused (HTTP 429), timed
    out, or produced an answer a correctness check rejected.  A check
    that rejects an operation already counted as failed does not count
    it twice.
    """

    attempted: int = 0
    failed_ids: Dict[str, str] = field(default_factory=dict)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, op_id: str, reason: str) -> None:
        self.failed_ids.setdefault(op_id, reason)

    def check(self, op_id: str, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(op_id, reason)

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.failed_ids


# ----------------------------------------------------------------------
# Seed-derived inputs
# ----------------------------------------------------------------------


def derive_seed(seed: int, label: str) -> int:
    """A stable 31-bit seed for one named input of one workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def pick_sources(
    seed: int, out_degrees: Sequence[int], count: int, pool: int
) -> List[int]:
    """``count`` distinct sources among the ``pool`` highest out-degrees.

    Ties break by vertex id; vertices without out-edges never qualify.
    """
    ranked = sorted(
        range(len(out_degrees)), key=lambda v: (-out_degrees[v], v)
    )
    candidates = [v for v in ranked[:pool] if out_degrees[v] > 0]
    if len(candidates) < count:
        raise ValueError("graph has too few vertices with out-edges")
    rng = random.Random(derive_seed(seed, "sources"))
    return sorted(rng.sample(candidates, count))


@dataclass(frozen=True)
class ServeOp:
    """One closed-loop request: a hit on warm entry ``warm`` or a miss."""

    kind: str  # "hit" or "miss"
    warm: int = -1
    graph_seed: int = 0
    workload: str = ""


def serve_ops(
    seed: int, client: int, count: int, warm_size: int, taken: Iterable[int]
) -> List[ServeOp]:
    """Client ``client``'s request sequence: 3 hits then 1 miss, shuffled.

    Misses use graph seeds never used before in this run (``taken`` holds
    the warm set's seeds; the client index keeps clients disjoint), so
    each one builds, simulates and stores.
    """
    rng = random.Random(derive_seed(seed, f"serve-client-{client}"))
    used = set(taken)
    ops: List[ServeOp] = []
    while len(ops) < count:
        block = ["hit", "hit", "hit", "miss"]
        rng.shuffle(block)
        for kind in block:
            if kind == "hit":
                ops.append(ServeOp("hit", warm=rng.randrange(warm_size)))
                continue
            graph_seed = rng.randrange(1, 2**30) * 2 + client % 2
            while graph_seed in used:
                graph_seed = rng.randrange(1, 2**30) * 2 + client % 2
            used.add(graph_seed)
            ops.append(
                ServeOp("miss", graph_seed=graph_seed,
                        workload=rng.choice(("bfs", "pr")))
            )
    return ops[:count]


# ----------------------------------------------------------------------
# Stamps and digests
# ----------------------------------------------------------------------


def git_sha(root: str) -> str:
    """HEAD of ``root`` if it is a git checkout, else ``"unknown"``."""
    env = dict(os.environ)
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.path.abspath(root))
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(root: str, seed: int) -> Dict[str, Any]:
    """Where a number came from: commit, machine size, versions, seed."""
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "seed": seed,
    }


def sim_digest(cases: Sequence[Dict[str, Any]]) -> str:
    """One sha256 over every case's exact simulated statistics."""
    blob = json.dumps(list(cases), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()
