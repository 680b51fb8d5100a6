"""Per-quantum metrics recorders for the NOVA engines.

The one NOVA engine driver (:class:`~repro.core.engine.NovaDriver`,
shared by the vectorized and scalar kernel sets) calls this hook once
per quantum (guarded by a single precomputed flag, so the default
:class:`NullRecorder` costs one branch):

- :class:`TimelineRecorder` keeps a ring buffer of per-quantum rows --
  messages drained / coalesced / spilled, tracker prefetch hits and
  misses, queue occupancies, and per-resource bandwidth / functional-unit
  utilizations -- plus running totals that survive ring wraparound.  Its
  :meth:`~TimelineRecorder.timeline_dict` export is pure-JSON data: the
  schema behind golden-trace fixtures, the run cache, and the
  ``repro profile`` report.
- :class:`PhaseProfiler` measures wall-clock time per engine phase
  (``mpu`` / ``vmu`` / ``mgu`` / ``close``) via ``perf_counter_ns``,
  sampling one quantum in every ``every``.  Wall-time is
  machine-dependent, so phase profiles are deliberately kept out of the
  timeline export (which must be bit-identical across engines).

The timeline is engine-independent by construction: every field of a
:class:`QuantumObservation` is derived from simulated state the two
engines are already pinned to agree on (``tests/core/test_engine_parity``
and ``tests/core/test_engine_differential``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

#: Bottleneck resource names in code order (index = stored code).
BOTTLENECK_NAMES = ("hbm", "ddr", "reduce_fu", "propagate_fu", "fabric", "latency")

#: Quantum classification: what bounded the quantum's duration.
BOUND_CLASSES = ("bandwidth", "compute", "queue")

_BOUND_OF = {
    "hbm": "bandwidth",
    "ddr": "bandwidth",
    "fabric": "bandwidth",
    "reduce_fu": "compute",
    "propagate_fu": "compute",
    # A latency-floored quantum saturated nothing: the machine was
    # waiting on in-flight messages / queue turnaround, not a resource.
    "latency": "queue",
}

#: TimelineRecorder export format version.
TIMELINE_SCHEMA = 1


def classify_bottleneck(name: str) -> str:
    """Map a bottleneck resource to bandwidth- / compute- / queue-bound."""
    return _BOUND_OF[name]


@dataclass
class QuantumObservation:
    """Everything one engine reports about one closed quantum.

    Counter fields are *cumulative* (lifetime values at quantum close);
    the recorder differentiates them, so engines never track deltas.
    Utilization arrays are per-channel / per-GPN fractions of the
    quantum's duration.
    """

    index: int
    duration_seconds: float
    bottleneck: str
    hbm_util: np.ndarray
    ddr_util: np.ndarray
    reduce_fu_util: np.ndarray
    propagate_fu_util: np.ndarray
    fabric_util: float
    messages_drained: int
    coalesced: int
    spilled: int
    prefetch_hits: int
    prefetch_misses: int
    inbox_backlog: int
    buffer_occupancy: int
    tracked_blocks: int


class MetricsRecorder:
    """The engine-facing protocol.  Base class behaves as a null sink."""

    #: Engines read this once at construction; ``False`` short-circuits
    #: every hook into a single branch per quantum.
    enabled: bool = False

    @property
    def phase_profiler(self) -> Optional["PhaseProfiler"]:
        """The attached phase profiler, if any (None disables sampling)."""
        return None

    def on_quantum(self, obs: QuantumObservation) -> None:
        """Called once per closed quantum (before resources reset)."""

    def timeline_dict(self) -> Optional[Dict[str, object]]:
        """JSON-ready timeline export, or ``None`` if not recording one."""
        return None

    def publish(self, stats) -> None:
        """Mirror recorded aggregates into a :class:`StatGroup`."""


class NullRecorder(MetricsRecorder):
    """The zero-cost default: every hook is a no-op."""


#: Shared singleton used by engines when no recorder is supplied.
NULL_RECORDER = NullRecorder()


class PhaseProfiler(MetricsRecorder):
    """Wall-time per engine phase, sampled one quantum in ``every``.

    Sampling keeps the perf_counter overhead off most quanta; the
    per-phase means extrapolate (phases are homogeneous within a run
    compared to cross-run variance).
    """

    enabled = True

    def __init__(self, every: int = 16) -> None:
        if every <= 0:
            raise ValueError("phase sample interval must be positive")
        self.every = every
        self.total_ns: Dict[str, int] = {}
        self.samples: Dict[str, int] = {}
        self.quanta_sampled = 0

    @property
    def phase_profiler(self) -> "PhaseProfiler":
        return self

    def should_sample(self, quantum_index: int) -> bool:
        return quantum_index % self.every == 0

    def add(self, phase: str, elapsed_ns: int) -> None:
        self.total_ns[phase] = self.total_ns.get(phase, 0) + int(elapsed_ns)
        self.samples[phase] = self.samples.get(phase, 0) + 1
        if phase == "close":  # the last phase of every sampled quantum
            self.quanta_sampled += 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "every": self.every,
            "quanta_sampled": self.quanta_sampled,
            "phases": {
                name: {
                    "total_ns": self.total_ns[name],
                    "samples": self.samples[name],
                    "mean_ns": self.total_ns[name] / max(1, self.samples[name]),
                }
                for name in sorted(self.total_ns)
            },
        }

    def render(self) -> str:
        if not self.total_ns:
            return "phase profile: no samples"
        grand = sum(self.total_ns.values())
        lines = [
            f"phase profile ({self.quanta_sampled} quanta sampled, "
            f"1 in {self.every}):"
        ]
        for name in sorted(self.total_ns, key=lambda n: -self.total_ns[n]):
            total = self.total_ns[name]
            mean = total / max(1, self.samples[name])
            share = total / grand if grand else 0.0
            lines.append(
                f"  {name:>5}: {share:6.1%}  mean {mean / 1e3:8.1f} us  "
                f"({self.samples[name]} samples)"
            )
        return "\n".join(lines)

    def publish(self, stats) -> None:
        stats.merge(
            {
                "phase_samples": self.quanta_sampled,
                "phase_ns": dict(self.total_ns),
            }
        )


def timed_call(profiler: PhaseProfiler, phase: str, fn, *args):
    """Run ``fn(*args)`` and charge its wall-time to ``phase``."""
    start = time.perf_counter_ns()
    out = fn(*args)
    profiler.add(phase, time.perf_counter_ns() - start)
    return out


_INT_COLUMNS = (
    "index",
    "messages_drained",
    "coalesced",
    "spilled",
    "prefetch_hits",
    "prefetch_misses",
    "inbox_backlog",
    "buffer_occupancy",
    "tracked_blocks",
)

_FLOAT_COLUMNS = (
    "duration_seconds",
    "hbm_util",
    "hbm_util_mean",
    "ddr_util",
    "ddr_util_mean",
    "reduce_fu_util",
    "reduce_fu_util_mean",
    "propagate_fu_util",
    "propagate_fu_util_mean",
    "fabric_util",
)

#: Cumulative observation fields the recorder differentiates per quantum.
_DELTA_FIELDS = (
    "messages_drained",
    "coalesced",
    "spilled",
    "prefetch_hits",
    "prefetch_misses",
)


class TimelineRecorder(MetricsRecorder):
    """Ring-buffered per-quantum counters plus whole-run totals.

    The ring holds the last ``capacity`` quanta (wraparound is recorded
    in ``dropped``); the totals -- time and quantum counts per bound
    class and per bottleneck resource, final counter values -- cover the
    whole run regardless.
    """

    enabled = True

    def __init__(
        self, capacity: int = 4096, profiler: Optional[PhaseProfiler] = None
    ) -> None:
        if capacity <= 0:
            raise ValueError("timeline capacity must be positive")
        self.capacity = capacity
        self._profiler = profiler
        self._cols: Dict[str, np.ndarray] = {
            name: np.zeros(capacity, dtype=np.int64) for name in _INT_COLUMNS
        }
        self._cols.update(
            {name: np.zeros(capacity, dtype=np.float64) for name in _FLOAT_COLUMNS}
        )
        self._bottleneck = np.zeros(capacity, dtype=np.int8)
        self.quanta_seen = 0
        self.elapsed_seconds = 0.0
        self.class_seconds = {name: 0.0 for name in BOUND_CLASSES}
        self.class_quanta = {name: 0 for name in BOUND_CLASSES}
        self.resource_seconds = {name: 0.0 for name in BOTTLENECK_NAMES}
        self.resource_quanta = {name: 0 for name in BOTTLENECK_NAMES}
        self._prev = {name: 0 for name in _DELTA_FIELDS}
        self._final = {name: 0 for name in _DELTA_FIELDS}

    @property
    def phase_profiler(self) -> Optional[PhaseProfiler]:
        return self._profiler

    def __len__(self) -> int:
        return min(self.quanta_seen, self.capacity)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def on_quantum(self, obs: QuantumObservation) -> None:
        slot = self.quanta_seen % self.capacity
        cols = self._cols
        cols["index"][slot] = obs.index
        cols["duration_seconds"][slot] = obs.duration_seconds
        cols["hbm_util"][slot] = float(obs.hbm_util.max())
        cols["hbm_util_mean"][slot] = float(obs.hbm_util.mean())
        cols["ddr_util"][slot] = float(obs.ddr_util.max())
        cols["ddr_util_mean"][slot] = float(obs.ddr_util.mean())
        cols["reduce_fu_util"][slot] = float(obs.reduce_fu_util.max())
        cols["reduce_fu_util_mean"][slot] = float(obs.reduce_fu_util.mean())
        cols["propagate_fu_util"][slot] = float(obs.propagate_fu_util.max())
        cols["propagate_fu_util_mean"][slot] = float(obs.propagate_fu_util.mean())
        cols["fabric_util"][slot] = obs.fabric_util
        for name in _DELTA_FIELDS:
            value = int(getattr(obs, name))
            cols[name][slot] = value - self._prev[name]
            self._prev[name] = value
            self._final[name] = value
        cols["inbox_backlog"][slot] = obs.inbox_backlog
        cols["buffer_occupancy"][slot] = obs.buffer_occupancy
        cols["tracked_blocks"][slot] = obs.tracked_blocks
        self._bottleneck[slot] = BOTTLENECK_NAMES.index(obs.bottleneck)

        bound = classify_bottleneck(obs.bottleneck)
        self.quanta_seen += 1
        self.elapsed_seconds += obs.duration_seconds
        self.class_seconds[bound] += obs.duration_seconds
        self.class_quanta[bound] += 1
        self.resource_seconds[obs.bottleneck] += obs.duration_seconds
        self.resource_quanta[obs.bottleneck] += 1

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def _window(self) -> np.ndarray:
        """Stored slot indices in chronological order."""
        stored = len(self)
        if self.quanta_seen <= self.capacity:
            return np.arange(stored)
        head = self.quanta_seen % self.capacity
        return np.concatenate(
            [np.arange(head, self.capacity), np.arange(head)]
        )

    def timeline_dict(self) -> Dict[str, object]:
        """The timeline JSON schema (see DESIGN.md, "Observability")."""
        order = self._window()
        codes = self._bottleneck[order]
        columns: Dict[str, List[object]] = {
            name: self._cols[name][order].tolist()
            for name in _INT_COLUMNS + _FLOAT_COLUMNS
        }
        columns["bottleneck"] = [BOTTLENECK_NAMES[c] for c in codes]
        columns["bound"] = [
            classify_bottleneck(BOTTLENECK_NAMES[c]) for c in codes
        ]
        return {
            "schema": TIMELINE_SCHEMA,
            "capacity": self.capacity,
            "quanta": self.quanta_seen,
            "stored": len(self),
            "dropped": max(0, self.quanta_seen - self.capacity),
            "totals": {
                "elapsed_seconds": self.elapsed_seconds,
                "class_seconds": dict(self.class_seconds),
                "class_quanta": dict(self.class_quanta),
                "resource_seconds": dict(self.resource_seconds),
                "resource_quanta": dict(self.resource_quanta),
                "counters": dict(self._final),
            },
            "columns": columns,
        }

    def publish(self, stats) -> None:
        stats.merge(
            {
                "quanta": self.quanta_seen,
                "elapsed_seconds": self.elapsed_seconds,
                "bound_seconds": dict(self.class_seconds),
                "bound_quanta": dict(self.class_quanta),
                "resource_seconds": dict(self.resource_seconds),
                "counters": dict(self._final),
            }
        )
        if self._profiler is not None:
            self._profiler.publish(stats.child("phases"))
