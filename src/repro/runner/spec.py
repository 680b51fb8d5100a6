"""Declarative descriptions of a single simulation run.

A :class:`RunSpec` captures everything that determines one simulation's
outcome: the system kind and its config, the graph, the workload and its
kwargs, the source, the placement, and the quantum quota.  Specs are
plain data so they can be pickled to worker processes and digested into
cache keys.

Graphs can be given two ways:

- an in-memory :class:`~repro.graph.csr.CSRGraph` (the parent builds it
  once and workers receive a pickled copy), or
- a :class:`GraphSpec` recipe -- cheaper to ship than the arrays.
  Recipes resolve through the content-addressed
  :class:`~repro.graph.store.GraphStore`: the first process to need a
  graph builds it once and publishes mmap-able CSR arrays; every other
  process (sweep workers, service jobs, later CLI invocations) maps the
  published artifact read-only with zero copies.  A small per-process
  LRU memo sits in front of the store so repeated resolves inside one
  process stay free without leaking one full graph per distinct spec.

Either way the cache key is computed from the *built* graph's arrays,
so a recipe and the graph it builds hit the same cache entry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.partition import VertexPlacement
from repro.obs.config import ObsConfig

if TYPE_CHECKING:
    from repro.graph.store import GraphStore

#: ``GraphSpec.weight_seed``'s default, carried by unweighted base recipes.
_DEFAULT_WEIGHT_SEED = 7


@dataclass(frozen=True)
class GraphSpec:
    """A reproducible recipe for a graph.

    ``spec`` is a graph specifier (``rmat:14:16``,
    ``urand:100000:3000000``, ``suite:twitter``, or a file path -- see
    :mod:`repro.graph.specifier`).  ``scale`` applies to ``suite:``
    graphs only (the Table III stand-ins are scale-parameterized).
    """

    spec: str
    seed: int = 42
    scale: Optional[float] = None
    weighted: bool = False
    symmetrized: bool = False
    weight_seed: int = _DEFAULT_WEIGHT_SEED

    def build(self, store: Optional["GraphStore"] = None) -> CSRGraph:
        """Materialize the graph: memo, then artifact store, then build.

        With the store enabled (the default), the returned graph's
        arrays are read-only ``np.memmap`` views of the published
        artifact -- the kernel page cache shares the bytes across every
        process mapping the same recipe.  ``store`` picks the artifact
        store (default: :func:`~repro.graph.store.default_store_dir`);
        ``REPRO_GRAPH_STORE=0`` opts out of the default one and builds
        in process memory.  A store rooted anywhere else bypasses the
        memo, which is keyed by recipe alone: every recipe resolved
        through it, derived bases included, lands in that store.
        """
        from repro.graph import store as graph_store

        use_memo = (
            store is None or store.root == graph_store.default_store_dir()
        )
        if use_memo:
            cached = _GRAPH_MEMO.get(self)
            if cached is not None:
                return cached
        if store is None and graph_store.store_enabled():
            store = graph_store.GraphStore()
        if store is not None:
            graph = store.get_or_build(
                self, lambda: self.build_uncached(store)
            )
        else:
            graph = self.build_uncached()
        if use_memo:
            _GRAPH_MEMO.put(self, graph)
        return graph

    def build_uncached(
        self, store: Optional["GraphStore"] = None
    ) -> CSRGraph:
        """Build this recipe's graph, bypassing the memo and store for it.

        A weighted or symmetrized variant derives from its base recipe
        through :meth:`build` (memo, then ``store``), so one generator
        run serves every variant of a graph: weights are attached last,
        to the symmetrized graph when both flags are set, and only when
        the base has none of its own (a weighted file keeps its
        weights).  The base of a variant carries the default
        ``weight_seed``, which an unweighted graph does not depend on.
        """
        if self.weighted:
            from repro.graph.generators import with_uniform_weights

            graph = replace(
                self, weighted=False, weight_seed=_DEFAULT_WEIGHT_SEED
            ).build(store)
            if graph.has_weights:
                return graph
            return with_uniform_weights(graph, seed=self.weight_seed)
        if self.symmetrized:
            return replace(
                self, symmetrized=False, weight_seed=_DEFAULT_WEIGHT_SEED
            ).build(store).symmetrized()
        if self.spec.startswith("suite:"):
            from repro.graph import suites

            name = self.spec.partition(":")[2]
            if self.scale is not None:
                return suites.build_graph(
                    name, scale=self.scale, seed=self.seed
                )
            return suites.build_graph(name, seed=self.seed)
        if self.scale is not None:
            raise ConfigError("GraphSpec.scale only applies to suite: graphs")
        from repro.graph.specifier import graph_from_specifier

        return graph_from_specifier(self.spec, seed=self.seed)


class _GraphMemo:
    """A small per-process LRU of built graphs.

    The memo used to be an unbounded dict, which leaked one full graph
    per distinct spec in long-lived service processes.  Store-backed
    graphs make eviction cheap (the next resolve re-maps the artifact
    without rebuilding), so the default capacity is deliberately small;
    ``REPRO_GRAPH_MEMO_SIZE`` tunes it, and ``0`` disables memoization
    entirely.
    """

    DEFAULT_CAPACITY = 8

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._capacity = capacity
        self._entries: "OrderedDict[GraphSpec, CSRGraph]" = OrderedDict()

    @property
    def capacity(self) -> int:
        if self._capacity is not None:
            return self._capacity
        from repro.runner.fault import env_int

        env = env_int("REPRO_GRAPH_MEMO_SIZE", minimum=0)
        return env if env is not None else self.DEFAULT_CAPACITY

    def get(self, spec: "GraphSpec") -> Optional[CSRGraph]:
        graph = self._entries.get(spec)
        if graph is not None:
            self._entries.move_to_end(spec)
        return graph

    def put(self, spec: "GraphSpec", graph: CSRGraph) -> None:
        capacity = self.capacity
        if capacity <= 0:
            return
        self._entries[spec] = graph
        self._entries.move_to_end(spec)
        while len(self._entries) > capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: Per-process LRU memo of built graphs (GraphSpec is frozen/hashable).
_GRAPH_MEMO = _GraphMemo()

#: Workloads that take no source vertex.
SOURCELESS_WORKLOADS = ("cc", "pr")


def resolve_source(
    graph: CSRGraph, workload: str, source: Optional[int] = None
) -> Optional[int]:
    """The conventional default source: the highest-out-degree vertex.

    Every front end (``repro run``, ``repro submit``, the service
    scheduler) resolves an omitted source the same way so that the
    resulting specs share one cache key.  Sourceless workloads always
    map to ``None``.
    """
    if workload in SOURCELESS_WORKLOADS:
        return None
    if source is not None:
        return int(source)
    import numpy as np

    return int(np.argmax(graph.out_degrees()))


@dataclass
class RunSpec:
    """One independent simulation: system + config + graph + workload.

    ``config`` is the system's own config object (``NovaConfig``,
    ``PolyGraphConfig``, or ``LigraConfig``); ``None`` means the
    system's default.  ``placement`` (NOVA only) is a strategy name or
    a prebuilt :class:`VertexPlacement`.
    """

    workload: str
    graph: Union[GraphSpec, CSRGraph]
    config: Any = None
    system: str = "nova"
    source: Optional[int] = None
    placement: Union[str, VertexPlacement] = "random"
    placement_seed: int = 1
    max_quanta: int = 5_000_000
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Observability instrumentation for the run (NOVA only).  Part of
    #: the cache key: an instrumented run carries its timeline in the
    #: cached RunResult, so it must never alias an uninstrumented entry.
    obs: Optional[ObsConfig] = None
    #: Pre-computed graph version digest.  When set, the cache key uses
    #: it verbatim instead of digesting built arrays -- streaming
    #: session jobs key on the session's rolling version digest (base
    #: digest chained with every applied delta batch), so the graph is
    #: never materialized just to admit a job and two versions of one
    #: resident graph can never alias.
    graph_digest: Optional[str] = None

    def resolve_graph(self) -> CSRGraph:
        if isinstance(self.graph, GraphSpec):
            return self.graph.build()
        return self.graph

    def describe(self) -> str:
        """One-line human summary (failure records, CLI diagnostics)."""
        if isinstance(self.graph, GraphSpec):
            graph = self.graph.spec
        else:
            graph = (
                f"csr:v={self.graph.num_vertices}:e={self.graph.num_edges}"
            )
        source = "-" if self.source is None else str(self.source)
        placement = (
            self.placement
            if isinstance(self.placement, str)
            else f"prebuilt:{self.placement.strategy}"
        )
        return (
            f"{self.system}/{self.workload} graph={graph} source={source} "
            f"placement={placement}"
        )
