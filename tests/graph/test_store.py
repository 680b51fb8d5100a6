"""GraphStore unit tests: digests, round trips, corruption, eviction,
and bit-identical memmap-vs-in-memory simulation parity."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat, with_uniform_weights
from repro.graph.store import (
    MANIFEST_NAME,
    GraphStore,
    spec_digest,
    store_enabled,
)
from repro.obs.counters import FAULT_COUNTERS
from repro.runner.spec import GraphSpec, _GRAPH_MEMO
from repro.sim.config import scaled_config


@pytest.fixture(autouse=True)
def clear_memo():
    _GRAPH_MEMO.clear()
    yield
    _GRAPH_MEMO.clear()


@pytest.fixture
def store(tmp_path) -> GraphStore:
    return GraphStore(str(tmp_path / "graphs"))


SPEC = GraphSpec("rmat:10:8", seed=5)


def counters_delta(fn):
    """Run ``fn`` and return the graph_store.* counter increments."""
    base = FAULT_COUNTERS.snapshot()
    result = fn()
    delta = {
        name: count
        for name, count in FAULT_COUNTERS.delta_since(base).items()
        if name.startswith("graph_store.")
    }
    return result, delta


def is_memmap_backed(array: np.ndarray) -> bool:
    return isinstance(array, np.memmap) or isinstance(array.base, np.memmap)


class TestDigest:
    def test_stable(self):
        assert spec_digest(SPEC) == spec_digest(GraphSpec("rmat:10:8", seed=5))

    def test_every_field_matters(self):
        variants = [
            GraphSpec("rmat:11:8", seed=5),
            GraphSpec("rmat:10:8", seed=6),
            GraphSpec("rmat:10:8", seed=5, weighted=True),
            GraphSpec("rmat:10:8", seed=5, symmetrized=True),
            GraphSpec("rmat:10:8", seed=5, weighted=True, weight_seed=9),
            GraphSpec("suite:road", seed=5, scale=1.0 / 1024.0),
            GraphSpec("suite:road", seed=5, scale=1.0 / 512.0),
        ]
        digests = {spec_digest(v) for v in variants}
        digests.add(spec_digest(SPEC))
        assert len(digests) == len(variants) + 1

    def test_file_spec_digest_tracks_content(self, tmp_path):
        from repro.graph import io as graph_io

        path = tmp_path / "g.npz"
        graph_io.save_npz(rmat(8, 4, seed=1), str(path))
        first = spec_digest(GraphSpec(str(path)))
        graph_io.save_npz(rmat(8, 4, seed=2), str(path))
        os.utime(path, ns=(1, 1))  # force an mtime change even on coarse clocks
        assert spec_digest(GraphSpec(str(path))) != first


class TestRoundTrip:
    def test_cold_build_then_warm_map(self, store):
        built, cold = counters_delta(
            lambda: store.get_or_build(SPEC, SPEC.build_uncached)
        )
        assert cold["graph_store.builds"] == 1
        assert cold["graph_store.misses"] == 1
        assert "graph_store.hits" not in cold

        mapped, warm = counters_delta(
            lambda: store.get_or_build(SPEC, SPEC.build_uncached)
        )
        assert warm == {"graph_store.hits": 1}
        assert is_memmap_backed(mapped.row_ptr)
        assert is_memmap_backed(mapped.col_idx)
        assert not mapped.row_ptr.flags.writeable
        assert np.array_equal(built.row_ptr, mapped.row_ptr)
        assert np.array_equal(built.col_idx, mapped.col_idx)

    def test_weighted_round_trip(self, store):
        spec = GraphSpec("rmat:9:4", seed=3, weighted=True)
        built = store.get_or_build(spec, spec.build_uncached)
        mapped = store.load(spec_digest(spec))
        assert mapped.has_weights
        assert np.array_equal(built.weights, mapped.weights)
        assert mapped.weights.dtype == np.float64

    def test_manifest_provenance(self, store):
        store.get_or_build(SPEC, SPEC.build_uncached)
        ((digest, size, _, manifest),) = list(store.entries())
        assert digest == spec_digest(SPEC)
        assert size > 0
        assert manifest["num_vertices"] == 1024
        prov = manifest["provenance"]
        assert prov["spec"]["spec"] == "rmat:10:8"
        assert prov["build_seconds"] > 0

    def test_lost_publish_race_is_silent(self, store):
        graph = SPEC.build_uncached()
        digest = spec_digest(SPEC)
        store.put(digest, graph, spec=SPEC)
        # Publishing the same digest again (a lost race) must not raise
        # and must leave the existing artifact intact.
        store.put(digest, graph, spec=SPEC)
        assert store.load(digest) is not None

    def test_no_staging_leftovers(self, store):
        store.get_or_build(SPEC, SPEC.build_uncached)
        leftovers = [
            name
            for name in os.listdir(store.root)
            if name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_empty_graph_round_trip(self, store):
        empty = CSRGraph(np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64))
        digest = "00" + "ab" * 31
        store.put(digest, empty)
        mapped = store.load(digest)
        assert mapped.num_vertices == 4 and mapped.num_edges == 0


class TestCorruption:
    def _publish(self, store) -> str:
        store.get_or_build(SPEC, SPEC.build_uncached)
        return spec_digest(SPEC)

    def test_garbage_manifest_evicts(self, store):
        digest = self._publish(store)
        path = store._manifest_path(digest)
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        _, delta = counters_delta(lambda: store.load(digest))
        assert delta["graph_store.corrupt"] == 1
        assert not os.path.exists(store._dir(digest))

    def test_wrong_magic_evicts(self, store):
        digest = self._publish(store)
        path = store._manifest_path(digest)
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
        manifest["magic"] = "someone-else"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(manifest, f)
        assert store.load(digest) is None
        assert not os.path.exists(store._dir(digest))

    def test_truncated_array_evicts(self, store):
        digest = self._publish(store)
        array_path = os.path.join(store._dir(digest), "col_idx.npy")
        size = os.path.getsize(array_path)
        with open(array_path, "r+b") as f:
            f.truncate(size // 2)
        _, delta = counters_delta(lambda: store.load(digest))
        assert delta["graph_store.corrupt"] == 1
        assert not os.path.exists(store._dir(digest))

    def test_missing_array_evicts(self, store):
        digest = self._publish(store)
        os.unlink(os.path.join(store._dir(digest), "row_ptr.npy"))
        assert store.load(digest) is None

    def test_corrupt_artifact_rebuilds(self, store):
        digest = self._publish(store)
        with open(store._manifest_path(digest), "w", encoding="utf-8") as f:
            f.write("")
        graph, delta = counters_delta(
            lambda: store.get_or_build(SPEC, SPEC.build_uncached)
        )
        assert delta["graph_store.builds"] == 1
        assert graph.num_vertices == 1024
        assert store.load(digest) is not None


class TestEviction:
    def test_prune_lru_order(self, store, tmp_path):
        specs = [GraphSpec("rmat:8:4", seed=s) for s in (1, 2, 3)]
        for spec in specs:
            store.get_or_build(spec, spec.build_uncached)
        # Touch the oldest so it becomes the most recently used.
        first = spec_digest(specs[0])
        os.utime(store._manifest_path(first))
        sizes = {d: s for d, s, _, _ in store.entries()}
        removed = store.prune(sizes[first] + 1)
        assert removed == 2
        assert [d for d, _, _, _ in store.entries()] == [first]

    def test_prune_protect(self, store):
        spec_a = GraphSpec("rmat:8:4", seed=1)
        store.get_or_build(spec_a, spec_a.build_uncached)
        protected = spec_digest(spec_a)
        removed = store.prune(0, protect=protected)
        assert removed == 0
        assert store.load(protected) is not None

    def test_registry_protection_blocks_prune(self, store):
        """Digests pinned by live sessions survive LRU pruning even
        when the prune call itself names no protected digest."""
        from repro.graph.store import protect_digest, unprotect_digest

        spec_a = GraphSpec("rmat:8:4", seed=1)
        store.get_or_build(spec_a, spec_a.build_uncached)
        pinned = spec_digest(spec_a)
        protect_digest(pinned)
        try:
            removed = store.prune(0)
            assert removed == 0
            assert store.load(pinned) is not None
        finally:
            unprotect_digest(pinned)
        assert store.prune(0) == 1
        assert store.load(pinned) is None

    def test_registry_protection_is_refcounted(self, store):
        from repro.graph.store import (
            protect_digest,
            protected_digests,
            unprotect_digest,
        )

        protect_digest("d1")
        protect_digest("d1")
        unprotect_digest("d1")
        assert "d1" in protected_digests()
        unprotect_digest("d1")
        assert "d1" not in protected_digests()
        unprotect_digest("d1")  # over-release is harmless
        assert "d1" not in protected_digests()

    def test_session_pins_base_artifact(self, store, tmp_path):
        """A live streaming session's base digest is protected; closing
        the session releases it."""
        from repro.graph.store import protected_digests
        from repro.stream.session import SessionManager, SessionStore

        manager = SessionManager(
            SessionStore(str(tmp_path / "svc")), graph_store=store
        )
        session = manager.create("rmat:8:4", seed=1)
        assert session.base_digest in protected_digests()
        manager.close(session.id)
        assert session.base_digest not in protected_digests()

    def test_env_budget_applies_after_build(self, store, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_STORE_MAX_BYTES", "1")
        spec_a = GraphSpec("rmat:8:4", seed=1)
        spec_b = GraphSpec("rmat:8:4", seed=2)
        store.get_or_build(spec_a, spec_a.build_uncached)
        graph = store.get_or_build(spec_b, spec_b.build_uncached)
        # The freshly published artifact is protected; the older one goes.
        assert graph.num_vertices == 256
        digests = [d for d, _, _, _ in store.entries()]
        assert digests == [spec_digest(spec_b)]


class TestEnvGates:
    def test_store_enabled_parsing(self, monkeypatch):
        for off in ("0", "false", "no", "off", "OFF"):
            monkeypatch.setenv("REPRO_GRAPH_STORE", off)
            assert not store_enabled()
        for on in ("1", "true", "yes", ""):
            monkeypatch.setenv("REPRO_GRAPH_STORE", on)
            assert store_enabled()
        monkeypatch.delenv("REPRO_GRAPH_STORE")
        assert store_enabled()

    def test_disabled_store_builds_in_memory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_STORE", "0")
        monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs"))
        graph = SPEC.build()
        assert not is_memmap_backed(graph.row_ptr)
        assert not (tmp_path / "graphs").exists()

    def test_build_routes_through_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs"))
        graph = SPEC.build()
        assert is_memmap_backed(graph.row_ptr)
        _GRAPH_MEMO.clear()
        again = SPEC.build()
        assert np.array_equal(graph.col_idx, again.col_idx)

    def test_bad_budget_raises(self, store, monkeypatch):
        from repro.errors import ConfigError

        monkeypatch.setenv("REPRO_GRAPH_STORE_MAX_BYTES", "lots")
        with pytest.raises(ConfigError):
            store.get_or_build(SPEC, SPEC.build_uncached)


class TestVariants:
    """Weighted and symmetrized recipes derive from their base recipe."""

    BASE = GraphSpec("suite:twitter", seed=3, scale=1 / 8192)

    @pytest.fixture
    def generator_calls(self, monkeypatch):
        from repro.graph import suites

        calls = []
        original = suites.power_law

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(suites, "power_law", counting)
        return calls

    def test_base_then_weighted_generates_once(
        self, tmp_path, monkeypatch, generator_calls
    ):
        monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs"))
        from dataclasses import replace

        weighted = replace(self.BASE, weighted=True, weight_seed=11)
        base_graph = self.BASE.build()
        weighted_graph = weighted.build()
        assert len(generator_calls) == 1
        assert np.array_equal(weighted_graph.col_idx, base_graph.col_idx)
        expected = with_uniform_weights(base_graph, seed=11)
        assert np.array_equal(weighted_graph.weights, expected.weights)

    def test_variants_map_the_published_base(
        self, tmp_path, monkeypatch, generator_calls
    ):
        """With the memo cold, a variant maps its base instead of
        regenerating it; weights attach after symmetrization."""
        monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs"))
        from dataclasses import replace

        base_graph = self.BASE.build()
        _GRAPH_MEMO.clear()
        both = replace(self.BASE, weighted=True, symmetrized=True)
        graph, delta = counters_delta(both.build)
        assert len(generator_calls) == 1
        # Miss on both, build both variants, map the published base.
        assert delta["graph_store.builds"] == 2
        assert delta["graph_store.hits"] == 1
        expected = with_uniform_weights(base_graph.symmetrized(), seed=7)
        assert np.array_equal(graph.row_ptr, expected.row_ptr)
        assert np.array_equal(graph.col_idx, expected.col_idx)
        assert np.array_equal(graph.weights, expected.weights)

    def test_disabled_store_generates_once(self, monkeypatch, generator_calls):
        from dataclasses import replace

        monkeypatch.setenv("REPRO_GRAPH_STORE", "0")
        self.BASE.build()
        replace(self.BASE, symmetrized=True).build()
        replace(self.BASE, weighted=True).build()
        assert len(generator_calls) == 1

    def test_cli_build_derives_through_store_dir(
        self, tmp_path, monkeypatch, capsys, generator_calls
    ):
        """``repro graph build --store-dir`` publishes the base it
        derives from into that store, not the default one."""
        from repro.cli import main

        default = tmp_path / "default"
        monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(default))
        chosen = GraphStore(str(tmp_path / "chosen"))
        assert main([
            "graph", "build", "--graph", "suite:twitter", "--seed", "3",
            "--scale", str(1 / 8192), "--workloads", "sssp,cc",
            "--store-dir", chosen.root,
        ]) == 0
        assert len(generator_calls) == 1
        digests = {digest for digest, _, _, _ in chosen.entries()}
        assert spec_digest(self.BASE) in digests
        assert len(digests) == 3  # base, weighted, symmetrized
        assert not default.exists()
        capsys.readouterr()

    def test_explicit_store_bypasses_a_warm_memo(
        self, tmp_path, monkeypatch, generator_calls
    ):
        """A base already memoized from the default store still lands
        in a store passed explicitly when a variant derives from it."""
        from dataclasses import replace

        monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "default"))
        self.BASE.build()
        chosen = GraphStore(str(tmp_path / "chosen"))
        symmetrized = replace(self.BASE, symmetrized=True)
        symmetrized.build(chosen)
        digests = {digest for digest, _, _, _ in chosen.entries()}
        assert digests == {spec_digest(self.BASE), spec_digest(symmetrized)}

    @pytest.mark.parametrize("use_store", [True, False])
    def test_weighted_file_keeps_its_weights(
        self, tmp_path, monkeypatch, use_store
    ):
        """``weighted=True`` attaches random weights only to a graph
        that has none: a DIMACS file's own weights survive, also
        through symmetrization."""
        from repro.graph.io import load_dimacs, save_dimacs

        if use_store:
            monkeypatch.setenv(
                "REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs")
            )
        else:
            monkeypatch.setenv("REPRO_GRAPH_STORE", "0")
        path = str(tmp_path / "g.gr")
        save_dimacs(with_uniform_weights(rmat(7, 4, seed=2), seed=9), path)
        on_file = load_dimacs(path)
        for symmetrized in (False, True):
            _GRAPH_MEMO.clear()
            expected = on_file.symmetrized() if symmetrized else on_file
            graph = GraphSpec(
                path, weighted=True, symmetrized=symmetrized
            ).build()
            assert np.array_equal(graph.row_ptr, expected.row_ptr)
            assert np.array_equal(graph.col_idx, expected.col_idx)
            assert np.array_equal(graph.weights, expected.weights)


class TestMemmapGraphBehaviour:
    """A store-mapped CSRGraph must behave exactly like the built one."""

    def test_transformations_work_on_memmap(self, store):
        built = store.get_or_build(SPEC, SPEC.build_uncached)
        mapped = store.load(spec_digest(SPEC))
        assert np.array_equal(
            built.out_degrees(), mapped.out_degrees()
        )
        assert np.array_equal(
            built.transpose().col_idx, mapped.transpose().col_idx
        )
        assert np.array_equal(
            built.symmetrized().row_ptr, mapped.symmetrized().row_ptr
        )

    def test_validate_false_skips_structural_checks(self):
        bad_row_ptr = np.array([0, 5, 3, 4], dtype=np.int64)
        with pytest.raises(GraphFormatError):
            CSRGraph(bad_row_ptr, np.zeros(4, dtype=np.int64))
        graph = CSRGraph(
            bad_row_ptr, np.zeros(4, dtype=np.int64), validate=False
        )
        assert graph.num_vertices == 3

    def test_memmap_pickles_as_plain_arrays(self, store):
        import pickle

        store.get_or_build(SPEC, SPEC.build_uncached)
        mapped = store.load(spec_digest(SPEC))
        clone = pickle.loads(pickle.dumps(mapped))
        assert np.array_equal(clone.col_idx, mapped.col_idx)


@pytest.mark.parametrize("workload,kwargs", [
    ("bfs", {}),
    ("pr", {"max_supersteps": 5}),
])
@pytest.mark.parametrize("engine", ["vectorized", "scalar"])
def test_memmap_run_parity(tmp_path, workload, kwargs, engine):
    """Engine-parity matrix: a store-mapped graph must produce runs
    bit-identical to the in-memory build on both engines."""
    from repro.core.system import NovaSystem

    store = GraphStore(str(tmp_path / "graphs"))
    spec = GraphSpec("rmat:9:8", seed=7)
    in_memory = spec.build_uncached()
    store.get_or_build(spec, lambda: in_memory)
    mapped = store.load(spec_digest(spec))
    assert is_memmap_backed(mapped.col_idx)

    config = scaled_config(num_gpns=2, scale=1.0 / 1024.0)
    source = None if workload == "pr" else 0
    runs = []
    for graph in (in_memory, mapped):
        system = NovaSystem(config, graph, placement="random", engine=engine)
        runs.append(system.run(workload, source=source, **kwargs))
    a, b = runs
    assert a.elapsed_seconds == b.elapsed_seconds
    assert a.quanta == b.quanta
    assert np.array_equal(a.result, b.result)
    assert a.messages_sent == b.messages_sent
    assert a.messages_processed == b.messages_processed
    assert a.traffic == b.traffic
