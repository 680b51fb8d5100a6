"""Direct-mapped cache: exact semantics against a scalar reference model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.memory.cache import NARROW_KEY_SETS, CacheArray, DirectMappedCache


class ScalarCache:
    """Textbook one-access-at-a-time direct-mapped write-back cache."""

    def __init__(self, num_sets: int) -> None:
        self.tags = [None] * num_sets
        self.dirty = [False] * num_sets
        self.num_sets = num_sets
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def access(self, block: int, write: bool) -> None:
        s = block % self.num_sets
        if self.tags[s] == block:
            self.hits += 1
        else:
            self.misses += 1
            if self.tags[s] is not None and self.dirty[s]:
                self.writebacks += 1
            self.tags[s] = block
            self.dirty[s] = False
        if write:
            self.dirty[s] = True

    def state(self):
        """(tags, dirty) in CacheArray's encoding: -1 marks an empty set."""
        tags = [-1 if t is None else t for t in self.tags]
        return tags, [d and t is not None for t, d in zip(self.tags, self.dirty)]


def check_batches_against_scalars(array, batches, writes_mode):
    """Replay ``batches`` of (caches, blocks, writes) on ``array`` and on
    one :class:`ScalarCache` per cache, comparing after every batch.

    ``writes_mode`` is ``"array"`` (per-access flags) or a bool passed
    as the scalar ``writes`` argument.
    """
    refs = [ScalarCache(array.num_sets) for _ in range(array.num_caches)]
    for caches, blocks, writes in batches:
        if writes_mode != "array":
            writes = [writes_mode] * len(blocks)
        before = [(r.misses, r.writebacks) for r in refs]
        result = array.access(
            np.asarray(caches, dtype=np.int64),
            np.asarray(blocks, dtype=np.int64),
            np.asarray(writes, dtype=bool) if writes_mode == "array" else writes_mode,
        )
        for c, b, w in zip(caches, blocks, writes):
            refs[c].access(b, w)
        misses = [r.misses - m for r, (m, _) in zip(refs, before)]
        writebacks = [r.writebacks - wb for r, (_, wb) in zip(refs, before)]
        assert result.misses_per_cache.tolist() == misses
        assert result.writebacks_per_cache.tolist() == writebacks
        assert result.misses == sum(misses)
        assert result.writebacks == sum(writebacks)
        assert result.hits == len(blocks) - sum(misses)
        tags = array._tags.reshape(array.num_caches, array.num_sets)
        dirty = array._dirty.reshape(array.num_caches, array.num_sets)
        for c, ref in enumerate(refs):
            ref_tags, ref_dirty = ref.state()
            assert tags[c].tolist() == ref_tags
            assert dirty[c].tolist() == ref_dirty
    assert array.lifetime_hits == sum(r.hits for r in refs)
    assert array.lifetime_misses == sum(r.misses for r in refs)
    assert array.lifetime_writebacks == sum(r.writebacks for r in refs)


class TestBasics:
    def test_construction_validation(self):
        with pytest.raises(ConfigError):
            DirectMappedCache(0, 32)
        with pytest.raises(ConfigError):
            DirectMappedCache(100, 32)  # not a multiple
        with pytest.raises(ConfigError):
            CacheArray(0, 1024, 32)

    def test_cold_miss_then_hit(self):
        cache = DirectMappedCache(1024, 32)  # 32 sets
        r = cache.access(np.array([5, 5, 5]), writes=False)
        assert (r.misses, r.hits, r.writebacks) == (1, 2, 0)

    def test_conflict_eviction(self):
        cache = DirectMappedCache(1024, 32)
        # Blocks 0 and 32 share set 0.
        r = cache.access(np.array([0, 32, 0]), writes=False)
        assert r.misses == 3
        assert r.writebacks == 0  # clean lines evict silently

    def test_dirty_eviction_writes_back(self):
        cache = DirectMappedCache(1024, 32)
        r = cache.access(np.array([0, 32]), writes=np.array([True, False]))
        assert r.writebacks == 1

    def test_state_persists_across_batches(self):
        cache = DirectMappedCache(1024, 32)
        cache.access(np.array([7]), writes=True)
        r = cache.access(np.array([7]), writes=False)
        assert r.hits == 1
        # Evicting it later still writes back the dirty line.
        r = cache.access(np.array([7 + 32]), writes=False)
        assert r.writebacks == 1

    def test_flush(self):
        cache = DirectMappedCache(1024, 32)
        cache.access(np.array([1, 2, 3]), writes=True)
        assert cache.flush() == 3
        assert cache.flush() == 0
        r = cache.access(np.array([1]), writes=False)
        assert r.misses == 1

    def test_hit_rate(self):
        cache = DirectMappedCache(1024, 32)
        assert cache.hit_rate() == 0.0
        cache.access(np.array([1, 1, 1, 1]), writes=False)
        assert cache.hit_rate() == pytest.approx(0.75)

    def test_empty_batch(self):
        cache = DirectMappedCache(1024, 32)
        r = cache.access(np.array([], dtype=np.int64), writes=False)
        assert r.accesses == 0

    def test_resident_blocks(self):
        cache = DirectMappedCache(1024, 32)
        cache.access(np.array([3, 40]), writes=False)
        assert set(cache.resident_blocks.tolist()) == {3, 40}


class TestCacheArrayIsolation:
    def test_caches_do_not_interfere(self):
        array = CacheArray(2, 1024, 32)
        array.access(np.array([0]), np.array([5]), writes=False)
        # Same block in a different cache is a fresh miss.
        r = array.access(np.array([1]), np.array([5]), writes=False)
        assert r.misses == 1

    def test_per_cache_counts(self):
        array = CacheArray(3, 1024, 32)
        caches = np.array([0, 0, 2, 2, 2])
        blocks = np.array([1, 1, 9, 9, 41])  # 9 and 41 conflict in set 9
        r = array.access(caches, blocks, writes=True)
        assert r.misses_per_cache.tolist() == [1, 0, 2]
        assert r.writebacks_per_cache.tolist() == [0, 0, 1]
        assert r.misses == 3
        assert r.hits == 2

    def test_index_validation(self):
        array = CacheArray(2, 1024, 32)
        with pytest.raises(ConfigError):
            array.access(np.array([5]), np.array([1]), writes=False)
        with pytest.raises(ConfigError):
            array.access(np.array([0, 1]), np.array([1]), writes=False)


@st.composite
def access_traces(draw):
    num_batches = draw(st.integers(1, 4))
    batches = []
    for _ in range(num_batches):
        n = draw(st.integers(0, 60))
        blocks = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        batches.append((blocks, writes))
    return batches


class TestAgainstScalarReference:
    @given(access_traces(), st.sampled_from([4, 8, 16]))
    @settings(max_examples=120, deadline=None)
    def test_batched_matches_scalar(self, batches, num_sets):
        cache = DirectMappedCache(num_sets * 32, 32)
        reference = ScalarCache(num_sets)
        for blocks, writes in batches:
            cache.access(
                np.asarray(blocks, dtype=np.int64),
                np.asarray(writes, dtype=bool),
            )
            for b, w in zip(blocks, writes):
                reference.access(b, w)
        assert cache.lifetime_hits == reference.hits
        assert cache.lifetime_misses == reference.misses
        assert cache.lifetime_writebacks == reference.writebacks

    @given(access_traces())
    @settings(max_examples=60, deadline=None)
    def test_multi_cache_matches_independent_scalars(self, batches):
        array = CacheArray(3, 8 * 32, 32)
        refs = [ScalarCache(8) for _ in range(3)]
        rng = np.random.default_rng(7)
        for blocks, writes in batches:
            n = len(blocks)
            caches = rng.integers(0, 3, size=n)
            array.access(
                caches,
                np.asarray(blocks, dtype=np.int64),
                np.asarray(writes, dtype=bool),
            )
            for c, b, w in zip(caches, blocks, writes):
                refs[c].access(b, w)
        assert array.lifetime_hits == sum(r.hits for r in refs)
        assert array.lifetime_misses == sum(r.misses for r in refs)
        assert array.lifetime_writebacks == sum(r.writebacks for r in refs)


WRITES_MODES = st.sampled_from(["array", True, False])

# 3 caches x 32,768 sets: set indices overflow a 16-bit sort key.
WIDE_SETS = 32768
WIDE_BLOCKS = [
    s + k * WIDE_SETS
    for s in (0, 1, 12345, WIDE_SETS - 2, WIDE_SETS - 1)
    for k in range(3)
]


@st.composite
def multi_cache_batches(draw, num_caches, block_values):
    """Batches of (caches, blocks, writes) over a fixed pool of blocks."""
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 50))
        caches = draw(st.lists(st.integers(0, num_caches - 1), min_size=n, max_size=n))
        blocks = draw(st.lists(st.sampled_from(block_values), min_size=n, max_size=n))
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        batches.append((caches, blocks, writes))
    return batches


class TestPerBatchAgainstScalarReference:
    """Per-cache counts and persistent tag/dirty state after every batch."""

    @given(multi_cache_batches(3, list(range(40))), WRITES_MODES)
    @settings(max_examples=80, deadline=None)
    def test_narrow_key_array(self, batches, writes_mode):
        array = CacheArray(3, 8 * 32, 32)
        assert array.num_caches * array.num_sets <= NARROW_KEY_SETS
        check_batches_against_scalars(array, batches, writes_mode)

    @given(multi_cache_batches(3, WIDE_BLOCKS), WRITES_MODES)
    @settings(max_examples=30, deadline=None)
    def test_wide_key_array(self, batches, writes_mode):
        array = CacheArray(3, WIDE_SETS * 32, 32)
        assert array.num_caches * array.num_sets > NARROW_KEY_SETS
        check_batches_against_scalars(array, batches, writes_mode)

    def test_wide_key_orders_sets_past_16_bits(self):
        # Cache 2's set 1 is flat set 65,537, which a truncated 16-bit
        # key would fold onto cache 0's set 1.
        array = CacheArray(3, WIDE_SETS * 32, 32)
        caches = [2, 0, 1, 2, 0]
        blocks = [1, 1, WIDE_SETS - 1, 1 + WIDE_SETS, 1]
        check_batches_against_scalars(
            array, [(caches, blocks, [True, False, True, False, True])], "array"
        )

    @pytest.mark.parametrize("writes_mode", ["array", True, False])
    def test_dirty_lines_survive_scalar_writes_modes(self, writes_mode):
        array = CacheArray(2, 4 * 32, 32)
        batches = [
            ([0, 0, 1, 1], [1, 5, 2, 2], [True, False, True, True]),
            ([0, 1, 1, 0], [5, 6, 2, 1], [False, False, True, False]),
            ([1, 0, 0], [2, 1, 9], [False, True, False]),
        ]
        check_batches_against_scalars(array, batches, writes_mode)
