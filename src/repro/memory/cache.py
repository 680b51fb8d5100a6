"""Exact, vectorized direct-mapped write-back cache model.

Each PE in NOVA fronts its HBM2 vertex channel with a small direct-mapped
write-back cache (64 KiB by default, Section III-B).  The paper shows the
cache captures little locality on large graphs; what matters for the
timing model is an *exact* count of hits, misses, and dirty write-backs
so that HBM traffic is charged correctly.

:class:`CacheArray` models **all PEs' caches at once**: one batch of
accesses tagged with (pe, block) resolves in a handful of numpy
operations while reproducing in-order scalar cache semantics
bit-for-bit:

- Accesses are stably sorted by their flat set index
  ``pe * num_sets + block % num_sets``.  While the array has at most
  65,536 sets in total (``NARROW_KEY_SETS``), as scaled configs do, the
  sort key is a ``uint16`` copy of that index, which numpy radix-sorts;
  larger arrays, such as Fig 9a's 4 MiB/PE caches, sort the ``int64``
  index.  A stable sort gives the same permutation either way.
- Within one set's run, an access hits iff the immediately preceding
  access in the run touched the same block; the first access of a run
  consults the persistent tag store.
- Each maximal run of identical blocks within a set is a *tenancy*,
  numbered in sorted order from the positions where tenancies start.  A
  set's run spans a contiguous range of tenancy ids, found by locating
  each run head among those positions, so all further bookkeeping is per
  run rather than per access.  A tenancy is dirty iff it inherited a
  dirty line (persistent-hit tenancy) or any access in it was a write;
  a scalar ``writes`` makes that a constant with no per-access reduce.
  A miss that begins a new tenancy writes back the previous tenancy's
  line iff that tenancy was dirty.

:class:`DirectMappedCache` is the single-cache convenience wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: Largest total set count (caches x sets) whose set index fits the
#: ``uint16`` sort key of :meth:`CacheArray.access`.
NARROW_KEY_SETS = 1 << 16


@dataclass
class CacheBatchResult:
    """Aggregate outcome of one batch of accesses."""

    hits: int
    misses: int
    writebacks: int

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


@dataclass
class CacheArrayResult(CacheBatchResult):
    """Batch outcome with per-cache miss/write-back counts."""

    misses_per_cache: np.ndarray = None
    writebacks_per_cache: np.ndarray = None


class CacheArray:
    """``num_caches`` direct-mapped write-back caches, resolved together.

    Addresses presented to :meth:`access` are (cache index, block number)
    pairs; block ``b`` maps to set ``b % num_sets`` of its cache.
    """

    _INVALID = np.int64(-1)

    def __init__(self, num_caches: int, capacity_bytes: int, line_bytes: int) -> None:
        if num_caches <= 0:
            raise ConfigError("num_caches must be positive")
        if capacity_bytes <= 0 or line_bytes <= 0:
            raise ConfigError("cache capacity and line size must be positive")
        if capacity_bytes % line_bytes != 0:
            raise ConfigError(
                f"capacity {capacity_bytes} is not a multiple of line size "
                f"{line_bytes}"
            )
        self.num_caches = num_caches
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.num_sets = capacity_bytes // line_bytes
        total_sets = num_caches * self.num_sets
        self._tags = np.full(total_sets, self._INVALID, dtype=np.int64)
        self._dirty = np.zeros(total_sets, dtype=bool)
        #: Sort-key dtype of :meth:`access`: 16 bits whenever every set
        #: index fits, so numpy radix-sorts instead of running timsort.
        self._key_dtype = np.uint16 if total_sets <= NARROW_KEY_SETS else np.int64
        self.lifetime_hits = 0
        self.lifetime_misses = 0
        self.lifetime_writebacks = 0

    def access(
        self,
        caches: np.ndarray,
        blocks: np.ndarray,
        writes: np.ndarray | bool,
    ) -> CacheArrayResult:
        """Resolve a batch of in-order accesses across all caches.

        Args:
            caches: int array selecting the cache of each access.
            blocks: int64 block numbers, in program order per cache.
            writes: bool array (or scalar) marking write accesses.

        Returns:
            Aggregate and per-cache hit/miss/write-back counts.  Lifetime
            counters and persistent tag/dirty state update in place.
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        caches = np.asarray(caches, dtype=np.int64)
        if blocks.ndim != 1 or caches.shape != blocks.shape:
            raise ConfigError("caches and blocks must be equal-length 1-D arrays")
        n = blocks.shape[0]
        zeros = np.zeros(self.num_caches, dtype=np.int64)
        if n == 0:
            return CacheArrayResult(0, 0, 0, zeros, zeros.copy())
        if caches.size and (caches.min() < 0 or caches.max() >= self.num_caches):
            raise ConfigError("cache index out of range")
        uniform_writes = np.isscalar(writes) or isinstance(writes, (bool, np.bool_))
        if not uniform_writes:
            writes = np.asarray(writes, dtype=bool)
            if writes.shape != blocks.shape:
                raise ConfigError("writes must match blocks in shape")

        # Sort key: the flat set index ``cache * num_sets + block % num_sets``.
        # A stable sort yields one permutation whatever the key's dtype,
        # and numpy radix-sorts 16-bit keys instead of running timsort.
        num_sets = self.num_sets
        key = (blocks % num_sets).astype(self._key_dtype, copy=False)
        key += (caches * num_sets).astype(self._key_dtype, copy=False)
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        sorted_blocks = blocks[order]

        # Runs of accesses to one set: head (first) and tail (last) positions.
        first_of_set = np.empty(n, dtype=bool)
        first_of_set[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=first_of_set[1:])
        head_idx = np.flatnonzero(first_of_set)
        tail_idx = np.empty_like(head_idx)
        tail_idx[:-1] = head_idx[1:] - 1
        tail_idx[-1] = n - 1
        run_sets = sorted_key[head_idx].astype(np.intp)

        # Each maximal run of one block within a set is a tenancy.  Inside a
        # run a new tenancy starts wherever the block changes (a miss); a
        # run head always starts one, missing unless the persistent tag
        # store already holds its block.
        tenancy_start = np.empty(n, dtype=bool)
        np.not_equal(sorted_blocks[1:], sorted_blocks[:-1], out=tenancy_start[1:])
        tenancy_start[head_idx] = True
        start_idx = np.flatnonzero(tenancy_start)
        num_tenancies = start_idx.shape[0]
        run_tags = self._tags[run_sets]
        run_dirty = self._dirty[run_sets]
        head_hit = run_tags == sorted_blocks[head_idx]
        # Tenancy ids of each run's first and last tenancy.
        first_t = np.searchsorted(start_idx, head_idx)
        last_t = np.empty_like(first_t)
        last_t[:-1] = first_t[1:] - 1
        last_t[-1] = num_tenancies - 1

        # A tenancy is dirty iff any access in it writes or it continues a
        # dirty line resident before the batch (a run head that hits).
        if uniform_writes:
            seg_dirty = np.full(num_tenancies, bool(writes), dtype=bool)
        else:
            seg_dirty = np.logical_or.reduceat(writes[order], start_idx)
        seg_dirty[first_t[head_hit]] |= run_dirty[head_hit]
        final_dirty = seg_dirty[last_t]

        # Every tenancy start misses except a hitting run head.  A miss
        # writes back the line it evicts iff that line is dirty: the
        # persistent line for a run head, else the run's previous tenancy,
        # so a run's in-batch write-backs are its dirty non-last tenancies.
        run_misses = last_t - first_t + 1 - head_hit
        run_writebacks = np.add.reduceat(seg_dirty, first_t, dtype=np.int64)
        run_writebacks -= final_dirty
        run_writebacks += ~head_hit & (run_tags != self._INVALID) & run_dirty

        # Persist final state: the last tenancy of each set run survives.
        self._tags[run_sets] = sorted_blocks[tail_idx]
        self._dirty[run_sets] = final_dirty

        run_caches = run_sets // num_sets
        misses_per_cache = np.zeros(self.num_caches, dtype=np.int64)
        np.add.at(misses_per_cache, run_caches, run_misses)
        writebacks_per_cache = np.zeros(self.num_caches, dtype=np.int64)
        np.add.at(writebacks_per_cache, run_caches, run_writebacks)
        miss_count = int(misses_per_cache.sum())
        writebacks = int(writebacks_per_cache.sum())
        hit_count = n - miss_count
        self.lifetime_hits += hit_count
        self.lifetime_misses += miss_count
        self.lifetime_writebacks += writebacks
        return CacheArrayResult(
            hits=hit_count,
            misses=miss_count,
            writebacks=writebacks,
            misses_per_cache=misses_per_cache,
            writebacks_per_cache=writebacks_per_cache,
        )

    def flush(self) -> int:
        """Invalidate everything; return dirty lines written back."""
        dirty_lines = int(
            np.count_nonzero(self._dirty & (self._tags != self._INVALID))
        )
        self._tags.fill(self._INVALID)
        self._dirty.fill(False)
        self.lifetime_writebacks += dirty_lines
        return dirty_lines

    def hit_rate(self) -> float:
        total = self.lifetime_hits + self.lifetime_misses
        if total == 0:
            return 0.0
        return self.lifetime_hits / total


class DirectMappedCache:
    """A single direct-mapped write-back cache (CacheArray of one)."""

    def __init__(self, capacity_bytes: int, line_bytes: int) -> None:
        self._array = CacheArray(1, capacity_bytes, line_bytes)
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.num_sets = self._array.num_sets

    def access(self, blocks: np.ndarray, writes: np.ndarray | bool) -> CacheBatchResult:
        blocks = np.asarray(blocks, dtype=np.int64)
        result = self._array.access(
            np.zeros(blocks.shape[0], dtype=np.int64), blocks, writes
        )
        return CacheBatchResult(result.hits, result.misses, result.writebacks)

    def flush(self) -> int:
        return self._array.flush()

    def hit_rate(self) -> float:
        return self._array.hit_rate()

    @property
    def lifetime_hits(self) -> int:
        return self._array.lifetime_hits

    @property
    def lifetime_misses(self) -> int:
        return self._array.lifetime_misses

    @property
    def lifetime_writebacks(self) -> int:
        return self._array.lifetime_writebacks

    @property
    def resident_blocks(self) -> np.ndarray:
        """Blocks currently resident (for tests and invariants)."""
        tags = self._array._tags
        return tags[tags != CacheArray._INVALID]
