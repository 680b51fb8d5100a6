"""Tracker module: superblock counters, scans, and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import VertexMemoryLayout
from repro.core.tracker import TrackerModule
from repro.graph.partition import interleave_placement
from repro.sim.config import scaled_config


def make_tracker(num_vertices=2048, num_gpns=1, superblock_dim=8):
    cfg = scaled_config(num_gpns=num_gpns, scale=1 / 1024).with_updates(
        superblock_dim=superblock_dim
    )
    placement = interleave_placement(num_vertices, cfg.num_pes)
    layout = VertexMemoryLayout(placement, cfg)
    return TrackerModule(layout), layout


class TestTracking:
    def test_track_counts_blocks_not_vertices(self):
        tracker, layout = make_tracker()
        # Two vertices in the same block on PE 0: locals 0 and 1 are
        # globals 0 and 8 under interleave over 8 PEs.
        added = tracker.track(np.array([0, 8]))
        assert added == 1
        assert tracker.counters[0].sum() == 1

    def test_track_idempotent_per_block(self):
        tracker, _ = make_tracker()
        tracker.track(np.array([0]))
        added = tracker.track(np.array([0, 8]))
        assert added == 0
        tracker.check_invariants()

    def test_track_spreads_across_pes(self):
        tracker, _ = make_tracker()
        tracker.track(np.arange(8))  # one vertex per PE
        assert (tracker.counters.sum(axis=1) == 1).all()

    def test_empty_track(self):
        tracker, _ = make_tracker()
        assert tracker.track(np.empty(0, dtype=np.int64)) == 0

    def test_has_work(self):
        tracker, _ = make_tracker()
        assert not tracker.any_work()
        tracker.track(np.array([3]))
        assert tracker.any_work()
        assert tracker.has_work(3)
        assert not tracker.has_work(0)


class TestCollect:
    def test_collect_returns_active_blocks(self):
        tracker, layout = make_tracker()
        tracker.track(np.array([0, 8, 16]))  # PE 0, blocks 0 and 1
        sbs = tracker.select_superblocks(0, 4)
        out = tracker.collect(0, sbs)
        assert set(out.active_blocks.tolist()) == {0, 1}
        assert not tracker.any_work()
        tracker.check_invariants()

    def test_wasteful_blocks_counted(self):
        tracker, layout = make_tracker(superblock_dim=8)
        # Activate only the last block of PE 0's first superblock: the
        # scan reads chunk-aligned blocks up to it.
        vertex = layout.globals_of(0, np.array([7 * 2]))[0]
        tracker.track(np.array([vertex]))
        sbs = tracker.select_superblocks(0, 1)
        out = tracker.collect(0, sbs)
        assert out.blocks_read >= 8 or out.blocks_read == tracker.chunk_blocks
        assert out.wasteful_blocks == out.blocks_read - 1

    def test_chunk_alignment_limits_reads(self):
        tracker, layout = make_tracker(superblock_dim=64)
        # Active block 0 only: one 16-block chunk is read, not all 64.
        tracker.track(np.array([0]))
        out = tracker.collect(0, tracker.select_superblocks(0, 1))
        assert out.blocks_read == tracker.chunk_blocks
        assert out.wasteful_blocks == tracker.chunk_blocks - 1

    def test_collect_empty_selection(self):
        tracker, _ = make_tracker()
        out = tracker.collect(0, np.empty(0, dtype=np.int64))
        assert out.blocks_read == 0


class TestSelection:
    def test_rotation_resumes(self):
        tracker, layout = make_tracker(num_vertices=4096, superblock_dim=4)
        # Activate one vertex in several superblocks of PE 0.
        locals_ = np.array([0, 64, 128, 192])  # blocks 0,32,64,96 -> sbs 0,8,16,24
        vertices = layout.globals_of(0, locals_)
        tracker.track(vertices)
        first = tracker.select_superblocks(0, 2)
        second = tracker.select_superblocks(0, 2)
        assert set(first.tolist()) | set(second.tolist()) == {0, 8, 16, 24}
        assert set(first.tolist()).isdisjoint(second.tolist())

    def test_selection_caps_count(self):
        tracker, layout = make_tracker(num_vertices=4096, superblock_dim=4)
        vertices = layout.globals_of(0, np.arange(0, 256, 8))
        tracker.track(vertices)
        assert tracker.select_superblocks(0, 3).shape[0] == 3

    def test_empty_selection(self):
        tracker, _ = make_tracker()
        assert tracker.select_superblocks(0, 4).shape[0] == 0


class TestPropertyBased:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["track", "collect"]),
                st.lists(st.integers(0, 511), min_size=0, max_size=20),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_random_ops(self, ops):
        tracker, layout = make_tracker(num_vertices=512, superblock_dim=4)
        active = np.zeros(512, dtype=bool)
        for op, vertices in ops:
            if op == "track":
                ids = np.unique(np.asarray(vertices, dtype=np.int64))
                tracker.track(ids)
                active[ids] = True
            else:
                pe = int(vertices[0]) % 8 if vertices else 0
                sbs = tracker.select_superblocks(pe, 2)
                out = tracker.collect(pe, sbs)
                collected = layout.block_vertices(pe, out.active_blocks).ravel()
                collected = collected[collected >= 0]
                active[collected] = False
            tracker.check_invariants()
        # Counters account for exactly the blocks holding active vertices.
        expected_blocks = set()
        for v in np.flatnonzero(active):
            pe = int(layout.pe_of(np.array([v]))[0])
            block = int(layout.block_of(np.array([v]))[0])
            expected_blocks.add((pe, block))
        assert tracker.counters.sum() == len(expected_blocks)


def unique_reference_track(tracker, counters, counted, vertices):
    """The ``np.unique``-based tracking rule, applied to copies of state."""
    layout = tracker.layout
    pes = layout.placement.owner[vertices]
    blocks = layout.placement.local_id[vertices] // layout.vertices_per_block
    keys = np.unique(pes * layout.blocks_per_pe + blocks)
    key_pes = keys // layout.blocks_per_pe
    key_blocks = keys % layout.blocks_per_pe
    fresh = ~counted[key_pes, key_blocks]
    key_pes, key_blocks = key_pes[fresh], key_blocks[fresh]
    counted[key_pes, key_blocks] = True
    np.add.at(counters, (key_pes, key_blocks // tracker.superblock_dim), 1)
    return int(key_blocks.shape[0])


class TestTrackMatchesUniqueReference:
    @given(
        batches=st.lists(
            st.lists(
                # A narrow id range forces repeated vertices, many vertices
                # per block, and blocks already counted by earlier batches.
                st.integers(0, 199),
                min_size=0,
                max_size=60,
            ),
            min_size=1,
            max_size=8,
        ),
        superblock_dim=st.sampled_from([1, 4, 8]),
    )
    @settings(max_examples=80, deadline=None)
    def test_track_matches_unique(self, batches, superblock_dim):
        tracker, _ = make_tracker(num_vertices=200, superblock_dim=superblock_dim)
        counters = tracker.counters.copy()
        counted = tracker.block_counted.copy()
        for batch in batches:
            vertices = np.asarray(batch, dtype=np.int64)
            expected = unique_reference_track(tracker, counters, counted, vertices)
            assert tracker.track(vertices) == expected
            assert np.array_equal(tracker.counters, counters)
            assert np.array_equal(tracker.block_counted, counted)
        tracker.check_invariants()

    def test_repeats_within_and_across_batches(self):
        tracker, _ = make_tracker()
        # Vertices 0 and 8 share PE 0's block 0; 0 repeats in the batch.
        assert tracker.track(np.array([0, 8, 0, 8, 0])) == 1
        assert tracker.track(np.array([8, 16, 16, 24])) == 1  # block 1 only
        assert tracker.counters[0].sum() == 2
        tracker.check_invariants()
