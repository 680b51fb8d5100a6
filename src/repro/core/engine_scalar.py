"""The per-PE scalar-loop NOVA kernels, kept as the golden reference.

:class:`ScalarNovaEngine` runs on the same driver as the vectorized
engine (:class:`repro.core.engine.NovaDriver`: set-up, execution models,
quantum close, tracing, observability, results) and supplies only its
backend: one :class:`MessageQueue` inbox, one :class:`PendingWork`
active buffer and one :class:`BandwidthChannel` per PE (per GPN for
DDR), the queue read-outs, and the five phase kernels written as the
seed's per-PE Python loops.  It serves two purposes:

1. **Golden equivalence**: ``tests/core/test_engine_parity.py`` and the
   differential matrix run both engines on the same inputs and assert
   bit-identical results (same ``elapsed_seconds``, message counters,
   vertex state, timelines and traces) -- the vectorized kernels, pooled
   queues and :class:`BandwidthChannelArray` are optimizations, not
   semantic changes.
2. **Perf baseline**: ``benchmarks/perf_smoke.py`` measures the
   vectorized engine's quanta/sec against this one.

See :mod:`repro.core.engine` for the pipeline documentation.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.core.engine import NovaDriver
from repro.core.queues import MessageQueue, PendingWork
from repro.memory.channel import BandwidthChannelList
from repro.workloads.base import expand_edges


class ScalarNovaEngine(NovaDriver):
    """The scalar backend: per-PE loops over per-PE objects (seed semantics)."""

    def _build_backend(self) -> None:
        config = self.config
        p = config.num_pes
        self.inboxes = [MessageQueue() for _ in range(p)]
        self.pending = [PendingWork() for _ in range(p)]
        self.hbm = BandwidthChannelList(config.vertex_channel, p)
        self.ddr = BandwidthChannelList(config.edge_pool, config.num_gpns)

    def _inbox_backlog(self) -> int:
        return sum(len(inbox) for inbox in self.inboxes)

    def _messages_drained(self) -> int:
        return sum(inbox.popped for inbox in self.inboxes)

    def _buffer_occupancy(self) -> int:
        return sum(work.entries for work in self.pending)

    # ------------------------------------------------------------------
    # Pipeline phases
    # ------------------------------------------------------------------

    def _mpu_phase(self) -> None:
        """Pop message batches per PE, reduce globally, track activations."""
        config = self.config
        dest_parts: List[np.ndarray] = []
        val_parts: List[np.ndarray] = []
        pe_parts: List[np.ndarray] = []
        for pe in range(config.num_pes):
            inbox = self.inboxes[pe]
            if len(inbox) == 0:
                continue
            dest, values = inbox.pop(config.mpu_batch_per_pe)
            self.reduce_pool[self._gpn_of_pe[pe]].charge(dest.shape[0])
            dest_parts.append(dest)
            val_parts.append(values)
            pe_parts.append(np.full(dest.shape[0], pe, dtype=np.int64))
        if not dest_parts:
            return
        dest = np.concatenate(dest_parts)
        values = np.concatenate(val_parts)
        pes = np.concatenate(pe_parts)
        # Vertex access stream through the per-PE direct-mapped caches.
        blocks = self.layout.block_of(dest)
        cache_out = self.cache.access(pes, blocks, writes=True)
        line = config.cache_line_bytes
        for pe in np.flatnonzero(
            cache_out.misses_per_cache + cache_out.writebacks_per_cache
        ):
            self.hbm[pe].charge_read(int(cache_out.misses_per_cache[pe]) * line)
            self.hbm[pe].charge_write(
                int(cache_out.writebacks_per_cache[pe]) * line
            )
        # Messages landing on a vertex that is already active-pending are
        # absorbed into the pending propagation -- the paper's coalescing
        # (counted before the reduce mutates activation state).
        self._coalesced += int(np.count_nonzero(self.active_now[dest]))
        outcome = self.program.reduce(self.state, dest, values)
        batch = int(dest.shape[0])
        self._messages_processed += batch
        self._useful_messages += outcome.useful_messages
        improved = outcome.improved
        if improved.shape[0]:
            self._inject_active(improved[~self.active_now[improved]])

    def _vmu_phase(self, prop_graph: CSRGraph) -> None:
        """Prefetch active blocks into under-filled active buffers.

        Reduction has priority over propagation (Section I): while a
        PE's reduction pipeline is saturated (its inbox holds a full
        batch or more), the VMU defers prefetching.  Spilled active
        vertices wait in DRAM and keep absorbing updates -- the enlarged
        coalescing window that gives NOVA its work-efficiency edge.
        """
        config = self.config
        program, state = self.program, self.state
        sb_bytes = config.superblock_dim * config.block_bytes
        quantum_target = config.latency_floor_s * config.quantum_overlap
        for pe in range(config.num_pes):
            if self.pending[pe].entries >= self._supply_target:
                continue
            if not self.tracker.has_work(pe):
                continue
            scans = self._max_scans
            if config.reduction_priority:
                # Reduction has priority on the vertex channel
                # (Section I): prefetch scans only with the bandwidth the
                # MPU left unused this quantum.  Under reduction load the
                # scans throttle, spilled vertices wait in DRAM, and
                # updates coalesce.
                leftover = (
                    quantum_target - self.hbm[pe].quantum_service_time()
                )
                if leftover <= 0:
                    continue
                budget = int(
                    leftover
                    * config.vertex_channel.random_bandwidth
                    // sb_bytes
                )
                scans = min(self._max_scans, budget)
                if scans <= 0:
                    continue
            superblocks = self.tracker.select_superblocks(pe, scans)
            collected = self.tracker.collect(pe, superblocks)
            block_bytes = config.block_bytes
            useful_blocks = collected.blocks_read - collected.wasteful_blocks
            self.hbm[pe].charge_read(useful_blocks * block_bytes)
            self.hbm[pe].charge_read(
                collected.wasteful_blocks * block_bytes, useful=False
            )
            if collected.active_blocks.shape[0] == 0:
                continue
            candidates = self.layout.block_vertices(pe, collected.active_blocks)
            flat = candidates.ravel()
            flat = flat[flat >= 0]
            active = flat[self.active_now[flat]]
            if active.shape[0] == 0:
                raise SimulationError("collected block without active vertex")
            # The active buffer can only absorb what its depth allows per
            # latency window; overflow blocks are dropped and re-tracked
            # (the hardware prefetcher stalls when the buffer is full).
            budget = self._vmu_budget
            kept, overflow = active[:budget], active[budget:]
            if overflow.shape[0]:
                self.tracker.track(overflow)
            self.active_now[kept] = False
            snapshots = program.snapshot(state, kept)
            starts = prop_graph.row_ptr[kept]
            ends = prop_graph.row_ptr[kept + 1]
            live = ends > starts  # degree-0 vertices propagate nothing
            self.pending[pe].push(
                kept[live], snapshots[live], starts[live], ends[live]
            )

    def _vmu_phase_fifo(self, prop_graph: CSRGraph) -> None:
        """Table I's off-chip-buffer retrieval: pop spilled copies in order.

        Retrieval is a cheap FIFO read (no superblock search, no wasteful
        reads) but the buffered value snapshots are stale and duplicate
        copies propagate repeatedly -- the trade the tracker design wins.
        """
        config = self.config
        for pe in range(config.num_pes):
            if self.pending[pe].entries >= self._supply_target:
                continue
            fifo = self.spill_fifos[pe]
            if len(fifo) == 0:
                continue
            vertices, values = fifo.pop(self._supply_target)
            self.hbm[pe].charge_read(
                vertices.shape[0] * self._fifo_entry_bytes, sequential=True
            )
            starts = prop_graph.row_ptr[vertices]
            ends = prop_graph.row_ptr[vertices + 1]
            live = ends > starts
            self.pending[pe].push(
                vertices[live], values[live], starts[live], ends[live]
            )

    def _mgu_phase(self, prop_graph: CSRGraph, traffic: np.ndarray) -> None:
        """Expand edges from active buffers and emit messages."""
        config = self.config
        program, state = self.program, self.state
        msg_bytes = config.message_bytes
        for pe in range(config.num_pes):
            work = self.pending[pe]
            if work.entries == 0:
                continue
            vertices, values, starts, ends = work.pop_edges(
                config.mgu_batch_edges_per_pe
            )
            owner_idx, dests, weights = expand_edges(
                prop_graph, vertices, starts, ends
            )
            nedges = int(dests.shape[0])
            if nedges == 0:
                continue
            gpn = self._gpn_of_pe[pe]
            self.ddr[gpn].charge_read(nedges * config.edge_bytes, sequential=True)
            self.propagate_pool[gpn].charge(nedges)
            msg_values = program.propagate_values(state, values[owner_idx], weights)
            self._edges_traversed += nedges
            self._messages_sent += nedges
            dst_pe = self.layout.pe_of(dests)
            traffic[pe] += np.bincount(
                dst_pe, minlength=config.num_pes
            ) * msg_bytes
            self._outbox.append((dests, msg_values, dst_pe))

    def _deliver(self) -> None:
        """Move the quantum's generated messages into destination inboxes."""
        if not self._outbox:
            return
        dests = np.concatenate([part[0] for part in self._outbox])
        values = np.concatenate([part[1] for part in self._outbox])
        dst_pe = np.concatenate([part[2] for part in self._outbox])
        self._outbox.clear()
        order = np.argsort(dst_pe, kind="stable")
        dests, values, dst_pe = dests[order], values[order], dst_pe[order]
        boundaries = np.flatnonzero(np.diff(dst_pe)) + 1
        segments = np.split(np.arange(dst_pe.shape[0]), boundaries)
        for segment in segments:
            if segment.shape[0] == 0:
                continue
            pe = int(dst_pe[segment[0]])
            self.inboxes[pe].push(dests[segment], values[segment])
