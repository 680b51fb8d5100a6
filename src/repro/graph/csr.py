"""Compressed sparse row graph representation.

This is the on-disk/in-memory layout the accelerator operates on: a
``row_ptr`` array of ``V + 1`` offsets, an ``col_idx`` array of ``E``
destination vertices, and an optional ``weights`` array of ``E`` edge
weights (SSSP and BC use them; BFS/CC/PR ignore them).

:meth:`CSRGraph.from_edges` orders edges by one combined ``int64`` key,
``src * V + dst``, which is exact while ``V * V <= 2**63 - 1``
(:data:`MAX_KEY_VERTICES`, about 3.04 billion vertices).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError

#: Largest vertex count whose edge key ``src * V + dst`` is exact in
#: ``int64``: ``V * V <= 2**63 - 1``.
MAX_KEY_VERTICES = 3_037_000_499


class CSRGraph:
    """An immutable directed graph in CSR form.

    Arrays are validated once at construction and never mutated; all
    transformations return new graphs.  ``validate=False`` skips the
    O(V + E) structural checks (monotonic ``row_ptr``, in-range
    ``col_idx``) for arrays that were already validated when they were
    first persisted -- the :mod:`~repro.graph.store` artifact path maps
    graphs lazily, and walking every element here would fault in every
    page of a file the caller specifically wants to read on demand.
    ``ascontiguousarray`` is a no-copy view for the store's already
    contiguous ``int64``/``float64`` memmaps, so memmap backing (and
    laziness) survives construction.
    """

    def __init__(
        self,
        row_ptr: np.ndarray,
        col_idx: np.ndarray,
        weights: Optional[np.ndarray] = None,
        validate: bool = True,
    ) -> None:
        row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        if row_ptr.ndim != 1 or col_idx.ndim != 1:
            raise GraphFormatError("row_ptr and col_idx must be 1-D arrays")
        if row_ptr.shape[0] == 0:
            raise GraphFormatError("row_ptr must have at least one entry")
        if validate:
            if row_ptr[0] != 0:
                raise GraphFormatError("row_ptr[0] must be 0")
            if np.any(np.diff(row_ptr) < 0):
                raise GraphFormatError("row_ptr must be non-decreasing")
            if row_ptr[-1] != col_idx.shape[0]:
                raise GraphFormatError(
                    f"row_ptr[-1]={row_ptr[-1]} does not match "
                    f"len(col_idx)={col_idx.shape[0]}"
                )
            num_vertices = row_ptr.shape[0] - 1
            if col_idx.size and (
                col_idx.min() < 0 or col_idx.max() >= num_vertices
            ):
                raise GraphFormatError(
                    "col_idx contains out-of-range vertex ids"
                )
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != col_idx.shape:
                raise GraphFormatError("weights must match col_idx in length")
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.weights = weights
        for array in (self.row_ptr, self.col_idx, self.weights):
            if array is not None and array.flags.writeable:
                array.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_vertices: int,
        weights: Optional[np.ndarray] = None,
        dedup: bool = False,
    ) -> "CSRGraph":
        """Build a CSR graph from parallel source/destination arrays.

        Edges are ordered by ``(src, dst)`` through one combined key,
        ``src * num_vertices + dst``: sorting that single ``int64`` is
        the same order as a two-key lexicographic sort, at a fraction
        of the cost.  Unweighted edges sort the keys themselves (equal
        keys are equal edges, so stability is moot); weighted edges
        take a stable argsort, which is exactly the lexicographic
        permutation, so duplicate edges keep their input weight order.
        The key is exact while ``num_vertices**2 <= 2**63 - 1``
        (:data:`MAX_KEY_VERTICES`); larger vertex spaces are refused.

        Args:
            src, dst: edge endpoint arrays of equal length.
            num_vertices: the vertex-id space size.
            weights: optional per-edge weights (kept through dedup by
                taking the minimum weight of duplicate edges).
            dedup: drop duplicate (src, dst) pairs.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphFormatError("src and dst must be equal-length 1-D arrays")
        if num_vertices <= 0:
            raise GraphFormatError("num_vertices must be positive")
        if num_vertices > MAX_KEY_VERTICES:
            raise GraphFormatError(
                f"num_vertices={num_vertices} exceeds {MAX_KEY_VERTICES}, "
                "the largest vertex space whose src*V+dst edge key fits "
                "in int64"
            )
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= num_vertices:
                raise GraphFormatError("edge endpoints out of range")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != src.shape:
                raise GraphFormatError("weights must match edges in length")

        key = src * num_vertices
        key += dst
        if weights is None:
            key.sort()
        else:
            order = np.argsort(key, kind="stable")
            key = key[order]
            weights = weights[order]
            del order
        if dedup and key.size:
            keep = np.empty(key.shape[0], dtype=bool)
            keep[0] = True
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            if weights is not None:
                # Duplicate edges keep their minimum weight.
                weights = np.minimum.reduceat(weights, np.flatnonzero(keep))
            key = key[keep]

        # Vertex v's edges start at the first key >= v * V; the keys then
        # become the destinations in place.
        row_ptr = np.searchsorted(
            key, np.arange(num_vertices + 1, dtype=np.int64) * num_vertices
        )
        dst = np.remainder(key, num_vertices, out=key)
        return cls(row_ptr, dst, weights)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.row_ptr.shape[0] - 1

    @property
    def num_edges(self) -> int:
        return self.col_idx.shape[0]

    @property
    def has_weights(self) -> bool:
        return self.weights is not None

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.col_idx, minlength=self.num_vertices)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Destination ids of ``vertex``'s outgoing edges."""
        if not 0 <= vertex < self.num_vertices:
            raise GraphFormatError(f"vertex {vertex} out of range")
        return self.col_idx[self.row_ptr[vertex] : self.row_ptr[vertex + 1]]

    def edge_range(self, vertex: int) -> Tuple[int, int]:
        """(start, end) offsets of ``vertex``'s edges -- Algorithm 1's
        ``row_ptr[v], row_ptr[v+1]-1`` pair, half-open here."""
        return int(self.row_ptr[vertex]), int(self.row_ptr[vertex + 1])

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Yield (src, dst) pairs; intended for small graphs and tests."""
        for v in range(self.num_vertices):
            for u in self.neighbors(v):
                yield v, int(u)

    def edge_sources(self) -> np.ndarray:
        """Expand row_ptr back into a per-edge source array."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.out_degrees()
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def transpose(self) -> "CSRGraph":
        """Reverse every edge (needed for BC's backward pass and pull PR)."""
        return CSRGraph.from_edges(
            self.col_idx,
            self.edge_sources(),
            self.num_vertices,
            weights=self.weights,
        )

    def symmetrized(self) -> "CSRGraph":
        """Union of the graph and its transpose, without duplicate edges."""
        src = np.concatenate([self.edge_sources(), self.col_idx])
        dst = np.concatenate([self.col_idx, self.edge_sources()])
        weights = None
        if self.weights is not None:
            weights = np.concatenate([self.weights, self.weights])
        return CSRGraph.from_edges(
            src, dst, self.num_vertices, weights=weights, dedup=True
        )

    def relabeled(self, new_id: np.ndarray) -> "CSRGraph":
        """Renumber vertices: vertex ``v`` becomes ``new_id[v]``.

        ``new_id`` must be a permutation of ``range(num_vertices)``.
        """
        new_id = np.asarray(new_id, dtype=np.int64)
        if new_id.shape[0] != self.num_vertices:
            raise GraphFormatError("new_id must cover every vertex")
        check = np.zeros(self.num_vertices, dtype=bool)
        check[new_id] = True
        if not check.all():
            raise GraphFormatError("new_id must be a permutation")
        return CSRGraph.from_edges(
            new_id[self.edge_sources()],
            new_id[self.col_idx],
            self.num_vertices,
            weights=self.weights,
        )

    def footprint_bytes(self, vertex_bytes: int = 16, edge_bytes: int = 8) -> int:
        """Memory footprint under the paper's layout (16 B/vertex, 8 B/edge)."""
        return self.num_vertices * vertex_bytes + self.num_edges * edge_bytes

    def __repr__(self) -> str:
        kind = "weighted" if self.has_weights else "unweighted"
        return (
            f"CSRGraph(V={self.num_vertices}, E={self.num_edges}, {kind})"
        )
