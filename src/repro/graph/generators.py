"""Synthetic graph generators standing in for the paper's inputs.

Table III evaluates NOVA on RoadUSA, Twitter, Friendster, Host (WDC), and
Urand.  None of those datasets ship with this repository, so we generate
synthetic graphs with the same *structural archetypes*:

- :func:`road_grid` -- high diameter, tiny uniform degree (RoadUSA).
- :func:`power_law` -- heavy-tailed degree distribution via the Chung-Lu
  model (Twitter, Friendster, Host are all scale-free social/web graphs).
- :func:`rmat` -- Kronecker/R-MAT graphs, the paper's weak-scaling input
  (RMAT21-24) and the classic Graph500 generator.
- :func:`uniform_random` -- Erdos-Renyi multigraphs (the paper's "Urand").

All generators take an explicit seed and are deterministic for a given
(numpy version, seed) pair; ``tests/graph/test_golden_digests.py`` pins
the bytes they produce.  :func:`power_law` samples endpoints by an
exact bucketed inverse CDF (:func:`_inverse_cdf`), which returns what
``np.searchsorted`` would for the same random draws.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph


#: Equal-width buckets over [0, 1) that :func:`_inverse_cdf` resolves
#: needles into; a power of two, so a needle's bucket is exact.
_CDF_BUCKETS = 1 << 20

#: Needles resolved per step, bounding every temporary to this length.
_CDF_BLOCK = 1 << 20


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _bucket_bounds(cum: np.ndarray) -> np.ndarray:
    """``bounds[k]``: the count of ``cum`` entries below ``k / _CDF_BUCKETS``."""
    return np.searchsorted(
        cum, np.arange(_CDF_BUCKETS + 1, dtype=np.float64) / _CDF_BUCKETS
    )


def _inverse_cdf(
    cum: np.ndarray, needles: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """``np.searchsorted(cum, needles)`` for needles in [0, 1), bucketed.

    ``cum`` is sorted and ``bounds`` is :func:`_bucket_bounds` of it.  A
    needle ``r`` falls in bucket ``k = floor(r * K)``; because ``K`` is a
    power of two, ``r * K`` and ``k / K`` are exact, so
    ``k / K <= r < (k + 1) / K`` and the answer (the count of ``cum``
    entries below ``r``) lies in ``[bounds[k], bounds[k + 1]]``.  A
    bucket holding no ``cum`` entry pins it to ``bounds[k]``; needles in
    the other buckets bisect inside their bucket, all at once, so even
    a bucket holding thousands of entries costs only a logarithmic
    number of steps.
    """
    occupied = bounds[1:] != bounds[:-1]
    out = np.empty(needles.shape[0], dtype=np.int64)
    for start in range(0, needles.shape[0], _CDF_BLOCK):
        r = needles[start : start + _CDF_BLOCK]
        bucket = (r * _CDF_BUCKETS).astype(np.int64)
        found = out[start : start + r.shape[0]]
        np.take(bounds, bucket, out=found)
        open_ = np.flatnonzero(occupied[bucket])
        lo, hi, key = found[open_], bounds[bucket[open_] + 1], r[open_]
        while open_.size:
            mid = (lo + hi) >> 1
            below = cum[mid] < key
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
            done = lo == hi
            found[open_[done]] = lo[done]
            rest = ~done
            open_, lo, hi, key = open_[rest], lo[rest], hi[rest], key[rest]
    return out


def uniform_random(
    num_vertices: int, num_edges: int, seed: int = 1, dedup: bool = False
) -> CSRGraph:
    """Erdos-Renyi style multigraph: every edge picks endpoints uniformly."""
    if num_vertices <= 0 or num_edges < 0:
        raise GraphFormatError("need positive vertices and non-negative edges")
    rng = _rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return CSRGraph.from_edges(src, dst, num_vertices, dedup=dedup)


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 1,
    dedup: bool = False,
) -> CSRGraph:
    """R-MAT / Kronecker generator (Graph500 parameters by default).

    Generates ``edge_factor * 2**scale`` edges over ``2**scale`` vertices
    by recursively descending the adjacency matrix quadrants with
    probabilities (a, b, c, d = 1-a-b-c).
    """
    if scale <= 0 or scale > 30:
        raise GraphFormatError("scale must be in (0, 30]")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise GraphFormatError("quadrant probabilities must be non-negative")
    rng = _rng(seed)
    num_vertices = 1 << scale
    num_edges = edge_factor * num_vertices
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    # Descend one bit per level; vectorized over all edges at once.
    for level in range(scale):
        r = rng.random(num_edges)
        src_bit = (r >= a + b).astype(np.int64)
        # Within the chosen row half, pick the column half.
        upper_threshold = np.where(src_bit == 0, a / max(a + b, 1e-12), c / max(c + d, 1e-12))
        r2 = rng.random(num_edges)
        dst_bit = (r2 >= upper_threshold).astype(np.int64)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    # Permute vertex ids so high-degree vertices are not clustered at 0.
    perm = rng.permutation(num_vertices).astype(np.int64)
    return CSRGraph.from_edges(perm[src], perm[dst], num_vertices, dedup=dedup)


def power_law(
    num_vertices: int,
    avg_degree: float,
    exponent: float = 2.1,
    seed: int = 1,
    dedup: bool = False,
) -> CSRGraph:
    """Chung-Lu graph with a Pareto expected-degree sequence.

    Produces the heavy-tailed degree distributions of social and web
    graphs (Twitter-like for exponent around 2, flatter for larger).
    """
    if num_vertices <= 0:
        raise GraphFormatError("num_vertices must be positive")
    if avg_degree <= 0:
        raise GraphFormatError("avg_degree must be positive")
    if exponent <= 1.0:
        raise GraphFormatError("exponent must be > 1")
    rng = _rng(seed)
    # Pareto(alpha) has mean alpha/(alpha-1) for alpha>1; rescale to hit
    # the requested average degree, and cap at sqrt(V*E) to keep the
    # Chung-Lu edge probabilities valid.
    alpha = exponent - 1.0
    raw = rng.pareto(alpha, size=num_vertices) + 1.0
    weights = raw * (avg_degree / raw.mean())
    cap = np.sqrt(weights.sum())
    weights = np.minimum(weights, cap)
    num_edges = int(round(avg_degree * num_vertices))
    # Sample endpoints proportional to weight: inverse-CDF on the
    # cumulative weight vector.
    cum = np.cumsum(weights)
    cum /= cum[-1]
    bounds = _bucket_bounds(cum)
    src = _inverse_cdf(cum, rng.random(num_edges), bounds)
    dst = _inverse_cdf(cum, rng.random(num_edges), bounds)
    return CSRGraph.from_edges(src, dst, num_vertices, dedup=dedup)


def road_grid(width: int, height: int, seed: int = 1, diagonal_fraction: float = 0.02) -> CSRGraph:
    """A road-network stand-in: 2-D grid plus a sprinkle of shortcut edges.

    Grids share RoadUSA's defining properties: degree ~4, enormous
    diameter, and sparse frontiers.  A small fraction of random shortcut
    edges mimics highways without collapsing the diameter.
    """
    if width <= 0 or height <= 0:
        raise GraphFormatError("grid dimensions must be positive")
    if not 0.0 <= diagonal_fraction < 1.0:
        raise GraphFormatError("diagonal_fraction must be in [0, 1)")
    num_vertices = width * height
    ids = np.arange(num_vertices, dtype=np.int64).reshape(height, width)
    horiz_src = ids[:, :-1].ravel()
    horiz_dst = ids[:, 1:].ravel()
    vert_src = ids[:-1, :].ravel()
    vert_dst = ids[1:, :].ravel()
    src = np.concatenate([horiz_src, horiz_dst, vert_src, vert_dst])
    dst = np.concatenate([horiz_dst, horiz_src, vert_dst, vert_src])
    if diagonal_fraction > 0:
        rng = _rng(seed)
        extra = int(diagonal_fraction * src.shape[0])
        shortcut_src = rng.integers(0, num_vertices, size=extra, dtype=np.int64)
        # Shortcuts connect to nearby rows to preserve the high diameter.
        offset = rng.integers(-3 * width, 3 * width, size=extra, dtype=np.int64)
        shortcut_dst = np.clip(shortcut_src + offset, 0, num_vertices - 1)
        src = np.concatenate([src, shortcut_src, shortcut_dst])
        dst = np.concatenate([dst, shortcut_dst, shortcut_src])
    return CSRGraph.from_edges(src, dst, num_vertices, dedup=True)


def with_uniform_weights(
    graph: CSRGraph, low: float = 1.0, high: float = 256.0, seed: int = 7
) -> CSRGraph:
    """Attach uniform random edge weights in [low, high) to a graph."""
    if low <= 0 or high <= low:
        raise GraphFormatError("need 0 < low < high")
    rng = _rng(seed)
    weights = rng.uniform(low, high, size=graph.num_edges)
    return CSRGraph(graph.row_ptr, graph.col_idx, weights)
