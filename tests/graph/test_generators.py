"""Synthetic graph generators: determinism, shape, and validation."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import generators
from repro.graph.generators import (
    _bucket_bounds,
    _inverse_cdf,
    power_law,
    rmat,
    road_grid,
    uniform_random,
    with_uniform_weights,
)


class TestUniformRandom:
    def test_sizes(self):
        g = uniform_random(100, 500, seed=1)
        assert g.num_vertices == 100
        assert g.num_edges == 500

    def test_deterministic(self):
        a = uniform_random(64, 256, seed=9)
        b = uniform_random(64, 256, seed=9)
        assert np.array_equal(a.col_idx, b.col_idx)
        assert np.array_equal(a.row_ptr, b.row_ptr)

    def test_seed_changes_graph(self):
        a = uniform_random(64, 256, seed=1)
        b = uniform_random(64, 256, seed=2)
        assert not np.array_equal(a.col_idx, b.col_idx)

    def test_dedup_reduces_edges(self):
        dense = uniform_random(8, 500, seed=3, dedup=True)
        assert dense.num_edges <= 64

    def test_rejects_bad_sizes(self):
        with pytest.raises(GraphFormatError):
            uniform_random(0, 10)
        with pytest.raises(GraphFormatError):
            uniform_random(10, -1)

    def test_degrees_roughly_uniform(self):
        g = uniform_random(1000, 32000, seed=5)
        deg = g.out_degrees()
        assert deg.mean() == pytest.approx(32.0, rel=0.01)
        # Poisson-ish: the max degree stays within a few standard deviations.
        assert deg.max() < 32 + 10 * np.sqrt(32)


class TestRmat:
    def test_sizes(self):
        g = rmat(8, 4, seed=1)
        assert g.num_vertices == 256
        assert g.num_edges == 1024

    def test_deterministic(self):
        a = rmat(8, 4, seed=2)
        b = rmat(8, 4, seed=2)
        assert np.array_equal(a.col_idx, b.col_idx)

    def test_skewed_degrees(self):
        g = rmat(12, 16, seed=3)
        deg = g.out_degrees()
        # R-MAT produces heavy tails: max far above the mean.
        assert deg.max() > 8 * deg.mean()

    def test_rejects_bad_scale(self):
        with pytest.raises(GraphFormatError):
            rmat(0)
        with pytest.raises(GraphFormatError):
            rmat(40)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(GraphFormatError):
            rmat(4, a=0.9, b=0.9, c=0.9)


class TestPowerLaw:
    def test_sizes(self):
        g = power_law(500, 10.0, seed=1)
        assert g.num_vertices == 500
        assert g.num_edges == 5000

    def test_heavy_tail(self):
        g = power_law(2000, 16.0, exponent=1.9, seed=2)
        deg = g.in_degrees()
        assert deg.max() > 6 * deg.mean()

    def test_rejects_bad_params(self):
        with pytest.raises(GraphFormatError):
            power_law(0, 4.0)
        with pytest.raises(GraphFormatError):
            power_law(10, -1.0)
        with pytest.raises(GraphFormatError):
            power_law(10, 4.0, exponent=0.5)


class TestInverseCdf:
    """The bucketed lookup is ``np.searchsorted`` exactly."""

    K = generators._CDF_BUCKETS

    def check(self, cum, needles):
        needles = np.asarray(needles, dtype=np.float64)
        assert needles.min() >= 0.0 and needles.max() < 1.0
        got = _inverse_cdf(cum, needles, _bucket_bounds(cum))
        assert got.dtype == np.int64
        assert np.array_equal(got, np.searchsorted(cum, needles))

    def test_bucket_edges_cum_entries_and_zero(self):
        rng = np.random.default_rng(0)
        cum = np.cumsum(rng.pareto(0.9, size=5000) + 1.0)
        cum /= cum[-1]
        inner = cum[:-1]
        needles = np.concatenate([
            [0.0],
            np.arange(0, self.K, 97) / self.K,  # exact bucket edges
            inner,  # exactly equal to cum entries
            np.nextafter(inner, 0.0),
            np.nextafter(inner, 1.0),
            rng.random(20_000),
        ])
        self.check(cum, needles[needles < 1.0])

    def test_repeated_cum_values(self):
        cum = np.array([0.1, 0.1, 0.1, 0.5, 0.5, 0.5, 0.75, 1.0, 1.0])
        self.check(cum, [0.0, 0.05, 0.1, 0.3, 0.5, 0.6, 0.75, 0.9, 0.99])

    def test_cum_below_one(self):
        """Needles past the last entry resolve to ``len(cum)``."""
        cum = np.array([0.2, 0.4])
        self.check(cum, [0.0, 0.2, 0.3, 0.4, 0.5, 0.999])

    def test_dense_bucket(self):
        """One bucket holding thousands of entries still bisects."""
        k = 314_159
        dense = (k + np.arange(1, 3001) / 4096) / self.K
        cum = np.concatenate([[0.25], dense, [0.5, 1.0]])
        bounds = _bucket_bounds(cum)
        assert bounds[k + 1] - bounds[k] == 3000
        rng = np.random.default_rng(1)
        needles = np.concatenate([
            dense,
            np.nextafter(dense, 0.0),
            (k + rng.random(5000)) / self.K,
            [k / self.K, (k + 1) / self.K, 0.0],
        ])
        self.check(cum, needles)

    def test_many_blocks(self, monkeypatch):
        """Every block resolves its own bisecting needles."""
        monkeypatch.setattr(generators, "_CDF_BLOCK", 7)
        rng = np.random.default_rng(2)
        cum = np.cumsum(rng.random(300))
        cum /= cum[-1]
        above = np.nextafter(cum[:-1], 1.0)  # answers past bounds[k]
        needles = np.stack([rng.random(299), above]).T.ravel()
        self.check(cum, needles)


class TestRoadGrid:
    def test_plain_grid_structure(self):
        g = road_grid(4, 3, diagonal_fraction=0.0)
        assert g.num_vertices == 12
        # 2 * (horizontal (w-1)*h + vertical w*(h-1)) directed edges.
        assert g.num_edges == 2 * ((4 - 1) * 3 + 4 * (3 - 1))

    def test_grid_is_symmetric(self):
        g = road_grid(5, 5, diagonal_fraction=0.0)
        edges = set(g.iter_edges())
        assert all((v, u) in edges for u, v in edges)

    def test_interior_degree_is_four(self):
        g = road_grid(5, 5, diagonal_fraction=0.0)
        # Vertex (2, 2) = id 12 is interior.
        assert g.out_degrees()[12] == 4

    def test_shortcuts_added(self):
        plain = road_grid(20, 20, diagonal_fraction=0.0)
        shortcut = road_grid(20, 20, diagonal_fraction=0.05, seed=1)
        assert shortcut.num_edges >= plain.num_edges

    def test_rejects_bad_sizes(self):
        with pytest.raises(GraphFormatError):
            road_grid(0, 5)
        with pytest.raises(GraphFormatError):
            road_grid(5, 5, diagonal_fraction=1.5)


class TestWeights:
    def test_weights_in_range(self, rmat_graph):
        g = with_uniform_weights(rmat_graph, low=1.0, high=10.0, seed=3)
        assert g.weights.min() >= 1.0
        assert g.weights.max() < 10.0
        assert g.weights.shape[0] == g.num_edges

    def test_structure_unchanged(self, rmat_graph):
        g = with_uniform_weights(rmat_graph)
        assert np.array_equal(g.row_ptr, rmat_graph.row_ptr)
        assert np.array_equal(g.col_idx, rmat_graph.col_idx)

    def test_rejects_bad_range(self, rmat_graph):
        with pytest.raises(GraphFormatError):
            with_uniform_weights(rmat_graph, low=5.0, high=2.0)
        with pytest.raises(GraphFormatError):
            with_uniform_weights(rmat_graph, low=-1.0, high=2.0)
