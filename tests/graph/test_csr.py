"""CSRGraph construction, validation, and transformations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph.csr import MAX_KEY_VERTICES, CSRGraph


class TestConstruction:
    def test_from_edges_basic(self, tiny_graph):
        assert tiny_graph.num_vertices == 6
        assert tiny_graph.num_edges == 5
        assert list(tiny_graph.neighbors(0)) == [1, 2]
        assert list(tiny_graph.neighbors(3)) == [4]
        assert list(tiny_graph.neighbors(5)) == []

    def test_explicit_arrays(self):
        g = CSRGraph(np.array([0, 2, 2]), np.array([0, 1]))
        assert g.num_vertices == 2
        assert g.num_edges == 2

    def test_row_ptr_must_start_at_zero(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_row_ptr_must_be_monotone(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]))

    def test_row_ptr_tail_must_match_edges(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 3]), np.array([0, 0]))

    def test_col_idx_range_checked(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1]), np.array([7]))

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(np.array([0]), np.array([9]), 3)
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(np.array([-1]), np.array([0]), 3)

    def test_from_edges_rejects_shape_mismatch(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(np.array([0, 1]), np.array([1]), 3)

    def test_from_edges_rejects_bad_vertex_count(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(np.array([], dtype=int), np.array([], dtype=int), 0)

    def test_weights_length_checked(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(
                np.array([0]), np.array([1]), 2, weights=np.array([1.0, 2.0])
            )

    def test_dedup_removes_duplicates(self):
        g = CSRGraph.from_edges(
            np.array([0, 0, 0]), np.array([1, 1, 2]), 3, dedup=True
        )
        assert g.num_edges == 2

    def test_dedup_keeps_min_weight(self):
        g = CSRGraph.from_edges(
            np.array([0, 0]),
            np.array([1, 1]),
            2,
            weights=np.array([5.0, 2.0]),
            dedup=True,
        )
        assert g.num_edges == 1
        assert g.weights[0] == 2.0

    def test_multigraph_kept_without_dedup(self):
        g = CSRGraph.from_edges(np.array([0, 0]), np.array([1, 1]), 2)
        assert g.num_edges == 2

    def test_arrays_are_immutable(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.col_idx[0] = 0


class TestProperties:
    def test_degrees(self, tiny_graph):
        assert list(tiny_graph.out_degrees()) == [2, 1, 1, 1, 0, 0]
        assert list(tiny_graph.in_degrees()) == [0, 1, 1, 2, 1, 0]

    def test_edge_range_half_open(self, tiny_graph):
        start, end = tiny_graph.edge_range(0)
        assert end - start == 2
        assert list(tiny_graph.col_idx[start:end]) == [1, 2]

    def test_neighbors_out_of_range(self, tiny_graph):
        with pytest.raises(GraphFormatError):
            tiny_graph.neighbors(6)

    def test_iter_edges(self, tiny_graph):
        assert sorted(tiny_graph.iter_edges()) == [
            (0, 1), (0, 2), (1, 3), (2, 3), (3, 4),
        ]

    def test_edge_sources_matches_row_ptr(self, rmat_graph):
        src = rmat_graph.edge_sources()
        assert src.shape[0] == rmat_graph.num_edges
        counts = np.bincount(src, minlength=rmat_graph.num_vertices)
        assert np.array_equal(counts, rmat_graph.out_degrees())

    def test_footprint(self, tiny_graph):
        assert tiny_graph.footprint_bytes() == 6 * 16 + 5 * 8

    def test_repr_mentions_sizes(self, tiny_graph):
        assert "V=6" in repr(tiny_graph)
        assert "E=5" in repr(tiny_graph)


class TestTransforms:
    def test_transpose_reverses_edges(self, tiny_graph):
        t = tiny_graph.transpose()
        assert sorted(t.iter_edges()) == sorted(
            (d, s) for s, d in tiny_graph.iter_edges()
        )

    def test_transpose_involution(self, rmat_graph):
        back = rmat_graph.transpose().transpose()
        assert np.array_equal(back.row_ptr, rmat_graph.row_ptr)
        assert np.array_equal(back.col_idx, rmat_graph.col_idx)

    def test_symmetrized_contains_both_directions(self, tiny_graph):
        s = tiny_graph.symmetrized()
        edges = set(s.iter_edges())
        for u, v in tiny_graph.iter_edges():
            assert (u, v) in edges and (v, u) in edges

    def test_symmetrized_no_duplicates(self, tiny_graph):
        s = tiny_graph.symmetrized()
        edges = list(s.iter_edges())
        assert len(edges) == len(set(edges))

    def test_relabel_preserves_structure(self, tiny_graph):
        perm = np.array([5, 4, 3, 2, 1, 0])
        g = tiny_graph.relabeled(perm)
        assert sorted(g.iter_edges()) == sorted(
            (perm[s], perm[d]) for s, d in tiny_graph.iter_edges()
        )

    def test_relabel_rejects_non_permutation(self, tiny_graph):
        with pytest.raises(GraphFormatError):
            tiny_graph.relabeled(np.zeros(6, dtype=np.int64))
        with pytest.raises(GraphFormatError):
            tiny_graph.relabeled(np.arange(4))

    def test_transpose_keeps_weights(self):
        g = CSRGraph.from_edges(
            np.array([0, 1]), np.array([1, 0]), 2, weights=np.array([3.0, 7.0])
        )
        t = g.transpose()
        pairs = {
            (s, d): w
            for (s, d), w in zip(t.iter_edges(), t.weights)
        }
        assert pairs[(1, 0)] == 3.0
        assert pairs[(0, 1)] == 7.0


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=0, max_value=120))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


class TestPropertyBased:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_from_edges_preserves_edge_multiset(self, data):
        n, src, dst = data
        g = CSRGraph.from_edges(src, dst, n)
        built = sorted(zip(g.edge_sources().tolist(), g.col_idx.tolist()))
        assert built == sorted(zip(src.tolist(), dst.tolist()))

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_transpose_preserves_edge_count_and_reverses(self, data):
        n, src, dst = data
        g = CSRGraph.from_edges(src, dst, n)
        t = g.transpose()
        assert t.num_edges == g.num_edges
        assert sorted(zip(t.edge_sources().tolist(), t.col_idx.tolist())) == sorted(
            zip(dst.tolist(), src.tolist())
        )

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_degree_sums_equal_edges(self, data):
        n, src, dst = data
        g = CSRGraph.from_edges(src, dst, n)
        assert g.out_degrees().sum() == g.num_edges
        assert g.in_degrees().sum() == g.num_edges


def lexsort_from_edges(src, dst, n, weights=None, dedup=False):
    """The two-key ``np.lexsort`` construction ``from_edges`` replaced."""
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if weights is not None:
        weights = weights[order]
    if dedup and src.size:
        keep = np.empty(src.shape[0], dtype=bool)
        keep[0] = True
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        if weights is not None:
            group_ids = np.cumsum(keep) - 1
            mins = np.full(group_ids[-1] + 1, np.inf)
            np.minimum.at(mins, group_ids, weights)
            weights = mins
        src, dst = src[keep], dst[keep]
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=row_ptr[1:])
    return row_ptr, dst, weights


class TestCombinedKey:
    """``from_edges``'s combined ``src * V + dst`` key sort is the
    lexicographic order, duplicate weights included."""

    @given(
        edge_lists(),
        st.booleans(),
        st.booleans(),
        st.lists(st.integers(0, 9), min_size=120, max_size=120),
    )
    @example((1, np.zeros(5, np.int64), np.zeros(5, np.int64)), True, True,
             [3, 1, 4, 1, 5] + [0] * 115)
    @example((1, np.zeros(0, np.int64), np.zeros(0, np.int64)), False, True,
             [0] * 120)
    @settings(max_examples=150, deadline=None)
    def test_matches_lexsort(self, data, weighted, dedup, weight_draw):
        n, src, dst = data
        weights = None
        if weighted:
            # Few distinct values, so repeated pairs carry ties and
            # distinct weights alike: an unstable order would show.
            weights = np.asarray(weight_draw[: src.size], dtype=np.float64)
        g = CSRGraph.from_edges(src, dst, n, weights=weights, dedup=dedup)
        row_ptr, col_idx, ref_weights = lexsort_from_edges(
            src, dst, n, weights, dedup
        )
        assert np.array_equal(g.row_ptr, row_ptr)
        assert np.array_equal(g.col_idx, col_idx)
        if weighted:
            assert np.array_equal(g.weights, ref_weights)
        else:
            assert g.weights is None

    def test_inputs_untouched(self):
        src = np.array([2, 0, 1, 0])
        dst = np.array([0, 1, 2, 1])
        CSRGraph.from_edges(src, dst, 3, dedup=True)
        assert src.tolist() == [2, 0, 1, 0]
        assert dst.tolist() == [0, 1, 2, 1]

    def test_key_limit(self):
        assert MAX_KEY_VERTICES ** 2 <= 2 ** 63 - 1
        assert (MAX_KEY_VERTICES + 1) ** 2 > 2 ** 63 - 1

    def test_oversized_vertex_space_refused_before_allocating(self):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match="int64"):
                CSRGraph.from_edges(
                    np.array([0]), np.array([1]), MAX_KEY_VERTICES + 1
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
