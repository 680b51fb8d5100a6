"""The scaled Table III suite: slice counts and builders."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph import suites


class TestSliceCounts:
    def test_paper_slice_counts_reproduced(self):
        """Table III: 3 / 5 / 8 / 13 / 16 slices at 32 MiB on-chip."""
        onchip = suites.scaled_onchip_bytes(suites.DEFAULT_SCALE)
        for spec in suites.paper_suite():
            slices = suites.temporal_slices(
                spec.scaled_vertices(suites.DEFAULT_SCALE), onchip
            )
            assert slices == spec.paper_slices, spec.name

    def test_slice_counts_scale_invariant(self):
        """The capacity-to-footprint ratio is preserved at any scale."""
        for scale in (1 / 64, 1 / 128, 1 / 512):
            onchip = suites.scaled_onchip_bytes(scale)
            for spec in suites.paper_suite():
                slices = suites.temporal_slices(
                    spec.scaled_vertices(scale), onchip
                )
                assert abs(slices - spec.paper_slices) <= 1, (spec.name, scale)

    def test_full_scale_counts(self):
        for spec in suites.paper_suite():
            assert (
                suites.temporal_slices(
                    spec.paper_vertices, suites.PAPER_ONCHIP_BYTES
                )
                == spec.paper_slices
            )

    def test_temporal_slices_validation(self):
        with pytest.raises(ConfigError):
            suites.temporal_slices(100, 0)
        assert suites.temporal_slices(1, 10**9) == 1


class TestBuilders:
    @pytest.mark.parametrize("name", [s.name for s in suites.paper_suite()])
    def test_builds_at_tiny_scale(self, name):
        g = suites.build_graph(name, scale=1 / 8192)
        assert g.num_vertices > 0
        assert g.num_edges > 0

    def test_rebuild_is_deterministic(self):
        """No module-level memo: each call builds anew, to equal arrays."""
        a = suites.build_graph("twitter", scale=1 / 8192)
        b = suites.build_graph("twitter", scale=1 / 8192)
        assert a is not b
        assert np.array_equal(a.row_ptr, b.row_ptr)
        assert np.array_equal(a.col_idx, b.col_idx)

    def test_unknown_graph(self):
        with pytest.raises(ConfigError):
            suites.get_spec("orkut")

    def test_bad_scale(self):
        with pytest.raises(ConfigError):
            suites.build_graph("road", scale=0)
        with pytest.raises(ConfigError):
            suites.build_graph("road", scale=2.0)

    def test_archetypes(self):
        names = {s.name: s.archetype for s in suites.paper_suite()}
        assert names["road"] == "grid"
        assert names["urand"] == "uniform"
        assert names["twitter"] == "power-law"

    def test_paper_order(self):
        assert [s.name for s in suites.paper_suite()] == [
            "road", "twitter", "friendster", "host", "urand",
        ]
