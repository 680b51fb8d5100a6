"""The scaled evaluation suite standing in for Table III.

The paper's inputs span 58 M to 4.2 B edges.  A Python-level simulator
cannot traverse billions of edges per experiment, so the suite scales
every graph (and every *capacity* in the system configuration) by a
common factor -- 1/256 by default.  Because PolyGraph's temporal slice
count depends only on the ratio ``vertex_state / on_chip_memory``, the
scaled suite reproduces Table III's slice counts (3/5/8/13/16) exactly;
see :func:`temporal_slices` and ``tests/graph/test_suites.py``.

=============  ===========  ==========  ========  ======
Graph          paper V      paper E     paper #sl  archetype
=============  ===========  ==========  ========  ======
RoadUSA        23.9 M       58.3 M      3         grid (high diameter)
Twitter        41.65 M      1.46 B      5         power law, exp ~1.9
Friendster     65.6 M       1.8 B       8         power law, exp ~2.3
Host (WDC)     101 M        2 B         13        power law, exp ~2.05
Urand          134.2 M      4.2 B       16        uniform random
=============  ===========  ==========  ========  ======
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law, road_grid, uniform_random
from repro.units import MiB

#: Default linear scale of the suite relative to the paper's graphs.
DEFAULT_SCALE = 1.0 / 256.0

#: Bytes of per-vertex state PolyGraph keeps resident per slice; chosen so
#: Table III's slice counts fall out of `ceil(4 B x V / on-chip)` exactly.
SLICE_PROPERTY_BYTES = 4

#: The paper's PolyGraph on-chip memory (Table III header: 32 MiB).
PAPER_ONCHIP_BYTES = 32 * MiB


@dataclass(frozen=True)
class GraphSpec:
    """One row of (scaled) Table III."""

    name: str
    paper_vertices: int
    paper_edges: int
    paper_slices: int
    archetype: str
    builder: Callable[[int, int], CSRGraph]  # (num_vertices, seed) -> graph

    def scaled_vertices(self, scale: float = DEFAULT_SCALE) -> int:
        return max(64, int(round(self.paper_vertices * scale)))

    def build(self, scale: float = DEFAULT_SCALE, seed: int = 42) -> CSRGraph:
        return self.builder(self.scaled_vertices(scale), seed)


def _road_builder(num_vertices: int, seed: int) -> CSRGraph:
    side = max(8, int(round(math.sqrt(num_vertices))))
    return road_grid(side, side, seed=seed)


def _power_law_builder(avg_degree: float, exponent: float):
    def build(num_vertices: int, seed: int) -> CSRGraph:
        return power_law(num_vertices, avg_degree, exponent=exponent, seed=seed)

    return build


def _urand_builder(num_vertices: int, seed: int) -> CSRGraph:
    # Paper ratio: 4.2 B edges / 134.2 M vertices ~= 31.3.
    return uniform_random(num_vertices, int(31.3 * num_vertices), seed=seed)


_SUITE: Tuple[GraphSpec, ...] = (
    GraphSpec("road", 23_900_000, 58_300_000, 3, "grid", _road_builder),
    GraphSpec(
        "twitter", 41_650_000, 1_460_000_000, 5, "power-law",
        _power_law_builder(avg_degree=35.0, exponent=1.9),
    ),
    GraphSpec(
        "friendster", 65_600_000, 1_800_000_000, 8, "power-law",
        _power_law_builder(avg_degree=27.4, exponent=2.3),
    ),
    GraphSpec(
        "host", 101_000_000, 2_000_000_000, 13, "power-law",
        _power_law_builder(avg_degree=19.8, exponent=2.05),
    ),
    GraphSpec("urand", 134_200_000, 4_200_000_000, 16, "uniform", _urand_builder),
)


def paper_suite() -> Tuple[GraphSpec, ...]:
    """The five Table III graphs, in paper order."""
    return _SUITE


def get_spec(name: str) -> GraphSpec:
    for spec in _SUITE:
        if spec.name == name:
            return spec
    raise ConfigError(
        f"unknown graph {name!r}; known: {[s.name for s in _SUITE]}"
    )


def build_graph(
    name: str, scale: float = DEFAULT_SCALE, seed: int = 42
) -> CSRGraph:
    """Build one suite graph at the given scale.

    Every call runs the generator; callers that resolve the same graph
    repeatedly go through :meth:`repro.runner.spec.GraphSpec.build`,
    whose bounded memo and artifact store make repeats free.
    """
    if scale <= 0 or scale > 1:
        raise ConfigError("scale must be in (0, 1]")
    return get_spec(name).build(scale, seed)


def temporal_slices(
    num_vertices: int,
    onchip_bytes: int,
    property_bytes: int = SLICE_PROPERTY_BYTES,
) -> int:
    """PolyGraph slice count: ceil(property-state / on-chip memory)."""
    if onchip_bytes <= 0:
        raise ConfigError("onchip_bytes must be positive")
    return max(1, math.ceil(num_vertices * property_bytes / onchip_bytes))


def scaled_onchip_bytes(scale: float = DEFAULT_SCALE) -> int:
    """PolyGraph's 32 MiB on-chip memory, scaled with the suite."""
    return max(1, int(PAPER_ONCHIP_BYTES * scale))
