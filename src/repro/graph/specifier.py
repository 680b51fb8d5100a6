"""Graph specifiers: one string names one reproducible graph.

::

    rmat:SCALE[:EDGE_FACTOR]      e.g. rmat:16:16
    urand:VERTICES:EDGES          e.g. urand:100000:3000000
    powerlaw:VERTICES:AVG_DEGREE  e.g. powerlaw:100000:35
    road:WIDTH:HEIGHT             e.g. road:300:300
    suite:NAME                    Table III stand-in (road/twitter/...)
    PATH                          .npz / .txt edge list / .gr DIMACS

The CLI's ``--graph`` flags and :class:`repro.runner.spec.GraphSpec`
both resolve through :func:`graph_from_specifier`.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.graph import io as graph_io
from repro.graph import suites
from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law, rmat, road_grid, uniform_random


def graph_from_specifier(spec: str, seed: int = 42) -> CSRGraph:
    """Build the graph a specifier names (see the module docstring)."""
    if ":" not in spec:
        if spec.endswith(".npz"):
            return graph_io.load_npz(spec)
        if spec.endswith(".gr"):
            return graph_io.load_dimacs(spec)
        if spec.endswith(".txt") or spec.endswith(".el"):
            return graph_io.load_edge_list(spec)
        raise ReproError(f"unrecognized graph specifier: {spec!r}")
    kind, _, rest = spec.partition(":")
    args = rest.split(":") if rest else []
    if kind == "rmat":
        scale = int(args[0])
        edge_factor = int(args[1]) if len(args) > 1 else 16
        return rmat(scale, edge_factor, seed=seed)
    if kind == "urand":
        return uniform_random(int(args[0]), int(args[1]), seed=seed)
    if kind == "powerlaw":
        return power_law(int(args[0]), float(args[1]), seed=seed)
    if kind == "road":
        return road_grid(int(args[0]), int(args[1]), seed=seed)
    if kind == "suite":
        return suites.build_graph(args[0], seed=seed)
    raise ReproError(f"unknown graph kind: {kind!r}")
