"""Golden content digests of generated graphs.

The artifact store addresses a graph by its *recipe* (spec, seed, scale,
flags), not by its bytes, so a generator or CSR-construction change that
alters a graph would keep serving stale artifacts from existing stores.
These SHA-256 digests of ``row_ptr`` / ``col_idx`` / ``weights`` pin the
bytes every recipe below produces.  A change that trips this test must
also invalidate stored artifacts (bump ``STORE_SCHEMA``) and update the
digests on purpose.
"""

import hashlib

import numpy as np
import pytest

from repro.graph import suites
from repro.graph.generators import with_uniform_weights
from repro.graph.specifier import graph_from_specifier

#: name -> sha256 of (row_ptr, col_idx, weights); ``None``: no weights.
GOLDEN = {
    "suite:road": (
        "7d6b4341f3d152f96cfeeba98a1d231e07ff25b1d8c8a3b91e43a4f33c346e06",
        "a0217c831cc06f7c4d9455e27e1436de24040ec1d52693e37a9c4f842ef6ef40",
        None,
    ),
    "suite:twitter": (
        "db0305fb65b5c0b84548a24dfb175a2d8d1d102b7be3b337fe5e66d894d4b248",
        "110d3fdbf98b1121d48fa9d7aebafd1a9e74cfd43d962d2b0c881bc720ea9e66",
        None,
    ),
    "suite:friendster": (
        "96a652a0c14ff44f76ddb991bfa74983c794887157c93dff5223111e8a349d7a",
        "e1f0fbc2824d573cdd92728de14c93e539d4c4764de10211fd15d8add4027f73",
        None,
    ),
    "suite:host": (
        "ad656879f4cdaf3ded5d36153b56a3aad82fc76ddcce114dbb3c506d926bb526",
        "c91902ed377b704c7dd87480692ba918ba13d8438a7b7fd4f2634c53b8067b3f",
        None,
    ),
    "suite:urand": (
        "e8080a61df73761d6fea3300ddf423830f51694d72a735c0351c025ffbded86c",
        "deb4380c090f68d5649e70166b3e21e2f5ed37a8725052eee252e1dc6dbb0d21",
        None,
    ),
    "rmat:10:8": (
        "2007fabe80d5954de0273c57f28d0baa49910c7fa8217dc373c0c96a899e0d7b",
        "130a73763699a7748f365dee948ed98ea131f2ae3ff5b60d256a92dcc23e8a05",
        None,
    ),
    "urand:1000:8000": (
        "54430df8190bfb6c0aa00a4900d3502191facced2ee96f37397fd978a03e8b44",
        "4550b39bc596c43b682d9b1e9aa9ae48873f576809e9f58d045795fb45f69191",
        None,
    ),
    "powerlaw:2000:8": (
        "5d567de1486adca58a28d5e08abdedd7ea50f8c29af7378eb53465b5e4fac8e4",
        "c758092276088606a5e529afc9461dd2062f1a86ea9a2694e3f79723bd5b8f88",
        None,
    ),
    "road:20:20": (
        "45fbb06a3d54d9abbbcb680ae75b10d0511aa524e8111aa4d344bac70e68a8d2",
        "7a138567099102c52cae10b69b09b0dd147b7505d740ece76f2a7b1e99e88587",
        None,
    ),
    "powerlaw:2000:8+sym": (
        "45154fbd1129a39c055d7865afbf49b70d40a1ebbf0f9e03f25d6a2d7f51fafe",
        "92fd8b566585dbb56ce12bc25db620f4cabc54297c2795084be7cc730a591109",
        None,
    ),
    "powerlaw:2000:8+T": (
        "c8ac3cb323816bc4b0c08f1388446dac7581fab1a5bec0cdd1919e845812b0b7",
        "9c094dbab2680cac9e96a0560ba9cf5c306b9df4bff86e556a6f7909118964dc",
        None,
    ),
    "powerlaw:2000:8+w": (
        "5d567de1486adca58a28d5e08abdedd7ea50f8c29af7378eb53465b5e4fac8e4",
        "c758092276088606a5e529afc9461dd2062f1a86ea9a2694e3f79723bd5b8f88",
        "e0ab19197db6e2c05b43592e7094441ffd549290aebdec0f08737a10b3e26ba8",
    ),
    "powerlaw:2000:8+w+sym": (
        "45154fbd1129a39c055d7865afbf49b70d40a1ebbf0f9e03f25d6a2d7f51fafe",
        "92fd8b566585dbb56ce12bc25db620f4cabc54297c2795084be7cc730a591109",
        "bb463b85ed04ab713e483583a5ce1de79196a59aba79bbed8816caa95a4789a0",
    ),
    "powerlaw:2000:8+w+T": (
        "c8ac3cb323816bc4b0c08f1388446dac7581fab1a5bec0cdd1919e845812b0b7",
        "9c094dbab2680cac9e96a0560ba9cf5c306b9df4bff86e556a6f7909118964dc",
        "ffe28215f4c3384ab6ab7162c072f16eee9785e837a8c62304eb20b122a6ccea",
    ),
}


def _variant(name):
    spec, *flags = name.split("+")
    if spec.startswith("suite:"):
        graph = suites.build_graph(spec[len("suite:"):], scale=1 / 8192)
    else:
        graph = graph_from_specifier(spec, seed=42)
    for flag in flags:
        if flag == "w":
            graph = with_uniform_weights(graph, seed=7)
        elif flag == "sym":
            graph = graph.symmetrized()
        elif flag == "T":
            graph = graph.transpose()
    return graph


def _sha(array):
    if array is None:
        return None
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_graph_bytes_match_golden(name):
    graph = _variant(name)
    digests = tuple(
        _sha(array) for array in (graph.row_ptr, graph.col_idx, graph.weights)
    )
    assert digests == GOLDEN[name]


def test_every_suite_graph_is_pinned():
    pinned = {name for name in GOLDEN if name.startswith("suite:")}
    assert pinned == {f"suite:{spec.name}" for spec in suites.paper_suite()}
