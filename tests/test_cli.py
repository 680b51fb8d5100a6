"""Command-line interface."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cli import _job_spec, _sweep_grid, main, make_parser
from repro.errors import ReproError
from repro.graph import io as graph_io
from repro.graph.generators import rmat
from repro.graph.specifier import graph_from_specifier as build_graph
from repro.units import KiB, MiB, parse_size


class TestParseSize:
    def test_units(self):
        assert parse_size("64KiB") == 64 * KiB
        assert parse_size("1.5MiB") == int(1.5 * MiB)
        assert parse_size("4096") == 4096
        assert parse_size("2b") == 2

    def test_bad_size(self):
        with pytest.raises(ValueError):
            parse_size("lots")


def test_library_graph_and_size_paths_skip_the_cli():
    """Only ``repro.__main__`` imports ``repro.cli``: building a graph
    from a specifier and lowering a PolyGraph job with ``onchip`` (its
    size parser) stay inside the library."""
    code = "\n".join([
        "import sys",
        "from repro.runner.spec import GraphSpec",
        "from repro.service.store import JobSpec",
        "GraphSpec('rmat:8:8').build()",
        "JobSpec(workload='bfs', graph='rmat:8:8', system='polygraph',",
        "        onchip='64KiB').to_run_spec()",
        "assert 'repro.cli' not in sys.modules",
    ])
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, REPRO_GRAPH_STORE="0", PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


class TestGraphSpecs:
    def test_rmat(self):
        g = build_graph("rmat:8:4", seed=1)
        assert g.num_vertices == 256
        assert g.num_edges == 1024

    def test_urand(self):
        g = build_graph("urand:100:500", seed=1)
        assert (g.num_vertices, g.num_edges) == (100, 500)

    def test_powerlaw(self):
        g = build_graph("powerlaw:200:8", seed=1)
        assert g.num_vertices == 200

    def test_road(self):
        g = build_graph("road:5:4", seed=1)
        assert g.num_vertices == 20

    def test_suite(self):
        g = build_graph("suite:road")
        assert g.num_vertices > 1000

    def test_file_roundtrip(self, tmp_path):
        g = rmat(6, 4, seed=2)
        path = str(tmp_path / "g.npz")
        graph_io.save_npz(g, path)
        loaded = build_graph(path)
        assert loaded.num_edges == g.num_edges

    def test_unknown_kind(self):
        with pytest.raises(ReproError):
            build_graph("torus:3:3")
        with pytest.raises(ReproError):
            build_graph("mystery")


class TestCommands:
    def test_run_nova(self, capsys):
        assert main(["run", "--graph", "rmat:10:8", "--workload", "bfs",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "uncached nova/bfs" in out
        assert "workeff=" in out  # the oracle's reference edge count
        assert "verified" in out

    @pytest.mark.parametrize("system", ["polygraph", "ligra"])
    def test_run_verify_baselines(self, system, capsys):
        assert main(["run", "--system", system, "--graph", "rmat:9:8",
                     "--workload", "sssp", "--verify"]) == 0
        out = capsys.readouterr().out
        assert f"uncached {system}/sssp" in out
        assert "workeff=" in out and "verified" in out

    def test_run_polygraph(self, tmp_path, capsys):
        assert main(["run", "--system", "polygraph", "--graph", "rmat:10:8",
                     "--onchip", "2KiB",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "polygraph/bfs" in capsys.readouterr().out

    def test_run_ligra(self, tmp_path, capsys):
        assert main(["run", "--system", "ligra", "--graph", "rmat:10:8",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "ligra/bfs" in capsys.readouterr().out

    def test_run_uses_the_run_cache(self, tmp_path, capsys):
        args = ["run", "--graph", "rmat:9:8", "--workload", "bfs",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache miss" in first
        # The repeat answers from the cache with the identical report.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert first.splitlines()[1:] == second.splitlines()[1:]

    def test_run_no_cache_bypasses(self, tmp_path, capsys):
        assert main(["run", "--graph", "rmat:9:8", "--no-cache",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache miss" not in out and "cache hit" not in out
        assert not any(tmp_path.iterdir())  # nothing stored either

    def test_run_seed_is_part_of_the_key(self, tmp_path, capsys):
        base = ["run", "--graph", "rmat:9:8", "--cache-dir", str(tmp_path)]
        assert main(base + ["--seed", "1"]) == 0
        assert "cache miss" in capsys.readouterr().out
        # A different graph seed is a different run, not a cache hit.
        assert main(base + ["--seed", "2"]) == 0
        assert "cache miss" in capsys.readouterr().out
        assert main(base + ["--seed", "1"]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_run_sssp_auto_weights(self, capsys):
        assert main(["run", "--graph", "rmat:10:8", "--workload", "sssp",
                     "--verify"]) == 0

    def test_run_cc_auto_symmetrize(self, capsys):
        assert main(["run", "--graph", "rmat:10:8", "--workload", "cc",
                     "--verify"]) == 0

    def test_run_fifo_mode(self, capsys):
        assert main(["run", "--graph", "rmat:10:8", "--vmu-mode", "fifo",
                     "--verify"]) == 0

    def test_generate(self, tmp_path, capsys):
        out = str(tmp_path / "g.npz")
        assert main(["generate", "--kind", "rmat:8:4", "--out", out]) == 0
        g = graph_io.load_npz(out)
        assert g.num_vertices == 256

    def test_generate_weighted_edgelist(self, tmp_path):
        out = str(tmp_path / "g.txt")
        assert main(["generate", "--kind", "road:4:4", "--out", out,
                     "--weights"]) == 0
        g = graph_io.load_edge_list(out)
        assert g.has_weights

    def test_info(self, capsys):
        assert main(["info", "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "1.50 MiB" in out  # the paper's on-chip budget per GPN

    def test_resources(self, capsys):
        assert main(["resources"]) == 0
        out = capsys.readouterr().out
        assert "NOVA" in out and "Dalorex" in out

    def test_error_path(self, capsys):
        assert main(["run", "--graph", "nope:1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_status_unreachable_service(self, capsys):
        # Nothing listens on a reserved port: a clean error, not a dump.
        assert main(["status", "--url", "http://127.0.0.1:1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_profile(self, tmp_path, capsys):
        import json

        out = str(tmp_path / "profile.json")
        assert main(["profile", "--graph", "rmat:9:8", "--workload", "bfs",
                     "--json", out]) == 0
        text = capsys.readouterr().out
        assert "by class:" in text and "by resource:" in text
        assert "phase profile" in text
        assert "fault counters" in text
        with open(out, encoding="utf-8") as f:
            payload = json.load(f)
        assert payload["timeline"]["schema"] == 1
        assert payload["timeline"]["quanta"] > 0
        assert payload["report"]["dominant_class"] in (
            "bandwidth", "compute", "queue"
        )
        assert payload["phases"]["quanta_sampled"] > 0
        assert "fault_counters" in payload

    def test_profile_no_phases(self, tmp_path, capsys):
        import json

        out = str(tmp_path / "profile.json")
        assert main(["profile", "--graph", "rmat:8:8", "--workload", "pr",
                     "--pr-supersteps", "3",
                     "--no-phases", "--json", out]) == 0
        with open(out, encoding="utf-8") as f:
            payload = json.load(f)
        assert payload["phases"] is None
        assert payload["timeline"]["quanta"] > 0

    def test_sweep(self, tmp_path, capsys):
        args = ["sweep", "--graph", "rmat:9:8", "--workloads", "bfs,pr",
                "--gpns", "1,2", "--sources", "2", "--workers", "1",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "6 runs: 0 cached, 6 computed" in first
        # Same sweep again: everything resolves from the cache.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "6 runs: 6 cached, 0 computed" in second
        assert first.splitlines()[:-1] == second.splitlines()[:-1]

    def test_sweep_resume_requires_a_checkpoint(self, tmp_path, capsys):
        args = ["sweep", "--graph", "rmat:9:8", "--workloads", "bfs",
                "--gpns", "1", "--sources", "1", "--workers", "1",
                "--cache-dir", str(tmp_path)]
        # Nothing was ever interrupted: --resume has nothing to pick up.
        assert main(args + ["--resume"]) == 1
        assert "no interrupted sweep to resume" in capsys.readouterr().err

        # A clean sweep removes its checkpoint, so --resume still errors.
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 1
        assert "no interrupted sweep to resume" in capsys.readouterr().err

    def test_sweep_resume_rejects_no_cache(self, capsys):
        assert main(["sweep", "--graph", "rmat:9:8", "--workloads", "bfs",
                     "--gpns", "1", "--sources", "1", "--workers", "1",
                     "--no-cache", "--resume"]) == 1
        assert "--resume needs the run cache" in capsys.readouterr().err

    def test_sweep_progress_on_stderr(self, tmp_path, capsys):
        assert main(["sweep", "--graph", "rmat:9:8", "--workloads", "bfs",
                     "--gpns", "1", "--sources", "2", "--workers", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "sweep 2/2" in captured.err  # live telemetry, stderr only
        assert "sweep 2/2" not in captured.out

    def test_sweep_no_progress_silences_monitor(self, tmp_path, capsys):
        assert main(["sweep", "--graph", "rmat:9:8", "--workloads", "bfs",
                     "--gpns", "1", "--sources", "1", "--workers", "1",
                     "--no-progress", "--cache-dir", str(tmp_path)]) == 0
        assert "sweep 1/1" not in capsys.readouterr().err

    def test_profile_json_stdout(self, capsys):
        import json

        # Bare --json streams the report to stdout; the rendered view
        # moves to stderr so stdout stays machine-parseable.
        assert main(["profile", "--graph", "rmat:8:8", "--workload", "bfs",
                     "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["dominant_class"] in ("bandwidth", "compute", "queue")
        assert payload["quanta"] > 0
        assert "class_shares" in payload
        assert "by class:" in captured.err

    def test_report_after_timeline_sweep(self, tmp_path, capsys):
        grid = ["--graph", "rmat:9:8", "--workloads", "bfs,pr",
                "--gpns", "1,2", "--sources", "2", "--timeline",
                "--cache-dir", str(tmp_path)]
        assert main(["sweep"] + grid + ["--workers", "1",
                                        "--no-progress"]) == 0
        capsys.readouterr()

        json_a = str(tmp_path / "a.json")
        md_path = str(tmp_path / "a.md")
        assert main(["report"] + grid + ["--json", json_a,
                                         "--md", md_path]) == 0
        first = capsys.readouterr().out
        assert first.startswith("# Sweep report")
        assert "workload=bfs, graph=rmat:9:8, gpns=1" in first
        assert "## Bottleneck shares" in first

        # Same cache, second invocation: byte-identical everywhere.
        json_b = str(tmp_path / "b.json")
        assert main(["report"] + grid + ["--json", json_b]) == 0
        second = capsys.readouterr().out
        assert first == second
        with open(json_a, "rb") as fa, open(json_b, "rb") as fb:
            assert fa.read() == fb.read()
        with open(md_path, encoding="utf-8") as f:
            assert f.read() == first

    def test_report_groups_failures(self, tmp_path, capsys):
        import json

        grid = ["--graph", "rmat:9:8", "--workloads", "bfs",
                "--gpns", "1", "--sources", "2",
                "--cache-dir", str(tmp_path)]
        assert main(["sweep"] + grid + ["--workers", "1",
                                        "--no-progress"]) == 0
        capsys.readouterr()
        out_json = str(tmp_path / "r.json")
        assert main(["report"] + grid + ["--json", out_json]) == 0
        payload = json.load(open(out_json, encoding="utf-8"))
        assert payload["schema"] == 1
        assert payload["totals"]["ok"] == 2
        # Uninstrumented sweep: no timelines joined, no bottleneck cells.
        assert payload["totals"]["with_timeline"] == 0

    def test_report_empty_cache_errors(self, tmp_path, capsys):
        assert main(["report", "--graph", "rmat:9:8", "--workloads", "bfs",
                     "--gpns", "1", "--sources", "1",
                     "--cache-dir", str(tmp_path)]) == 1
        assert "no cached runs found" in capsys.readouterr().err

    def test_report_rejects_bad_group_by(self, tmp_path, capsys):
        assert main(["report", "--graph", "rmat:9:8", "--workloads", "bfs",
                     "--gpns", "1", "--sources", "1",
                     "--cache-dir", str(tmp_path),
                     "--group-by", "seed"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCommaLists:
    """``--workloads``, a grid's ``--gpns``, ``--group-by`` and ``graph
    build --workloads`` share one argparse type: bad or empty lists are
    usage errors (exit 2), never a traceback or an empty run."""

    GRID = ["--graph", "rmat:9:8", "--sources", "1", "--cache-dir"]

    def _usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    def test_bad_gpns_item(self, tmp_path, capsys):
        err = self._usage_error(
            ["sweep", *self.GRID, str(tmp_path), "--gpns", "1,x"], capsys
        )
        assert "argument --gpns" in err and "'1,x'" in err

    def test_blank_items_are_skipped(self):
        args = make_parser().parse_args(
            ["report", "--gpns", "1,", "--workloads", " bfs , pr,"]
        )
        assert args.gpns == [1]
        assert args.workloads == ["bfs", "pr"]

    def test_empty_workloads(self, tmp_path, capsys):
        err = self._usage_error(
            ["sweep", *self.GRID, str(tmp_path), "--workloads", " ,"],
            capsys,
        )
        assert "argument --workloads: empty list" in err
        assert not any(tmp_path.iterdir())  # no grid ran

    def test_empty_group_by(self, tmp_path, capsys):
        err = self._usage_error(
            ["report", *self.GRID, str(tmp_path), "--group-by", ","], capsys
        )
        assert "argument --group-by: empty list" in err

    def test_empty_graph_build_workloads(self, capsys):
        err = self._usage_error(
            ["graph", "build", "--graph", "rmat:8:8", "--workloads", ""],
            capsys,
        )
        assert "argument --workloads: empty list" in err

    def test_unknown_workload_is_refused_by_the_job_spec(
        self, tmp_path, capsys
    ):
        # Refused before its graph (here one that cannot build) is built.
        assert main(["sweep", *self.GRID, str(tmp_path),
                     "--workloads", "nope", "--graph", "nope:1"]) == 1
        assert "unknown workload 'nope'" in capsys.readouterr().err


class TestSharedFlags:
    def test_defaults_that_differ_per_command(self):
        parser = make_parser()
        parse = parser.parse_args
        assert parse(["run"]).graph == "rmat:14:16"
        assert parse(["profile"]).graph == "rmat:12:8"
        assert parse(["validate"]).graph == "rmat:11:8"
        serve = parse(["serve"])
        assert (serve.port, serve.job_workers) == (8734, 2)
        worker = parse(["worker", "--coordinator", "http://x"])
        assert (worker.port, worker.job_workers) == (0, 1)
        assert parse(["info"]).scale == 1.0
        assert parse(["stream", "query", "s-1"]).workload == "pr"

    def test_each_shared_flag_is_declared_once(self):
        """Every knob two commands share has one ``add_argument``."""
        import ast
        import collections

        import repro.cli

        with open(repro.cli.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        declared = collections.Counter(
            node.args[0].value
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "add_argument"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        )
        shared = [
            "--graph", "--seed", "--workload", "--source", "--system",
            "--onchip", "--scale", "--placement", "--pr-supersteps",
            "--timeline", "--cache-dir", "--url", "--client", "--priority",
            "--wait", "--wait-timeout", "--host", "--port", "--state-dir",
            "--queue-depth", "--job-workers", "--run-workers",
            "--drain-timeout",
        ]
        assert {flag: declared[flag] for flag in shared} == dict.fromkeys(
            shared, 1
        )


class TestGoldenKeys:
    """One cell, one cache key, whichever front end lowers it.

    The literal keys were computed by the ``repro run`` and ``repro
    sweep`` code that predates the shared :func:`repro.cli._job_spec`
    lowering (with the graph store off); ``run``, ``submit`` and the
    sweep grid must all still produce them.
    """

    GRAPH = ["--graph", "rmat:9:8"]
    CELLS = {
        "--workload bfs":
            "f6c44e30e7f184e0c2b6d07d4bb9c3883c6fc54cab91f203005a6d3b2d99dfcc",
        "--workload sssp --gpns 2":
            "1727b0d85bcc3a1366274c7530f12c773bd1d7f1fa09be1920e4ce89aa91ca33",
        "--workload pr --pr-supersteps 3":
            "35af6eb8e60ec5251fbf0a3b3d5374cacf983784f446e5867c48f51549377792",
        "--workload cc --system polygraph --onchip 2KiB":
            "2e7e3e0734bbc59fd4120a1d9aff3d108bebee9f4587535968b88ba742dc024e",
        "--workload bc --system ligra --source 3":
            "e3276c7e64b9a94cf897d6d61b18cde0951497cb41a09e9e1a0e0467fd016ede",
        "--workload sssp --placement locality --seed 7 --scale 0.0078125":
            "28e32959d6ccf991b31b57a51580229e60d91316a82de71be55a325759a71b2c",
        "--workload pr --system polygraph":
            "861829145138084299901cb383a03afa8aa2ddbef933f4b37d3d60110fbdd275",
    }
    #: ``run`` only: --vmu-mode is applied to the lowered NOVA config.
    RUN_ONLY = {
        "--workload bfs --vmu-mode fifo":
            "9d1c3c85a3e5fc35fda437a278d03322a3e43ffc1f7ba00f6b0b1e63fc42f6dd",
    }
    SWEEPS = {
        "--workloads bfs,pr --gpns 1,2 --sources 2 --timeline": {
            ("bfs", 1, 46):
                "e9f416d75ddaf8a0dfbc920ba36104015a5cc7a009476f92f50392054acd782f",
            ("bfs", 1, 393):
                "442e55540ab217e383d3fa2a47a7ab61afe5fbcd324257fd842b1d99d05746a4",
            ("bfs", 2, 46):
                "1b242907a80bb3fdd7d8bf7cc18b9e977426b89676c478c51e5675d34d587a19",
            ("bfs", 2, 393):
                "22632211823cde401fed3cbf7afcd2273ebde935e575664657649ada7745cbfc",
            ("pr", 1, None):
                "c25cc9f331590d567c3bb3296e9c5e64eb6f04d7026e7ff8e0d0ab470ccccc70",
            ("pr", 2, None):
                "1c1393380d2dc4bb1d50410246d91fea992ec49687908cee68dcc0894be9ad5c",
        },
        "--workloads sssp,cc --gpns 2 --sources 1 --seed 5 "
        "--placement interleave": {
            ("sssp", 2, 346):
                "979ccf3d6c04693268c24dc2be77a1b9cbfed3e651d14fd456c9d09176d5f4a5",
            ("cc", 2, None):
                "345db2141193788effd991c8590bf30a34d5a57114443259947511254fe736fd",
        },
    }

    @pytest.mark.parametrize("cell", [*CELLS, *RUN_ONLY])
    def test_run(self, cell, tmp_path, capsys):
        """``repro run`` stores its result under the golden key."""
        key = {**self.CELLS, **self.RUN_ONLY}[cell]
        assert main(["run", *self.GRAPH, *cell.split(),
                     "--cache-dir", str(tmp_path)]) == 0
        assert f"cache miss {key[:12]}" in capsys.readouterr().out
        assert [p.name for p in tmp_path.glob("*/*.pkl")] == [key + ".pkl"]

    @pytest.mark.parametrize("cell", list(CELLS))
    def test_submit(self, cell):
        from repro.runner import spec_key
        from repro.service.store import JobSpec

        args = make_parser().parse_args(["submit", *self.GRAPH, *cell.split()])
        # What the service lowers is the JSON the client posts.
        job = JobSpec.from_dict(_job_spec(args).to_dict())
        assert spec_key(job.to_run_spec()) == self.CELLS[cell]

    @pytest.mark.parametrize("grid", list(SWEEPS))
    def test_sweep_grid(self, grid):
        from repro.runner import spec_key

        args = make_parser().parse_args(["sweep", *self.GRAPH, *grid.split()])
        specs, rows = _sweep_grid(args)
        assert dict(zip(rows, map(spec_key, specs))) == self.SWEEPS[grid]
