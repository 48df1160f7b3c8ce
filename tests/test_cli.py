"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.graph.generators import figure1_graph
from repro.graph.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    g, _ = figure1_graph()
    path = tmp_path / "figure1.txt"
    write_edge_list(g, path)
    return str(path)


class TestKvccCommand:
    def test_prints_components(self, graph_file, capsys):
        assert main(["kvcc", graph_file, "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 4-VCC(s)" in out
        assert "[0]" in out

    def test_variant_selection(self, graph_file, capsys):
        assert main(["kvcc", graph_file, "-k", "4", "--variant", "VCCE"]) == 0
        assert "4 4-VCC(s)" in capsys.readouterr().out

    def test_json_output(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        assert (
            main(
                ["kvcc", graph_file, "-k", "4", "--out", str(out_file),
                 "--embed-graph"]
            )
            == 0
        )
        payload = json.loads(out_file.read_text())
        assert payload["k"] == 4
        assert len(payload["components"]) == 4
        assert "graph" in payload


class TestStatsCommand:
    def test_stats(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "vertices:   21" in out
        assert "max degree" in out


class TestConnectivityCommand:
    def test_global(self, graph_file, capsys):
        assert main(["connectivity", graph_file]) == 0
        assert "kappa(G) = 1" in capsys.readouterr().out

    def test_pair(self, graph_file, capsys):
        assert main(["connectivity", graph_file, "-u", "0", "-v", "1"]) == 0
        assert "kappa(0, 1) = inf" in capsys.readouterr().out

    def test_pair_tokens_resolve_like_query(self, tmp_path, capsys):
        """``-u 05`` names vertex 5, as ``repro query -v 05`` does."""
        path = tmp_path / "k4.txt"
        path.write_text("5 1\n5 2\n5 3\n1 2\n1 3\n2 3\n")
        index = tmp_path / "k4.kvccidx"
        assert main(["hierarchy", str(path), "--save-index", str(index)]) == 0
        assert main(["query", "vcc-number", str(index), "-v", "05"]) == 0
        assert "vcc-number(05) = 3" in capsys.readouterr().out
        assert main(["connectivity", str(path), "-u", "05", "-v", "1"]) == 0
        assert "kappa(5, 1) = inf" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="'06' is not in the graph"):
            main(["connectivity", str(path), "-u", "06", "-v", "1"])

    def test_half_pair_errors(self, graph_file, capsys):
        assert main(["connectivity", graph_file, "-u", "0"]) == 2
        assert "together" in capsys.readouterr().err

    def test_show_cut(self, graph_file, capsys):
        assert main(["connectivity", graph_file, "--show-cut"]) == 0
        out = capsys.readouterr().out
        assert "minimum vertex cut: [9]" in out  # vertex c of Figure 1

    def test_show_cut_complete_graph(self, tmp_path, capsys):
        from repro.graph.generators import complete_graph
        from repro.graph.io import write_edge_list

        path = tmp_path / "k5.txt"
        write_edge_list(complete_graph(5), path)
        assert main(["connectivity", str(path), "--show-cut"]) == 0
        assert "no cut" in capsys.readouterr().out


class TestHierarchyCommand:
    def test_levels(self, graph_file, capsys):
        assert main(["hierarchy", graph_file, "--max-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "max level: 4" in out
        assert "k=4: 4 component(s)" in out

    def test_vcc_numbers(self, graph_file, capsys):
        assert main(
            ["hierarchy", graph_file, "--max-k", "2", "--vcc-numbers"]
        ) == 0
        assert "vcc-number(0)" in capsys.readouterr().out

    def test_save_index(self, graph_file, tmp_path, capsys):
        index_file = tmp_path / "g.kvccidx"
        assert main(
            ["hierarchy", graph_file, "--save-index", str(index_file)]
        ) == 0
        assert f"wrote {index_file}" in capsys.readouterr().out
        from repro.index import load_index

        index = load_index(index_file)
        assert index.num_vertices == 21
        assert index.max_k == 5


class TestQueryCommand:
    @pytest.fixture
    def index_file(self, graph_file, tmp_path, capsys):
        path = tmp_path / "g.kvccidx"
        assert main(["hierarchy", graph_file, "--save-index", str(path)]) == 0
        capsys.readouterr()  # swallow the hierarchy printout
        return str(path)

    def test_vcc_number(self, index_file, capsys):
        assert main(["query", "vcc-number", index_file, "-v", "0"]) == 0
        assert "vcc-number(0) = 5" in capsys.readouterr().out

    def test_vcc_number_unknown_vertex(self, index_file, capsys):
        assert main(["query", "vcc-number", index_file, "-v", "999"]) == 0
        assert "vcc-number(999) = 0" in capsys.readouterr().out

    def test_components_of(self, index_file, capsys):
        assert main(
            ["query", "components-of", index_file, "-v", "0", "-k", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "4-VCC(s) contain 0" in out
        assert "6 vertices" in out

    def test_same_kvcc(self, index_file, capsys):
        assert main(
            ["query", "same-kvcc", index_file, "-u", "0", "-v", "1",
             "-k", "4"]
        ) == 0
        assert "= True" in capsys.readouterr().out

    def test_max_shared_level(self, index_file, capsys):
        assert main(
            ["query", "max-shared-level", index_file, "-u", "0", "-v", "20"]
        ) == 0
        assert "max-shared-level(0, 20) = 1" in capsys.readouterr().out

    def test_invalid_k_clean_error(self, index_file, capsys):
        assert main(
            ["query", "same-kvcc", index_file, "-u", "0", "-v", "1",
             "-k", "0"]
        ) == 2
        assert "at least 1" in capsys.readouterr().err
        assert main(
            ["query", "components-of", index_file, "-v", "0", "-k", "0"]
        ) == 2
        assert "at least 1" in capsys.readouterr().err

    def test_not_an_index_file(self, graph_file, capsys):
        assert main(["query", "vcc-number", graph_file, "-v", "0"]) == 2
        assert "not a k-VCC hierarchy index" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.kvccidx")
        assert main(["query", "vcc-number", missing, "-v", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_requires_subcommand(self, index_file):
        with pytest.raises(SystemExit):
            main(["query"])


class TestLevelArguments:
    """-k and --max-k below 1 are usage errors (exit 2), as
    ``repro query ... -k 0`` already is, not a traceback or a level-1
    hierarchy."""

    @pytest.mark.parametrize("argv", [
        ["kvcc", "{graph}", "-k", "0"],
        ["kvcc", "{graph}", "-k", "-3"],
        ["hierarchy", "{graph}", "--max-k", "0"],
        ["hierarchy", "{graph}", "--max-k", "-1"],
        ["build-cohesion", "{graph}", "--out", "{out}", "--max-k", "0"],
    ])
    def test_below_one_exits_2(self, argv, graph_file, tmp_path, capsys):
        out = tmp_path / "g.kvcccoh"
        argv = [a.format(graph=graph_file, out=out) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "at least 1" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_max_k_one_still_accepted(self, graph_file, capsys):
        assert main(["hierarchy", graph_file, "--max-k", "1"]) == 0
        assert "max level: 1" in capsys.readouterr().out


def run_fresh(code):
    """Run ``code`` in a fresh interpreter over this tree's ``src`` and
    return its stripped stdout (fails the test on a non-zero exit)."""
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_parser_imports_no_serving_code(self):
        # Every command builds the parser in-process, so whatever it
        # imports adds to the peak RSS of ``repro hierarchy`` too.  The
        # enumeration runs in this process, so no process-pool or
        # shared-memory module is loaded either.
        code = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser()\n"
            "pool = {'multiprocessing', 'concurrent.futures.process',\n"
            "        'multiprocessing.shared_memory'}\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] == ['repro', 'service']\n"
            "             or m in pool))\n"
        )
        assert run_fresh(code) == "[]"

    def test_serving_imports_no_multiprocessing(self):
        # ``repro serve`` is one process: neither the serving layer nor
        # the CLI that boots it needs a process or process-pool module.
        code = (
            "import sys\n"
            "import repro.service\n"
            "import repro.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'multiprocessing'\n"
            "             or m == 'concurrent.futures.process'))\n"
        )
        assert run_fresh(code) == "[]"

    def test_read_path_loads_no_kernel(self, graph_file, tmp_path):
        # A read-only ``repro serve`` answers from mmap indexes: no read
        # may select a kernel, which would load ctypes and a compiled
        # library into the server.  Every read kind runs once.
        idx = str(tmp_path / "figure1.kvccidx")
        coh = str(tmp_path / "figure1.kvcccoh")
        assert main(["hierarchy", graph_file, "--save-index", idx]) == 0
        assert main(["build-cohesion", graph_file, "--out", coh]) == 0
        reads = [("/healthz", {}), ("/datasets", {})]
        for prefix in ("/v1/idx", "/v2/coh/kvcc", "/v2/coh/kecc",
                       "/v2/coh/kcore"):
            reads += [
                (f"{prefix}/vcc-number", {"v": ["0"]}),
                (f"{prefix}/vcc-number", {"v": ["0", "1", "2"]}),
                (f"{prefix}/same-kvcc", {"u": ["0"], "v": ["1"], "k": ["2"]}),
                (f"{prefix}/same-kvcc", {"pair": ["0:1", "1:2"], "k": ["2"]}),
                (f"{prefix}/components-of", {"v": ["0"], "k": ["2"]}),
                (f"{prefix}/max-shared-level", {"u": ["0"], "v": ["1"]}),
                (f"{prefix}/max-shared-level", {"pair": ["0:1", "1:2"]}),
            ]
            if prefix.startswith("/v2"):
                reads += [
                    (f"{prefix}/top-communities", {"v": ["0"], "r": ["2"]}),
                    (f"{prefix}/critical-vertices", {"v": ["0"], "k": ["1"]}),
                ]
        reads.append(("/v2/coh/cohesion-strength", {"pair": ["0:1", "1:2"]}))
        code = (
            "import asyncio, sys\n"
            "import repro.cli\n"
            "import repro.service\n"
            "from repro.service import IndexRegistry, registry_dispatch\n"
            "registry = IndexRegistry()\n"
            f"registry.register('idx', {idx!r})\n"
            f"registry.register('coh', {coh!r})\n"
            "registry.get('idx'), registry.get('coh')\n"
            "dispatch = registry_dispatch(registry)\n"
            f"for path, params in {reads!r}:\n"
            "    status, body = asyncio.run(dispatch(path, params))\n"
            "    assert status == 200, (path, params, status, body)\n"
            "print(sorted(m for m in sys.modules if m == 'ctypes'\n"
            "             or m.startswith('repro.kernels.')\n"
            "             and m.endswith('_impl')))\n"
        )
        assert run_fresh(code) == "[]"

    def test_serve_help_shows_default_port(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "default 8716" in out
        assert "http://127.0.0.1:8716/v1/web/vcc-number?v=42" in out


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestDatasetTokens:
    """Every graph command speaks the resolver grammar (repro.data)."""

    def test_kvcc_name_token(self, cache_dir, capsys):
        assert main(
            ["kvcc", "name:youtube", "-k", "8", "--cache-dir", cache_dir]
        ) == 0
        assert "5 8-VCC(s)" in capsys.readouterr().out  # golden count

    def test_stats_name_token(self, cache_dir, capsys):
        assert main(
            ["stats", "name:youtube", "--cache-dir", cache_dir]
        ) == 0
        assert "vertices:   1040" in capsys.readouterr().out

    def test_file_token(self, graph_file, cache_dir, capsys):
        assert main(
            ["kvcc", f"file:{graph_file}", "-k", "4",
             "--cache-dir", cache_dir]
        ) == 0
        assert "4 4-VCC(s)" in capsys.readouterr().out

    def test_gz_file(self, graph_file, tmp_path, cache_dir, capsys):
        import gzip
        import shutil

        gz = tmp_path / "figure1.txt.gz"
        with open(graph_file, "rb") as src, gzip.open(gz, "wb") as dst:
            shutil.copyfileobj(src, dst)
        assert main(
            ["kvcc", str(gz), "-k", "4", "--cache-dir", cache_dir]
        ) == 0
        assert "4 4-VCC(s)" in capsys.readouterr().out

    def test_unknown_name_clean_error(self, cache_dir, capsys):
        with pytest.raises(SystemExit):
            main(["stats", "name:snapchat", "--cache-dir", cache_dir])
        assert "available" in capsys.readouterr().err

    def test_missing_file_clean_error(self, tmp_path, cache_dir, capsys):
        with pytest.raises(SystemExit):
            main(
                ["stats", str(tmp_path / "gone.txt"),
                 "--cache-dir", cache_dir]
            )
        assert "no such graph file" in capsys.readouterr().err

    def test_mixed_label_numeric_vertex_reachable(
        self, tmp_path, cache_dir, capsys
    ):
        """Regression: after per-file normalization a numeric token must
        still resolve (the label is '1', the CLI token parses as 1)."""
        path = tmp_path / "mixed.txt"
        path.write_text("a 1\n1 2\n2 a\n")
        assert main(
            ["connectivity", str(path), "-u", "1", "-v", "a",
             "--cache-dir", cache_dir]
        ) == 0
        assert "kappa(1, a) = inf" in capsys.readouterr().out

    def test_unknown_pair_vertex_clean_error(
        self, graph_file, cache_dir, capsys
    ):
        with pytest.raises(SystemExit):
            main(
                ["connectivity", graph_file, "-u", "0", "-v", "zzz",
                 "--cache-dir", cache_dir]
            )

    def test_warm_cache_reused(self, graph_file, cache_dir, capsys):
        assert main(
            ["stats", graph_file, "--cache-dir", cache_dir]
        ) == 0
        from pathlib import Path

        entries = list(Path(cache_dir).glob("graphs/*.kvccg"))
        assert len(entries) == 1
        stamp = entries[0].stat().st_mtime_ns
        assert main(
            ["stats", graph_file, "--cache-dir", cache_dir]
        ) == 0
        assert entries[0].stat().st_mtime_ns == stamp

    def test_no_cache_leaves_no_entry(self, graph_file, cache_dir, capsys):
        assert main(
            ["stats", graph_file, "--cache-dir", cache_dir, "--no-cache"]
        ) == 0
        from pathlib import Path

        assert not Path(cache_dir).exists()


class TestNoDictGraphOnHotPath:
    """Acceptance: with a CSR-cached dataset, no subcommand builds a
    dict ``Graph`` - asserted by making ``Graph.__init__`` explode."""

    @pytest.fixture
    def primed(self, graph_file, cache_dir):
        # Prime the cache (the cold parse itself is already dict-free
        # for files, but priming keeps the assertion about the *hot*
        # path honest).
        assert main(["stats", graph_file, "--cache-dir", cache_dir]) == 0
        return graph_file, cache_dir

    @pytest.fixture
    def forbid_graph(self, monkeypatch):
        from repro.graph.graph import Graph

        def boom(self, *args, **kwargs):
            raise AssertionError(
                "dict Graph constructed on the CSR hot path"
            )

        monkeypatch.setattr(Graph, "__init__", boom)

    def test_kvcc(self, primed, forbid_graph, capsys):
        graph_file, cache_dir = primed
        assert main(
            ["kvcc", graph_file, "-k", "4", "--cache-dir", cache_dir]
        ) == 0
        assert "4 4-VCC(s)" in capsys.readouterr().out

    def test_stats(self, primed, forbid_graph, capsys):
        graph_file, cache_dir = primed
        assert main(
            ["stats", graph_file, "--cache-dir", cache_dir]
        ) == 0
        assert "vertices:   21" in capsys.readouterr().out

    def test_connectivity(self, primed, forbid_graph, capsys):
        graph_file, cache_dir = primed
        assert main(
            ["connectivity", graph_file, "--cache-dir", cache_dir,
             "--show-cut"]
        ) == 0
        out = capsys.readouterr().out
        assert "kappa(G) = 1" in out
        assert "minimum vertex cut: [9]" in out

    def test_connectivity_pair(self, primed, forbid_graph, capsys):
        graph_file, cache_dir = primed
        assert main(
            ["connectivity", graph_file, "-u", "0", "-v", "1",
             "--cache-dir", cache_dir]
        ) == 0
        assert "kappa(0, 1) = inf" in capsys.readouterr().out

    def test_hierarchy(self, primed, forbid_graph, tmp_path, capsys):
        graph_file, cache_dir = primed
        index_file = tmp_path / "g.kvccidx"
        assert main(
            ["hierarchy", graph_file, "--max-k", "4",
             "--cache-dir", cache_dir, "--save-index", str(index_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "k=4: 4 component(s)" in out
        assert index_file.exists()


class TestServeBuildMissing:
    def test_materializes_index_from_dataset_token(
        self, graph_file, cache_dir
    ):
        from repro.cli import prepare_serve_datasets

        specs = [("fig1", graph_file)]
        resolved = prepare_serve_datasets(
            specs, build_missing=True, cache_dir=cache_dir
        )
        (name, index_path, source), = resolved
        assert name == "fig1"
        assert source == graph_file  # token rides along: mutable
        from repro.index import load_index

        index = load_index(index_path)
        assert index.num_vertices == 21
        assert index.max_k == 5
        # Second boot reuses the cached index file.
        again = prepare_serve_datasets(
            specs, build_missing=True, cache_dir=cache_dir
        )
        assert again == resolved

    def test_corrupt_cached_index_rebuilt(self, graph_file, cache_dir):
        """A bit-rotted indexes/ entry is rebuilt, not served stale."""
        from pathlib import Path

        from repro.cli import prepare_serve_datasets
        from repro.index import load_index

        specs = [("fig1", graph_file)]
        (_, index_path, _), = prepare_serve_datasets(
            specs, build_missing=True, cache_dir=cache_dir
        )
        Path(index_path).write_bytes(b"rotten bytes, not an index")
        (_, again_path, _), = prepare_serve_datasets(
            specs, build_missing=True, cache_dir=cache_dir
        )
        assert again_path == index_path
        assert load_index(again_path).num_vertices == 21

    def test_existing_index_served_as_is(self, graph_file, tmp_path):
        index_file = tmp_path / "g.kvccidx"
        assert main(
            ["hierarchy", graph_file, "--save-index", str(index_file)]
        ) == 0
        from repro.cli import prepare_serve_datasets

        assert prepare_serve_datasets(
            [("g", str(index_file))], build_missing=True
        ) == [("g", str(index_file), None)]

    def test_missing_without_flag_raises(self, tmp_path):
        from repro.cli import prepare_serve_datasets

        with pytest.raises(ValueError, match="--build-missing"):
            prepare_serve_datasets(
                [("gone", str(tmp_path / "gone.kvccidx"))],
                build_missing=False,
            )


class TestCohesionCLI:
    @pytest.fixture
    def cohesion_file(self, graph_file, tmp_path, capsys):
        path = str(tmp_path / "g.kvcccoh")
        assert main(
            ["build-cohesion", graph_file, "--no-cache", "--out", path]
        ) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert "kvcc:" in out and "kecc:" in out and "kcore:" in out
        return path

    def test_query_measure_flag(self, cohesion_file, capsys):
        assert main(
            ["query", "vcc-number", cohesion_file, "-v", "1",
             "--measure", "kecc"]
        ) == 0
        assert "vcc-number(1) [kecc] =" in capsys.readouterr().out

    def test_vcc_number_batch(self, cohesion_file, capsys):
        assert main(
            ["query", "vcc-number", cohesion_file, "-v", "1", "-v", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "vcc-number(1) =" in out and "vcc-number(2) =" in out

    def test_pair_batch_and_deprecated_shim(self, cohesion_file, capsys):
        assert main(
            ["query", "same-kvcc", cohesion_file, "--pair", "1:2",
             "--pair", "1:13", "-k", "2"]
        ) == 0
        captured = capsys.readouterr()
        assert "same-kvcc(1, 2, k=2)" in captured.out
        assert "same-kvcc(1, 13, k=2)" in captured.out
        assert main(
            ["query", "same-kvcc", cohesion_file, "-u", "1", "-v", "2",
             "-k", "2"]
        ) == 0
        captured = capsys.readouterr()
        assert "deprecated" in captured.err
        assert "same-kvcc(1, 2, k=2)" in captured.out

    def test_new_subcommands(self, cohesion_file, capsys):
        assert main(
            ["query", "top-communities", cohesion_file, "-v", "1",
             "-r", "2"]
        ) == 0
        assert "strongest communities containing 1" in (
            capsys.readouterr().out
        )
        assert main(
            ["query", "critical-vertices", cohesion_file, "-v", "1",
             "-k", "1"]
        ) == 0
        assert "critical vertex(es) of 1" in capsys.readouterr().out
        assert main(
            ["query", "cohesion-strength", cohesion_file, "--pair", "1:2"]
        ) == 0
        out = capsys.readouterr().out
        assert "cohesion-strength(1, 2):" in out
        assert "kvcc=" in out and "kecc=" in out and "kcore=" in out

    def test_measure_not_served_exits_2(self, graph_file, tmp_path,
                                        capsys):
        index_file = str(tmp_path / "g.kvccidx")
        assert main(
            ["hierarchy", graph_file, "--save-index", index_file]
        ) == 0
        capsys.readouterr()
        assert main(
            ["query", "vcc-number", index_file, "-v", "1",
             "--measure", "kcore"]
        ) == 2
        err = capsys.readouterr().err
        assert "does not serve measure 'kcore'" in err

    def test_pair_errors_exit_2(self, cohesion_file, capsys):
        assert main(
            ["query", "cohesion-strength", cohesion_file]
        ) == 2
        assert "--pair" in capsys.readouterr().err
        assert main(
            ["query", "cohesion-strength", cohesion_file, "--pair", "1-2"]
        ) == 2
        assert "u:v" in capsys.readouterr().err

    def test_serve_spec_accepts_cohesion_suffix(self):
        from repro.cli import _spec_short_name

        assert _spec_short_name("/tmp/web.kvcccoh") == "web"

    def test_is_index_file_accepts_both_magics(self, cohesion_file,
                                               graph_file, tmp_path):
        from repro.cli import _is_index_file

        index_file = str(tmp_path / "plain.kvccidx")
        assert main(
            ["hierarchy", graph_file, "--save-index", index_file]
        ) == 0
        assert _is_index_file(cohesion_file)
        assert _is_index_file(index_file)
        assert not _is_index_file(graph_file)
