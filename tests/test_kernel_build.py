"""Selection of the c kernel and its compile-on-first-use cache.

Each case gets a fresh ``REPRO_CACHE_DIR``, so every build starts from
an empty cache.  Cases that need a fresh interpreter (nothing imported
or selected yet) run one through :func:`run_python`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

requires_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)

#: What auto-selection picks when the c kernel cannot load.
FALLBACK = "python"

SELECT = (
    "import repro.kernels as kernels\n"
    "print(kernels.active_name())\n"
)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A fresh, empty cache root for this test (and its subprocesses)."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    return root


def run_python(code, path=None, kernel=None, check=True):
    """Run ``code`` in a fresh interpreter over this tree's ``src``.

    ``path`` replaces ``PATH`` (so ``cc`` can be hidden or faked) and
    ``kernel`` sets ``REPRO_KERNELS`` (unset otherwise).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    env.pop("REPRO_KERNELS", None)
    if kernel is not None:
        env["REPRO_KERNELS"] = kernel
    if path is not None:
        env["PATH"] = str(path)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    if check:
        assert done.returncode == 0, done.stderr
    return done


def kernel_files(cache):
    """Names of the files in the cache's ``kernels`` directory."""
    directory = cache / "kernels"
    return sorted(os.listdir(directory)) if directory.is_dir() else []


class TestWithoutACompiler:
    def test_auto_selection_falls_back(self, cache, tmp_path):
        empty = tmp_path / "bin"
        empty.mkdir()
        done = run_python(SELECT, path=empty)
        assert done.stdout.strip() == FALLBACK
        assert done.stderr == ""  # a missing compiler is not an error
        assert kernel_files(cache) == []

    def test_explicit_c_raises(self, cache, tmp_path):
        empty = tmp_path / "bin"
        empty.mkdir()
        done = run_python(SELECT, path=empty, kernel="c", check=False)
        assert done.returncode != 0
        assert "ImportError: the c kernel needs a C compiler: no 'cc' on " \
            "PATH" in done.stderr


def test_failing_compiler_is_reported_once(cache, tmp_path):
    fake = tmp_path / "bin"
    fake.mkdir()
    (fake / "cc").write_text(
        "#!/bin/sh\necho 'fake cc: no such luck' >&2\nexit 3\n"
    )
    (fake / "cc").chmod(0o755)
    code = (
        "import repro.kernels as kernels\n"
        "print(kernels.active_name())\n"
        "kernels.set_kernel(None)\n"
        "print(kernels.active_name(), kernels.available())\n"
    )
    done = run_python(code, path=fake)
    first, second = done.stdout.strip().splitlines()
    assert first == FALLBACK
    assert second.startswith(FALLBACK) and "'c'" not in second
    assert done.stderr.count("fake cc: no such luck") == 1
    assert "cc exited 3" in done.stderr
    assert kernel_files(cache) == []  # the temp file was removed


@requires_cc
def test_auto_selection_prefers_c(cache):
    assert run_python(SELECT).stdout.strip() == "c"
    [library] = kernel_files(cache)
    assert library.endswith(".so")


@requires_cc
def test_cached_build_is_reused_without_the_compiler(cache):
    code = (
        "import subprocess\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('the compiler ran')\n"
        "subprocess.run = refuse\n"
        "import repro.kernels as kernels\n"
        "print(kernels.active_name())\n"
    )
    run_python(SELECT, kernel="c")
    built = kernel_files(cache)
    assert run_python(code, kernel="c").stdout.strip() == "c"
    assert kernel_files(cache) == built


@requires_cc
def test_concurrent_first_use_leaves_one_library(cache):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    env["REPRO_KERNELS"] = "c"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", SELECT], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
        assert out.strip() == "c"
    [library] = kernel_files(cache)
    assert library.endswith(".so")


def test_damaged_cached_library_falls_back(cache):
    code = (
        "from repro.kernels import c_impl\n"
        "path = c_impl.library_path()\n"
        "path.parent.mkdir(parents=True, exist_ok=True)\n"
        "path.write_bytes(b'not a shared library')\n"
        "import repro.kernels as kernels\n"
        "print(kernels.active_name())\n"
    )
    assert run_python(code).stdout.strip() == FALLBACK
    done = run_python(code, kernel="c", check=False)
    assert "ImportError: cannot load the c kernel" in done.stderr


def test_unknown_kernel_names_the_two_kernels():
    done = run_python(SELECT, kernel="numpy", check=False)
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ValueError: REPRO_KERNELS='numpy' is not a "
                           "kernel")
    assert "'python'" in last and "'c'" in last


@requires_cc
def test_workloads_under_c_load_no_numpy(cache, tmp_path):
    """An enumeration pass, a hierarchy build and a served write batch
    run without numpy in the process."""
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        "from repro.core.kvcc import enumerate_kvccs_csr\n"
        "from repro.graph.csr import CSRGraph\n"
        "from repro.graph.generators import ring_of_cliques\n"
        "from repro.graph.io import write_edge_list\n"
        "from repro.index import IndexUpdater, build_index\n"
        "import repro.kernels as kernels\n"
        "g = ring_of_cliques(6, 5)\n"
        "base = CSRGraph.from_graph(g)\n"
        "assert len(enumerate_kvccs_csr(base, 4)) == 6\n"
        f"tmp = {str(tmp_path)!r}\n"
        "write_edge_list(g, tmp + '/ring.txt')\n"
        "assert main(['hierarchy', tmp + '/ring.txt', '--save-index',\n"
        "             tmp + '/ring.kvccidx']) == 0\n"
        "build_index(g).save_atomic(tmp + '/g.kvccidx')\n"
        "updater = IndexUpdater(tmp + '/g.kvccidx', graph=g)\n"
        "updater.apply([('+', 0, 7), ('-', 0, 1)])\n"
        "print(kernels.active_name(),\n"
        "      sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    last = run_python(code, kernel="c").stdout.strip().splitlines()[-1]
    assert last.split() == ["c", "[]"]
