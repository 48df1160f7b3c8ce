"""Run the doctests embedded in public docstrings.

The parametrization spans the package root, the graph substrate, the
public enumeration/hierarchy API, and the whole :mod:`repro.index` and
:mod:`repro.service` packages (collected automatically so new serving
modules cannot silently skip doctest coverage).
"""

import doctest
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
import repro.core.hierarchy
import repro.core.ksweep
import repro.core.kvcc
import repro.core.options
import repro.data
import repro.graph.csr
import repro.graph.graph
import repro.graph.io
import repro.index
import repro.service

MODULES = [
    repro,
    repro.graph.graph,
    repro.graph.io,
    repro.graph.csr,
    repro.core.kvcc,
    repro.core.options,
    repro.core.ksweep,
    repro.core.hierarchy,
    repro.index,
    repro.service,
    repro.data,
]
# Every module of the data/serving-path packages, present and future.
for package in (repro.index, repro.service, repro.data):
    MODULES += [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(
            package.__path__, prefix=package.__name__ + "."
        )
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0


def test_index_package_is_collected():
    """The walk actually found the index and service submodules."""
    names = {m.__name__ for m in MODULES}
    assert {
        "repro.index.store",
        "repro.index.query",
        "repro.service.registry",
        "repro.service.handlers",
        "repro.service.aserver",
        "repro.data.format",
        "repro.data.ingest",
        "repro.data.resolver",
    } <= names


def test_service_examples_leave_no_temp_files(tmp_path):
    """The serving examples save an index into a temp dir; they must
    remove it, or every run of this suite leaves one behind.  Run in a
    fresh interpreter so ``tempfile`` picks up the empty ``TMPDIR``."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    script = (
        "import doctest, repro.service, repro.service.registry\n"
        "for module in (repro.service, repro.service.registry):\n"
        "    assert doctest.testmod(module).failed == 0, module\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, TMPDIR=str(scratch), PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
    assert os.listdir(scratch) == []
