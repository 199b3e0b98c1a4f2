"""Importing qxor loads numpy only; scipy is loaded on first access to the
two names the benchmark's tracer counts, ``qxor.opnorms.linprog`` and
``qxor.tuples.minimize``."""

from __future__ import annotations

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.optimize

from qxor import opnorms, tuples

ROOT = Path(__file__).resolve().parent.parent
SRC, BENCH = ROOT / "src", ROOT / "perfbench"

LAZY = ((opnorms, "linprog"), (tuples, "minimize"))


def scipy_modules_after(code: str, *path: Path) -> list[str]:
    """The ``scipy`` modules a fresh interpreter holds after running ``code``
    with ``path`` in front of ``sys.path``."""
    probe = (f"import json, sys; sys.path[:0] = {[str(p) for p in path]!r}\n{code}\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("code, path", [
    ("import qxor", (SRC,)),
    ("from qxor.cli import main; main(['selftest', '--list'])", (SRC,)),
    # the benchmark's start-up, as perfbench/run.py times it for setup_s
    ("import tracing, workloads", (SRC, BENCH)),
], ids=["import-qxor", "selftest-list", "benchmark-import"])
def test_cold_start_loads_no_scipy(code, path):
    assert scipy_modules_after(code, *path) == []


def test_lazy_names_are_the_scipy_functions():
    assert opnorms.linprog is scipy.optimize.linprog
    assert tuples.minimize is scipy.optimize.minimize


@pytest.mark.parametrize("module", [opnorms, tuples])
def test_unknown_name_raises_attribute_error_naming_the_module(module):
    message = f"module '{module.__name__}' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=re.escape(message)):
        module.no_such_name
    assert getattr(module, "no_such_name", None) is None


@pytest.mark.parametrize("module", [opnorms, tuples])
def test_star_import_exports_all_and_no_lazy_name(module):
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(module.__all__)
    assert not {"linprog", "minimize"} & set(namespace)


def test_tracer_wraps_the_lazy_names_in_their_home_modules_only(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    importlib.import_module("qxor.cli")
    importlib.import_module("qxor.acceptance")
    originals = {(m.__name__, attr): getattr(m, attr) for m, attr in LAZY}
    qxor_modules = [m for name, m in sorted(sys.modules.items())
                    if name == "qxor" or name.startswith("qxor.")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr in LAZY:
            assert getattr(module, attr) is not originals[module.__name__, attr]
        for module in qxor_modules:
            home = {attr for m, attr in LAZY if m is module}
            for attr in {"linprog", "minimize"} - home:
                assert not hasattr(module, attr), (module.__name__, attr)
    finally:
        tracer.uninstall()
    for module, attr in LAZY:
        assert getattr(module, attr) is originals[module.__name__, attr]
