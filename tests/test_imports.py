"""Importing qxor loads numpy only; scipy is loaded on first access to the
two names the benchmark's tracer counts, ``qxor.opnorms.linprog`` and
``qxor.tuples.minimize``."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.optimize

import qxor
from qxor import opnorms, tuples
from qxor.budget import SolverBudget
from qxor.cli import build_parser

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
    # every solver family once: none of them may reach the lazy scipy names
    ("""
import numpy as np
from qxor import *
from qxor.tuples import rplusc_split
b = SolverBudget(restarts=1, max_sweeps=10)
g = random_game(2, 2, seed=3)
analyze_game(g, "g", b, (1, 2), ((1, 1), (2, 2)))
cb_norm_bounds(associated_map(g), (1, 2), b)
pietsch_pi2(VectorMap(([1, 2j], [0, 1], [1, 1])))
x = np.random.default_rng(3).normal(size=(2, 3, 3))
rplus2c_split(x)
rplusc_split(x)
z = tensor_from_kernel(g.G, 2, 2)
gamma_to_Gamma(z, gamma_rc_upper(z, b).gamma_upper, b, (1, 2))
""", (SRC,)),
], ids=["import-qxor", "selftest-list", "benchmark-import", "every-solver"])
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


QXOR_MODULES = [importlib.import_module(f"qxor.{info.name}")
                for info in pkgutil.iter_modules(qxor.__path__)]


@pytest.mark.parametrize("module", [m for m in QXOR_MODULES if hasattr(m, "__all__")])
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


def public_functions() -> set:
    """The functions the package exports or a module lists in ``__all__``."""
    public = {getattr(qxor, name) for name in vars(qxor) if not name.startswith("_")}
    public |= {getattr(m, name) for m in QXOR_MODULES for name in getattr(m, "__all__", ())}
    return {f for f in public if inspect.isfunction(f)}


def test_public_functions_take_no_private_parameter():
    # a private parameter is a side channel into a public function; the
    # product witness enters both game ladders through private functions
    found = sorted(
        f"{f.__module__}.{f.__name__}({param})"
        for f in public_functions()
        for param in inspect.signature(f).parameters
        if param.startswith("_")
    )
    assert found == []


def test_no_function_defaults_its_budget_or_the_split_it_checks():
    # what a solve may spend, and the split a weight check checks, come from
    # the caller; private functions too, so no default hides behind them
    functions = {f for m in QXOR_MODULES for f in vars(m).values()
                 if inspect.isfunction(f) and f.__module__ == m.__name__}
    assert {qxor.beta_owc, qxor.factor.tuple_rplus2c_upper_in_space} <= functions
    found = sorted(
        f"{f.__module__}.{f.__name__}({name})"
        for f in functions
        for name, param in inspect.signature(f).parameters.items()
        if (name == "budget" or name.endswith("split")) and param.default is not param.empty
    )
    assert found == []


def test_a_budget_has_no_default_counts():
    with pytest.raises(TypeError):
        SolverBudget()
    with pytest.raises(TypeError):
        SolverBudget(restarts=8)
    assert not hasattr(qxor, "DEFAULT_BUDGET")


def test_the_cli_holds_the_budget_counts_and_reads_the_library_tol_and_seed(monkeypatch):
    # --tol and --seed repeat no literal: a changed field default reaches them
    monkeypatch.setattr(SolverBudget, "tol", 1e-3)
    monkeypatch.setattr(SolverBudget, "seed", 5)
    for argv in (["analyze", "g.json"], ["hierarchy", "--count", "1"], ["factor", "t.json"]):
        args = build_parser().parse_args(argv)
        assert (args.tol, args.seed, args.restarts, args.sweeps) == (1e-3, 5, 8, 120)


def test_public_functions_take_no_tolerance_but_the_symmetry_check():
    # each numerical threshold is a module constant; only require_hermitian
    # takes one, because the strategies validate at their own tolerance
    found = sorted(
        f"{f.__module__}.{f.__name__}({param})"
        for f in public_functions()
        for param in inspect.signature(f).parameters
        if param in ("tol", "zero_tol", "rel_tol", "dtype")
    )
    assert found == ["qxor.linalg.require_hermitian(tol)"]


def test_every_source_file_parses_as_python_3_10():
    # CI also runs the suite on Python 3.10; a newer interpreter alone would
    # accept newer syntax, so parse every file with the 3.10 grammar
    paths = sorted(p for top in (SRC, ROOT / "tests", BENCH) for p in top.rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def private_qxor_imports(source: str) -> list[str]:
    """The ``_``-prefixed names that ``source`` imports from ``qxor``."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "qxor")
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_the_acceptance_gate_imports_no_private_name():
    # the gate runs the pipeline users run, not private pieces of it
    assert private_qxor_imports((SRC / "qxor" / "acceptance.py").read_text()) == []
    assert private_qxor_imports("from .solvers import _owc_ladder, beta_owq\n"
                                "from qxor.solvers import _entangled_ladder\n"
                                "from numpy import _globals\n") == ["_entangled_ladder",
                                                                    "_owc_ladder"]
