"""Every public callable of the numerical modules refuses each malformed
argument with ``ValidationError``.

The catalogue walks the ``__all__`` of each module below, reads every
callable's parameters with ``inspect.signature`` and gives each parameter,
by name, every malformed value of its kind while the other arguments keep
the small valid values of :func:`valid_arguments`. A count or a real of
``10**400``, beyond the int64 and the float range, is malformed too.
Object parameters (games, maps, tensors, budgets, strategies, splits) are
outside the catalogue; they always take their valid value.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

from qxor import factor, games, linalg, maps, opnorms, solvers, tuples
from qxor.budget import SolverBudget
from qxor.config import ValidationError

MODULES = (linalg, games, maps, opnorms, solvers, tuples, factor)

SKIPPED = {
    # result records: they have no __post_init__, so they hold what a solver
    # hands them and take no argument from a caller
    "CbNormResult", "ProductBiasResult", "EntangledBiasResult", "OwcBiasResult",
    "Pi1cbResult", "HierarchyRow", "HierarchyReport", "SplitResult", "WeightSandwich",
    "GammaResult",
    # linalg helpers documented to take a trusted stack: they run inside
    # sweeps on arrays the caller already validated
    "eigh_stack", "sign_stack", "polar_stack", "pow2_scaled", "pow2_restore",
    "pow2_times", "zero_pad", "regroup",
}

COUNTS = {"n", "m", "dA", "dB", "d", "L", "dim"}
ARRAYS = {"m", "G", "A", "B", "psi", "e_plus", "e_minus", "observables", "game_or_G", "M",
          "a", "b", "rho", "rho_a", "rho_b", "kernel", "coeff"}
REAL_ONLY = {"M"}
TUPLES = {"t", "x", "y", "xs", "ys", "vectors"}
SEEDS = {"seed"}
SCHEDULES = {"schedule", "ds", "d_schedule"}
ANCILLA_SCHEDULES = {"dims"}
REALS = {"tol", "factor", "gamma_upper", "known_pi1cb"}

I2 = np.eye(2)
T = np.random.default_rng(0).normal(size=(2, 2, 2)) + 0j
BUDGET = SolverBudget(restarts=1, max_sweeps=2)


def valid_arguments() -> dict:
    """A small valid keyword argument set for each callable of the catalogue."""
    game = games.chsh()
    g = game.G
    coeffs = [[0.25, 0.25], [0.25, -0.25]]
    split = tuples.rplus2c_split(T)
    u = games.associated_map(game)
    z = factor.tensor_from_kernel(g, 2, 2)
    matrix = {"m": I2}
    return {
        "as_array": {"x": I2},
        "as_matrix": matrix, "hermitian_part": matrix, "require_hermitian": matrix,
        "eigh_desc": matrix, "trace_norm": matrix, "operator_norm": matrix,
        "sign_hermitian": matrix,
        "partial_contract_A": {"G": g, "A": I2, "n": 2, "m": 2},
        "QuantumXorGame": {"n": 2, "m": 2, "G": g},
        "ProductStrategy": {"A": I2, "B": I2},
        "EntangledStrategy": {"n": 2, "m": 2, "dA": 1, "dB": 1, "psi": [1.0], "A": I2, "B": I2},
        "OwcStrategy": {"d": 1, "e_plus": [I2], "e_minus": [0 * I2], "observables": [I2]},
        "associated_map": {"game_or_G": g, "n": 2, "m": 2},
        "bias_of": {"game": game, "strategy": games.ProductStrategy(I2, I2)},
        "swap_game": {"n": 2},
        "diagonal_game": {"M": coeffs},
        "chsh": {},
        "mab_tensor": {"a": I2 / 2, "b": I2 / 2},
        "density_matrix": {"rho": I2 / 2, "what": "state"},
        "product_state_game": {"rho_a": I2 / 2, "rho_b": I2 / 2},
        "hadamard_game": {"n": 2},
        "hadamard_matrix": {"n": 2},
        "random_game": {"n": 2, "m": 2, "seed": 0},
        "Space": {"kind": "matrix", "dim": 2},
        "full_matrix_space": {"n": 2},
        "dual_space": {"n": 2},
        "KernelMap": {"domain": maps.full_matrix_space(2), "codomain": maps.dual_space(2),
                      "kernel": g},
        "VectorMap": {"vectors": ([1.0, 0.0], [0.0, 1.0])},
        "dual_tuple_cap": {"x": T},
        "dual_tuple_caps": {"xs": T},
        "amplified_norm": {"u": u, "L": 1, "budget": BUDGET},
        "cb_norm_bounds": {"u": u, "schedule": (1,), "budget": BUDGET},
        "pietsch_pi2": {"vectors": ([1.0, 0.0], [0.0, 1.0])},
        "beta_owq": {"game": game},
        "beta_product": {"game": game, "budget": BUDGET},
        "beta_entangled": {"game": game, "dA": 1, "dB": 1, "budget": BUDGET},
        "beta_entangled_schedule": {"game": game, "dims": ((1, 1),), "budget": BUDGET},
        "beta_owc": {"game": game, "d": 1, "budget": BUDGET},
        "beta_owc_schedule": {"game": game, "ds": (1,), "budget": BUDGET},
        "pi1o_exact": {"obj": game},
        "pi1cb_bounds": {"game_or_map": game, "d_schedule": (1,), "budget": BUDGET},
        "as_stack": {"t": T},
        "row_norm": {"t": T},
        "col_norm": {"t": T},
        "rc_norm": {"t": T},
        "rplus2c_split": {"t": T},
        "rplusc_split": {"t": T},
        "mix_tuple": {"a": I2, "t": T},
        "ordering_check": {"xs": T / 2, "ys": T},
        "weight_sandwich_check": {"t": T, "split": split},
        "weight_subadditivity_check": {"x": T, "y": T, "x_split": split, "y_split": split},
        "weight_monotonicity_check": {"xs": T / 2, "ys": T, "ys_split": split},
        "weight_homogeneity_check": {"t": T, "factor": 2.0, "split": split},
        "TensorElement": {"X": maps.dual_space(2), "Y": maps.dual_space(2), "coeff": g},
        "tensor_from_kernel": {"kernel": g, "n": 2, "m": 2},
        "gamma_rc_upper": {"z": z, "budget": BUDGET},
        "gamma_to_Gamma": {"z": z, "gamma_upper": 10.0, "budget": BUDGET, "schedule": (1,)},
        "mab_certify": {"a": I2 / 2, "b": I2 / 2, "budget": BUDGET, "schedule": (1,)},
        "chain_check": {"map_rep": u, "known_pi1cb": 1.0, "budget": BUDGET, "schedule": (1,)},
        "exhaustive_sign_one_norm": {"M": coeffs},
    }


VALID = valid_arguments()


def public_callables() -> dict:
    return {name: getattr(module, name) for module in MODULES for name in module.__all__
            if callable(getattr(module, name)) and name not in SKIPPED}


def with_entry(value, entry) -> np.ndarray:
    """``value`` as a complex array with its first entry replaced."""
    out = np.array(value, dtype=complex)
    out.flat[0] = entry
    return out


def ragged(value) -> list:
    """``value`` as nested lists whose last innermost row lost an entry."""
    rows = np.asarray(value).tolist()
    if np.ndim(value) == 1:
        return [rows[0], rows]
    inner = rows
    for _ in range(np.ndim(value) - 2):
        inner = inner[-1]
    inner[-1] = inner[-1][:-1]
    return rows


# the wrongly shaped value of each parameter whose valid value, with its last
# column dropped, would still be valid
WRONG_SHAPE = {
    ("as_matrix", "m"): [1.0, 0.0],
    ("trace_norm", "m"): [1.0, 0.0],
    ("operator_norm", "m"): [1.0, 0.0],
    ("diagonal_game", "M"): [0.25, 0.25],
    ("exhaustive_sign_one_norm", "M"): [0.25, 0.25],
    ("partial_contract_A", "G"): np.eye(3),
    ("associated_map", "game_or_G"): np.eye(3),
    ("tensor_from_kernel", "kernel"): np.eye(3),
    ("KernelMap", "kernel"): np.eye(3),
    ("QuantumXorGame", "G"): np.eye(3) / 3,
    ("VectorMap", "vectors"): ([1.0, 0.0], [0.0]),
    ("pietsch_pi2", "vectors"): ([1.0, 0.0], [0.0]),
}


def malformed(name: str, param: inspect.Parameter) -> list:
    """``(label, value)`` for every malformed value of the parameter's kind."""
    key = param.name
    valid = VALID[name].get(key)
    if key in COUNTS and (key != "m" or "int" in str(param.annotation)):
        return [("float", 2.0), ("bool", True), ("zero", 0), ("negative", -1),
                ("huge", 10**400)]
    if key == "inits":
        return [("nan", [with_entry(T, math.nan)]), ("wrong-shape", [T[..., :1]]),
                ("not-a-sequence", 5)]
    if key in ARRAYS or key in TUPLES:
        cases = [("nan", with_entry(valid, math.nan)), ("inf", with_entry(valid, math.inf)),
                 ("string", "ab"),
                 ("ragged", ([1, [2, 3]],) if key == "vectors" else ragged(valid))]
        if name == "as_array":  # it takes an array of every shape
            return cases
        default = [np.eye(2), np.eye(3)] if key in TUPLES else np.asarray(valid)[..., :-1]
        cases.append(("wrong-shape", WRONG_SHAPE.get((name, key), default)))
        if key in TUPLES:
            cases += [("empty", ()), ("not-a-sequence", 5)]
        if key in REAL_ONLY:
            cases.append(("complex", with_entry(valid, 0.25j)))
        return cases
    if key in SEEDS:
        return [("string", "x"), ("negative", -1)]
    if key in SCHEDULES:
        return [("float-entry", (1.5,)), ("empty", ())]
    if key in ANCILLA_SCHEDULES:
        return [("float-entry", ((1.5, 1),)), ("empty", ()), ("not-growing", ((1, 2), (2, 1)))]
    if key in REALS:
        return [("nan", math.nan), ("negative", -1.0), ("string", "x"), ("huge", 10**400)]
    return []


def catalogue() -> list:
    cases = []
    for name, call in public_callables().items():
        for param in inspect.signature(call).parameters.values():
            for label, value in malformed(name, param):
                cases.append(pytest.param(name, param.name, value,
                                          id=f"{name}-{param.name}-{label}"))
    return cases


def test_every_public_callable_has_valid_arguments_or_a_reason_to_skip():
    assert set(public_callables()) == set(VALID)


@pytest.mark.parametrize("name", sorted(VALID))
def test_the_valid_arguments_are_accepted(name):
    public_callables()[name](**VALID[name])


@pytest.mark.parametrize("name, param, value", catalogue())
def test_a_malformed_argument_is_a_validation_error(name, param, value):
    with pytest.raises(ValidationError):
        public_callables()[name](**{**VALID[name], param: value})
