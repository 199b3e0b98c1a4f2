"""Acceptance gate: every criterion from the registry, one test each.

The criteria that a counting test also reads (C3, C4 and C7) run once per
module, through counting wrappers that call straight through; their
acceptance test asserts that this one run passed, and the counting tests
assert on its counts (and fail too when it did not pass).
"""

from dataclasses import dataclass
from typing import Optional

import pytest

from qxor import solvers, tuples
from qxor.acceptance import CRITERIA

COUNTED = ("C3", "C4", "C7")


@dataclass
class CountedRun:
    error: Optional[Exception]
    product_keys: list  # the key of every _product_core call
    split_solves: list  # the ``quadratic`` flag of every _solve_split call


def counted_run(criterion) -> CountedRun:
    run = CountedRun(None, [], [])
    core, solve = solvers._product_core, tuples._solve_split

    def counted_core(game, budget, hermitian, key, **kw):
        run.product_keys.append(key)
        return core(game, budget, hermitian, key, **kw)

    def counted_solve(t, quadratic, inits=None):
        run.split_solves.append(quadratic)
        return solve(t, quadratic, inits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_product_core", counted_core)
        mp.setattr(tuples, "_solve_split", counted_solve)
        try:
            criterion.run()
        except Exception as exc:
            run.error = exc
    return run


@pytest.fixture(scope="module")
def counted():
    """``counted(id)``: the one counted run of a criterion, made on first
    use; it raises the run's error, if any, in every test that reads it."""
    runs = {}

    def get(cid):
        if cid not in runs:
            runs[cid] = counted_run(next(c for c in CRITERIA if c.id == cid))
        if runs[cid].error is not None:
            raise runs[cid].error
        return runs[cid]

    return get


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.id for c in CRITERIA])
def test_acceptance_criterion(criterion, counted, capsys):
    if criterion.id in COUNTED:
        counted(criterion.id)
    else:
        criterion.run()
    with capsys.disabled():
        print(f"\n[{criterion.id}] {criterion.title}: pass")


@pytest.mark.parametrize("criterion, games", [("C3", 1), ("C4", 53)])
def test_criterion_runs_the_product_seesaw_once_per_game(counted, criterion, games):
    # the one-way-classical ladder starts from beta_product's witness
    assert counted(criterion).product_keys.count("prod") == games


def test_c7_solves_the_splitting_norm_of_each_tuple_once(counted):
    # per trial: the tuple, its scaled copy, its mix and (after the first
    # trial) its concatenation with the previous tuple, so 399 in all
    assert counted("C7").split_solves.count(True) <= 400
