"""Acceptance gate: every criterion from the registry, one test each."""

import pytest

from qxor import solvers, tuples
from qxor.acceptance import CRITERIA


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.id for c in CRITERIA])
def test_acceptance_criterion(criterion, capsys):
    criterion.run()
    with capsys.disabled():
        print(f"\n[{criterion.id}] {criterion.title}: pass")


@pytest.mark.parametrize("criterion, games", [("C3", 1), ("C4", 53)])
def test_criterion_runs_the_product_seesaw_once_per_game(monkeypatch, criterion, games):
    # the one-way-classical ladder starts from beta_product's witness
    keys = []
    core = solvers._product_core

    def counted(game, budget, hermitian, key, **kw):
        keys.append(key)
        return core(game, budget, hermitian, key, **kw)

    monkeypatch.setattr(solvers, "_product_core", counted)
    next(c for c in CRITERIA if c.id == criterion).run()
    assert keys.count("prod") == games


def test_c7_solves_the_splitting_norm_of_each_tuple_once(monkeypatch):
    # per trial: the tuple, its scaled copy, its mix and (after the first
    # trial) its concatenation with the previous tuple, so 399 in all
    solves = []
    solve = tuples._solve_split

    def counted(t, quadratic, inits=None):
        solves.append(quadratic)
        return solve(t, quadratic, inits)

    monkeypatch.setattr(tuples, "_solve_split", counted)
    next(c for c in CRITERIA if c.id == "C7").run()
    assert solves.count(True) <= 400
