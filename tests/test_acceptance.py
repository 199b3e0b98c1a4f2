"""Acceptance gate: every criterion from the registry, one test each."""

import pytest

from qxor import solvers
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
