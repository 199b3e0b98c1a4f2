"""The benchmark's workloads: how items are made, what one item calls, and
how its answer is checked.

Item ``i`` of seed ``s`` is made the way ``qxor hierarchy`` makes its games,
from ``SeedSequence([s, i])``, and its solver budget has seed ``s``. The
library only ever receives the generated objects.

Each run times the same *corpus*: items ``0 .. corpus_size-1`` of seed 0. The
time one 2x2 game takes varies about a hundredfold from game to game
(0.1-11 s; a coefficient of variation of 0.8 over 25 games), so a run that
timed a fresh handful of games per seed would measure which games the seed
drew rather than the code. ``--seed`` instead picks the *sample*: items
``corpus_size ..`` of that seed, run after the timed loop and checked the
same way, so every run also checks answers on inputs nobody has seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from qxor import factor, games, maps, opnorms, solvers, tuples
from qxor.budget import SolverBudget

CORPUS_SEED = 0
WARMUP_INDEX = 10**6  # an item index no corpus or sample reaches
BUDGET = {"restarts": 3, "max_sweeps": 60, "tol": 1e-8}
SLACK = 1e-8  # the slack analyze_game allows its own soundness flags
REFERENCE_TOL = 1e-6


@dataclass(frozen=True)
class Item:
    label: str
    inputs: tuple  # library objects, passed to the library as they are
    budget: SolverBudget


@dataclass
class Outcome:
    """Every bound one item returned, as name -> (lower or None, upper), and
    the invariants it broke."""

    bounds: dict
    problems: list = field(default_factory=list)

    def check_order(self):
        for name, (lower, upper) in self.bounds.items():
            if lower is not None and lower > upper + SLACK * max(1.0, abs(lower)):
                self.problems.append(f"{name}: lower {lower!r} above upper {upper!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    corpus_size: int
    sample_size: int
    make: Callable[[int, int], Item]  # (seed, index) -> item
    warmup: Callable[[], Item]
    call: Callable[[Item], object]  # the timed part: library calls only
    judge: Callable[[Item, object], Outcome]  # untimed

    def corpus(self) -> list[Item]:
        return [self.make(CORPUS_SEED, i) for i in range(self.corpus_size)]

    def sample(self, seed: int) -> list[Item]:
        start = self.corpus_size
        return [self.make(seed, i) for i in range(start, start + self.sample_size)]


def budget(seed: int) -> SolverBudget:
    return SolverBudget(seed=seed, **BUDGET)


def compare_to_reference(outcome: Outcome, reference: dict) -> list[str]:
    """Bounds that got worse than the recorded ones by more than the
    tolerance: a lower bound that dropped or an upper bound that rose."""
    problems = []
    for name, (ref_lower, ref_upper) in reference.items():
        if name not in outcome.bounds:
            problems.append(f"{name}: missing")
            continue
        lower, upper = outcome.bounds[name]
        if ref_lower is not None and (lower is None or lower < ref_lower - REFERENCE_TOL):
            problems.append(f"{name}: lower {lower!r} below reference {ref_lower!r}")
        if upper > ref_upper + REFERENCE_TOL:
            problems.append(f"{name}: upper {upper!r} above reference {ref_upper!r}")
    return problems


def check(workload: Workload, item: Item, result, error, reference=(),
          ) -> tuple[Outcome | None, list[str]]:
    """Judge one finished item. ``reference`` is the item's recorded bounds,
    ``None`` when the item should have some but none were recorded, and
    empty for sample items, which are checked against invariants only."""
    if error is not None:
        return None, [f"{type(error).__name__}: {error}"]
    outcome = workload.judge(item, result)
    if reference is None:
        return outcome, outcome.problems + ["no reference bounds recorded"]
    return outcome, outcome.problems + compare_to_reference(outcome, dict(reference))


# ---------------------------------------------------------------------------
# game hierarchy
# ---------------------------------------------------------------------------

def _game_maker(n: int, m: int):
    def make(seed: int, i: int) -> Item:
        game = games.random_game(n, m, seed=np.random.SeedSequence([seed, i]))
        return Item(f"random-{i:04d}", (game,), budget(seed))

    return make


def _analyze(messages, ancilla):
    def call(item: Item):
        (game,) = item.inputs
        return solvers.analyze_game(game, item.label, item.budget, messages, ancilla)

    return call


def judge_hierarchy(item: Item, row) -> Outcome:
    intervals = {
        "beta_product": row.beta_product,
        "beta_entangled": row.beta_entangled,
        "pi1cb": row.pi1cb,
    }
    intervals.update({f"beta_owc.d{d}": iv for d, iv in row.beta_owc_per_d})
    out = Outcome({k: (iv.lower, iv.upper) for k, iv in intervals.items()})
    out.check_order()
    owc = max(iv.lower for _, iv in row.beta_owc_per_d)
    if row.beta_product.lower > owc + SLACK:
        out.problems.append("product lower above owc lower")
    if owc > row.beta_owq + SLACK:
        out.problems.append("owc lower above owq")
    if row.beta_entangled.lower > row.beta_owq + SLACK:
        out.problems.append("entangled lower above owq")
    if row.violations:
        out.problems.append("violations: " + ",".join(row.violations))
    return out


# ---------------------------------------------------------------------------
# operator-space norms
# ---------------------------------------------------------------------------

def _complex_gaussian(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def make_norms_item(seed: int, i: int) -> Item:
    rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
    p = int(rng.integers(2, 4))
    a, b = (x / np.linalg.norm(x) for x in (_complex_gaussian(rng, p, p) for _ in range(2)))
    sandwich = maps.KernelMap(
        maps.full_matrix_space(p), maps.dual_space(p), games.mab_tensor(a, b)
    )
    d, q = (int(v) for v in rng.integers(2, 5, size=2))
    vectors = maps.VectorMap(tuple(_complex_gaussian(rng, q) for _ in range(d)))
    x = _complex_gaussian(rng, int(rng.integers(1, 5)), 3, 3)
    hermitian_tuple = (x + x.conj().transpose(0, 2, 1)) / 2
    tensor = factor.tensor_from_kernel(games.random_game(2, 2, seed=rng).G, 2, 2)
    return Item(f"norms-{i:04d}", (sandwich, vectors, hermitian_tuple, tensor), budget(seed))


def call_norms(item: Item):
    sandwich, vectors, hermitian_tuple, tensor = item.inputs
    b = item.budget
    cb_sandwich = opnorms.cb_norm_bounds(sandwich, (1, 2, 4), b)
    pi2 = opnorms.pietsch_pi2(vectors)
    cb_vectors = opnorms.cb_norm_bounds(vectors, (1, 2, 4), b)
    split = tuples.rplus2c_split(hermitian_tuple)
    gamma = factor.gamma_rc_upper(tensor, b)
    big_gamma = factor.gamma_to_Gamma(tensor, gamma.gamma_upper, b, schedule=(1, 2))
    return cb_sandwich, pi2, cb_vectors, split, gamma, big_gamma


def _row_col_norms(x: np.ndarray) -> tuple[float, float]:
    row = np.einsum("kab,kcb->ac", x, x.conj())
    col = np.einsum("kba,kbc->ac", x.conj(), x)
    return (math.sqrt(np.linalg.norm(row, 2)), math.sqrt(np.linalg.norm(col, 2)))


def judge_norms(item: Item, result) -> Outcome:
    hermitian_tuple = item.inputs[2]
    cb_sandwich, pi2, cb_vectors, split, gamma, big_gamma = result
    out = Outcome({
        "sandwich_cb": (cb_sandwich.interval.lower, cb_sandwich.interval.upper),
        "vector_cb": (cb_vectors.interval.lower, cb_vectors.interval.upper),
        "pietsch_pi2": (None, pi2),
        "rplus2c": (None, split.value),
        "gamma_rc": (None, gamma.gamma_upper),
        "factorization": (big_gamma.lower, big_gamma.upper),
    })
    out.check_order()
    if cb_sandwich.interval.lower > factor.MAB_FACTORIZATION_CONSTANT + 1e-4:
        out.problems.append("sandwich cb lower above the mab_certify bound")
    if cb_vectors.interval.lower > 1.02 * pi2:
        out.problems.append("vector cb lower above 1.02 * pietsch_pi2")
    # the pure splittings are among the solver's starts
    if split.value > min(_row_col_norms(hermitian_tuple)) * (1 + SLACK):
        out.problems.append("rplus2c above min(row, col)")
    return out


WORKLOADS = {
    w.name: w
    for w in (
        # the one-way-classical instrument solver is the hot path here
        Workload(
            "hier_owc_2x2", corpus_size=6, sample_size=1,
            make=_game_maker(2, 2),
            warmup=lambda: Item("chsh", (games.chsh(),), budget(CORPUS_SEED)),
            call=_analyze((1, 2), ((1, 1), (2, 2))),
            judge=judge_hierarchy,
        ),
        # d = 1 reduces the owc solver to the product see-saw, so this runs
        # the same pipeline without the instrument solver
        Workload(
            "hier_ent_3x3", corpus_size=24, sample_size=2,
            make=_game_maker(3, 3),
            warmup=lambda: Item("swap3", (games.swap_game(3),), budget(CORPUS_SEED)),
            call=_analyze((1,), ((1, 1), (2, 2), (3, 3), (4, 4))),
            judge=judge_hierarchy,
        ),
        # the operator-space half of qxor; no game solver runs
        Workload(
            "opspace_norms", corpus_size=24, sample_size=2,
            make=make_norms_item,
            warmup=lambda: make_norms_item(CORPUS_SEED, WARMUP_INDEX),
            call=call_norms,
            judge=judge_norms,
        ),
    )
}
