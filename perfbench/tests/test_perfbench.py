"""Tests of the benchmark's own code: span arithmetic, tracing, input
generation and output checks.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import qxor  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402

SMALL = qxor.SolverBudget(restarts=1, max_sweeps=10, seed=0)


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("item", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: together they cover 1..6
        Span("c", 2.0, 3.0, 1, 0),  # a grandchild of item: only a loses it
        Span("d", 9.5, 12.0, 0, 0),  # only 9.5..10 lies inside item
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 1.0, 2.5])


def test_layer_metrics_on_a_synthetic_trace():
    tracer = tracing.Tracer()
    tracer.spans = [
        Span("item", 0.0, 10.0, None, 0),
        Span("solvers.beta_owc", 1.0, 10.0, 0, 0),
        Span("games.bias_of", 2.0, 3.0, 1, 0),
        Span("item", 10.0, 12.0, None, 1),
        # a repeat after the first pass over a two-item corpus: left out
        Span("item", 12.0, 20.0, None, 2),
        Span("solvers.beta_owc", 12.0, 20.0, 4, 2),
    ]
    tracer.counts["linalg.eigh.calls", 0] = 6
    tracer.counts["linalg.eigh.calls", 2] = 100
    tracer.samples["solvers.beta_owc.converged"] = [(0, 1.0), (1, 0.0), (2, 0.0)]
    tracer.samples["solvers.beta_owc.gap"] = [(0, 1e-9), (1, 3e-9), (2, 1.0)]
    m = tracing.layer_metrics(tracer, items=2, elapsed=20.0, items_per_s=0.5,
                              wrapper_costs=(0.0, 0.0))
    assert m["solvers.beta_owc.self_s"] == pytest.approx(8.0 / 2)
    assert m["solvers.beta_owc.calls"] == pytest.approx(0.5)
    assert m["solvers.beta_owc.share"] == pytest.approx(9.0 / 12.0)
    assert m["solvers.beta_owc.converged_frac"] == pytest.approx(0.5)
    assert m["solvers.beta_owc.gap_max"] == pytest.approx(3e-9)
    assert m["games.bias_of.self_s"] == pytest.approx(0.5)
    assert m["linalg.eigh.calls"] == pytest.approx(3.0)
    assert m["opnorms.amplified_norm.calls"] == 0.0
    assert set(m) == {name for name, _, _ in tracing.PER_LAYER}


def test_install_wraps_every_binding_and_uninstall_restores_them():
    original = qxor.games.bias_of
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qxor.solvers.bias_of is qxor.games.bias_of is qxor.bias_of
        assert qxor.solvers.bias_of is not original
        tracer.active = True
        qxor.solvers.beta_product(qxor.chsh(), SMALL)
        tracer.active = False
        qxor.solvers.beta_product(qxor.chsh(), SMALL)  # inactive: not recorded
    finally:
        tracer.uninstall()
    assert qxor.solvers.bias_of is original and qxor.bias_of is original
    names = [s.name for s in tracer.spans]
    assert names.count("solvers.beta_product") == 1
    bias = tracer.spans[names.index("games.bias_of")]
    assert tracer.spans[bias.parent].name == "solvers.beta_product"
    assert tracer.counts["linalg.as_matrix.calls", None] > 0


def test_reference_check_flags_a_lowered_lower_and_a_raised_upper():
    reference = {"beta_owc.d2": [0.81, 1.0], "rplus2c": [None, 2.0]}
    within = workloads.Outcome({"beta_owc.d2": (0.81 - 5e-7, 1.0), "rplus2c": (None, 2.0 + 5e-7)})
    assert workloads.compare_to_reference(within, reference) == []
    lowered = workloads.Outcome({"beta_owc.d2": (0.80, 1.0), "rplus2c": (None, 2.0)})
    (problem,) = workloads.compare_to_reference(lowered, reference)
    assert problem.startswith("beta_owc.d2: lower")
    raised = workloads.Outcome({"beta_owc.d2": (0.81, 1.0), "rplus2c": (None, 2.1)})
    (problem,) = workloads.compare_to_reference(raised, reference)
    assert problem.startswith("rplus2c: upper")
    missing = workloads.Outcome({"rplus2c": (None, 2.0)})
    assert workloads.compare_to_reference(missing, reference) == ["beta_owc.d2: missing"]


def test_a_corpus_item_without_reference_bounds_fails():
    workload = workloads.WORKLOADS["hier_owc_2x2"]
    item = workloads.Item("chsh", (qxor.chsh(),), SMALL)
    _, problems = workloads.check(workload, item, workload.call(item), None, None)
    assert problems == ["no reference bounds recorded"]


def test_the_committed_reference_covers_every_corpus_item():
    reference = json.loads(run.REFERENCE.read_text())
    for workload in workloads.WORKLOADS.values():
        assert set(reference[workload.name]) == {i.label for i in workload.corpus()}


def _arrays(item):
    out = []
    for x in item.inputs:
        if isinstance(x, qxor.QuantumXorGame):
            out.append(x.G)
        elif isinstance(x, qxor.KernelMap):
            out.append(x.kernel)
        elif isinstance(x, qxor.VectorMap):
            out.append(np.stack(x.vectors))
        elif isinstance(x, qxor.TensorElement):
            out.append(x.coeff)
        else:
            assert isinstance(x, np.ndarray), f"unexpected input {type(x)}"
            out.append(x)
    return out


def _same(items_a, items_b):
    return all(
        len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y))
        for x, y in zip(map(_arrays, items_a), map(_arrays, items_b))
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_seed_makes_the_sample_and_the_library_gets_only_objects(name):
    workload = workloads.WORKLOADS[name]
    one, again, two = workload.sample(1), workload.sample(1), workload.sample(2)
    assert _same(one, again)
    assert not any(_same([a], [b]) for a, b in zip(one, two))
    assert all(item.budget.seed == 1 for item in one)
    # _arrays fails on anything but library objects and plain arrays
    assert _same(workload.corpus(), [workload.make(0, i) for i in range(workload.corpus_size)])


def test_games_are_made_as_qxor_hierarchy_makes_them():
    (item,) = workloads.WORKLOADS["hier_owc_2x2"].sample(5)
    i = workloads.WORKLOADS["hier_owc_2x2"].corpus_size
    game = qxor.random_game(2, 2, seed=np.random.SeedSequence([5, i]))
    assert np.array_equal(item.inputs[0].G, game.G)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_judges_accept_answers_from_the_library(name):
    workload = workloads.WORKLOADS[name]
    warm = workload.warmup()
    item = workloads.Item(warm.label, warm.inputs, SMALL)
    outcome, problems = workloads.check(workload, item, workload.call(item), None)
    assert problems == []
    assert any(lower is not None for lower, _ in outcome.bounds.values())


def test_timed_loop_runs_the_corpus_once_then_stops_on_time():
    class Instant:
        @staticmethod
        def call(item):
            return item.label

    corpus = [workloads.Item(str(i), (), SMALL) for i in range(3)]
    kernel_times = iter([1.0, 3.0, 5.0, 7.0])
    elapsed, runs = run.timed_loop(Instant, corpus, 1e-9, lambda: next(kernel_times))
    assert [r.item.label for r in runs] == ["0", "1", "2"]
    assert all(r.result == r.item.label for r in runs)
    # each item gets the mean of the kernel times just before and after it
    assert [r.cal for r in runs] == [2.0, 4.0, 6.0]
    assert len(run.per_item_medians(runs, run.in_cal)) == 3


def test_the_ticker_calibrates_during_an_item_and_reports_its_own_time():
    def kernel():
        time.sleep(0.01)
        return 2.0

    handler = signal.getsignal(signal.SIGALRM)
    ticker = run.Ticker(kernel, 0.05)
    t0 = time.perf_counter()
    with ticker:
        while time.perf_counter() - t0 < 0.3:
            pass
    assert len(ticker.times) >= 3 and set(ticker.times) == {2.0}
    assert 0.01 * len(ticker.times) <= ticker.spent < 0.3
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
