"""Outside-in tracing for the benchmark: spans and counters at layer boundaries.

Nothing here edits the library. A wrapper replaces the module attribute a
caller looks the function up by at call time. The library's modules use
``from .x import f``, so one function can be bound under several modules;
every ``qxor.*`` module that binds the original object gets the wrapper.

Spans are kept in memory as (name, start, end, parent, item) and written out
when the run ends. A span's self time is its duration minus the part of it
that its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

# (defining module, attribute): each gets a span named "<last module part>.<attr>"
SPAN_LAYERS = (
    ("qxor.solvers", "analyze_game"),
    ("qxor.solvers", "beta_product"),
    ("qxor.solvers", "beta_entangled"),
    ("qxor.solvers", "beta_owc"),
    ("qxor.solvers", "pi1cb_bounds"),
    ("qxor.games", "bias_of"),
    ("qxor.opnorms", "cb_norm_bounds"),
    ("qxor.opnorms", "amplified_norm"),
    ("qxor.opnorms", "pietsch_pi2"),
    ("qxor.tuples", "rplus2c_split"),
    ("qxor.factor", "gamma_rc_upper"),
    ("qxor.factor", "gamma_to_Gamma"),
)

# hot inner calls: counted only, because a span per call would cost more
# than the call itself
COUNTED_LAYERS = (
    ("qxor.linalg", "as_matrix"),
    ("numpy.linalg", "eigh"),
    ("qxor.opnorms", "linprog"),
    ("qxor.tuples", "minimize"),
)


def layer_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    item: int | None


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Records spans and counts while installed and ``active``. Counts are
    keyed by (name, item) and samples hold (item, value), like spans.

    The benchmark sets ``active`` only while a timed item runs, so its own
    checks of the answers do not count as library work.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.samples = defaultdict(list)
        self.item: int | None = None
        self.active = False
        self._open: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.item))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self._observe(name, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                counts[key, self.item] += 1
                self._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name: str, args, result):
        """Per-layer figures that only the call's arguments or result hold."""
        if name == "linalg.eigh":
            shape = getattr(args[0], "shape", ())
            self.counts["linalg.eigh.matrices", self.item] += math.prod(shape[:-2])
        elif name == "tuples.minimize":
            self.counts["tuples.minimize.nfev", self.item] += int(result.nfev)
        elif name == "factor.gamma_rc_upper":
            self.counts["factor.gamma_rc_upper.evaluations", self.item] += int(result.evaluations)
        elif name == "solvers.beta_owc":
            self.samples["solvers.beta_owc.converged"].append(
                (self.item, float(result.instrument_converged))
            )
            if result.duality_gap is not None:
                self.samples["solvers.beta_owc.gap"].append((self.item, float(result.duality_gap)))

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer in ``SPAN_LAYERS`` and ``COUNTED_LAYERS``."""
        for module, attr in SPAN_LAYERS:
            self._patch(module, attr, self.timed)
        for module, attr in COUNTED_LAYERS:
            self._patch(module, attr, self.counted)

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _patch(self, module_name: str, attr: str, make):
        home = importlib.import_module(module_name)
        original = getattr(home, attr)
        wrapper = make(layer_name(module_name, attr), original)
        modules = [home] + [
            m for name, m in sorted(sys.modules.items())
            if (name == "qxor" or name.startswith("qxor.")) and m is not home
        ]
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                self._undo.append((module, attr, original))

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def wrapper_cost_s(calls: int = 20000) -> tuple[float, float]:
    """Measured cost of one span wrapper and one counter wrapper, in seconds,
    used to estimate how much of a traced run the tracing itself took."""
    def noop(*args):
        return None

    def per_call(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(None)
        return (time.perf_counter() - t0) / calls

    probe = Tracer()
    probe.active = True
    bare = per_call(noop)
    span_cost = per_call(probe.timed("probe", noop)) - bare
    count_cost = per_call(probe.counted("probe", noop)) - bare
    return max(span_cost, 0.0), max(count_cost, 0.0)


# (name, unit, better): the metrics a traced run reports; every count and
# time is per timed item
PER_LAYER = (
    ("solvers.analyze_game.self_s", "s/item", "lower"),
    ("solvers.beta_product.self_s", "s/item", "lower"),
    ("solvers.beta_product.calls", "calls/item", "lower"),
    ("solvers.beta_entangled.self_s", "s/item", "lower"),
    ("solvers.beta_entangled.calls", "calls/item", "lower"),
    ("solvers.beta_owc.self_s", "s/item", "lower"),
    ("solvers.beta_owc.calls", "calls/item", "lower"),
    ("solvers.beta_owc.share", "fraction", "lower"),
    ("solvers.beta_owc.converged_frac", "fraction", "higher"),
    ("solvers.beta_owc.gap_max", "value", "lower"),
    ("solvers.pi1cb_bounds.self_s", "s/item", "lower"),
    ("games.bias_of.self_s", "s/item", "lower"),
    ("games.bias_of.calls", "calls/item", "lower"),
    ("linalg.as_matrix.calls", "calls/item", "lower"),
    ("linalg.eigh.calls", "calls/item", "lower"),
    ("linalg.eigh.matrices", "matrices/item", "lower"),
    ("opnorms.cb_norm_bounds.self_s", "s/item", "lower"),
    ("opnorms.amplified_norm.self_s", "s/item", "lower"),
    ("opnorms.amplified_norm.calls", "calls/item", "lower"),
    ("opnorms.pietsch_pi2.self_s", "s/item", "lower"),
    ("opnorms.linprog.calls", "calls/item", "lower"),
    ("tuples.rplus2c_split.self_s", "s/item", "lower"),
    ("tuples.minimize.calls", "calls/item", "lower"),
    ("tuples.minimize.nfev", "nfev/item", "lower"),
    ("factor.gamma_rc_upper.self_s", "s/item", "lower"),
    ("factor.gamma_rc_upper.evaluations", "evals/item", "lower"),
    ("factor.gamma_to_Gamma.self_s", "s/item", "lower"),
    ("trace.items_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def layer_metrics(tracer: Tracer, items: int, elapsed: float, items_per_s: float,
                  wrapper_costs: tuple[float, float]) -> dict:
    """Per-layer figures of a traced loop whose items took ``elapsed``
    seconds and ran at ``items_per_s`` (wall clock). They cover the loop's first ``items`` items,
    one pass over the corpus, so counts repeat exactly from run to run. A
    layer that never ran reads 0.

    ``solvers.beta_owc.share`` is the time inside ``beta_owc`` over the
    time inside items, and ``trace.overhead_frac`` the estimated share of
    ``elapsed`` the wrappers took (wrapper calls times ``wrapper_costs``).
    """
    own = defaultdict(float)
    inclusive = defaultdict(float)
    calls = Counter()
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        if span.item < items:
            own[span.name] += self_s
            inclusive[span.name] += span.end - span.start
            calls[span.name] += 1
    counts = Counter()
    for (name, item), c in tracer.counts.items():
        if item < items:
            counts[name] += c
    samples = {
        name: [v for item, v in pairs if item < items]
        for name, pairs in tracer.samples.items()
    }
    values = {f"{name}.self_s": t / items for name, t in own.items()}
    values.update({f"{name}.calls": c / items for name, c in calls.items()})
    values.update({name: c / items for name, c in counts.items()})
    if inclusive["item"] > 0:
        values["solvers.beta_owc.share"] = inclusive["solvers.beta_owc"] / inclusive["item"]
    converged = samples.get("solvers.beta_owc.converged", [])
    values["solvers.beta_owc.converged_frac"] = (
        sum(converged) / len(converged) if converged else 1.0
    )
    values["solvers.beta_owc.gap_max"] = max(samples.get("solvers.beta_owc.gap", []), default=0.0)
    values["trace.items_per_s"] = items_per_s
    span_cost, count_cost = wrapper_costs
    counter_calls = sum(c for (name, _), c in tracer.counts.items() if name.endswith(".calls"))
    values["trace.overhead_frac"] = (
        len(tracer.spans) * span_cost + counter_calls * count_cost
    ) / elapsed
    return {name: values.get(name, 0.0) for name, _, _ in PER_LAYER}
