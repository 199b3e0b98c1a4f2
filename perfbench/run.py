"""Closed-loop benchmark of qxor: one caller, and the next item starts when
the previous one returns.

    python3 perfbench/run.py --workload hier_owc_2x2 --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the library is imported from its
``src/``. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it wraps the library's layers (see ``tracing.py``) and reports
the per-layer metrics instead. It prints the run's environment and one line
per metric; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Each run also
leaves a record (and with tracing, its spans) in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
CALIBRATION_REPEATS = 21
TICK_S = 0.5  # how often the calibration kernel runs within an item

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_cal", "1/cal", "higher"),
    ("latency_p50_cal", "cal", "lower"),
    ("success_rate", "fraction", "higher"),
    ("lower_mean", "value", "higher"),
    ("width_mean", "value", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)


class LibraryMissing(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def load_library():
    """Import the benchmark's modules against the checkout's ``src/qxor``."""
    src = ROOT / "src"
    if not (src / "qxor" / "__init__.py").is_file():
        raise LibraryMissing(f"no qxor package under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import qxor
    import tracing
    import workloads

    if not Path(qxor.__file__).resolve().is_relative_to(src.resolve()):
        raise LibraryMissing(f"qxor was imported from {qxor.__file__}, not {src}")
    return tracing, workloads


def read_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration(np):
    """A fixed kernel that runs no qxor code: batched 4x4 Hermitian ``eigh``
    (the shape of the owc hot path) and a plain Python loop. Returns a
    function that runs it once and returns the seconds it took.

    The machine's speed moves by up to half within seconds (other tenants
    share the host's cores; CPU time equals wall time), so each item's
    latency is divided by this kernel's time, taken right before and right
    after the item. ``eigh`` is bound here, before tracing can wrap it.
    """
    rng = np.random.default_rng(12345)
    a = rng.normal(size=(16, 4, 4)) + 1j * rng.normal(size=(16, 4, 4))
    a = a + a.conj().transpose(0, 2, 1)
    eigh = np.linalg.eigh

    def kernel() -> float:
        t0 = time.perf_counter()
        for _ in range(100):
            eigh(a)
        s = 0
        for i in range(50_000):
            s += i * i
        return time.perf_counter() - t0

    return kernel


def environment(np, kernel) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": read_commit(),
        "calibration_s": statistics.median(kernel() for _ in range(CALIBRATION_REPEATS)),
    }


def import_s() -> float:
    """Seconds a fresh interpreter takes to import the library and the
    benchmark's modules; the caller has already pinned the BLAS threads in
    ``os.environ``, which the child inherits."""
    code = ("import sys, time; t0 = time.perf_counter(); "
            f"sys.path[:0] = {[str(ROOT / 'src'), str(HERE)]!r}; "
            "import tracing, workloads; print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout)


def set_up(workload, seed: int):
    """Make the inputs and run the untimed warm-up item; returns the time."""
    t0 = time.perf_counter()
    corpus = workload.corpus()
    sample = workload.sample(seed)
    workload.call(workload.warmup())
    return time.perf_counter() - t0, corpus, sample


class Run(NamedTuple):
    item: object
    latency: float  # seconds, wall clock
    cal: float  # the calibration kernel's mean seconds around and during the item
    result: object
    error: Exception | None


def attempt(workload, item):
    """(result, None) or (None, exception): a failed item is counted as
    failed, and the run goes on."""
    try:
        return workload.call(item), None
    except Exception as exc:
        return None, exc


class Ticker:
    """Runs the calibration kernel every ``interval`` seconds while an item
    runs, from a SIGALRM handler, so a long item is calibrated throughout
    and not only at its ends. ``spent`` is the handler's time, which the
    caller takes off the item's latency. With ``interval`` None it does
    nothing (traced runs, whose spans must not hold kernel time)."""

    def __init__(self, kernel, interval: float | None):
        self.kernel = kernel
        self.interval = interval
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.times.append(self.kernel())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.times, self.spent = [], 0.0
        if self.interval is not None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


def timed_loop(workload, corpus, seconds: float, kernel, tracer=None):
    """Run corpus items in order, cycling, until ``seconds`` have passed and
    the corpus has run once. The calibration ``kernel`` runs before the
    first item, after every item and, untraced, every ``TICK_S`` within an
    item (see ``Ticker``); each item gets the mean of the kernel times from
    its start to its end. Returns (elapsed, [Run])."""
    runs = []
    ticker = Ticker(kernel, TICK_S if tracer is None else None)
    start = time.perf_counter()
    cal_before = kernel()
    while len(runs) < len(corpus) or time.perf_counter() - start < seconds:
        item = corpus[len(runs) % len(corpus)]
        if tracer is not None:
            tracer.item = len(runs)
            tracer.active = True
            span = tracer.begin("item")
        t0 = time.perf_counter()
        with ticker:
            result, error = attempt(workload, item)
        latency = time.perf_counter() - t0 - ticker.spent
        if tracer is not None:
            tracer.end(span)
            tracer.active = False
        cal_after = kernel()
        cal = statistics.fmean([cal_before, *ticker.times, cal_after])
        runs.append(Run(item, latency, cal, result, error))
        cal_before = cal_after
    return time.perf_counter() - start, runs


def judge_runs(workloads, workload, runs, reference):
    """Check every timed run. Returns the first outcome of each corpus item,
    the problems found and the number of runs that failed."""
    outcomes = {}
    problems = []
    failed = 0
    for n, run in enumerate(runs):
        outcome, item_problems = workloads.check(
            workload, run.item, run.result, run.error, reference.get(run.item.label))
        if outcome is not None:
            outcomes.setdefault(run.item.label, outcome)
        problems += [f"run {n} {run.item.label}: {p}" for p in item_problems]
        failed += bool(item_problems)
    return outcomes, problems, failed


def per_item_medians(runs, value) -> list[float]:
    """Median of ``value(run)`` for each corpus item over its repeats.

    Throughput and the median are taken over these, so each corpus item
    counts once whichever items the last, partial pass reached; with a few
    slow items per run, counting repeats would swing the result by a whole
    item depending on where the time ran out.
    """
    groups = {}
    for run in runs:
        groups.setdefault(run.item.label, []).append(value(run))
    return [statistics.median(v) for v in groups.values()]


def wall_s(run: Run) -> float:
    return run.latency


def in_cal(run: Run) -> float:
    """The item's latency in units of the calibration kernel's time."""
    return run.latency / run.cal


def quality(outcomes) -> tuple[float, float]:
    """Mean lower bound and mean width over the two-sided bounds."""
    lowers, widths = [], []
    for outcome in outcomes:
        for lower, upper in outcome.bounds.values():
            if lower is not None:
                lowers.append(lower)
                widths.append(upper - lower)
    return statistics.fmean(lowers), statistics.fmean(widths)


def untraced_items_per_cal(workload: str):
    """items_per_cal of the newest untraced record of this workload, if any;
    every run times the same corpus, so any seed's record compares."""
    records = sorted(OUT.glob(f"{workload}-trace0-seed*.json"), key=lambda p: p.stat().st_mtime)
    if not records:
        return None
    return json.loads(records[-1].read_text())["metrics"]["items_per_cal"]["value"]


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    try:
        tracing, workloads = load_library()
    except (ImportError, LibraryMissing) as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text()).get(workload.name, {})

    kernel = calibration(np)
    env = environment(np, kernel)
    print("environment:", json.dumps(env))

    import_times = [import_s() for _ in range(SETUP_REPEATS)]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t, corpus, sample = set_up(workload, args.seed)
        setup_times.append(t)

    tracer = None
    if args.trace:
        wrapper_costs = tracing.wrapper_cost_s()
        tracer = tracing.Tracer()
        tracer.install()
    try:
        elapsed, runs = timed_loop(workload, corpus, args.seconds, kernel, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    outcomes, problems, failed = judge_runs(workloads, workload, runs, reference)
    for item in sample:
        result, error = attempt(workload, item)
        _, item_problems = workloads.check(workload, item, result, error)
        problems += [f"sample {item.label}: {p}" for p in item_problems]
        failed += bool(item_problems)
    attempted = len(runs) + len(sample)
    env["calibration_after_s"] = statistics.median(kernel() for _ in range(CALIBRATION_REPEATS))

    per_item_s = per_item_medians(runs, wall_s)
    per_item_cal = per_item_medians(runs, in_cal)
    items_per_cal = len(per_item_cal) / sum(per_item_cal)
    wall = {"items_per_s": len(per_item_s) / sum(per_item_s),
            "latency_p50_s": statistics.median(per_item_s)}
    if args.trace:
        busy_s = sum(run.latency for run in runs)
        values = tracing.layer_metrics(tracer, len(corpus), busy_s, wall["items_per_s"],
                                       wrapper_costs)
        spec = tracing.PER_LAYER
    else:
        lower_mean, width_mean = quality(outcomes.values()) if outcomes else (0.0, 0.0)
        values = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "items_per_cal": items_per_cal,
            "latency_p50_cal": statistics.median(per_item_cal),
            "success_rate": 1 - failed / attempted,
            "lower_mean": lower_mean,
            "width_mean": width_mean,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        spec = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}

    for problem in problems[:20]:
        print("problem:", problem)
    print(f"workload {workload.name}, seed {args.seed}: {len(runs)} timed items "
          f"in {elapsed:.3f} s, {attempted} attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    print(f"  wall clock: {wall['items_per_s']:.6g} items/s, "
          f"p50 {wall['latency_p50_s']:.6g} s, calibration kernel "
          f"{statistics.median(run.cal for run in runs):.6g} s")
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-trace{args.trace}-seed{args.seed}"
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")
        untraced = untraced_items_per_cal(workload.name)
        if untraced is not None:
            print(f"  tracing overhead: {items_per_cal:.6g} items/cal traced, "
                  f"{untraced:.6g} untraced, {untraced / items_per_cal - 1:+.2%}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    tracebacks = ["".join(traceback.format_exception(run.error))
                  for run in runs if run.error is not None]
    record = {"environment": env, "import_times_s": import_times,
              "setup_times_s": setup_times, "wall": wall,
              "problems": problems,
              "tracebacks": tracebacks[:5], **result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
