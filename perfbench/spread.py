"""Run the benchmark once per seed and summarise each metric over the runs.

    python3 perfbench/spread.py --workload hier_owc_2x2 --seeds 1-10 [--trace 1] [--baseline]

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median. A benchmark is
steady when each end-to-end spread stays well inside the metric's bound in
``BENCHMARK.json``. With ``--baseline`` the summary is also stored under the
workload in ``perfbench/baseline.json``. Runs last ``run_seconds`` from
``BENCHMARK.json`` and go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values,
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", action="store_true")
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    results = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        results.append(run_once(args.workload, seed, spec["run_seconds"], args.trace))
        print(f"seed {seed}: attempted {results[-1]['attempted']}, "
              f"failed {results[-1]['failed']}, {time.perf_counter() - t0:.1f} s", flush=True)
    summary = summarise(results)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, s in summary.items():
        bound = f" (bound {bounds[name]})" if name in bounds else ""
        print(f"{name}: median {s['median']:.6g} {s['unit']}, "
              f"quartiles {s['q1']:.6g}..{s['q3']:.6g}, spread {s['spread']:.4f}{bound}")
    if args.baseline:
        baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
        baseline.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "seeds": args.seeds, "run_seconds": spec["run_seconds"],
            "failed": sum(r["failed"] for r in results), "metrics": summary,
        }
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
