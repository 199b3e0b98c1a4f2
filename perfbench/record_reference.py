"""Record the reference bounds every benchmark run checks its corpus against.

    python3 perfbench/record_reference.py [workload ...]

Runs each corpus item of the named workloads (default: all) once and
writes every bound it returned to ``perfbench/reference.json``, keeping the
entries of workloads not named. An item that breaks an invariant is not
recorded; the script then exits 1. Re-record only on purpose: a run counts
an item as failed when a lower bound drops, or an upper bound rises, by
more than ``workloads.REFERENCE_TOL`` against this file.
"""

from __future__ import annotations

import json
import os
import sys

from run import BLAS_THREAD_VARS, REFERENCE, load_library


def main(argv) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    _, workloads = load_library()
    names = argv or sorted(workloads.WORKLOADS)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    status = 0
    for name in names:
        workload = workloads.WORKLOADS[name]
        entries = {}
        for item in workload.corpus():
            outcome, problems = workloads.check(workload, item, workload.call(item), None)
            if problems:
                print(f"{name} {item.label}: {problems}", file=sys.stderr)
                status = 1
                continue
            entries[item.label] = {k: list(v) for k, v in outcome.bounds.items()}
        reference[name] = entries
        print(f"{name}: {len(entries)} items recorded")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
