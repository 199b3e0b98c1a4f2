"""Each benchmark workload's corpus, run once and judged the way the
benchmark judges it: by ``perfbench/workloads.py``'s ``check`` against the
recorded bounds in ``perfbench/reference.json``, which this file only reads.
A change that lowers a corpus lower bound or raises an upper bound beyond
the reference tolerance fails here, not only in a benchmark run."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_corpus_item_meets_its_reference_bounds(name):
    workload = workloads.WORKLOADS[name]
    problems = []
    for item in workload.corpus():
        result = workload.call(item)
        _, found = workloads.check(workload, item, result, None,
                                   REFERENCE[name].get(item.label))
        problems += [f"{item.label}: {p}" for p in found]
    assert problems == []
