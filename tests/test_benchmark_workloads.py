"""The benchmark's workloads (``perfbench/workloads.py``), each run once as
``perfbench/run.py`` runs it: no operation fails and every output check
passes, so a change that breaks the benchmark's checks fails here first."""

import json
import os
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(BENCH, "reference.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(name, reference, tmp_path):
    w = workloads.WORKLOADS[name](0, str(tmp_path), reference)
    w.setup()
    w.setup_once()
    w.measure(time.perf_counter())
    assert w.ledger.failed == 0, w.ledger.failures
    assert w.ledger.correct
