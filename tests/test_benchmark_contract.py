"""What the benchmark under perfbench/ relies on: every function its tracer
wraps exists, and ``verify --suite all`` reports the check ids its oracle
expects at each rank.  The benchmark files are only read here."""

import importlib
import sys
from pathlib import Path

import pytest

from chaplygin import run_all_suites

from conftest import standard_body

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The tracer and workloads modules (workloads imports tracer by its bare name)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer, workloads


def test_tracer_targets_resolve(perfbench):
    tracer, _ = perfbench
    for layer, function in tracer.TARGETS:
        owner = importlib.import_module(f"chaplygin.{layer}")
        for attr in function.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), f"{layer}.{function}"


def test_verify_check_ids_match_the_oracle(perfbench, rank):
    _, workloads = perfbench
    ids = {c["id"] for suite in run_all_suites(standard_body(rank), trials=2) for c in suite["checks"]}
    assert ids == workloads.VERIFY_CHECK_IDS[rank]
