"""What the benchmark under perfbench/ relies on: every function its tracer
wraps exists, ``verify --suite all`` reports the check ids its oracle
expects at each rank, and ``trajectory.csv`` starts with the headers it
expects.  The benchmark files are only read here."""

import importlib

import numpy as np

from chaplygin import (
    IntegratorConfig,
    integrate,
    lift_reduced_state,
    monitor_series,
    reparametrized_integrate,
    run_all_suites,
)
from chaplygin.cli import _trajectory_csv

from conftest import fresh_modules, standard_body


def test_tracer_targets_resolve(perfbench):
    tracer, _ = perfbench
    for layer, function in tracer.TARGETS:
        owner = importlib.import_module(f"chaplygin.{layer}")
        for attr in function.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), f"{layer}.{function}"


def test_cli_loads_every_traced_layer(perfbench):
    """Tracer.installed looks each of its layers up in sys.modules, so a
    process that imports chaplygin.cli must hold all of them: cli imports
    verify at module level for that reason, until the tracer skips a layer
    that is not loaded (ROADMAP, repair the benchmark)."""
    tracer, _ = perfbench
    assert {f"chaplygin.{layer}" for layer in tracer.LAYERS} <= set(fresh_modules("import chaplygin.cli"))


def test_verify_check_ids_match_the_oracle(perfbench, rank):
    _, workloads = perfbench
    ids = {c["id"] for suite in run_all_suites(standard_body(rank), trials=2) for c in suite["checks"]}
    assert ids == workloads.VERIFY_CHECK_IDS[rank]


def test_csv_headers_match_the_oracle(perfbench):
    """The benchmark's oracle restates both trajectory.csv headers, so a
    drift between them and the chart table fails here, not as a benchmark
    output marked incorrect."""
    _, workloads = perfbench
    params, config = standard_body(2), IntegratorConfig(dt=0.01, t_final=0.01)
    initial = np.array([0.0, 0.0, 1.0, 0.3, -0.1, 0.2])
    runs = {
        workloads.REDUCED_HEADER: integrate(params, initial, config),
        workloads.FULL_HEADER: integrate(params, lift_reduced_state(initial), config),
        workloads.REDUCED_HEADER + ",t_recovered": reparametrized_integrate(params, initial, config),
    }
    for header, traj in runs.items():
        assert _trajectory_csv(traj, monitor_series(params, traj)).split("\n", 1)[0] == header
