"""Self-test of the benchmark, collected only by explicit path:

    python3 -m pytest -q perfbench/selftest.py

On tiny runs of each workload it checks the traced call counts against
their closed forms (which proves the wrappers reach every namespace that
binds a function), that counts repeat exactly for one seed and do not move
for a held-out seed, that the oracle rejects tampered outputs, that every
metric is emitted with its unit, and that the benchmark refuses to run
without the package.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import run

for _var in run.BLAS_ENV:  # before workloads imports numpy
    os.environ[_var] = "1"

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_HORIZON = 0.01  # ten RK4 steps per simulate invocation
N = 10
TINY_TRIALS = 2

# The metrics the benchmark promises, by name.
NAMED_END_TO_END = {"setup_s", "wall_s", "op_p50_s", "op_p90_s", "peak_rss_mb", "fail_ratio"}
NAMED_PER_LAYER = {
    "cli.main.self_s", "cli.bytes_written", "scenario.load_scenario.calls", "scenario.load_scenario.self_s",
    "dynamics.rk4_step.calls", "dynamics.rk4_step.self_s", "dynamics.integrate.self_s",
    "dynamics.reparametrized_integrate.self_s", "dynamics.monitor_series.calls",
    "dynamics.monitor_series.self_s", "dynamics.invariant_drift.self_s", "dynamics.divergence_defect.calls",
    "dynamics.divergence_defect.self_s", "rolling.reduced_vf.calls", "rolling.reduced_vf.self_s",
    "rolling.omega_from_K.calls", "rolling.omega_from_K.self_s", "rolling.hamiltonian.calls",
    "rolling.X_nh_full.calls", "rolling.X_nh_full.self_s", "rolling.omega_jacobians.calls",
    "rolling.omega_jacobians.self_s", "rolling.nh_bracket_full.per_X_nh_full",
    "rolling.reduction_consistency.calls", "rolling.reduction_consistency.self_s",
    "rolling.reduced_bracket.calls", "brackets.BivectorPatch.matrix.calls",
    "brackets.BivectorPatch.matrix.self_s", "brackets.ham_vf.calls", "brackets.ham_vf.self_s",
    "brackets.BivectorPatch.partial_tensor.calls", "brackets.BivectorPatch.partial_tensor.self_s",
    "brackets.jacobiator.calls", "brackets.jacobiator.self_s", "brackets.conformal_jacobiator.calls",
    "brackets.conformal_jacobiator.self_s", "brackets.twisted_defect.calls", "brackets.twisted_defect.self_s",
    "brackets.dynamical_gauge_check.self_s", "brackets.partial_tensor.per_jacobiator",
    "brackets.matrix.per_jacobiator", "geometry.fd_partials.calls", "geometry.fd_partials.self_s",
    "geometry.fd_gradient.calls", "geometry.fd_gradient.self_s", "geometry.fd_exterior_derivative.calls",
    "geometry.fd_exterior_derivative.self_s", "geometry.fd_exterior_derivative.per_twisted_defect",
    "trace.overhead_ratio",
    *(f"verify.run_suite.{s}.s" for s in tracer.SUITES),
    *(f"{layer}.errors" for layer in tracer.LAYERS),
}


@pytest.fixture(scope="module")
def chaplygin():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import chaplygin
    import chaplygin.cli

    return chaplygin


def traced_calls(chaplygin, name, seed, workdir, trials=workloads.TRIALS):
    """Calls per function over one traced pass; asserts the pass is correct."""
    workload = workloads.Workload(name, seed, workdir, horizon=TINY_HORIZON, trials=trials)
    workload.prepare(chaplygin)
    recorder = tracer.Tracer()
    with recorder.installed(chaplygin):
        result = workload.run_pass(chaplygin.cli)
    assert result.failures == []
    metrics = tracer.layer_metrics(recorder.spans, 1)
    assert all(v >= 0 for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    return {k[: -len(".calls")]: v for k, (v, _) in metrics.items() if k.endswith(".calls")}, metrics


def test_simulate_reduced_counts(chaplygin, tmp_path):
    calls, metrics = traced_calls(chaplygin, "simulate-reduced", 3, tmp_path)
    ops = 12  # ranks 0-3 plus reparametrized ranks 1 and 2, for two bodies
    expected = {
        "cli.main": ops,
        "scenario.load_scenario": ops,
        "dynamics.integrate": 8,
        "dynamics.reparametrized_integrate": 4,
        "dynamics.rk4_step": ops * N,
        "rolling.reduced_vf": ops * 4 * N,
        "dynamics.monitor_series": ops * 2,
        "dynamics.invariant_drift": ops,
        "rolling.hamiltonian": ops * 2 * (N + 1),
        "rolling.omega_from_K": ops * (4 * N + 2 * (N + 1)),
    }
    assert {k: calls[k] for k in expected} == expected
    untouched = [k for k in calls if k.startswith(("brackets.", "geometry.", "verify."))]
    assert untouched and all(calls[k] == 0 for k in untouched + ["rolling.X_nh_full"])
    assert all(metrics[f"{layer}.errors"][0] == 0 for layer in tracer.LAYERS)


def test_simulate_full_counts(chaplygin, tmp_path):
    calls, metrics = traced_calls(chaplygin, "simulate-full", 3, tmp_path)
    ops = 6  # ranks 1-3 for two bodies
    field_calls = ops * 4 * N
    expected = {
        "dynamics.rk4_step": ops * N,
        "rolling.X_nh_full": field_calls,
        "rolling.nh_bracket_full": field_calls,
        "brackets.BivectorPatch.matrix": field_calls,
        "brackets.ham_vf": field_calls,
        "rolling.omega_jacobians": field_calls,
        "rolling.omega_from_K": 2 * field_calls + ops * 2 * (N + 1),
        "rolling.hamiltonian": ops * 2 * (N + 1),
        "dynamics.monitor_series": ops * 2,
        "rolling.reduced_vf": 0,
    }
    assert {k: calls[k] for k in expected} == expected
    assert metrics["rolling.nh_bracket_full.per_X_nh_full"][0] == 1.0


def test_verify_all_counts(chaplygin, tmp_path):
    calls, metrics = traced_calls(chaplygin, "verify-all", 3, tmp_path)
    t = workloads.TRIALS
    states = 2 * (2 * t + t + t + 2 * t)  # two bodies; ranks 0 and 3 check twice the states
    expected = {
        "cli.main": 8,
        "verify.run_suite": 8 * len(tracer.SUITES),
        "brackets.jacobiator": 80 * states,  # 20 triples: 2 jacobi variants, conformal, twisted
        "brackets.conformal_jacobiator": 20 * states,
        "brackets.twisted_defect": 20 * states,
        "rolling.reduction_consistency": 30 * states,  # 15 pairs x 2 variants
        "dynamics.divergence_defect": states + 2 * 2 * t,  # ranks 1 and 2 add the uniform density
        "brackets.dynamical_gauge_check": 8,
        "dynamics.rk4_step": 0,
        "dynamics.integrate": 0,
    }
    assert {k: calls[k] for k in expected} == expected
    assert all(metrics[f"verify.run_suite.{s}.s"][0] > 0 for s in tracer.SUITES)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_and_ignore_held_out_seed(chaplygin, tmp_path, name):
    first, _ = traced_calls(chaplygin, name, 11, tmp_path / "a", trials=TINY_TRIALS)
    again, _ = traced_calls(chaplygin, name, 11, tmp_path / "b", trials=TINY_TRIALS)
    held_out, _ = traced_calls(chaplygin, name, 12, tmp_path / "c", trials=TINY_TRIALS)
    assert first == again == held_out
    inputs = {d: sorted(p.read_text() for p in (tmp_path / d).glob("*.json")) for d in "abc"}
    assert inputs["a"] == inputs["b"] != inputs["c"]


def _run_one(chaplygin, workload, op, path, out):
    with redirect_stdout(io.StringIO()) as stdout:
        rc = chaplygin.cli.main(op.argv(path, out))
    assert rc == 0
    return stdout.getvalue()


def test_oracle_rejects_tampered_outputs(chaplygin, tmp_path):
    sim = workloads.Workload("simulate-reduced", 5, tmp_path / "s", horizon=TINY_HORIZON)
    op, path, out = sim.ops[2], sim.paths[2], tmp_path / "s-out"
    stdout = _run_one(chaplygin, sim, op, path, out)
    assert sim.check(op, out, 0, stdout) is None
    assert sim.check(op, out, 1, stdout) == "exit code 1"
    csv = out / "trajectory.csv"
    lines = csv.read_text().splitlines()
    cells = lines[5].split(",")
    cells[4] = repr(float(cells[4]) + 1e-3)  # K1 of one sample
    csv.write_text("\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n")
    assert "drifts" in sim.check(op, out, 0, stdout)
    csv.write_text("\n".join(lines[:-1]) + "\n")
    assert "shape" in sim.check(op, out, 0, stdout)

    full = workloads.Workload("simulate-full", 5, tmp_path / "f", horizon=TINY_HORIZON)
    full.prepare(chaplygin)
    op, path, out = full.ops[0], full.paths[0], tmp_path / "f-out"
    stdout = _run_one(chaplygin, full, op, path, out)
    assert full.check(op, out, 0, stdout) is None
    full._references[op.name] = full._references[op.name] + 1e-5
    assert "departs from the reduced run" in full.check(op, out, 0, stdout)

    ver = workloads.Workload("verify-all", 5, tmp_path / "v", trials=TINY_TRIALS)
    op, path, out = ver.ops[1], ver.paths[1], tmp_path / "v-out"
    stdout = _run_one(chaplygin, ver, op, path, out)
    assert ver.check(op, out, 0, stdout) is None
    report = json.loads((out / "report.json").read_text())
    report["suites"][0]["checks"].pop()
    (out / "report.json").write_text(json.dumps(report))
    assert "check ids differ" in ver.check(op, out, 0, stdout)


@pytest.mark.parametrize("name", ["simulate-reduced", "verify-all"])
def test_every_metric_is_emitted_with_its_unit(chaplygin, tmp_path, name):
    kwargs = dict(horizon=TINY_HORIZON, trials=TINY_TRIALS, setup_repeats=1)
    result, record = run.run_workload(name, 1, 0, 0, tmp_path / "e", **kwargs)
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    rate = "checked_states_per_s" if name == "verify-all" else "steps_per_s"
    units = {k: v["unit"] for k, v in record["end_to_end"].items()}
    assert units == {
        **{m["name"]: m["unit"] for m in SPEC["end_to_end"]}, "op_p90_s": "s", rate: "1/s", "fail_ratio": "1"
    }
    assert NAMED_END_TO_END <= set(units)
    assert record["end_to_end"]["fail_ratio"]["value"] == 0.0
    assert set(record["machine"]) == {
        "nproc", "cpu_model", "python", "numpy", "blas", "blas_threads", "commit", "source_sha256"
    }
    assert record["machine"]["blas_threads"] in (1, None)

    result, record = run.run_workload(name, 1, 0, 1, tmp_path / "t", **kwargs)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert NAMED_PER_LAYER <= set(result["metrics"])
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert (tmp_path / f"spans-{name}.csv").stat().st_size > 0


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for rel in SPEC["paths"]:
        shutil.copytree(run.ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
