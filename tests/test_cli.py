"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import chaplygin
from chaplygin import DegenerateDenominator, NonPositiveFactor, SingularGauge, SymmetricInput, cli
from chaplygin.cli import main

REDUCED_HEADER = "t,gamma1,gamma2,gamma3,K1,K2,K3,H,C1,C2,F"
FULL_HEADER = "t,g11,g12,g13,g21,g22,g23,g31,g32,g33,x1,x2,x3,K1,K2,K3,H"


def write_scenario(tmp_path, name="scenario.json", **overrides):
    data = {
        "inertia": [1.0, 2.0, 3.0],
        "mass": 1.0,
        "radius": 1.0,
        "rank": 2,
        "initial": {"gamma": [0.0, 0.0, 1.0], "K": [0.3, -0.1, 0.2]},
        "integrator": {"dt": 1e-3, "T": 0.05},
        "seed": 0,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ------------------------------------------------------------------- simulate


def test_simulate_reduced_artifacts(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == REDUCED_HEADER
    assert len(lines) == 1 + 50 + 1  # header + n steps + initial sample
    first = [float(v) for v in lines[1].split(",")]
    assert first[:7] == [0.0, 0.0, 0.0, 1.0, 0.3, -0.1, 0.2]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "reduced"
    assert summary["rank"] == 2
    assert summary["samples"] == 51
    assert not summary["reparametrized"]
    assert set(summary["drifts"]) == {"H", "C1", "C2", "F"}
    assert max(summary["drifts"].values()) <= 1e-10
    assert "trajectory.csv" in capsys.readouterr().out


def test_simulate_writes_full_precision(tmp_path):
    path = write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["simulate", str(path), "--out", str(out)])
    row = (out / "trajectory.csv").read_text().splitlines()[7].split(",")
    # 17 significant digits survive a round trip through the text form
    val = float(row[4])
    assert f"{val:.17g}" == row[4]


@pytest.mark.parametrize("flags", [[], ["--reparametrize"], ["--full"]], ids=["reduced", "reparam", "full"])
def test_simulate_uses_one_monitor_pass(tmp_path, monkeypatch, flags):
    seen = []
    real = cli.monitor_series

    def counting(params, traj):
        seen.append(traj)
        return real(params, traj)

    for module in (cli, chaplygin.dynamics):
        monkeypatch.setattr(module, "monitor_series", counting)
    path = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", str(path), *flags, "--out", str(out)]) == 0
    assert len(seen) == 1
    traj, params = seen[0], chaplygin.load_scenario(path).params
    series = real(params, traj)
    names = ["H"] if traj.dim == 15 else ["H", "C1", "C2", "F"]
    columns = [traj.times, *traj.states.T, *(series[n] for n in names)]
    if traj.t_recovered is not None:
        columns.append(traj.t_recovered)
    # the reference formatting: every cell by f"{x:.17g}"
    expected = [",".join(f"{x:.17g}" for x in row) for row in np.column_stack(columns).tolist()]
    assert (out / "trajectory.csv").read_text().splitlines()[1:] == expected
    drifts = json.loads((out / "summary.json").read_text())["drifts"]
    assert drifts == chaplygin.invariant_drift(params, traj)


def test_simulate_full_flag_lifts_reduced_initial(tmp_path):
    path = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--full", "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == FULL_HEADER
    first = [float(v) for v in lines[1].split(",")]
    g = np.array(first[1:10]).reshape(3, 3)
    assert np.max(np.abs(g.T @ g - np.eye(3))) <= 1e-12
    assert np.array_equal(g[2], [0.0, 0.0, 1.0])  # third row is gamma
    assert first[10:13] == [0.0, 0.0, 0.0]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "full"


def test_simulate_full_initial_runs_on_full_space(tmp_path):
    path = write_scenario(
        tmp_path,
        initial={
            "g": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            "x": [0.0, 0.0, 0.0],
            "K": [0.3, -0.1, 0.2],
        },
    )
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").read_text().splitlines()[0] == FULL_HEADER


def test_simulate_reparametrize_adds_recovered_time(tmp_path):
    path = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--reparametrize", "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == REDUCED_HEADER + ",t_recovered"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[-1] > 0.0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reparametrized"]


def test_simulate_reparametrize_excludes_full(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["simulate", str(path), "--full", "--reparametrize", "--out", str(tmp_path / "o")]) == 2
    assert "reduced space" in capsys.readouterr().err


def test_simulate_is_deterministic(tmp_path):
    path = write_scenario(tmp_path)
    for name in ("a", "b"):
        assert main(["simulate", str(path), "--out", str(tmp_path / name)]) == 0
    for artifact in ("trajectory.csv", "summary.json"):
        assert (tmp_path / "a" / artifact).read_bytes() == (tmp_path / "b" / artifact).read_bytes()


def test_simulate_rejects_malformed_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, rank=7)
    assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "rank" in err


def test_simulate_rejects_unknown_integrator_method(tmp_path, capsys):
    path = write_scenario(tmp_path, integrator={"dt": 1e-3, "T": 0.05, "method": "euler"})
    assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "integrator.method" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_rejects_missing_file(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err


def test_simulate_reports_runtime_blowup(tmp_path, capsys):
    path = write_scenario(tmp_path, rank=0, integrator={"dt": 1e6, "T": 2e6})
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "integration failed" in capsys.readouterr().err
    assert not (tmp_path / "o" / "trajectory.csv").exists()


def test_simulate_blowup_with_warnings_as_errors(tmp_path, capsys):
    path = write_scenario(tmp_path, rank=0, integrator={"dt": 1e6, "T": 2e6})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "integration failed" in capsys.readouterr().err


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_simulate_huge_momentum_under_python_w_error(tmp_path, rank):
    # a fresh interpreter with every warning an error: the blow-up is NonFiniteState, exit 1
    path = write_scenario(
        tmp_path,
        rank=rank,
        initial={"gamma": [0.0, 0.0, 1.0], "K": [3e199, -1e199, 2e199]},
        integrator={"dt": 1e6, "T": 2e6},
    )
    env = dict(os.environ, PYTHONPATH=str(Path(chaplygin.__file__).parents[1]))
    argv = ["simulate", str(path), "--out", str(tmp_path / "o")]
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "chaplygin.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1, done.stderr
    assert "integration failed: non-finite state" in done.stderr
    assert not (tmp_path / "o" / "trajectory.csv").exists()


def test_simulate_reports_degenerate_denominator(tmp_path, monkeypatch, capsys):
    def degenerate(*args, **kwargs):
        raise DegenerateDenominator("rank-2 denominator 0")

    monkeypatch.setattr(cli, "integrate", degenerate)
    assert main(["simulate", str(write_scenario(tmp_path)), "--out", str(tmp_path / "o")]) == 1
    assert "rank-2 denominator 0" in capsys.readouterr().err


def test_simulate_non_dividing_step_ends_at_horizon(tmp_path):
    path = write_scenario(tmp_path, integrator={"dt": 0.3, "T": 1.0})
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    assert float(lines[-1].split(",")[0]) == 1.0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["t_final"] == 1.0
    assert summary["samples"] == len(lines) - 1 == 5


def test_atomic_write_uses_unique_temp_files(tmp_path, monkeypatch):
    temps = []
    real_replace = os.replace

    def spy(src, dst):
        temps.append(os.fspath(src))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    target = tmp_path / "report.json"
    cli._atomic_write(target, "first\n")
    cli._atomic_write(target, "second\n")
    assert len(set(temps)) == 2
    assert all(os.path.dirname(t) == str(tmp_path) for t in temps)
    assert target.read_text() == "second\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_atomic_write_removes_temp_file_on_failure(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        cli._atomic_write(tmp_path / "report.json", "text\n")
    assert list(tmp_path.iterdir()) == []


def test_simulate_overwrites_atomically(tmp_path):
    path = write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["simulate", str(path), "--out", str(out)])
    first = (out / "trajectory.csv").read_bytes()
    main(["simulate", str(path), "--out", str(out)])
    assert (out / "trajectory.csv").read_bytes() == first
    assert not list(out.glob("*.tmp"))


def test_concurrent_simulate_runs_share_an_output_directory(tmp_path):
    # two processes renaming over the same files: each file is whole and
    # equal to what a single run writes
    path = write_scenario(tmp_path, integrator={"dt": 1e-3, "T": 1.0})
    assert main(["simulate", str(path), "--out", str(tmp_path / "single")]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(chaplygin.__file__).parents[1]))
    argv = [sys.executable, "-m", "chaplygin.cli", "simulate", str(path), "--out", str(tmp_path / "shared")]
    runs = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) for _ in range(2)]
    for run in runs:
        _, err = run.communicate(timeout=60)
        assert run.returncode == 0, err
    for artifact in ("trajectory.csv", "summary.json"):
        assert (tmp_path / "shared" / artifact).read_bytes() == (tmp_path / "single" / artifact).read_bytes()
    assert sorted(p.name for p in (tmp_path / "shared").iterdir()) == ["summary.json", "trajectory.csv"]


# --------------------------------------------------------------------- verify


def test_verify_all_suites_pass(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "report"
    rc = main(["verify", str(path), "--suite", "all", "--trials", "20", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "FAIL" not in stdout
    assert "overall" in stdout.lower()
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["rank"] == 2
    assert report["trials"] == 20
    names = {s["suite"] for s in report["suites"]}
    assert names == {"jacobi", "conformal", "twisted", "gauge", "reduction", "measure"}
    for suite in report["suites"]:
        assert suite["passed"] is True
        for check in suite["checks"]:
            assert {"id", "anchor", "max_residual", "tolerance", "passed"} <= set(check)
            assert check["passed"] is True


def test_verify_single_suite(tmp_path):
    path = write_scenario(tmp_path)
    out = tmp_path / "report"
    assert main(["verify", str(path), "--suite", "twisted", "--trials", "10", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [s["suite"] for s in report["suites"]] == ["twisted"]


@pytest.mark.parametrize("rank_v", [0, 1, 3])
def test_verify_all_suites_other_ranks(tmp_path, rank_v):
    path = write_scenario(tmp_path, rank=rank_v)
    out = tmp_path / "report"
    assert main(["verify", str(path), "--suite", "all", "--trials", "10", "--out", str(out)]) == 0


def test_verify_forced_variant_fails_honestly(tmp_path, capsys):
    # rank 3 satisfies the Jacobi identity only after the momentum shift;
    # forcing the unshifted bracket must fail and exit 1
    path = write_scenario(tmp_path, rank=3)
    out = tmp_path / "report"
    rc = main(
        ["verify", str(path), "--suite", "jacobi", "--variant", "plain", "--trials", "10", "--out", str(out)]
    )
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["variant"] == "plain"


def test_verify_forced_variant_passes_where_it_holds(tmp_path):
    path = write_scenario(tmp_path, rank=0)
    out = tmp_path / "report"
    rc = main(
        ["verify", str(path), "--suite", "jacobi", "--variant", "plain", "--trials", "10", "--out", str(out)]
    )
    assert rc == 0


def test_verify_tol_scale_loosens(tmp_path):
    path = write_scenario(tmp_path, rank=3)
    out = tmp_path / "report"
    rc = main(
        [
            "verify", str(path), "--suite", "jacobi", "--variant", "plain",
            "--trials", "10", "--tol-scale", "1e12", "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["tol_scale"] == 1e12


def test_verify_tol_scale_tightens(tmp_path):
    path = write_scenario(tmp_path)
    out = tmp_path / "report"
    rc = main(
        ["verify", str(path), "--suite", "conformal", "--trials", "10", "--tol-scale", "1e-12", "--out", str(out)]
    )
    assert rc == 1


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_verify_rejects_non_positive_or_non_finite_tol_scale(tmp_path, capsys, value):
    path = write_scenario(tmp_path)
    rc = main(["verify", str(path), "--suite", "gauge", "--trials", "2", f"--tol-scale={value}",
               "--out", str(tmp_path / "report")])
    assert rc == 2
    assert "tol-scale" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_verify_is_deterministic(tmp_path):
    path = write_scenario(tmp_path)
    for name in ("ra", "rb"):
        assert main(["verify", str(path), "--suite", "jacobi", "--trials", "10", "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "ra" / "report.json").read_bytes() == (tmp_path / "rb" / "report.json").read_bytes()


@pytest.mark.parametrize("error", [SingularGauge, SymmetricInput, NonPositiveFactor])
def test_verify_runtime_errors_exit_1(tmp_path, monkeypatch, capsys, error):
    def failing(*args, **kwargs):
        raise error("raised mid-run")

    monkeypatch.setattr(cli, "run_all_suites", failing)
    path = write_scenario(tmp_path)
    assert main(["verify", str(path), "--suite", "all", "--out", str(tmp_path / "o")]) == 1
    assert "raised mid-run" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


def test_verify_rejects_bad_trials(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["verify", str(path), "--suite", "jacobi", "--trials", "0", "--out", str(tmp_path / "o")]) == 2
    assert "trials" in capsys.readouterr().err


def test_verify_rejects_malformed_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, mass=-2.0)
    assert main(["verify", str(path), "--suite", "all", "--out", str(tmp_path / "o")]) == 2
    assert "mass" in capsys.readouterr().err


def test_verify_rejects_unknown_suite(tmp_path):
    path = write_scenario(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path), "--suite", "bogus", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
