"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaplygin
from chaplygin import DegenerateDenominator, NonPositiveFactor, SingularGauge, SymmetricInput, cli, dynamics
from chaplygin import body as body_module
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


@pytest.mark.parametrize("command", [["simulate"], ["verify", "--suite", "all"]])
def test_a_body_whose_m_r2_overflows_is_a_scenario_error(tmp_path, capsys, command):
    """Not a non-finite state after step 1 or a non-finite bracket (exit 1)."""
    path = write_scenario(tmp_path, mass=1e300, radius=1e10)
    assert main([command[0], str(path), *command[1:], "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario field 'mass': mass * radius**2 + inertia overflows")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["simulate"], ["verify", "--suite", "all"]])
@pytest.mark.parametrize("where", ["mass", "initial.K"])
def test_a_json_integer_beyond_the_floats_is_a_scenario_error(tmp_path, capsys, command, where):
    """Not an OverflowError traceback (exit 1)."""
    huge = 10**400
    overrides = {"mass": huge} if where == "mass" else {"initial": {"gamma": [0.0, 0.0, 1.0], "K": [0.3, huge, 0.2]}}
    path = write_scenario(tmp_path, **overrides)
    assert main([command[0], str(path), *command[1:], "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: scenario field '{where}': must be finite\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["simulate"], ["verify", "--suite", "all", "--trials", "2"]])
@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
def test_an_unusable_out_exits_2_before_the_run(tmp_path, capsys, monkeypatch, command, below):
    """An --out that names a file, or a path below one, gives one error line
    and exit 2, before the run: neither integrate nor verify is called."""
    path = write_scenario(tmp_path)
    (tmp_path / "file").write_text("kept\n")
    out = tmp_path / "file" / "o" if below else tmp_path / "file"
    for name in ("integrate", "run_all_suites"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("the run started"))
    assert main([command[0], str(path), *command[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot use --out {out}: ") and err.count("\n") == 1
    assert (tmp_path / "file").read_text() == "kept\n"


def test_an_out_that_refuses_writes_exits_2(tmp_path, capsys, monkeypatch):
    """A write that the system refuses after the run gives one error line and exit 2."""
    def refuse(path, text):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli, "_atomic_write", refuse)
    path = write_scenario(tmp_path)
    for command in (["simulate"], ["verify", "--suite", "jacobi", "--trials", "2"]):
        assert main([command[0], str(path), *command[1:], "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == ("", f"error: cannot use --out {tmp_path / 'o'}: Permission denied\n")


def test_simulate_rejects_unknown_integrator_method(tmp_path, capsys):
    path = write_scenario(tmp_path, integrator={"dt": 1e-3, "T": 0.05, "method": "euler"})
    assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "integrator.method" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_rejects_missing_file(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_simulate_rejects_unreadable_file(tmp_path, capsys, kind):
    path = tmp_path / "scenario.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff" + write_scenario(tmp_path, name="ok.json").read_bytes())
    assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario field '<file>': cannot read") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [[], ["--reparametrize"], ["--full"]], ids=["reduced", "reparam", "full"])
def test_second_simulate_compiles_nothing(tmp_path, flags):
    """Each chart's march and the kernels compile once per process: a second
    run, on a body of other inertia, adds no cache miss."""
    caches = (dynamics._chart_march, body_module._kernel_factory)
    first = write_scenario(tmp_path, name="first.json")
    assert main(["simulate", str(first), *flags, "--out", str(tmp_path / "a")]) == 0
    misses = [f.cache_info().misses for f in caches]
    second = write_scenario(tmp_path, name="second.json", inertia=[0.7, 1.9, 2.6], mass=1.4)
    assert main(["simulate", str(second), *flags, "--out", str(tmp_path / "b")]) == 0
    assert [f.cache_info().misses for f in caches] == misses


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


@pytest.mark.parametrize(
    "dt, t_final", [(5e-324, 1e-3), (1e-300, 1.0), (1e-3, 1e300)], ids=["inf-steps", "too-many-samples", "far-horizon"]
)
def test_a_step_count_that_cannot_be_run_is_a_scenario_error(tmp_path, capsys, dt, t_final):
    """Not an OverflowError or a numpy ValueError traceback (exit 1)."""
    path = write_scenario(tmp_path, integrator={"dt": dt, "T": t_final})
    assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario field 'integrator.dt': t_final/dt = ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


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


# ------------------------------------------------------------------ CSV text


def _reference_rows(table) -> str:
    """The reference text: every cell by f"{x:.17g}", one Python call each."""
    return "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in table.tolist())


def _edge_values() -> list:
    """Cells at the corners of the numpy path and of its fallback."""
    tiny, huge = 5e-324, np.finfo(np.float64).max
    values = [0.0, tiny, 2 * tiny, 2.2250738585072009e-308, 2.2250738585072014e-308, huge,
              np.inf, np.nan, -np.nan, 1e15 + 0.25, 1e15 + 0.75, 1e15 + 0.5, 1e15 + 1.5, 0.5, 2.5,
              9007199254740993.0, 2.0**53, 2.0**53 + 2, 0.1, 1 / 3, 2 / 3,
              1e-14, 1e98]  # floats just below 10**k that round up to it; none is in the window
    for k in range(-6, 19):
        power = float(f"1e{k}")
        values += [power, np.nextafter(power, 0), np.nextafter(power, np.inf)]
    for edge in (1e-4, 1e16):  # the window of the numpy path
        values += [edge, np.nextafter(edge, 0), np.nextafter(edge, np.inf)]
    values += [-v for v in values]
    return [float(v) for v in values]


def test_g17_text_of_edge_values_matches_format():
    cells = _edge_values()
    for cols in (1, 7, 17):  # 17 cells a row over 300 rows: three blocks
        table = np.resize(np.array(cells), (300, cols))
        assert cli._g17_rows(table).decode() == _reference_rows(table)
    # ties round half to even, as "%.17g" does
    assert cli._g17_rows(np.array([[1e15 + 0.25, 1e15 + 0.75]])) == b"1000000000000000.2,1000000000000000.8\n"


def test_g17_exponent_and_rounding_facts_hold_exactly():
    """The facts that make the formatter's decimal exponent exact, in exact
    arithmetic: the shift estimate is floor(e log10 2) for every binary
    exponent e of the converted cells, 1e-4 <= |x| < 1e16; the float 10**k
    is exact for k >= 0 and rounds up for k < 0, so comparing with it is
    comparing with 10**k; and the float below 10**k stays more than half a
    unit of the 17th digit below it, so no cell rounds up to 10**k."""
    for e in range(-14, 54):
        est = (e * 78913) >> 18
        assert Fraction(10) ** est <= Fraction(2) ** e < Fraction(10) ** (est + 1)
    _, pow10_bits, *_ = cli._g17_tables()
    for k, x in zip(range(-4, 17), pow10_bits.view(np.float64).tolist()):
        exact, below = Fraction(10) ** k, Fraction(np.nextafter(x, 0.0))
        assert Fraction(x) == exact if k >= 0 else Fraction(x) > exact  # exact, or rounded up
        assert below < exact - Fraction(10) ** (k - 17) / 2


_WINDOW_BITS = st.builds(  # sign, an exponent around [1e-4, 1e16), any fraction
    lambda sign, biased, fraction: sign << 63 | biased << 52 | fraction,
    st.integers(0, 1), st.integers(1008, 1078), st.integers(0, 2**52 - 1),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 17).flatmap(
    lambda cols: st.lists(st.lists(st.one_of(st.integers(0, 2**64 - 1), _WINDOW_BITS), min_size=cols, max_size=cols),
                          min_size=1, max_size=6)))
def test_g17_text_of_any_bit_pattern_matches_format(rows):
    table = np.array(rows, dtype=np.uint64).view(np.float64)
    assert cli._g17_rows(table).decode() == _reference_rows(table)


def test_formatter_tables_are_built_by_the_first_csv_only(tmp_path):
    """Importing the package and loading a scenario import no cli and build
    no formatter table; verify --suite all builds none either; the first
    simulate builds them once."""
    path = write_scenario(tmp_path)
    code = ("import sys, chaplygin\n"
            "chaplygin.load_scenario(sys.argv[1])\n"
            "print('cli' in dir(chaplygin), 'chaplygin.cli' in sys.modules)\n"
            "from chaplygin import cli\n"
            "argv = [sys.argv[1], '--out', sys.argv[2]]\n"
            "assert cli.main(['verify', *argv, '--suite', 'all', '--trials', '3']) == 0\n"
            "print(cli._g17_tables.cache_info().currsize)\n"
            "assert cli.main(['simulate', *argv]) == 0 and cli.main(['simulate', *argv, '--full']) == 0\n"
            "print(cli._g17_tables.cache_info().misses)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(chaplygin.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    printed = [line for line in done.stdout.splitlines() if not line.startswith(("PASS", "overall", "wrote"))]
    assert printed == ["False False", "0", "1"]


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


def test_one_process_runs_equal_separate_runs(tmp_path, monkeypatch, capsys):
    # the parser is built once per process: a rejected call, then simulate,
    # then verify in one process give the stdout, exit codes and files of
    # three fresh interpreters
    path = write_scenario(tmp_path)
    calls = [
        ["verify", str(path), "--suite", "bogus", "--out", "out"],
        ["simulate", str(path), "--out", "out"],
        ["verify", str(path), "--suite", "all", "--trials", "5", "--out", "out"],
    ]
    (tmp_path / "one").mkdir()
    monkeypatch.chdir(tmp_path / "one")
    one = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        one.append((code, capsys.readouterr().out))
    assert cli._build_parser() is cli._build_parser()

    env = dict(os.environ, PYTHONPATH=str(Path(chaplygin.__file__).parents[1]))
    (tmp_path / "separate").mkdir()
    separate = []
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-m", "chaplygin.cli", *argv],
            cwd=tmp_path / "separate", env=env, capture_output=True, text=True, timeout=120,
        )
        separate.append((done.returncode, done.stdout))
    assert [code for code, _ in one] == [2, 0, 0]
    assert one == separate
    for artifact in ("trajectory.csv", "summary.json", "report.json"):
        one_file, separate_file = (tmp_path / run / "out" / artifact for run in ("one", "separate"))
        assert one_file.read_bytes() == separate_file.read_bytes()


def test_a_run_that_cannot_allocate_exits_1(tmp_path, monkeypatch, capsys):
    """A failed allocation is one stderr line and exit 1, not a MemoryError
    traceback: the states of a run (np.fromiter refuses), the draw of
    --trials 1000000000 (np.empty refuses above a million entries, so
    nothing large is allocated) and a draw of more bytes than numpy can
    address."""
    path = write_scenario(tmp_path)
    real_empty = np.empty

    def refusing_empty(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) > 1e6:
            raise MemoryError(f"refused {shape}")
        return real_empty(shape, *args, **kwargs)

    def refusing(*args, **kwargs):
        raise MemoryError("refused")

    monkeypatch.setattr(np, "empty", refusing_empty)
    runs = [(["simulate"], "integration failed: cannot allocate an array of shape (51, 6)")]
    for trials in ("1000000000", "99999999999999999999"):
        runs.append((["verify", "--suite", "all", "--trials", trials],
                     f"verification failed: cannot allocate an array of shape ({trials}, "))
    for i, (command, message) in enumerate(runs):
        with monkeypatch.context() as patch:
            if command == ["simulate"]:
                patch.setattr(np, "fromiter", refusing)
            assert main([command[0], str(path), *command[1:], "--out", str(tmp_path / f"o{i}")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert list((tmp_path / f"o{i}").iterdir()) == []


@pytest.mark.parametrize(
    "initial",
    [{"gamma": [0.0, 0.0, 1e300], "K": [0.3, -0.1, 0.2]},
     {"g": [[1e300, 1e300, 0.0], [-1e300, 1e300, 0.0], [0.0, 0.0, 1.0]], "x": [0.0, 0.0, 0.0], "K": [0.3, -0.1, 0.2]}],
    ids=["gamma-overflows-its-norm", "g-of-a-nan-defect"],
)
def test_an_initial_state_of_huge_entries_is_a_scenario_error(tmp_path, capsys, initial):
    """|gamma| = 1e300 raised numpy's overflow warning in the norm; the g
    given, whose g^T g - E overflows to inf - inf, passed as a rotation with
    a defect of nan."""
    path = write_scenario(tmp_path, initial=initial)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario field 'initial.{next(iter(initial))}'") and err.count("\n") == 1


@pytest.mark.parametrize(
    "rank, overrides",
    [(0, {"inertia": [5e-324, 2.0, 3.0]}), (1, {"inertia": [1e-300, 2.0, 3.0]}), (1, {"mass": 1e150}),
     (1, {"mass": 1.7976931348623157e308})],
)
def test_a_body_at_the_edge_of_the_float_range_exits_1_without_a_warning(tmp_path, capsys, rank, overrides):
    """Its residuals overflow to inf or nan, which fail their checks, or a
    named error stops the run; numpy's overflow warnings escaped the suites."""
    path = write_scenario(tmp_path, rank=rank, **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", str(path), "--suite", "all", "--trials", "2", "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()


def test_a_monitor_that_overflows_on_finite_states_exits_1(tmp_path, capsys):
    """K = 1.5e154 stays finite at rank 0 with round inertia, but |K|^2 and H
    overflow: simulate printed numpy warnings and "max drift nan", exited 0,
    and wrote NaN drifts and inf cells."""
    path = write_scenario(
        tmp_path, rank=0, inertia=[1.0, 1.0, 1.0], initial={"gamma": [1.0, 0.0, 0.0], "K": [1.5e154, 0.0, 0.0]},
        integrator={"dt": 1e-3, "T": 0.003},
    )
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "integration failed: monitor H is not finite at sample 0\n"
    assert not (out / "trajectory.csv").exists() and not (out / "summary.json").exists()


def test_a_nan_residual_is_written_as_a_json_string(tmp_path, capsys):
    """json.dumps wrote a bare NaN, which RFC 8259 JSON does not have."""
    path = write_scenario(tmp_path, rank=1, inertia=[1e-300, 2.0, 3.0])
    out = tmp_path / "o"
    assert main(["verify", str(path), "--suite", "all", "--trials", "2", "--out", str(out)]) == 1
    capsys.readouterr()

    def refuse(constant):
        raise ValueError(f"bare {constant} in report.json")

    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    residuals = [c["max_residual"] for s in report["suites"] for c in s["checks"]]
    assert [r for r in residuals if isinstance(r, str)] == ["NaN"] * 4
    assert sum(math.isnan(float(r)) for r in residuals) == 4


def test_json_text_writes_non_finite_floats_as_strings_and_keeps_finite_bytes():
    finite = {"a": [0.1, -2.5e-300, 1.7976931348623157e308, 3], "b": {"c": (1e-5, True, None, "x")}}
    assert cli._json_text(finite) == json.dumps(finite, indent=2, sort_keys=True) + "\n"
    text = cli._json_text({"d": [math.nan, math.inf], "e": {"f": -math.inf}, "g": (np.float64("nan"),)})
    assert json.loads(text) == {"d": ["NaN", "Infinity"], "e": {"f": "-Infinity"}, "g": ["NaN"]}


@pytest.mark.parametrize(
    "argv, option",
    [(["verify", "S", "--suite", "all", "--trials", "abc"], "--trials"), (["simulate", "S", "--bogus"], "--bogus"),
     (["verify", "S"], "--suite"), (["simulate"], "scenario")],
)
def test_an_option_error_is_one_stderr_line(tmp_path, capsys, argv, option):
    """argparse's usage lines are gone: one line naming the option, exit 2."""
    argv = [str(write_scenario(tmp_path)) if a == "S" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.count("\n") == 1 and option in err and err.startswith("chaplygin")


# ------------------------------------------------------------- mutation sweep

_SWEEP_BASES = {
    "reduced": {"gamma": [0.0, 0.6, 0.8], "K": [0.3, -0.1, 0.2]},
    "full": {"g": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], "x": [0.0, 0.0, 0.0], "K": [0.3, -0.1, 0.2]},
}
_SWEEP_FIELDS = (
    ("inertia",), ("inertia", 0), ("mass",), ("radius",), ("rank",), ("so2_angle",), ("initial",),
    ("initial", "gamma"), ("initial", "gamma", 2), ("initial", "g"), ("initial", "g", 4), ("initial", "x"),
    ("initial", "x", 1), ("initial", "K"), ("initial", "K", 0), ("integrator",), ("integrator", "dt"),
    ("integrator", "T"), ("integrator", "method"), ("integrator", "renormalize_gamma"),
    ("integrator", "renormalize_g"),
)
# extreme and subnormal floats, integers beyond the float range; finite
# draws of at least 1e-3 in magnitude keep an accepted run at 300 steps or fewer
_SWEEP_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-150, 1e150, 1e300, -1e300,
                     1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
                     10**400, -(10**400), 2**1024, 0, 1, 2, 3, -1]),
    st.floats(-3.0, 3.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3),
)
_SWEEP_VALUES = st.one_of(
    _SWEEP_NUMBERS,
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(_SWEEP_NUMBERS, max_size=10),
    st.lists(st.lists(_SWEEP_NUMBERS, min_size=3, max_size=3), min_size=3, max_size=3),
    st.dictionaries(st.sampled_from(["gamma", "K", "g", "x", "dt", "T", "extra"]), _SWEEP_NUMBERS, max_size=2),
)
_SWEEP_MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_SWEEP_FIELDS), _SWEEP_VALUES),
    st.tuples(st.just("delete"), st.sampled_from(_SWEEP_FIELDS), st.none()),
    st.tuples(st.just("extra"), st.sampled_from([(), ("initial",), ("integrator",)]), _SWEEP_VALUES),
)
# (option, value): value None adds a flag alone, and a None option drops the scenario path
_SWEEP_OPTIONS = st.one_of(
    st.tuples(st.sampled_from(["--full", "--reparametrize", "--bogus"]), st.none()),
    st.tuples(st.just("--suite"), st.sampled_from(["jacobi", "measure", "all", "bogus", ""])),
    st.tuples(st.just("--trials"), st.sampled_from(["0", "-1", "1", "12", "abc", "2.5", "", "1e3",
                                                    "99999999999999999999", str(2**64)])),
    st.tuples(st.just("--seed"), st.sampled_from(["-1", "0", str(2**64), "abc", "", "1.5"])),
    st.tuples(st.just("--tol-scale"), st.sampled_from(["0", "-1", "-0", "nan", "inf", "5e-324", "1e308", "abc"])),
    st.tuples(st.just("--variant"), st.sampled_from(["plain", "primed", "bogus"])),
    st.tuples(st.none(), st.none()),
)


def _mutated(data: dict, mutation) -> dict:
    kind, path, value = mutation
    data = json.loads(json.dumps(data))
    *head, last = path if kind != "extra" else (*path, "unknown_key")
    node = data
    for key in head:
        node = node.get(key) if isinstance(node, dict) else None
    if isinstance(node, dict) or (isinstance(node, list) and isinstance(last, int) and last < len(node)):
        if kind == "delete":
            if isinstance(node, dict):
                node.pop(last, None)
            else:
                del node[last]
        else:
            node[last] = value
    return data


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["simulate", "verify"]),
    base=st.sampled_from(sorted(_SWEEP_BASES)),
    rank=st.integers(0, 3),
    change=st.one_of(st.tuples(st.just("scenario"), _SWEEP_MUTATIONS), st.tuples(st.just("option"), _SWEEP_OPTIONS)),
)
def test_one_mutation_of_a_valid_run_exits_0_1_or_2(command, base, rank, change):
    """From a small valid scenario and argv, one field or one option changed:
    main returns or exits 0, 1 or 2; an exit 2 prints one stderr line naming
    the field or the option; no numpy warning; no temporary file is left."""
    data = {"inertia": [1.0, 2.0, 3.0], "mass": 1.0, "radius": 1.0, "rank": rank,
            "initial": _SWEEP_BASES[base], "integrator": {"dt": 0.01, "T": 0.05}}
    options = []
    if change[0] == "scenario":
        data = _mutated(data, change[1])
        named = change[1][1][0] if change[1][1] else "unknown_key"
    else:
        option, value = change[1]
        options = [] if option is None else [option] if value is None else [option, value]
        named = "scenario" if option is None else option.lstrip("-")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(data))
        out = Path(tmp) / "out"
        argv = [command, str(path), "--out", str(out)]
        if command == "verify":
            argv[2:2] = ["--suite", "all", "--trials", "2"]
        if change[0] == "option" and change[1][0] is None:
            argv.remove(str(path))
        argv += options
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), code
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and named in lines[0], (named, lines)
        assert not [p for p in Path(tmp).rglob("*") if p.name.endswith(".tmp")]
