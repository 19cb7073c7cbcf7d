"""Seeded workloads for the chaplygin benchmark and the oracle that checks
every invocation.

A workload is a list of ``chaplygin.cli.main`` invocations (``Op``), each
on a scenario file generated from the workload seed.  ``Workload.run_pass``
issues them one after another in this process (a closed loop with one
client), times each call, and checks its outputs outside the timed region.
The oracle recomputes the monitored quantities from the written states
itself, so it does not trust the program's own drift figures.

The speed of the vCPUs this runs on drifts by up to 2x within a minute
(other tenants), which swamps a 20-second median.  So after each
invocation the pass also times ``calibration_kernel``, a fixed mix of
interpreter and small-array numpy work like the program's own, and reports
every duration both as measured and scaled to reference speed:
``raw * CAL_REF_S / kernel``.  On a 2-vCPU Xeon this cut the variation of
pass times within a 30-second run from 19% to 3% (coefficient of variation).
"""

from __future__ import annotations

import io
import json
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from tracer import SUITES

WORKLOADS = ("simulate-reduced", "simulate-full", "verify-all")

DT = 1e-3
HORIZON = 0.25  # RK4 steps per simulate invocation: HORIZON / DT
TRIALS = 6  # sampled states per check; the witness floors hold at this count
# Ranks 0 and 3 have fewer and cheaper checks.  Checking twice the states
# there makes every verify invocation cost about the same, so the invocation
# times have one mode and op_p50_s does not sit on the gap between two.
TRIALS_FACTOR = {0: 2, 1: 1, 2: 1, 3: 2}
DRIFT_TOL = 1e-6  # conservation bound of acceptance criterion 07
TWO_PATH_TOL = 1e-6  # full/reduced agreement bound of acceptance criterion 07
MONITOR_MATCH_TOL = 1e-9  # written monitor columns vs. the oracle's own values
ORTHO_TOL = 1e-10  # rows of g stay orthonormal under per-step renormalisation

CAL_ITERATIONS = 300
CAL_REF_S = 0.010  # kernel time that defines reference speed (typical on a 2-vCPU Xeon)
_CAL_A = np.array([0.1, 0.2, 0.3])
_CAL_B = np.array([0.3, -0.1, 0.7])

# The two body fixtures of the test suite.
BODIES = {
    "standard": {"inertia": [1.0, 2.0, 3.0], "mass": 1.0, "radius": 1.0},
    "asymmetric": {"inertia": [0.7, 1.9, 2.6], "mass": 1.4, "radius": 0.6},
}

REDUCED_HEADER = "t,gamma1,gamma2,gamma3,K1,K2,K3,H,C1,C2,F"
FULL_HEADER = "t,g11,g12,g13,g21,g22,g23,g31,g32,g33,x1,x2,x3,K1,K2,K3,H"

# Check ids that `verify --suite all` reports per rank.
_COMMON_IDS = {
    "conformal-positive", "gauge-dynamical", "gauge-match", "gauge-roundtrip", "gauge-zero",
    "measure-invariant", "reduction-plain", "reduction-primed",
}
VERIFY_CHECK_IDS = {
    0: _COMMON_IDS | {"conformal-jacobi-plain", "jacobi-plain", "jacobi-primed-witness",
                      "twisted-zero-form-plain"},
    1: _COMMON_IDS | {"conformal-jacobi-plain", "jacobi-plain-witness", "jacobi-primed-witness",
                      "measure-wrong-density", "twisted-closed", "twisted-defect-plain"},
    2: _COMMON_IDS | {"conformal-jacobi-primed", "jacobi-plain-witness", "jacobi-primed-witness",
                      "measure-wrong-density", "twisted-closed", "twisted-defect-primed"},
    3: _COMMON_IDS | {"conformal-jacobi-primed", "jacobi-plain-witness", "jacobi-primed",
                      "twisted-zero-form-primed"},
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: mode is reduced, reparam, full or verify."""

    name: str
    mode: str
    scenario: dict
    trials: int = 0
    verify_seed: int = 0

    @property
    def rank(self) -> int:
        return self.scenario["rank"]

    @property
    def n_steps(self) -> int:
        integ = self.scenario["integrator"]
        return max(1, round(integ["T"] / integ["dt"]))

    @property
    def work(self) -> int:
        """RK4 steps for simulate; sampled states x suites for verify."""
        return self.trials * len(SUITES) if self.mode == "verify" else self.n_steps

    def argv(self, scenario_path, out_dir) -> list:
        if self.mode == "verify":
            return ["verify", str(scenario_path), "--suite", "all", "--trials", str(self.trials),
                    "--seed", str(self.verify_seed), "--out", str(out_dir)]
        flags = {"reduced": [], "reparam": ["--reparametrize"], "full": ["--full"]}[self.mode]
        return ["simulate", str(scenario_path), *flags, "--out", str(out_dir)]


def make_ops(workload: str, seed: int, horizon: float = HORIZON, trials: int = TRIALS) -> list:
    """The invocations of one pass; the same (workload, seed) gives the same list."""
    both = list(BODIES)
    if workload == "simulate-reduced":
        plan = [(b, "reduced", r) for b in both for r in range(4)]
        plan += [(b, "reparam", r) for b in both for r in (1, 2)]
    elif workload == "simulate-full":
        plan = [(b, "full", r) for b in both for r in (1, 2, 3)]
    elif workload == "verify-all":
        plan = [(b, "verify", r) for b in both for r in range(4)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    ops = []
    for body_name, mode, rank in plan:
        gamma = rng.standard_normal(3)
        gamma /= np.linalg.norm(gamma)
        scenario = dict(
            BODIES[body_name],
            rank=rank,
            initial={"gamma": gamma.tolist(), "K": rng.uniform(-1.0, 1.0, 3).tolist()},
            integrator={"dt": DT, "T": horizon},
        )
        ops.append(Op(
            name=f"{mode}-r{rank}-{body_name}",
            mode=mode,
            scenario=scenario,
            trials=trials * TRIALS_FACTOR[rank] if mode == "verify" else 0,
            verify_seed=int(rng.integers(2**31)) if mode == "verify" else 0,
        ))
    return ops


def calibration_kernel() -> float:
    """Seconds taken by a fixed amount of interpreter and small-array numpy work."""
    x = 0.0
    start = time.perf_counter()
    for i in range(CAL_ITERATIONS):
        x += float(np.cross(_CAL_A, _CAL_B) @ _CAL_A) + 0.5 * i
    return time.perf_counter() - start


def at_reference_speed(seconds: float, kernel: float) -> float:
    return seconds * CAL_REF_S / kernel


@dataclass
class PassResult:
    durations: list = field(default_factory=list)  # seconds per invocation, as measured
    kernels: list = field(default_factory=list)  # calibration_kernel() right after each
    work: int = 0
    bytes_written: int = 0
    failures: list = field(default_factory=list)

    @property
    def scaled(self) -> list:
        """Invocation times at reference speed."""
        return [at_reference_speed(d, k) for d, k in zip(self.durations, self.kernels)]

    @property
    def wall(self) -> float:
        return sum(self.scaled)

    @property
    def raw_wall(self) -> float:
        return sum(self.durations)


def _hamiltonian(body: dict, rank: int, gamma: np.ndarray, k: np.ndarray) -> np.ndarray:
    """H = K.Omega / 2 with K = (I + m r^2 S(gamma)) Omega solved directly, row by row."""
    n = gamma.shape[0]
    eye = np.broadcast_to(np.eye(3), (n, 3, 3))
    outer = gamma[:, :, None] * gamma[:, None, :]
    s = {0: np.zeros((n, 3, 3)), 1: outer, 2: eye - outer, 3: eye}[rank]
    m = np.diag(body["inertia"]) + body["mass"] * body["radius"] ** 2 * s
    omega = np.linalg.solve(m, k[:, :, None])[:, :, 0]
    return 0.5 * np.sum(k * omega, axis=1)


def _drift(values: np.ndarray) -> float:
    return float(np.max(np.abs(values - values[0])) / max(1.0, abs(values[0])))


class Workload:
    """The scenario files and invocations of one (workload, seed)."""

    def __init__(self, name, seed, workdir, horizon=HORIZON, trials=TRIALS):
        self.name = name
        self.ops = make_ops(name, seed, horizon, trials)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for op in self.ops:
            path = workdir / f"{op.name}.json"
            path.write_text(json.dumps(op.scenario, indent=2) + "\n")
            self.paths.append(path)
        self._references = {}

    def prepare(self, chaplygin):
        """Reduced-chart reference runs for the full-chart two-path check."""
        for op, path in zip(self.ops, self.paths):
            if op.mode == "full":
                sc = chaplygin.load_scenario(path)
                self._references[op.name] = chaplygin.integrate(sc.params, sc.initial, sc.config).states

    def run_pass(self, cli) -> PassResult:
        """Issue every invocation once; ``cli.main`` is looked up per call so a tracer sees it."""
        result = PassResult()
        for op, path in zip(self.ops, self.paths):
            out = self.workdir / "out" / op.name
            argv = op.argv(path, out)
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                start = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = f"SystemExit({exc.code})"
                except Exception as exc:  # counted as a failed invocation; the run goes on
                    rc = f"{type(exc).__name__}: {exc}"
                result.durations.append(time.perf_counter() - start)
            result.kernels.append(calibration_kernel())
            if out.is_dir():
                result.bytes_written += sum(f.stat().st_size for f in out.iterdir())
            problem = self.check(op, out, rc, stdout.getvalue())
            if problem:
                tail = stderr.getvalue().strip().splitlines()[-1:]
                result.failures.append(f"{op.name}: {problem}" + (f" ({tail[0]})" if tail else ""))
            result.work += op.work
            shutil.rmtree(out, ignore_errors=True)
        return result

    def check(self, op: Op, out, rc, stdout: str):
        """None when the invocation's exit code and outputs are right, else the reason."""
        if rc != 0:
            return f"exit code {rc!r}"
        try:
            if op.mode == "verify":
                return _check_verify(op, out, stdout)
            return _check_simulate(op, out, self._references.get(op.name))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"


def _check_simulate(op: Op, out, reference):
    header = FULL_HEADER if op.mode == "full" else REDUCED_HEADER
    if op.mode == "reparam":
        header += ",t_recovered"
    csv_path = out / "trajectory.csv"
    with csv_path.open() as fh:
        got = fh.readline().rstrip("\n")
    if got != header:
        return f"trajectory.csv header {got!r}"
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    n = op.n_steps
    if rows.shape != (n + 1, header.count(",") + 1):
        return f"trajectory.csv has shape {rows.shape}, expected {(n + 1, header.count(',') + 1)}"
    if np.max(np.abs(rows[:, 0] - DT * np.arange(n + 1))) > 1e-9:
        return "time column is not dt * k"

    body = op.scenario
    if op.mode == "full":
        g = rows[:, 1:10].reshape(-1, 3, 3)
        ortho = np.max(np.abs(g @ np.transpose(g, (0, 2, 1)) - np.eye(3)))
        if ortho > ORTHO_TOL:
            return f"attitude rows lost orthonormality ({ortho:.3e})"
        gamma, k, written = g[:, 2, :], rows[:, 13:16], {"H": rows[:, 16]}
    else:
        gamma, k = rows[:, 1:4], rows[:, 4:7]
        written = dict(zip(("H", "C1", "C2", "F"), rows[:, 7:11].T))
    start = np.concatenate([gamma[0], k[0]])
    expect = np.array(body["initial"]["gamma"] + body["initial"]["K"])
    if np.max(np.abs(start - expect)) > 1e-14:
        return "first row is not the scenario's initial state"

    monitors = {
        "H": _hamiltonian(body, op.rank, gamma, k),
        "C1": np.sum(k * gamma, axis=1),
        "C2": np.sum(gamma * gamma, axis=1),
        "F": np.sum(k * k, axis=1),
    }
    for name, values in monitors.items():
        if _drift(values) > DRIFT_TOL:
            return f"{name} drifts by {_drift(values):.3e} > {DRIFT_TOL}"
    for name, values in written.items():
        if np.max(np.abs(values - monitors[name])) > MONITOR_MATCH_TOL:
            return f"written {name} column disagrees with the state"
    if op.mode == "reparam":
        t_rec = rows[:, -1]
        if t_rec[0] != 0.0 or not np.all(np.diff(t_rec) > 0.0):
            return "t_recovered does not start at 0 and increase"
    if op.mode == "full":
        two_path = float(np.max(np.abs(np.hstack([gamma, k]) - reference)))
        if two_path > TWO_PATH_TOL:
            return f"full run departs from the reduced run by {two_path:.3e}"

    summary = json.loads((out / "summary.json").read_text())
    if summary["samples"] != n + 1 or summary["rank"] != op.rank:
        return "summary.json samples or rank"
    if summary["mode"] != ("full" if op.mode == "full" else "reduced"):
        return f"summary.json mode {summary['mode']!r}"
    if summary["reparametrized"] != (op.mode == "reparam"):
        return "summary.json reparametrized flag"
    if set(summary["drifts"]) != set(monitors):
        return f"summary.json drifts {sorted(summary['drifts'])}"
    worst = max(summary["drifts"].values())
    if not worst <= DRIFT_TOL:
        return f"summary.json reports drift {worst:.3e} > {DRIFT_TOL}"
    return None


def _check_verify(op: Op, out, stdout: str):
    report = json.loads((out / "report.json").read_text())
    if report["passed"] is not True or report["rank"] != op.rank:
        failed = [c["id"] for s in report["suites"] for c in s["checks"] if not c["passed"]]
        return f"report.json passed={report['passed']!r}, rank={report['rank']}, failed {failed}"
    if [s["suite"] for s in report["suites"]] != list(SUITES):
        return f"suites {[s['suite'] for s in report['suites']]}"
    checks = [c for s in report["suites"] for c in s["checks"]]
    ids = {c["id"] for c in checks}
    if ids != VERIFY_CHECK_IDS[op.rank]:
        return f"check ids differ: {sorted(ids ^ VERIFY_CHECK_IDS[op.rank])}"
    if not all(c["passed"] is True for c in checks):
        return "a check failed inside a passing report"
    if not stdout.rstrip().endswith("overall: PASS"):
        return "stdout does not end with 'overall: PASS'"
    return None
