"""Command-line workbench.

    chaplygin simulate scenario.json [--full] [--reparametrize] [--out DIR]
    chaplygin verify scenario.json --suite NAME [--trials N] [--seed S]
              [--tol-scale X] [--variant plain|primed] [--out DIR]

Exit codes: 0 success / all checks passed, 1 runtime failure or a failed
check, 2 invalid input.  All file writes are atomic (temp file in the target
directory, then rename) and byte-identical across repeated runs with the
same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .dynamics import (
    MONITOR_NAMES,
    Trajectory,
    integrate,
    monitor_series,
    reparametrized_integrate,
    series_drift,
)
from .errors import RUNTIME_ERRORS, ScenarioError
from .rolling import FULL_DIM, lift_reduced_state
from .scenario import load_scenario
from .verify import SUITE_NAMES, run_all_suites, run_suite

__all__ = ["main"]

_REDUCED_HEADER = ["t", "gamma1", "gamma2", "gamma3", "K1", "K2", "K3", *MONITOR_NAMES]
_FULL_HEADER = [
    "t",
    "g11", "g12", "g13", "g21", "g22", "g23", "g31", "g32", "g33",
    "x1", "x2", "x3",
    "K1", "K2", "K3",
    "H",
]


def _atomic_write(path: Path, text: str):
    """Write text to a temp file unique to this call, then rename it over path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _trajectory_csv(traj: Trajectory, series: dict) -> str:
    if traj.dim == FULL_DIM:
        header = list(_FULL_HEADER)
        columns = [traj.times] + [traj.states[:, i] for i in range(FULL_DIM)] + [series["H"]]
    else:
        header = list(_REDUCED_HEADER)
        columns = (
            [traj.times]
            + [traj.states[:, i] for i in range(6)]
            + [series[name] for name in MONITOR_NAMES]
        )
    if traj.t_recovered is not None:
        header.append("t_recovered")
        columns.append(traj.t_recovered)
    # Python floats format exactly as the float64 cells: "%.17g" round-trips
    # (and gives the bytes of f"{x:.17g}", including -0, inf, nan and subnormals)
    row_format = ",".join(["%.17g"] * len(columns))
    lines = [",".join(header)]
    lines.extend(row_format % tuple(row) for row in np.column_stack(columns).tolist())
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cmd_simulate(args, scenario) -> int:
    full_mode = args.full or scenario.is_full
    if full_mode and args.reparametrize:
        print(
            "error: --reparametrize runs on the reduced space; it cannot be combined "
            "with --full or a full-space initial state",
            file=sys.stderr,
        )
        return 2

    initial = scenario.initial
    if full_mode and not scenario.is_full:
        initial = lift_reduced_state(initial)

    try:
        if args.reparametrize:
            traj = reparametrized_integrate(scenario.params, initial, scenario.config)
        else:
            traj = integrate(scenario.params, initial, scenario.config)
    except RUNTIME_ERRORS as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 1

    out = Path(args.out)
    series = monitor_series(scenario.params, traj)
    drifts = series_drift(series)
    _atomic_write(out / "trajectory.csv", _trajectory_csv(traj, series))
    summary = {
        "mode": "full" if full_mode else "reduced",
        "reparametrized": bool(args.reparametrize),
        "rank": scenario.params.rank,
        "dt": scenario.config.dt,
        "t_final": scenario.config.t_final,
        "samples": int(traj.times.shape[0]),
        "drifts": {k: float(v) for k, v in sorted(drifts.items())},
    }
    _atomic_write(out / "summary.json", _json_text(summary))
    worst = max(drifts.values())
    print(f"wrote {out / 'trajectory.csv'} ({summary['samples']} samples), max drift {worst:.3e}")
    return 0


def _cmd_verify(args, scenario) -> int:
    options = {"trials": args.trials, "seed": args.seed, "tol_scale": args.tol_scale, "variant": args.variant}
    try:
        if args.suite == "all":
            suites = run_all_suites(scenario.params, **options)
        else:
            suites = [run_suite(args.suite, scenario.params, **options)]
    except RUNTIME_ERRORS as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # run_suite rejected an argument
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passed = all(s["passed"] for s in suites)
    report = {
        "rank": scenario.params.rank,
        "trials": args.trials,
        "seed": args.seed,
        "tol_scale": args.tol_scale,
        "variant": args.variant,
        "suites": suites,
        "passed": bool(passed),
    }
    _atomic_write(Path(args.out) / "report.json", _json_text(report))
    for suite in suites:
        for check in suite["checks"]:
            rel = "<=" if check["comparison"] == "le" else ">"
            status = "PASS" if check["passed"] else "FAIL"
            print(
                f"{status} [{suite['suite']}/{check['id']}] "
                f"residual {check['max_residual']:.3e} {rel} {check['tolerance']:.3e}"
            )
    print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaplygin",
        description="Rolling-body bracket workbench: simulate trajectories and "
        "verify the algebraic identities behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a scenario and write trajectory.csv")
    sim.add_argument("scenario", help="path to a scenario JSON file")
    sim.add_argument("--full", action="store_true", help="integrate on the full space (g, x, K)")
    sim.add_argument(
        "--reparametrize",
        action="store_true",
        help="integrate the conformally rescaled field in its own time, recovering physical time",
    )
    sim.add_argument("--out", default=".", help="output directory (default: current)")
    sim.set_defaults(func=_cmd_simulate)

    ver = sub.add_parser("verify", help="run verification suites and write report.json")
    ver.add_argument("scenario", help="path to a scenario JSON file")
    ver.add_argument(
        "--suite",
        required=True,
        choices=list(SUITE_NAMES) + ["all"],
        help="which identity suite to run",
    )
    ver.add_argument("--trials", type=int, default=100, help="random states per check (default 100)")
    ver.add_argument("--seed", type=int, default=0, help="seed for the state sampler (default 0)")
    ver.add_argument(
        "--tol-scale",
        type=float,
        default=1.0,
        dest="tol_scale",
        help="multiply every upper-bound tolerance by this positive finite factor (floors are kept)",
    )
    ver.add_argument(
        "--variant",
        choices=["plain", "primed"],
        default=None,
        help="force the checks onto one bracket variant instead of the per-rank default",
    )
    ver.add_argument("--out", default=".", help="output directory (default: current)")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.func(args, scenario)


if __name__ == "__main__":
    sys.exit(main())
