"""Command-line workbench.

    chaplygin simulate scenario.json [--full] [--reparametrize] [--out DIR]
    chaplygin verify scenario.json --suite NAME [--trials N] [--seed S]
              [--tol-scale X] [--variant plain|primed] [--out DIR]

Exit codes: 0 success / all checks passed, 1 runtime failure or a failed
check, 2 invalid input or an --out that cannot be made or written to.  The
--out directory is made before the run.  All file writes are atomic (temp
file in the target directory, then rename) and byte-identical across
repeated runs with the same inputs.

trajectory.csv writes every float as "%.17g" prints it.  Exact zeros and
the cells it prints in fixed notation (finite |x| in [1e-4, 1e16)) are
converted to those bytes in numpy, with exact integer arithmetic, 128 rows
at a time; every other cell (subnormals, |x| < 1e-4, |x| >= 1e16, inf and
nan) is formatted by "%.17g" itself.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .body import FULL_DIM, FULL_NAMES, REDUCED_NAMES, lift_reduced_state
from .dynamics import (
    MONITOR_NAMES,
    Trajectory,
    integrate,
    monitor_series,
    reparametrized_integrate,
    series_drift,
)
from .errors import RUNTIME_ERRORS, ScenarioError
from .scenario import load_scenario
# verify stays a module-level import: perfbench's tracer looks every layer up in sys.modules
from .verify import SUITE_NAMES, _check_options, run_all_suites, run_suite

__all__ = ["main"]


def _cannot_use(out: Path, exc: OSError) -> None:
    print(f"error: cannot use --out {out}: {exc.strerror or exc}", file=sys.stderr)


def _output_dir(path: str) -> Path | None:
    """The --out directory, made if missing; None, after one error line,
    where it cannot be (a file, or a path below one)."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _cannot_use(out, exc)
        return None
    return out


def _write_outputs(out: Path, texts: dict) -> bool:
    """Write each named text into out atomically; False, after one error
    line, where the system refuses."""
    try:
        for name, text in texts.items():
            _atomic_write(out / name, text)
    except OSError as exc:
        _cannot_use(out, exc)
        return False
    return True


def _atomic_write(path: Path, text: str):
    """Write text to a temp file unique to this call, then rename it over path."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _trajectory_csv(traj: Trajectory, series: dict) -> str:
    names, monitors = (FULL_NAMES, ["H"]) if traj.dim == FULL_DIM else (REDUCED_NAMES, MONITOR_NAMES)
    header = ["t", *names, *monitors]
    columns = [traj.times, traj.states, *(series[name] for name in monitors)]
    if traj.t_recovered is not None:
        header.append("t_recovered")
        columns.append(traj.t_recovered)
    return ",".join(header) + "\n" + _g17_rows(np.column_stack(columns)).decode()


# ------------------------------------------------------------------ CSV text
#
# Every trajectory.csv cell reads as "%.17g" prints it, which round-trips the
# float64.  Exact zeros and the cells "%.17g" prints in fixed notation, finite
# |x| in [1e-4, 1e16), are converted in numpy with exact integer arithmetic;
# the rest (subnormals, |x| < 1e-4, |x| >= 1e16, inf, nan) by "%.17g" itself.
#
# A converted cell is 17 digits d0..d16 and a decimal exponent E in [-4, 16]
# (|x| rounds to d0.d1...d16 10**E).  It is laid out in a frame of 40 bytes,
# five little-endian uint64 words, in which a NUL stands for "nothing here":
#   0      "-" or NUL
#   1-2    "0." if E < 0
#   3-5    "0" at 3, 4, 5 if E < -1, -2, -3
#   6-39   d0, p0, d1, p1, ..., d16, p16: digit k unless it is a trailing
#          zero after the point; pk = "." if k = E and a digit follows,
#          and p16 = "," or, ending a row, a newline
# A fallback cell's text (at most 24 bytes) fills the frame's first bytes
# instead.  Dropping the NULs of the frames leaves the text.

_BLOCK_ROWS = 128  # rows converted at a time, so the temporaries stay small
_LAYOUT_GRID = (21, 17)  # E = -4..16 by the index of the last nonzero digit
_ZERO_ROW = _LAYOUT_GRID[0] * _LAYOUT_GRID[1]
_FALLBACK_ROW = _ZERO_ROW + 1
_ABS_MASK, _FRAC_MASK, _HIDDEN = 2**63 - 1, 2**52 - 1, 2**52
_ONE_BITS, _LOW32 = 0x3FF0000000000000, 2**32 - 1


@functools.cache  # built by the first CSV of a process; verify builds none
def _g17_tables() -> tuple:
    """(pow5, pow10_bits, digits, layouts), all uint64:
    pow5[s] = 5**s for s = 0..21;
    pow10_bits[k + 4], the bits of the float 10**k for k = -4..16, so its
    first and last entries bound the cells converted here;
    digits[i], the four ASCII digits of i < 10**4 in bytes 0, 2, 4, 6 and
    their count of trailing zeros (4 for 0000) in byte 7;
    layouts[(E + 4) * 17 + z] for a cell whose last nonzero digit is dz,
    then one row for exact zeros and one for fallback text: five words
    that keep the frame's digit bytes (0xFF) and five that fill in its
    other bytes, with a comma as the separator."""
    pow5 = np.array([5**s for s in range(22)], dtype=np.uint64)
    powers = np.array([10.0**k for k in range(17)])
    # 1 / 10**k is the float nearest 10**-k: IEEE division rounds correctly
    pow10 = np.concatenate([1.0 / powers[4:0:-1], powers])

    ascii10 = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    ascii4 = np.stack(np.meshgrid(ascii10, ascii10, ascii10, ascii10, indexing="ij"), axis=-1).reshape(-1, 4)
    digits = np.zeros((10**4, 8), dtype=np.uint8)
    digits[:, 0::2] = ascii4
    i = np.arange(10**4, dtype=np.uint16)
    digits[:, 7] = sum((i % 10**j == 0).view(np.uint8) for j in range(1, 5))

    exp = np.arange(-4, 17)[:, None, None]
    last = np.arange(17)[None, :, None]
    k = np.arange(17)
    layouts = np.zeros((_FALLBACK_ROW + 1, 2, 40), dtype=np.uint8)
    grid = layouts[:_ZERO_ROW].reshape(*_LAYOUT_GRID, 2, 40)  # a view: the rows are contiguous
    keep, fill = grid[..., 0, :], grid[..., 1, :]
    keep[..., 6::2] = np.where(k <= np.maximum(exp, last), 0xFF, 0)
    fill[..., 1:6] = np.where(exp < [0, 0, -1, -2, -3], np.array([ord("0"), ord(".")] + [ord("0")] * 3), 0)
    fill[..., 7::2] = np.where((k == exp) & (last > exp), ord("."), 0)
    layouts[_ZERO_ROW, 1, 6] = ord("0")
    layouts[:, 1, 39] = ord(",")
    # Freeing one 2 MiB block raises glibc's mmap and trim thresholds for the
    # process (mallopt(3), dynamic mmap threshold).  Below the default ones,
    # each block's temporaries went back to the system when freed and were
    # faulted in again by the next: about 160 minor faults per 251 x 17 table.
    np.empty(1 << 18)
    return pow5, pow10.view(np.uint64), digits.view("<u8").ravel(), layouts.view("<u8").reshape(-1, 10)


def _g17_scaled(pow5, m, e2, exp) -> tuple:
    """floor(m 2**e2 10**s) with s = 16 - exp, and whether round-half-even
    takes it up one, computed exactly: m < 2**53 times 5**s < 2**49 in two
    uint64 limbs, then a shift by e2 + s."""
    s = 16 - exp
    p = pow5[s]
    ml, mh, pl, ph = m & _LOW32, m >> 32, p & _LOW32, p >> 32
    mid = ml * ph + mh * pl
    hi = mh * ph + (mid >> 32)
    lo = ml * pl + (mid << 32)  # wraps modulo 2**64
    hi += lo < (mid << 32)  # the carry of that sum
    shift = -(e2 + s)
    right = np.maximum(shift, 0).astype(np.uint64)
    left = np.maximum(-shift, 0).astype(np.uint64)
    q = ((hi << (64 - right)) | (lo >> right)) << left  # hi is 0 where right is 0
    one = np.uint64(1) << right
    rem2 = (lo & (one - 1)) << 1  # twice the remainder, against one = twice the half
    return q, (rem2 > one) | ((rem2 == one) & ((q & 1) == 1))


def _g17_block(block: np.ndarray) -> bytes:
    pow5, pow10_bits, digits, layouts = _g17_tables()
    rows, cols = block.shape
    bits = block.view(np.uint64).ravel()
    magnitude = bits & _ABS_MASK
    zero = magnitude == 0
    fixed = (magnitude >= pow10_bits[0]) & (magnitude < pow10_bits[-1])
    # the other cells run through as 1.0 and take other layouts below
    mag = np.where(fixed, magnitude, _ONE_BITS)
    biased = (mag >> 52).astype(np.int64)
    m, e2 = (mag & _FRAC_MASK) | _HIDDEN, biased - 1075
    # exp is floor(log10 |x|) exactly: on the converted cells the estimate is
    # floor(log10 2**(biased - 1023)), and each float 10**k is exact (k >= 0) or
    # rounds up, so the compare is |x| >= 10**(est + 1).  No q rounds up to 1e17:
    # the float below each 10**k is more than half a unit of digit 17 below it.
    est = ((biased - 1023) * 78913) >> 18
    exp = est + (mag >= pow10_bits[est + 5])
    q, up = _g17_scaled(pow5, m, e2, exp)
    q += up

    d0 = q // 10**16
    low16 = q - d0 * 10**16
    high8 = low16 // 10**8
    low8 = low16 - high8 * 10**8
    frame = np.empty((rows * cols, 5), dtype="<u8")
    frame[:, 0] = (d0 + ord("0")) << 48
    frame[:, 1] = digits[high8 // 10**4]
    frame[:, 2] = digits[high8 % 10**4]
    frame[:, 3] = digits[low8 // 10**4]
    frame[:, 4] = digits[low8 % 10**4]
    t1, t2, t3, t4 = (frame[:, 1:] >> 56).astype(np.int64).T  # trailing zeros per group
    trailing = t4 + (t4 == 4) * (t3 + (t3 == 4) * (t2 + (t2 == 4) * t1))
    row = (exp + 4) * 17 + 16 - trailing
    row[zero] = _ZERO_ROW
    fallback = np.flatnonzero(~(fixed | zero))
    row[fallback] = _FALLBACK_ROW
    layout = layouts[row]
    frame &= layout[:, :5]
    frame |= layout[:, 5:]
    frame[:, 0] |= (bits >> 63) * ord("-")
    frame[cols - 1 :: cols, 4] ^= (ord(",") ^ ord("\n")) << 56
    text = frame.view(np.uint8)
    if fallback.size:
        cells = ["%.17g" % x for x in block.ravel()[fallback].tolist()]
        text[fallback, :24] = np.array(cells, dtype="S24").view(np.uint8).reshape(-1, 24)
    text = text.ravel()
    return text.tobytes().translate(None, b"\0")


def _g17_rows(table: np.ndarray) -> bytes:
    """The rows of a float64 table as ASCII text: per row, its cells as
    "%.17g" prints them joined by commas, then a newline."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    return b"".join(_g17_block(table[i : i + _BLOCK_ROWS]) for i in range(0, table.shape[0], _BLOCK_ROWS))


def _json_text(payload: dict) -> str:
    """payload as json.dumps(payload, indent=2, sort_keys=True) writes it, and a
    newline, but with each non-finite float as the string of its token, "NaN",
    "Infinity" or "-Infinity", which float() reads back: RFC 8259 JSON has no
    such number.  A key that is not a str, or a value json.dumps refuses, is a
    TypeError."""
    return _json_value(payload, "\n") + "\n"


def _json_value(x, newline: str) -> str:
    """The text of x, testing its type in json.dumps's order; ``newline`` is a
    newline and the indent of x's own line."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        return '"NaN"' if x != x else '"Infinity"' if x > 0 else '"-Infinity"'
    inner = newline + "  "
    if isinstance(x, (list, tuple)):
        items = [_json_value(item, inner) for item in x]
        return f"[{inner}{(',' + inner).join(items)}{newline}]" if items else "[]"
    if isinstance(x, dict):
        items = [f"{encode_basestring_ascii(key)}: {_json_value(x[key], inner)}" for key in sorted(x)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if items else "{}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _cmd_simulate(args, scenario) -> int:
    full_mode = args.full or scenario.is_full
    if full_mode and args.reparametrize:
        print(
            "error: --reparametrize runs on the reduced space; it cannot be combined "
            "with --full or a full-space initial state",
            file=sys.stderr,
        )
        return 2

    if (out := _output_dir(args.out)) is None:
        return 2
    initial = scenario.initial
    if full_mode and not scenario.is_full:
        initial = lift_reduced_state(initial)

    try:
        if args.reparametrize:
            traj = reparametrized_integrate(scenario.params, initial, scenario.config)
        else:
            traj = integrate(scenario.params, initial, scenario.config)
        series = monitor_series(scenario.params, traj)
    except RUNTIME_ERRORS as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 1

    drifts = series_drift(series)
    summary = {
        "mode": "full" if full_mode else "reduced",
        "reparametrized": bool(args.reparametrize),
        "rank": scenario.params.rank,
        "dt": scenario.config.dt,
        "t_final": scenario.config.t_final,
        "samples": int(traj.times.shape[0]),
        "drifts": {k: float(v) for k, v in sorted(drifts.items())},
    }
    if not _write_outputs(out, {"trajectory.csv": _trajectory_csv(traj, series), "summary.json": _json_text(summary)}):
        return 2
    worst = max(drifts.values())
    print(f"wrote {out / 'trajectory.csv'} ({summary['samples']} samples), max drift {worst:.3e}")
    return 0


def _cmd_verify(args, scenario) -> int:
    options = {"trials": args.trials, "seed": args.seed, "tol_scale": args.tol_scale, "variant": args.variant}
    try:
        _check_options(**options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if (out := _output_dir(args.out)) is None:
        return 2
    try:
        if args.suite == "all":
            suites = run_all_suites(scenario.params, **options)
        else:
            suites = [run_suite(args.suite, scenario.params, **options)]
    except RUNTIME_ERRORS as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1

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
    if not _write_outputs(out, {"report.json": _json_text(report)}):
        return 2
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one stderr line, without the usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
