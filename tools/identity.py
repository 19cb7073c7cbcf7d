"""Byte-identity gate: run the benchmark's invocations at a git revision and
at the working tree, and compare everything they produce.

    python tools/identity.py --rev REV [--seeds 1 2 3]

The invocations are ``make_ops`` of every workload of the working tree's
perfbench/workloads.py, for each seed: 26 a seed.  REV's ``src/`` is
exported with ``git archive`` into a temporary directory outside the
repository.  Each side runs the invocations of a seed in one fresh
interpreter, through ``chaplygin.cli.main`` in-process as the benchmark
does, on the same scenario files.  An invocation is equal when its exit
code, stdout and stderr (its --out directory written as ``<out>``) and
every file it writes are.  Each difference is printed with its file and its
first differing CSV cell (row and header) or JSON path, both values and
their distance in ulps.  The last line is "N of M equal"; the exit code is
0 only when all M are.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import struct
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Run by a fresh interpreter per side and seed: argv[1] is a JSON list of
# (name, argv) pairs, argv[2] the file that gets {name: [exit code, stdout, stderr]}.
_RUNNER = """\
import contextlib, io, json, sys
from pathlib import Path
from chaplygin import cli
results = {}
for name, argv in json.loads(Path(sys.argv[1]).read_text()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    results[name] = [code, out.getvalue(), err.getvalue()]
Path(sys.argv[2]).write_text(json.dumps(results))
"""


def ulps(a, b):
    """The number of float64 values from a to b, or None unless both are finite numbers."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if isinstance(a, bool) or isinstance(b, bool) or not (math.isfinite(x) and math.isfinite(y)):
        return None

    def ordered(v):
        i = struct.unpack("<q", struct.pack("<d", v))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)

    return abs(ordered(x) - ordered(y))


def _values(a, b) -> str:
    distance = ulps(a, b)
    return f"{a!r} vs {b!r}" + ("" if distance is None else f" ({distance} ulp)")


def first_csv_difference(a: str, b: str) -> str:
    """Where two CSV texts with a header row first differ; row 0 is the header."""
    rows_a, rows_b = a.splitlines(), b.splitlines()
    header = rows_a[0].split(",") if rows_a else []
    for r, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        if row_a == row_b:
            continue
        cells_a, cells_b = row_a.split(","), row_b.split(",")
        if r == 0 or len(cells_a) != len(cells_b):
            return f"row {r}: {row_a!r} vs {row_b!r}"
        c = next(c for c, (x, y) in enumerate(zip(cells_a, cells_b)) if x != y)
        return f"row {r} ({header[c] if c < len(header) else f'column {c}'}): {_values(cells_a[c], cells_b[c])}"
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a)} vs {len(rows_b)} rows"
    return "the bytes differ"


def first_json_difference(a, b, path: str = "") -> str | None:
    """The path of the first value where two parsed JSON documents differ, with both values."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                return f"{path}.{key}: {'missing' if key not in a else 'present'} vs {'missing' if key not in b else 'present'}"
            if found := first_json_difference(a[key], b[key], f"{path}.{key}"):
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            if found := first_json_difference(x, y, f"{path}[{i}]"):
                return found
        return None if len(a) == len(b) else f"{path}: {len(a)} vs {len(b)} items"
    if type(a) is type(b) and a == b:
        return None
    return f"{path or '.'}: {_values(a, b)}"


def _first_file_difference(name: str, a: bytes, b: bytes) -> str:
    if name.endswith(".csv"):
        return first_csv_difference(a.decode(), b.decode())
    if name.endswith(".json"):
        found = first_json_difference(json.loads(a), json.loads(b))
        return found.lstrip(".") if found else "the bytes differ"
    return "the bytes differ"


def compare_dirs(a: Path, b: Path) -> list:
    """One line per file that is missing on one side or differs, naming the file."""
    names_a = {p.name for p in a.iterdir()} if a.is_dir() else set()
    names_b = {p.name for p in b.iterdir()} if b.is_dir() else set()
    lines = []
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            lines.append(f"{name}: only on {'the revision' if name in names_a else 'the working tree'}")
        elif (bytes_a := (a / name).read_bytes()) != (bytes_b := (b / name).read_bytes()):
            lines.append(f"{name}: {_first_file_difference(name, bytes_a, bytes_b)}")
    return lines


def compare_records(a: list, b: list) -> list:
    """The differing parts of two [exit code, stdout, stderr] records."""
    return [f"{what}: {x!r} vs {y!r}" for what, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def _export(rev: str, dest: Path) -> Path:
    """REV's src/ under dest, from git archive."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def _run_side(src: Path, ops: list, work: Path) -> dict:
    """{name: [exit code, stdout, stderr]} of the invocations, run in one fresh
    interpreter on src, each writing under work / name; the --out directory
    reads as <out> in stdout and stderr."""
    plan = [[name, op.argv(scenario, work / name)] for name, op, scenario in ops]
    plan_path, results_path = work / "plan.json", work / "results.json"
    work.mkdir(parents=True)
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", _RUNNER, str(plan_path), str(results_path)], env=env, check=True)
    results = json.loads(results_path.read_text())
    out = {name: str(work / name) for name, _, _ in ops}
    return {name: [code, *(text.replace(out[name], "<out>") for text in texts)]
            for name, (code, *texts) in results.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="the git revision to compare the working tree with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3], help="workload seeds (default 1 2 3)")
    args = parser.parse_args(argv)
    workloads = _workloads()
    equal = total = 0
    with tempfile.TemporaryDirectory(prefix="chaplygin-identity-") as tmp:
        tmp = Path(tmp)
        sides = {"rev": _export(args.rev, tmp / "rev"), "tree": ROOT / "src"}
        for seed in args.seeds:
            ops = []
            for workload in workloads.WORKLOADS:
                for op in workloads.make_ops(workload, seed):
                    scenario = tmp / "scenarios" / str(seed) / workload / f"{op.name}.json"
                    scenario.parent.mkdir(parents=True, exist_ok=True)
                    scenario.write_text(json.dumps(op.scenario, indent=2) + "\n")
                    ops.append((f"{workload}/{op.name}", op, scenario))
            work = {side: tmp / "out" / side / str(seed) for side in sides}
            runs = {side: _run_side(src, ops, work[side]) for side, src in sides.items()}
            for name, _, _ in ops:
                total += 1
                lines = compare_records(runs["rev"][name], runs["tree"][name])
                lines += compare_dirs(work["rev"] / name, work["tree"] / name)
                equal += not lines
                for line in lines:
                    print(f"seed {seed} {name}: {line}")
    print(f"{equal} of {total} equal")
    return 0 if equal == total else 1


if __name__ == "__main__":
    sys.exit(main())
