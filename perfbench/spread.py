"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workload NAME ...] [--write perfbench/NOISE.json]

Runs ``run.py`` for ``run_seconds`` of BENCHMARK.json once per seed
(``FIRST_SEED`` to ``FIRST_SEED + RUNS - 1``) on each workload, one run at
a time, and prints for every end-to-end metric the median of the runs, its
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the bound of the metrics that BENCHMARK.json
gates.  Times are given at reference speed and, under ``raw``, as measured.
``--write`` stores the table with the machine record; run.py copies each
workload's entry into every result it prints.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10
FIRST_SEED = 1


def spread_of(values):
    """Median, quartiles and (q3 - q1) / median of the values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(values), "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--write", type=Path, help="store the spreads as JSON here")
    args = parser.parse_args(argv)

    table, machine = {}, None
    for name in args.workload or names:
        values, raw = {}, {}
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
            *_, record_line, result_line = proc.stdout.strip().splitlines()
            record, result = json.loads(record_line), json.loads(result_line)
            machine = record["machine"]
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed invocations", file=sys.stderr)
            for metric, entry in record["end_to_end"].items():
                values.setdefault(metric, []).append(entry["value"])
                if entry.get("raw") is not None:
                    raw.setdefault(metric, []).append(entry["raw"])
        table[name] = {}
        for metric, vals in values.items():
            entry = table[name][metric] = spread_of(vals)
            if metric in raw:
                entry["raw"] = spread_of(raw[metric])
            shown = "   n/a" if entry["spread"] is None else f"{entry['spread']:7.4f}"
            raw_shown = f"  raw spread {entry['raw']['spread']:7.4f}" if metric in raw else ""
            print(f"{name:<17} {metric:<20} median {entry['median']:<12.6g} q1 {entry['q1']:<12.6g} "
                  f"q3 {entry['q3']:<12.6g} spread {shown}  bound {bounds.get(metric, '-')}{raw_shown}",
                  flush=True)
    if args.write:
        old = json.loads(args.write.read_text()) if args.write.is_file() else {}
        record = {"machine": machine, "seconds": spec["run_seconds"], "first_seed": FIRST_SEED,
                  "runs": RUNS, "workloads": {**old.get("workloads", {}), **table}}
        args.write.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
