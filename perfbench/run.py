"""Benchmark of the chaplygin command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Workloads (see ``workloads.py`` and BENCHMARK.json):
``simulate-reduced``, ``simulate-full`` and ``verify-all``.  Each pass
issues the workload's invocations of ``chaplygin.cli.main`` in this process,
one after another, and every invocation's outputs are checked outside the
timed region.  The process is pinned to one BLAS thread.

With ``--trace 0`` the run times passes for ``--seconds`` seconds (and at
least ``MIN_OPS`` invocations).  The result line carries the end-to-end
metrics of BENCHMARK.json: ``setup_s`` (median time of a fresh interpreter
with numpy loaded to import chaplygin and load the first scenario),
``wall_s`` (median pass time), ``op_p50_s`` (median invocation time) and
``peak_rss_mb``.  The record adds ``op_p90_s``, ``steps_per_s`` or ``checked_states_per_s``, and
``fail_ratio``.  Invocation times are scaled to reference speed by a
calibration kernel timed after each invocation (see ``workloads.py``) or,
for set-up, around it in the same interpreter; the record also gives them
as measured.

With ``--trace 1`` the same timed passes run first, then ``TRACED_PASSES``
more passes with every public function of the package wrapped by
``tracer.Tracer``.  The run reports per-layer call counts and self times
per pass (self times as measured), waste ratios, bytes written, errors,
and ``trace.overhead_ratio`` (traced over untraced median pass time).
Spans are written to ``.perfbench/spans-<workload>.csv``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is a JSON record with the machine, every metric with its
sample count and quartiles, the committed run-to-run spread
(``NOISE.json``) and any failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_OPS = 100  # invocations per timed run, so ten lie beyond op_p90_s
MIN_PASSES = 3
TRACED_PASSES = 3
SETUP_REPEATS = 11
# End-to-end metrics listed in BENCHMARK.json; the others are printed for humans.
GATED = ("setup_s", "wall_s", "op_p50_s", "peak_rss_mb")

# Run in a fresh interpreter; prints the set-up seconds and the calibration
# kernel timed around them.  numpy, chaplygin's only dependency, is imported
# before the clock starts: its import is the same for every version of
# chaplygin and was the largest source of noise.
_SETUP_CODE = """\
import sys, time
import numpy
sys.path[:0] = [sys.argv[1], sys.argv[3]]
from workloads import calibration_kernel
before = calibration_kernel()
start = time.perf_counter()
import chaplygin
chaplygin.load_scenario(sys.argv[2])
elapsed = time.perf_counter() - start
print(elapsed, (before + calibration_kernel()) / 2)
"""


def _summary(values, unit):
    """Median of the values with their count and quartiles."""
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "unit": unit, "n": len(values), "q1": q1, "q3": q3}


def _single(value, unit, n):
    return {"value": value, "unit": unit, "n": n, "q1": None, "q3": None}


def _p90(values):
    """90th percentile, or None unless at least ten values lie beyond it."""
    values = sorted(values)
    idx = -(-9 * len(values) // 10) - 1
    if len(values) - idx - 1 < 10:
        return None
    return values[idx]


def measure_setup(scenario_path, repeats=SETUP_REPEATS):
    """(seconds, calibration kernel) per fresh interpreter importing chaplygin
    and loading a scenario."""
    cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(scenario_path), str(BENCH_DIR)]
    samples = []
    for i in range(repeats + 1):  # the first fills the bytecode cache
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        if i:
            elapsed, kernel = map(float, proc.stdout.split())
            samples.append((elapsed, kernel))
    return samples


def timed_passes(workload, cli, seconds):
    passes = []
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds
        or len(passes) < MIN_PASSES
        or sum(len(p.durations) for p in passes) < MIN_OPS
    ):
        passes.append(workload.run_pass(cli))
    return passes


def end_to_end_metrics(workload, passes, setup_samples):
    """{metric: {value, unit, n, q1, q3, raw}}: times at reference speed with
    ``raw`` the same statistic as measured; q1 and q3 are None where no
    quartiles apply."""
    from workloads import at_reference_speed

    scaled = [d for p in passes for d in p.scaled]
    raw = [d for p in passes for d in p.durations]
    attempted = len(raw)
    failed = sum(len(p.failures) for p in passes)
    out = {
        "setup_s": {**_summary([at_reference_speed(t, k) for t, k in setup_samples], "s"),
                    "raw": statistics.median(t for t, _ in setup_samples)},
        "wall_s": {**_summary([p.wall for p in passes], "s"),
                   "raw": statistics.median(p.raw_wall for p in passes)},
        "op_p50_s": {**_summary(scaled, "s"), "raw": statistics.median(raw)},
    }
    p90 = _p90(scaled)
    if p90 is not None:
        out["op_p90_s"] = {**_single(p90, "s", attempted), "raw": _p90(raw)}
    rate = "checked_states_per_s" if workload.name == "verify-all" else "steps_per_s"
    work = sum(p.work for p in passes)
    out[rate] = {**_single(work / sum(scaled), "1/s", attempted), "raw": work / sum(raw)}
    out["peak_rss_mb"] = _single(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    out["fail_ratio"] = _single(failed / attempted, "1", attempted)
    return out


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if it is not found."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    return None


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def machine_record():
    import numpy

    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "chaplygin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


def _noise(workload):
    path = BENCH_DIR / "NOISE.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get("workloads", {}).get(workload)


def run_workload(name, seed, seconds, trace, workdir, horizon=None, trials=None, setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns (result, record) as printed by ``main``.

    The caller pins BLAS to one thread (``BLAS_ENV``) before numpy is imported."""
    import workloads
    from tracer import Tracer, layer_metrics

    kwargs = {k: v for k, v in (("horizon", horizon), ("trials", trials)) if v is not None}
    workload = workloads.Workload(name, seed, workdir, **kwargs)
    setup_samples = measure_setup(workload.paths[0], setup_repeats)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chaplygin
    import chaplygin.cli as cli

    workload.prepare(chaplygin)
    warmup = workload.run_pass(cli)
    passes = timed_passes(workload, cli, seconds)
    e2e = end_to_end_metrics(workload, passes, setup_samples)
    checked = [warmup] + passes

    per_layer = None
    if trace:
        tracer = Tracer()
        with tracer.installed(chaplygin):
            traced = [workload.run_pass(cli) for _ in range(TRACED_PASSES)]
        checked += traced
        per_layer = layer_metrics(tracer.spans, TRACED_PASSES)
        per_layer["cli.bytes_written"] = (traced[0].bytes_written, "B")
        ratio = statistics.median(p.wall for p in traced) / e2e["wall_s"]["value"]
        per_layer["trace.overhead_ratio"] = (ratio, "1")
        tracer.write_csv(workdir.parent / f"spans-{name}.csv")

    attempted = sum(len(p.durations) for p in checked)
    failures = [f for p in checked for f in p.failures]
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]} for k in GATED}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_record(),
        "load": "closed loop, 1 process, 1 thread, in-process chaplygin.cli.main",
        "end_to_end": e2e,
        "run_to_run_spread": _noise(name),
        "failures": failures[:20],
    }
    if per_layer is not None:
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    return result, record


def _print_table(record):
    for key, entry in record["end_to_end"].items():
        quart = "" if entry["q1"] is None else f"  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}"
        raw = f"  raw {entry['raw']:.6g}" if "raw" in entry else ""
        print(f"{record['workload']:<17} {key:<21} {entry['value']:>14.6g} {entry['unit']:<4} "
              f"n={entry['n']}{quart}{raw}")
    for key, entry in record.get("per_layer", {}).items():
        print(f"{record['workload']:<17} {key:<56} {entry['value']:>14.6g} {entry['unit']}")
    for failure in record["failures"]:
        print(f"FAIL {failure}")


def _run_all(args):
    """Each workload in its own interpreter, so peak memory stays per workload."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="simulate-reduced, simulate-full, verify-all or all")
    parser.add_argument("--seed", type=int, required=True, help="workload seed; the inputs depend only on it")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    args = parser.parse_args(argv)

    if not (SRC / "chaplygin" / "__init__.py").is_file():
        print(f"error: no chaplygin package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is imported; children inherit them
        os.environ[var] = "1"
    if args.workload == "all":
        return _run_all(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workdir = WORK_ROOT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_table(record)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
