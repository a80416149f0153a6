#!/usr/bin/env python3
"""Run one saldl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-sigma-gradient --seed 1 \\
        --seconds 60 --trace 0

Run from anywhere; paths are resolved from this file. The load is a closed
loop with one client: units run one after another in this process until the
next one would end past ``--seconds``, and never fewer than one unit per
reference data seed.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` prints its per-layer metrics instead: it alternates an
untraced and a traced unit on the same data seed, so the traced run also
yields the tracing overhead and a check that tracing changes no output.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full report
(environment, every unit, the tail percentile and its unit count) goes to
``.perfbench_out/``; spans of a traced run go there too.
"""

from __future__ import annotations

import argparse
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
OUT_DIR = ROOT / ".perfbench_out"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 15     # setup_s is the median of this many fresh set-ups
TAIL_PERCENTILE = 90
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path) -> str | None:
    """HEAD's commit; None when ``root`` is not a git work tree or git is missing."""
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(ROOT),
        "machine": platform.machine(),
    }


def closed_loop(seconds: float, run_one, min_calls: int) -> list:
    """Call ``run_one(i)`` (which returns a list of units) until the next
    call would likely end past ``seconds``, and at least ``min_calls`` times."""
    units: list = []
    started = time.perf_counter()
    longest = 0.0
    i = 0
    while True:
        elapsed = time.perf_counter() - started
        if i >= min_calls and elapsed + longest > seconds:
            return units
        t0 = time.perf_counter()
        units.extend(run_one(i))
        longest = max(longest, time.perf_counter() - t0)
        i += 1


def probe_setup(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter: import saldl and build the run's inputs."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def check_recorded(units, workload: str, expected: dict) -> None:
    from perfbench.checks import check_test_mae

    recorded = expected["test_mae"].get(workload, {})
    for u in units:
        u.failures += check_test_mae(f"{workload}/{u.data_seed}", u.test_mae,
                                     recorded.get(str(u.data_seed)), expected["rel_tol"])


def tail(walls: list[float]) -> float:
    if len(walls) < 2:
        return walls[0]
    return statistics.quantiles(walls, n=100 // (100 - TAIL_PERCENTILE),
                                method="inclusive")[-1]


def run_plain(workload, seed: int, seconds: float, work_dir: Path, expected: dict):
    from perfbench.workloads import REFERENCE_SEEDS, data_seeds

    # set-ups are spread evenly over the run, so their median sees the
    # machine at the same moments as the units do
    setup_times = [probe_setup(workload.name, seed)]
    inputs = workload.setup(data_seeds(seed), work_dir)
    workload.warm_up(inputs, work_dir)
    started = time.perf_counter()

    def unit_then_setups(i):
        unit = workload.run_unit(inputs[i % len(inputs)], work_dir)
        due = min(SETUP_REPEATS, SETUP_REPEATS * (time.perf_counter() - started) / seconds)
        while len(setup_times) < due:
            setup_times.append(probe_setup(workload.name, seed))
        return [unit]

    units = closed_loop(seconds, unit_then_setups, len(REFERENCE_SEEDS))
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(probe_setup(workload.name, seed))
    check_recorded(units, workload.name, expected)

    walls = [u.wall_s for u in units]
    # every run visits the reference seeds first, so this is fixed per commit
    maes = [statistics.fmean(u.test_mae.values()) for u in units[:len(REFERENCE_SEEDS)]
            if u.test_mae]
    values = {
        "run_s_p50": statistics.median(walls),
        "run_s_tail": tail(walls),
        "samples_per_s": sum(u.samples for u in units) / sum(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_mae": statistics.fmean(maes) if maes else 0.0,
    }
    extra = {"setup_s_all": setup_times,
             "tail": {"percentile": TAIL_PERCENTILE, "units": len(walls)}}
    return units, values, extra


def run_traced(workload, seed: int, seconds: float, work_dir: Path, expected: dict):
    from perfbench.tracer import SETUP_UNIT, Tracer
    from perfbench.workloads import data_seeds

    tracer = Tracer()
    with tracer.installed(SETUP_UNIT):
        inputs = workload.setup(data_seeds(seed), work_dir)
    workload.warm_up(inputs, work_dir)
    plain_walls, traced_walls = [], []

    def pair(i):
        inp = inputs[i % len(inputs)]

        def traced():
            with tracer.installed(i + 1):
                return workload.run_unit(inp, work_dir, lambda: tracer.span("unit"))

        # alternate the order so neither side always runs on a warmer cache
        if i % 2:
            t = traced()
            p = workload.run_unit(inp, work_dir)
        else:
            p = workload.run_unit(inp, work_dir)
            t = traced()
        if t.fingerprint != p.fingerprint:
            t.failures.append(f"{workload.name}/{t.data_seed}: traced unit output "
                              "differs from the untraced unit")
        plain_walls.append(p.wall_s)
        traced_walls.append(t.wall_s)
        return [p, t]

    units = closed_loop(seconds, pair, 1)
    check_recorded(units, workload.name, expected)

    values = tracer.layer_metrics(len(traced_walls))
    proposals = values.get("trainer.proposals", 0.0)
    values["trainer.accept_ratio"] = (values.get("trainer.accepted", 0.0) / proposals
                                      if proposals else 0.0)
    values["unit.untraced_s"] = statistics.median(plain_walls)
    values["unit.traced_s"] = statistics.median(traced_walls)
    # per pair, so drift of the machine's speed between pairs cancels
    values["trace.overhead_ratio"] = statistics.median(
        t / p for p, t in zip(plain_walls, traced_walls)) - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
    return units, values, {"traced_units": len(traced_walls)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "saldl" / "__init__.py").is_file():
        print(f"error: saldl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    workload = WORKLOADS[args.workload]

    work_dir = WORK_ROOT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        run = run_traced if args.trace else run_plain
        units, values, extra = run(workload, args.seed, args.seconds, work_dir, expected)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for u in units if u.failures)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in listed}
    report = {
        "environment": environment(args.workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "failed_ratio": failed / len(units),
        "units": [{"data_seed": u.data_seed, "wall_s": u.wall_s, "samples": u.samples,
                   "test_mae": u.test_mae, "failures": u.failures} for u in units],
        **extra,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    for u in units:
        for problem in u.failures:
            print(f"FAILED {problem}")
    print(f"{args.workload} seed {args.seed}: {len(units)} units, "
          f"report {report_path.relative_to(ROOT)}")
    rows = {**metrics, "failed_ratio": {"value": report["failed_ratio"], "unit": "ratio"}}
    for name, m in rows.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(units), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
