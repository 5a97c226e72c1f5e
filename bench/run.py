"""physborn benchmark.

Run from the root of a source checkout:

    python3 bench/run.py --workload chain-queries --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` measures the per-layer metrics in a separate run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
environment record.  The program is imported from ``src/`` of the
checkout, and the run exits with code 2 when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cli-reference", "chain-queries", "dense-textbook", "scenario-io")

# One BLAS thread: fixed, at most nproc on any machine, and the steadiest
# choice on a shared host.  Set before numpy is first imported.
BLAS_THREADS = 1
NPROC = len(os.sched_getaffinity(0))   # before pinning to one CPU
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_environment() -> dict:
    """Pin BLAS threads in this process, pin it and its children to one
    CPU, and return the environment for child processes, which import the
    package from ``src/``.

    One CPU, because the calibration kernel must run where the operations
    run: on a shared host the CPUs of one machine drift apart in speed, and
    a CLI child process otherwise often runs on the other CPU."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    child_env = pin_environment()
    import harness

    with harness.scratch(WORKDIR, child_env, in_process=trace) as ctx:
        wl, setup_s = harness.set_up(workload, seed, ctx)
        if trace:
            spans = WORKDIR / f"spans-{workload}-seed{seed}.csv.gz"
            phase, values = harness.per_layer(wl, seconds, ctx, spans)
            units = harness.PER_LAYER_UNITS
        else:
            phase, values = harness.end_to_end(workload, wl, setup_s, seconds)
            units = harness.END_TO_END_UNITS

    for name, value in values.items():
        print(f"{workload:15s} {name:40s} {value:14.6g} {units[name]}")
    print(f"{workload:15s} {'op_fail_ratio':40s} {phase.failed / phase.ops:14.6g} "
          f"(failed {phase.failed} of {phase.ops} operations)")
    env = harness.environment(workload, seed, BLAS_THREADS, NPROC)
    env["calibration_ms"] = statistics.median(phase.cal) * 1e3
    env["calibration_ref_ms"] = harness.CAL_REF_S * 1e3
    print(json.dumps({"env": env}))
    return {
        "correct": phase.failed == 0,
        "attempted": phase.ops,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process; a table of every metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{workload}: exit code {proc.returncode}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "physborn" / "__init__.py").is_file():
        print(f"error: no physborn sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
