"""Timed phases, metrics, CLI probes and the environment record."""

from __future__ import annotations

import contextlib
import gc
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import workloads
from tracer import LAYERS, Tracer

SETUP_REPEATS = 5   # setup_s is the median of this many set-ups
# Host speed.  On a shared host the speed of the CPU drifts by half over a
# minute, and a pure-Python loop, object allocation and a BLAS product slow
# down together.  So a fixed kernel of all three is timed after every
# operation, and every reported time is scaled to the reference speed at
# which the kernel takes CAL_REF_S: times are "ms at reference speed", and
# a program change moves them in proportion while host drift cancels.
CAL_REF_S = 0.002
CAL_WINDOW = 5      # an operation is scaled by the kernel times of the 2*5+1 around it
CAL_SAMPLES = 5     # kernel runs before each set-up and probe
_CAL_MATRIX = ((np.arange(128 * 128).reshape(128, 128) % 7) - 3) * (1 + 1j) / 64
# Run in a fresh interpreter to time the import part of a set-up.
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import numpy, physborn.cli, physborn.scenario_io, physborn.scenarios; "
                "print(time.perf_counter() - t)")
WARMUP_OPS = 3      # untimed operations before each timed phase
MIN_OPS = 100       # so that at least ten latencies lie beyond p90
PHASE_LIMIT_S = 120  # a timed phase never runs longer, whatever MIN_OPS says
PROBE_REPEATS = 5   # subprocess probes per traced run

END_TO_END_UNITS = {
    "op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}

# Per-function trace metrics: (function, statistic), reported per operation.
FUNCTION_METRICS = (
    ("condition.start_time", "calls"), ("condition.start_time", "self_ms"),
    ("condition.start_time", "busy_ms"),
    ("condition.trimmed", "calls"), ("condition.trimmed", "self_ms"),
    ("linalg.support_projector", "self_ms"), ("linalg.max_abs", "calls"),
    ("model.heisenberg", "self_ms"),
    ("measurement.kappa_path", "busy_ms"), ("verify.verify_trace_identity", "busy_ms"),
    ("model.validate_family", "self_ms"), ("model.forward_closure", "self_ms"),
    ("scenario_io.serialize", "self_ms"), ("scenario_io.loads", "self_ms"),
)
PER_LAYER_UNITS = {
    **{f"{layer}.self_ms": "ms/op" for layer in LAYERS},
    **{f"{layer}.calls": "1/op" for layer in LAYERS},
    **{f"{fn}.{stat}": "ms/op" if stat.endswith("_ms") else "1/op"
       for fn, stat in FUNCTION_METRICS},
    "condition.start_time.calls_per_cond": "ratio",
    "cli.interpreter_ms": "ms", "cli.import_numpy_ms": "ms",
    "cli.import_physborn_ms": "ms", "cli.main_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes now."""
    t0 = perf_counter()
    for _ in range(3):
        _CAL_MATRIX @ _CAL_MATRIX
    total = 0
    for i in range(15000):
        total += i
    rows = [[i, i * 0.5] for i in range(3000)]
    index = {str(i): row for i, row in enumerate(rows[:2000])}
    del rows, index
    return perf_counter() - t0


def speed_factor() -> float:
    """CAL_REF_S over the median of CAL_SAMPLES kernel times: multiply a
    time measured now by this to get it at reference speed."""
    return CAL_REF_S / statistics.median(calibrate() for _ in range(CAL_SAMPLES))


@dataclass
class Phase:
    """Outcome of one timed phase."""

    latencies: list = field(default_factory=list)   # seconds per operation
    failed: int = 0
    cal: list = field(default_factory=list)   # kernel seconds after each operation
    ran: list = field(default_factory=list)   # the (run, check) pairs

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def scaled(self) -> list:
        """Latencies at reference speed, each scaled by the median kernel
        time of the operations around it."""
        n = len(self.cal)
        return [t * CAL_REF_S / statistics.median(
                    self.cal[max(0, i - CAL_WINDOW):min(n, i + CAL_WINDOW + 1)])
                for i, t in enumerate(self.latencies)]

    @property
    def ops_per_s(self) -> float:
        """Operations per second of operation time at reference speed."""
        return self.ops / sum(self.scaled())


def _one(phase: Phase, run, check) -> None:
    """Time one operation, check it, record it and time the calibration
    kernel after it."""
    t0 = perf_counter()
    try:
        result = run()
    except Exception:  # an unexpected error is a failed operation
        failure = sys.exc_info()
    else:
        failure = None
    t1 = perf_counter()
    phase.latencies.append(t1 - t0)
    phase.ran.append((run, check))
    if failure is None:
        try:
            ok = check(result)
        except Exception:
            ok, failure = False, sys.exc_info()
    else:
        ok = False
    if not ok:
        phase.failed += 1
        if phase.failed <= 3:
            detail = "".join(traceback.format_exception(*failure)) if failure else "wrong answer"
            print(f"failed op {phase.ops - 1}: {detail}", file=sys.stderr)
    phase.cal.append(calibrate())


def run_phase(wl, seconds: float, min_ops: int = 0) -> Phase:
    """Closed loop with one client: the next operation starts when the
    previous one and its check are done.  Runs cycles until ``seconds``
    have passed and ``min_ops`` operations completed, or PHASE_LIMIT_S
    have passed; only the last cycle is cut, so a run's length does not
    jump by a whole chain-queries cycle (about 12 s)."""
    phase = Phase()
    start = perf_counter()
    while True:
        for run, check in wl.cycle():
            elapsed = perf_counter() - start
            if elapsed >= seconds and phase.ops >= min_ops or elapsed >= PHASE_LIMIT_S:
                return phase
            _one(phase, run, check)


def replay(ran: list, tracer: Tracer) -> Phase:
    """Run the given operations again, in order, with the tracer on."""
    phase = Phase()
    for i, (run, check) in enumerate(ran):
        tracer.op = i
        _one(phase, run, check)
    return phase


@contextlib.contextmanager
def scratch(base, child_env: dict, in_process: bool, perturb: bool = False):
    """A workload context whose scratch directory under ``base`` is
    removed afterwards."""
    path = base / f"run-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield workloads.Context(path, child_env, in_process, perturb)
    finally:
        shutil.rmtree(path)


def set_up(name: str, seed: int, ctx: workloads.Context):
    """Set up SETUP_REPEATS times: import the program in a fresh
    interpreter, then build the workload here.  Return the last workload
    and setup_s, the median of the import plus build times at reference
    speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        factor = speed_factor()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=ctx.child_env,
                              capture_output=True, text=True, check=True)
        gc.collect()
        t0 = perf_counter()
        wl = workloads.WORKLOADS[name](seed, ctx)
        times.append((float(proc.stdout) + perf_counter() - t0) * factor)
    return wl, statistics.median(times)


def _warm(wl) -> None:
    for (run, _check), _ in zip(wl.cycle(), range(WARMUP_OPS)):
        run()


def end_to_end(name: str, wl, setup_s: float, seconds: float, min_ops: int = MIN_OPS):
    """Untraced run: every end-to-end metric."""
    _warm(wl)
    phase = run_phase(wl, seconds, min_ops)
    lat_ms = [t * 1e3 for t in phase.scaled()]
    who = resource.RUSAGE_CHILDREN if name == "cli-reference" else resource.RUSAGE_SELF
    values = {
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "ops_per_s": phase.ops_per_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    return phase, values


def _ms(argv, env) -> tuple:
    t0 = perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return (perf_counter() - t0) * 1e3, proc


def _import_times(stderr: str) -> tuple:
    """Cumulative milliseconds of numpy and of the top-level physborn
    imports, from ``-X importtime`` output."""
    numpy_us = physborn_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, package = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        if package.strip() == "numpy":
            numpy_us = int(cumulative)
        if package.startswith(" physborn"):  # one space: top level
            physborn_us += int(cumulative)
    return numpy_us / 1e3, physborn_us / 1e3


def cli_probe(ctx: workloads.Context) -> dict:
    """Start-up costs of the CLI and the in-process cost of each command,
    at reference speed."""
    env, exe = ctx.child_env, sys.executable
    interp, numpy_ms, physborn_ms = [], [], []
    factor = speed_factor()
    for _ in range(PROBE_REPEATS):
        interp.append(_ms([exe, "-c", "pass"], env)[0])
        _, proc = _ms([exe, "-X", "importtime", "-c", "import physborn.cli"], env)
        n_ms, p_ms = _import_times(proc.stderr)
        numpy_ms.append(n_ms)
        physborn_ms.append(p_ms)
    path = ctx.workdir / "reference.json"
    _, dump, _ = workloads.CliReference.call(("scenario", "dump", "reference"))
    path.write_bytes(dump)
    main_ms = []
    for _ in range(2):
        for argv, _code, _golden in workloads.cli_commands(path):
            t0 = perf_counter()
            workloads.CliReference.call(argv)
            main_ms.append((perf_counter() - t0) * 1e3)
    factor = (factor + speed_factor()) / 2
    return {
        "cli.interpreter_ms": statistics.median(interp) * factor,
        "cli.import_numpy_ms": statistics.median(numpy_ms) * factor,
        "cli.import_physborn_ms": statistics.median(physborn_ms) * factor,
        "cli.main_ms": statistics.median(main_ms) * factor,
    }


def per_layer(wl, seconds: float, ctx: workloads.Context, spans_path,
              min_ops: int = 0) -> tuple:
    """Traced run: operations for half the time untraced, then the same
    operations again traced; the layer metrics per traced operation and
    the tracing overhead on identical work."""
    values = cli_probe(ctx)
    _warm(wl)
    plain = run_phase(wl, seconds / 2, min_ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = replay(plain.ran, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    n = traced.ops
    ms = 1e3 * CAL_REF_S / statistics.median(traced.cal) / n   # per op, at reference speed
    summary = tracer.summary()
    for layer in LAYERS:
        rows = [v for k, v in summary.items() if k.startswith(layer + ".")]
        values[f"{layer}.self_ms"] = sum(r[2] for r in rows) * ms
        values[f"{layer}.calls"] = sum(r[0] for r in rows) / n
    for fn, stat in FUNCTION_METRICS:
        calls, busy, self_s = summary[fn]
        values[f"{fn}.{stat}"] = {"calls": calls / n, "busy_ms": busy * ms,
                                  "self_ms": self_s * ms}[stat]
    values["condition.start_time.calls_per_cond"] = (
        summary["condition.start_time"][0] / tracer.conditions if tracer.conditions else 0.0)
    values["trace.overhead_ratio"] = traced.ops_per_s / plain.ops_per_s
    merged = Phase(plain.latencies + traced.latencies, plain.failed + traced.failed,
                   plain.cal + traced.cal)
    return merged, {k: values[k] for k in PER_LAYER_UNITS}


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(f"{base}/{entry}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{entry}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{entry}/size") as fh:
                size = fh.read().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def environment(workload: str, seed: int, blas_threads: int, nproc: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": blas_threads,
        "nproc": nproc,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        **_cache_sizes(),
    }
