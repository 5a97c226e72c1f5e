"""Fast self-check of the benchmark itself.

Run from this directory (about a minute and a half):

    python3 selfcheck.py

It checks that

* ``BENCHMARK.json`` names exactly the metrics, with the units, that the
  harness reports for ``--trace 0`` and ``--trace 1``;
* a short untraced run of every workload has no failed operation, and the
  same run with every expected value shifted by 1e-6 has failed ones, so
  the oracles reject a wrong answer;
* a short traced run of every workload counts calls into the layer the
  workload is meant to stress.

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run

# The per-layer metric each workload's traced run must report as nonzero.
STRESSED = {
    "cli-reference": ("cli.calls", "cli.main_ms", "scenario_io.serialize.self_ms"),
    "chain-queries": ("condition.trimmed.calls", "measurement.kappa_path.busy_ms",
                      "verify.verify_trace_identity.busy_ms"),
    "dense-textbook": ("condition.start_time.calls", "condition.start_time.busy_ms"),
    "scenario-io": ("scenario_io.calls", "model.validate_family.self_ms",
                    "model.forward_closure.self_ms"),
}
SHORT_OPS = 13   # one cycle of the CLI command list and then some


def main() -> int:
    child_env = run.pin_environment()
    import harness

    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", harness.END_TO_END_UNITS),
                       ("per_layer", harness.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            problems.append(f"BENCHMARK.json {key} does not match the harness")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads do not match run.py")

    for name in run.WORKLOAD_NAMES:
        for perturb in (False, True):
            with harness.scratch(run.WORKDIR, child_env, False, perturb) as ctx:
                wl, _ = harness.set_up(name, 1, ctx)
                phase, _ = harness.end_to_end(name, wl, 0.0, 0.0, min_ops=SHORT_OPS)
            ratio = phase.failed / phase.ops
            print(f"{name:15s} perturbed={perturb!s:5s} op_fail_ratio {ratio:.3f}")
            if (ratio > 0) != perturb:
                problems.append(f"{name}: op_fail_ratio {ratio} with perturbed={perturb}")
        with harness.scratch(run.WORKDIR, child_env, True) as ctx:
            wl, _ = harness.set_up(name, 1, ctx)
            cycle = sum(1 for _ in wl.cycle())   # trace one whole cycle
            phase, values = harness.per_layer(wl, 0.0, ctx, ctx.workdir / "spans.csv.gz",
                                              min_ops=cycle)
        for metric in STRESSED[name]:
            print(f"{name:15s} traced {metric} = {values[metric]:.4g}")
            if not values[metric] > 0:
                problems.append(f"{name}: traced run reports {metric} = {values[metric]}")
        if phase.failed:
            problems.append(f"{name}: {phase.failed} failed operations in the traced run")

    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
