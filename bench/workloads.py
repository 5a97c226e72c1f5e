"""The four benchmark workloads.

Each workload is a class whose constructor is the set-up (everything
built from the seed before timing starts) and whose ``cycle`` method
yields the operations of one cycle.  An operation is a pair
``(run, check)``: ``run()`` makes the library or CLI calls that are
timed, ``check(result)`` compares the result with an oracle the benchmark
computes itself and returns True when it is right.

Query mixes are balanced: a cycle runs every item of a fixed plan once,
in a seeded order, and a timed phase runs cycles and cuts only the last,
so the cost mix is nearly the same on every seed and only the order and
the numbers change.

The library is reached only through public module attributes looked up at
call time (``physborn.prob_forward``, ``scenario_io.serialize``, ...), so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import physborn
from physborn import cli, scenario_io

from chain import Chain, forward_value

TOL = 1e-9          # absolute tolerance of every numeric oracle
PERTURBATION = 1e-6  # added to expected values by the self-check


@dataclass
class Context:
    """What a workload needs from the harness."""

    workdir: Path        # scratch directory inside the checkout
    child_env: dict      # environment for CLI subprocesses
    in_process: bool = False   # CLI workload: call main() instead of spawning
    perturb: bool = False      # shift every expected value (self-check)


def _close(values, expected, shift: float) -> bool:
    values = np.asarray(values, dtype=float)
    expected = np.asarray(expected, dtype=float) + shift
    return values.shape == expected.shape and bool(np.all(np.abs(values - expected) <= TOL))


def _shuffled(rng: np.random.Generator, plan: list):
    return [plan[i] for i in rng.permutation(len(plan))]


# ---------------------------------------------------------------------------
# cli-reference


def _prob(rule: str, cond: str, outcome: str, *extra: str) -> tuple:
    return ("--json", "prob", "--scenario", "reference", "--rule", rule,
            "--cond", cond, "--outcome", outcome) + extra


# (argv, expected exit code, golden JSON fields); DUMP and FILE stand for
# the scenario file the set-up dumps.
DUMP, FILE = "<dump>", "<file>"
CLI_COMMANDS = (
    (_prob("forward", "I@t0", "Fup@t1"), 0, {"value": 0.5}),
    (_prob("approx", "Fup@t1", "I@t0"), 0, {"value": 1.0}),
    (_prob("before", "Fup@t1", "ready@ts"), 0, {"value": 1.0}),
    (_prob("intermediate-known", "Fup@t1", "I@t0"), 0, {"value": 1.0}),
    (_prob("sequence", "ready@ts", "I@t0", "--outcome2", "Fup@t1"), 0, {"value": 0.25}),
    (("--json", "measure", "--scenario", "reference", "--start", "I@t0",
      "--outcomes", "Fup,Fdown@t1"), 0,
     {"P[Fup]": 0.5, "P[Fdown]": 0.5, "total": 1.0, "is_measurement": True}),
    (("--json", "verify", "--scenario", "reference", "--cond", "I@t0",
      "--outcomes", "Fup,Fdown@t1"), 0, {"verdict": True}),
    (("--json", "demo", "intro"), 0,
     {"amended_retrodiction": 1.0, "amended_forward": 0.5, "both_relations_restored": True}),
    # The dump is the costliest command by about a third.  Listed twice, it
    # is a sixth of the operations, so p90 falls in its middle and not at
    # the edge between it and the rest.
    (("scenario", "dump", "reference"), 0, DUMP),
    (("scenario", "dump", "reference"), 0, DUMP),
    (("--json", "validate", FILE), 0, {"passed": True, "nesting_violations": 0}),
    # blocked is not physically possible at ts: the CLI must refuse.
    (("prob", "--scenario", "reference", "--rule", "forward", "--cond", "blocked@ts",
      "--outcome", "Fup@t1"), 3, None),
)


def cli_commands(path: Path) -> list:
    """CLI_COMMANDS with FILE replaced by the dumped scenario's path."""
    return [(tuple(str(path) if a == FILE else a for a in argv), code, golden)
            for argv, code, golden in CLI_COMMANDS]


class CliReference:
    """Sequential ``python -m physborn.cli`` processes over a fixed command
    list on the built-in reference scenario."""

    def __init__(self, seed: int, ctx: Context):
        self.ctx = ctx
        self.rng = np.random.default_rng(seed)
        path = ctx.workdir / "reference.json"
        rc, self.dump, err = self.spawn(("scenario", "dump", "reference"))
        if rc != 0:
            raise RuntimeError(f"scenario dump failed: {err.decode()}")
        path.write_bytes(self.dump)
        self.commands = cli_commands(path)
        self.seen = {}   # command index -> first stdout, for byte identity

    def spawn(self, argv) -> tuple:
        """Run the CLI in a new process: (exit code, stdout, stderr)."""
        proc = subprocess.run([sys.executable, "-m", "physborn.cli", *argv],
                              env=self.ctx.child_env, capture_output=True, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def call(argv) -> tuple:
        """Run the CLI's main() in this process: (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(list(argv), out=out, err=err)
        return code, out.getvalue().encode(), err.getvalue().encode()

    def cycle(self):
        invoke = self.call if self.ctx.in_process else self.spawn
        for i in _shuffled(self.rng, list(range(len(self.commands)))):
            argv, code, golden = self.commands[i]
            yield (lambda argv=argv: invoke(argv),
                   lambda res, i=i, code=code, golden=golden: self._check(i, code, golden, res))

    def _check(self, i: int, code: int, golden, res) -> bool:
        rc, out, err = res
        if rc != code or self.seen.setdefault(i, out) != out:
            return False
        if golden is None:
            return err.startswith(b"refused:")
        if golden is DUMP:
            return out == self.dump
        doc = json.loads(out)
        shift = PERTURBATION if self.ctx.perturb else 0.0
        return all(
            isinstance(doc.get(key), float) and _close(doc[key], want, shift)
            if isinstance(want, float) else doc.get(key) == want
            for key, want in golden.items()
        )


# ---------------------------------------------------------------------------
# chain-queries


class ChainQueries:
    """Seeded query mix over the n-stage chain's conditions R_s@s."""

    N = 16
    KINDS = ("forward", "approx", "before", "known", "full", "sequence", "trace", "measure")

    def __init__(self, seed: int, ctx: Context):
        self.rng = np.random.default_rng(seed)
        self.shift = PERTURBATION if ctx.perturb else 0.0
        c = self.chain = Chain(self.N, seed)
        self.model = physborn.Model(c.d1, c.d2, physborn.TimeGrid(range(c.n + 1)), c.steps)
        self.fam = physborn.forward_closure(self.model, c.initial, c.extras)
        self.pool = [physborn.ConditionSpec(self.model, self.fam, c.records(s), s)
                     for s in range(c.n + 1)]
        n = c.n
        valid = {
            "forward": lambda s: True,
            "approx": lambda s: s >= 1,
            "before": lambda s: True,
            "known": lambda s: s >= 2,
            "full": lambda s: s >= 2,
            "sequence": lambda s: s <= n - 2,
            "trace": lambda s: True,
            "measure": lambda s: s <= n - 1,
        }
        # Measurements, the costliest kind, run twice per condition: about a
        # fifth of the plan, so p90 falls in the middle of them.
        self.plan = [(kind, s) for s in range(n + 1)
                     for kind in self.KINDS + ("measure",) if valid[kind](s)]

    def cycle(self):
        for kind, s in _shuffled(self.rng, self.plan):
            run, expected = getattr(self, "_" + kind)(s)
            yield run, lambda values, expected=expected: _close(values, expected, self.shift)

    def _pick(self, lo: int, hi: int) -> int:
        return int(self.rng.integers(lo, hi + 1))

    def _forward(self, s):
        t = s + self._pick(0, min(4, self.N - s))
        y = self.chain.records(t)
        return (lambda: [physborn.prob_forward(self.pool[s], y, t).value],
                [forward_value(s, t)])

    def _approx(self, s):
        j = self._pick(0, s - 1)
        y = self.chain.records(j)
        return lambda: [physborn.prob_approx(self.pool[s], y, j).value], [1.0]

    def _before(self, s):
        y = self.chain.records(0)
        return lambda: [physborn.prob_before(self.pool[s], y, 0).value], [1.0]

    def _known(self, s):
        j = self._pick(1, s - 1)
        y = self.chain.records(j)
        return lambda: [physborn.prob_intermediate_known(self.pool[s], y, j).value], [1.0]

    def _full(self, s):
        c, j, i = self.chain, self._pick(1, s - 1), self._pick(0, 2)
        up, lost = c.records(j), c.records(c.lost(j))
        outcomes = physborn.OutcomeSet((up, lost, np.eye(c.d1) - up - lost), j, complete=True)
        return (lambda: [physborn.prob_intermediate_full(self.pool[s], outcomes, i).value],
                [1.0 if i == 0 else 0.0])

    def _sequence(self, s):
        i = self._pick(1, self.N - s - 1)
        j = self._pick(i + 1, min(self.N - s, i + 3))
        y1, y2 = self.chain.records(s + i), self.chain.records(s + j)
        return (lambda: [physborn.prob_sequence(self.pool[s], y1, s + i, y2, s + j).value],
                [forward_value(s, s + j)])

    def _trace(self, s):
        c = self.chain
        if s < self.N:
            k = s + 1
            outcomes = physborn.OutcomeSet((c.records(k), c.records(c.lost(k))), k)
        else:
            k = self._pick(0, s - 1)
            outcomes = physborn.OutcomeSet((c.records(k),), k)
        return (lambda: list(physborn.verify_trace_identity(self.pool[s], outcomes)),
                [0.0] * len(outcomes))

    def _measure(self, s):
        c, t = self.chain, s + 1
        up = c.records(t)
        outcomes = physborn.OutcomeSet((up, np.eye(c.d1) - up), t, complete=True)

        def run():
            proc = physborn.MeasurementProcess(self.model, self.fam, c.records(s), s, outcomes)
            values = [physborn.outcome_probability(proc, i) for i in range(2)]
            return values + [sum(values)]
        p = forward_value(s, t)
        return run, [p, 1.0 - p, 1.0]


# ---------------------------------------------------------------------------
# dense-textbook


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_projector(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    z = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    q, _ = np.linalg.qr(z)
    return q @ q.conj().T


class DenseTextbook:
    """Haar-random steps with the identity family, where every amended rule
    reduces to the textbook rule Tr(V_c^+ X V_c V_k^+ Y V_k) / Tr(X) and
    the start index T_s equals the condition index."""

    D1, D2, INDICES = 8, 16, 24
    # (rule, condition index) per cycle.  approx runs no start-index scan;
    # the scans cost k_c**2 trimming pairs, so the plan has three cost
    # classes in shares 1:3:1 and p50 and p90 fall in the middle of the
    # second and third class, not at the edge of one.
    PLAN = [("approx", 22), ("forward", 12), ("before", 12), ("forward", 12),
            ("before", 22)]

    def __init__(self, seed: int, ctx: Context):
        self.rng = np.random.default_rng(seed)
        self.shift = PERTURBATION if ctx.perturb else 0.0
        d = self.D1 * self.D2
        steps = [_haar_unitary(self.rng, d) for _ in range(self.INDICES - 1)]
        self.model = physborn.Model(self.D1, self.D2, physborn.TimeGrid(range(self.INDICES)),
                                    steps)
        self.fam = physborn.PhysicalFamily(tuple(np.eye(d, dtype=complex)
                                                 for _ in range(self.INDICES)))
        # The oracle's own cumulative propagators V(k) = U_k ... U_1.
        self.frames = [np.eye(d, dtype=complex)]
        for u in steps:
            self.frames.append(u @ self.frames[-1])

    def _lift(self, p: np.ndarray, k: int) -> np.ndarray:
        v = self.frames[k]
        return v.conj().T @ np.kron(p, np.eye(self.D2)) @ v

    def textbook(self, x, k_c, y, k) -> float:
        px, py = self._lift(x, k_c), self._lift(y, k)
        return float(np.trace(px @ py).real / np.trace(px).real)

    def cycle(self):
        last = self.INDICES - 1
        for kind, kc in _shuffled(self.rng, self.PLAN):
            x = _random_projector(self.rng, self.D1, int(self.rng.integers(1, self.D1)))
            y = _random_projector(self.rng, self.D1, int(self.rng.integers(1, self.D1)))
            if kind == "forward":
                k = int(self.rng.integers(kc, last + 1))
                call = lambda cond, y=y, k=k: physborn.prob_forward(cond, y, k)
            elif kind == "before":
                k0 = int(self.rng.integers(0, kc + 1))
                k = int(self.rng.integers(0, k0 + 1))
                call = lambda cond, y=y, k=k, k0=k0: physborn.prob_before(cond, y, k, k0)
            else:
                k = int(self.rng.integers(0, kc))
                call = lambda cond, y=y, k=k: physborn.prob_approx(cond, y, k)

            def run(x=x, kc=kc, call=call):
                return call(physborn.ConditionSpec(self.model, self.fam, x, kc)).value

            yield run, lambda value, args=(x, kc, y, k): _close(
                value, self.textbook(*args), self.shift)


# ---------------------------------------------------------------------------
# scenario-io


def _pairs(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).reshape(-1)]


class ScenarioIO:
    """Round trips of a chain scenario through serialize and loads, with
    the family stored as explicit projectors or as a forward-closure spec."""

    N = 4
    # One explicit round trip, about 2.5 times the cost of a closure one,
    # per four closure ones: p50 and p90 fall in the middle of the closure
    # and explicit modes, not at their edges.
    PLAN = ["explicit", "closure", "closure", "closure", "closure"]

    def __init__(self, seed: int, ctx: Context):
        self.rng = np.random.default_rng(seed)
        c = Chain(self.N, seed)
        self.model = physborn.Model(c.d1, c.d2, physborn.TimeGrid(range(c.n + 1)), c.steps)
        self.fam = physborn.forward_closure(self.model, c.initial, c.extras)
        self.predicates = c.predicates()
        self.grid_names = tuple(f"t{k}" for k in range(c.n + 1))
        self.closure_spec = {
            "type": "forward-closure",
            "initial": [_pairs(v) for v in c.initial],
            "extras": {str(k): [_pairs(v) for v in vs] for k, vs in c.extras.items()},
        }
        self.expected_steps = [u.copy() for u in c.steps]
        if ctx.perturb:
            self.expected_steps[0][0, 0] += PERTURBATION

    def cycle(self):
        for variant in _shuffled(self.rng, self.PLAN):
            spec = self.closure_spec if variant == "closure" else None

            def run(spec=spec):
                text = scenario_io.serialize("chain", self.model, self.fam, self.predicates,
                                             self.grid_names, family_spec=spec)
                return scenario_io.loads(text, name="chain")
            yield run, self._check

    def _check(self, sc) -> bool:
        same = lambda a, b: len(a) == len(b) and all(map(np.array_equal, a, b))
        return (sc.model.d1 == self.model.d1 and sc.model.d2 == self.model.d2
                and sc.grid_names == self.grid_names
                and sc.model.grid.times == self.model.grid.times
                and same(sc.model.steps, self.expected_steps)
                and same(sc.fam.projectors, self.fam.projectors)
                and sorted(sc.predicates) == sorted(self.predicates)
                and same([sc.predicates[k] for k in sorted(sc.predicates)],
                         [self.predicates[k] for k in sorted(self.predicates)]))


WORKLOADS = {
    "cli-reference": CliReference,
    "chain-queries": ChainQueries,
    "dense-textbook": DenseTextbook,
    "scenario-io": ScenarioIO,
}
