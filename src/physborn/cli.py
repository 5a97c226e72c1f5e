"""Command-line front end.

Commands::

    physborn validate FILE
    physborn prob    --scenario S --rule R --cond X@T --outcome Y@T ...
    physborn measure --scenario S --start M@T --outcomes A,B,C@T
    physborn verify  --scenario S --cond X@T --outcomes A,B@T
    physborn demo intro
    physborn scenario list | dump NAME

Output is deterministic: identical invocations print identical bytes.
Exit codes: 0 success, 1 usage or parse error, 2 validation failure,
3 mathematical refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import born, linalg, measurement, verify
from .condition import ConditionSpec, observable_rep
from .errors import (
    DomainError,
    NotPhysicallyPossibleError,
    PhysbornError,
    ShapeError,
    UnreachableConditionError,
    UnverifiableSequenceError,
    ValidationError,
)
from .linalg import Tolerance
from .scenario_io import (
    BUILTIN_SCENARIOS,
    Scenario,
    builtin_scenario,
    dump_builtin,
    load_scenario,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_REFUSED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def _emit(rows, args, out) -> None:
    """Render key/value rows in the selected format."""
    if args.json:
        doc = {k: v for k, v in rows}
        out.write(json.dumps(doc, indent=2, sort_keys=True, default=_fmt) + "\n")
    elif args.csv:
        for k, v in rows:
            out.write(f"{k},{_fmt(v)}\n")
    else:
        width = max(len(k) for k, _ in rows)
        for k, v in rows:
            out.write(f"{k.ljust(width)}  {_fmt(v)}\n")


def _resolve_scenario(token: str, tol: Tolerance) -> Scenario:
    if token in BUILTIN_SCENARIOS:
        return builtin_scenario(token, tol)
    if os.path.exists(token):
        return load_scenario(token, tol)
    raise UsageError(
        f"unknown scenario {token!r}: not a built-in name and not a file"
    )


def _parse_at(sc: Scenario, token: str, what: str) -> tuple:
    """Split 'NAME@T' into (predicate matrix, grid index)."""
    if "@" not in token:
        raise UsageError(f"{what} must look like NAME@TIME, got {token!r}")
    pname, _, tname = token.rpartition("@")
    try:
        return sc.predicate(pname), sc.grid_index(tname)
    except KeyError as exc:
        raise UsageError(f"{what}: {exc.args[0]}") from None


def _parse_k0(sc: Scenario, token) -> int:
    """The grid index named by --k0; index 0 when it is not given."""
    if token is None:
        return 0
    try:
        return sc.grid_index(token)
    except KeyError as exc:
        raise UsageError(f"--k0: {exc.args[0]}") from None


def _parse_outcomes(sc: Scenario, token: str, complete: bool) -> born.OutcomeSet:
    if "@" not in token:
        raise UsageError(f"--outcomes must look like A,B,C@TIME, got {token!r}")
    names, _, tname = token.rpartition("@")
    try:
        k = sc.grid_index(tname)
        projs = tuple(sc.predicate(n) for n in names.split(","))
    except KeyError as exc:
        raise UsageError(f"--outcomes: {exc.args[0]}") from None
    return born.OutcomeSet(projs, k, complete=complete)


def _cmd_validate(args, tol, out) -> int:
    # Loading validates the family and raises on any failure, so a
    # loaded scenario passes every check.
    sc = load_scenario(args.file, tol)
    rows = [
        ("scenario", sc.name),
        ("indices", sc.model.n_indices),
        ("projector_ok", True),
        ("nonzero", True),
        ("nesting_violations", 0),
        ("passed", True),
    ]
    _emit(rows, args, out)
    return EXIT_OK


def _cmd_prob(args, tol, out) -> int:
    sc = _resolve_scenario(args.scenario, tol)
    px, k_c = _parse_at(sc, args.cond, "--cond")
    cond = ConditionSpec(sc.model, sc.fam, px, k_c)
    k0 = _parse_k0(sc, args.k0)

    rule = args.rule
    if rule in ("forward", "before", "approx", "intermediate-known"):
        if args.outcome is None:
            raise UsageError(f"--rule {rule} needs --outcome")
        py, k = _parse_at(sc, args.outcome, "--outcome")
        if rule == "forward":
            res = born.prob_forward(cond, py, k, k0)
        elif rule == "before":
            res = born.prob_before(cond, py, k, k0)
        elif rule == "approx":
            res = born.prob_approx(cond, py, k)
        else:
            rep = observable_rep(cond) if args.variant == "observable" else None
            res = born.prob_intermediate_known(cond, py, k, k0, rep)
    elif rule == "intermediate-full":
        if args.outcomes is None or args.outcome is None:
            raise UsageError("--rule intermediate-full needs --outcomes and --outcome")
        outcomes = _parse_outcomes(sc, args.outcomes, complete=True)
        target, k = _parse_at(sc, args.outcome, "--outcome")
        idx = next(
            (i for i, p in enumerate(outcomes.projectors)
             if linalg.approx_equal(p, target, sc.model.tol)),
            None,
        )
        if idx is None or k != outcomes.k:
            raise UsageError("--outcome must name a member of --outcomes at the same time")
        res = born.prob_intermediate_full(cond, outcomes, idx, k0)
    else:   # sequence, the last of the parser's choices
        if args.outcome is None or args.outcome2 is None:
            raise UsageError("--rule sequence needs --outcome and --outcome2")
        py1, k1 = _parse_at(sc, args.outcome, "--outcome")
        py2, k2 = _parse_at(sc, args.outcome2, "--outcome2")
        res = born.prob_sequence(cond, py1, k1, py2, k2, k0)

    rows = [
        ("rule", res.rule),
        ("value", res.value),
        ("numerator", res.numerator),
        ("denominator", res.denominator),
    ]
    for i, w in enumerate(res.warnings):
        rows.append((f"warning_{i}", w))
    _emit(rows, args, out)
    return EXIT_OK


def _cmd_measure(args, tol, out) -> int:
    sc = _resolve_scenario(args.scenario, tol)
    m0, k1 = _parse_at(sc, args.start, "--start")
    outcomes = _parse_outcomes(sc, args.outcomes, complete=args.complete)
    k0 = _parse_k0(sc, args.k0)
    proc = measurement.MeasurementProcess(sc.model, sc.fam, m0, k1, outcomes, k0)
    names = args.outcomes.rpartition("@")[0].split(",")
    rows = [("is_measurement", proc.is_measurement)]
    total = 0.0
    for i, name in enumerate(names):
        p = measurement.outcome_probability(proc, i, args.rep)
        total += p
        rows.append((f"P[{name}]", p))
        rows.append((f"record_preserved[{name}]", proc.record_preserved[i]))
    rows.append(("total", total))
    _emit(rows, args, out)
    return EXIT_OK


def _cmd_verify(args, tol, out) -> int:
    sc = _resolve_scenario(args.scenario, tol)
    px, k_c = _parse_at(sc, args.cond, "--cond")
    cond = ConditionSpec(sc.model, sc.fam, px, k_c)
    outcomes = _parse_outcomes(sc, args.outcomes, complete=False)
    if outcomes.k == k_c:
        raise UsageError("--outcomes must sit at a different time than --cond")
    report = verify.verifiability(cond, outcomes)
    names = args.outcomes.rpartition("@")[0].split(",")
    rows = [("direction", report.direction), ("verdict", report.verdict)]
    for name, v in zip(names, report.outcomes):
        rows.append((f"commutator_physical[{name}]", v.commutator_physical))
        rows.append((f"commutator_condition[{name}]", v.commutator_condition))
        rows.append((f"verifiable[{name}]", v.verdict))
    _emit(rows, args, out)
    return EXIT_OK


def _cmd_demo(args, tol, out) -> int:
    from .scenarios import intro_inconsistency_demo

    if args.which != "intro":
        raise UsageError(f"unknown demo {args.which!r}; available: intro")
    report = intro_inconsistency_demo(tol)
    rows = [
        ("textbook_retrodiction", report.textbook_retrodiction),
        ("textbook_retrodiction_below_1", report.textbook_retrodiction < 1 - 1e-6),
    ]
    for m in report.microstates:
        rows.append((f"P[Fup|{m.label}]", m.probability))
    rows += [
        ("amended_retrodiction", report.amended_retrodiction),
        ("amended_forward", report.amended_forward),
        ("both_relations_restored", report.both_relations_restored),
    ]
    _emit(rows, args, out)
    return EXIT_OK


def _cmd_scenario(args, tol, out) -> int:
    if args.action == "list":
        for name in BUILTIN_SCENARIOS:
            out.write(name + "\n")
        return EXIT_OK
    # dump, the other of the parser's choices
    if not args.name:
        raise UsageError("scenario dump needs a scenario name")
    try:
        out.write(dump_builtin(args.name, tol) + "\n")
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="physborn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json", action="store_true", help="structured output")
    parser.add_argument("--csv", action="store_true", help="CSV output")
    parser.add_argument("--eps-zero", type=float, default=Tolerance.eps_zero)
    parser.add_argument("--eps-eig", type=float, default=Tolerance.eps_eig)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("prob")
    p.add_argument("--scenario", required=True)
    p.add_argument("--rule", required=True,
                   choices=["forward", "before", "approx", "intermediate-full",
                            "intermediate-known", "sequence"])
    p.add_argument("--cond", required=True, metavar="NAME@TIME")
    p.add_argument("--outcome", metavar="NAME@TIME")
    p.add_argument("--outcome2", metavar="NAME@TIME")
    p.add_argument("--outcomes", metavar="A,B,C@TIME")
    p.add_argument("--k0", default=None, metavar="TIME")
    p.add_argument("--variant", default="support", choices=["support", "observable"])
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("measure")
    p.add_argument("--scenario", required=True)
    p.add_argument("--start", required=True, metavar="NAME@TIME")
    p.add_argument("--outcomes", required=True, metavar="A,B,C@TIME")
    p.add_argument("--complete", action="store_true")
    p.add_argument("--rep", default="support", choices=["support", "observable"])
    p.add_argument("--k0", default=None, metavar="TIME")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("verify")
    p.add_argument("--scenario", required=True)
    p.add_argument("--cond", required=True, metavar="NAME@TIME")
    p.add_argument("--outcomes", required=True, metavar="A,B@TIME")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("demo")
    p.add_argument("which")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("scenario")
    p.add_argument("action", choices=["list", "dump"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_scenario)
    return parser


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, Tolerance(args.eps_zero, args.eps_eig), out)
    except UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (UnverifiableSequenceError, UnreachableConditionError,
            NotPhysicallyPossibleError) as exc:
        err.write(f"refused: {exc}\n")
        return EXIT_REFUSED
    except (ValidationError, ShapeError, DomainError) as exc:
        err.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except OSError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except PhysbornError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
