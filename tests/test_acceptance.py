"""Acceptance gate.

One test per acceptance criterion, each printing a single pass/fail
line.  Tolerances are stated inline; golden numbers are frozen from the
first validated computation in the built models.
"""

import io

import numpy as np
import pytest

from physborn.born import (
    OutcomeSet,
    prob_approx,
    prob_before,
    prob_forward,
    prob_sequence,
)
from physborn.cli import main as cli_main
from physborn.condition import (
    ConditionSpec,
    condition_operator,
    start_time,
)
from physborn.measurement import (
    MeasurementProcess,
    kappa_path,
    outcome_probability,
    refine_outcomes,
)
from physborn.model import (
    Model,
    PhysicalFamily,
    TimeGrid,
    is_physically_possible,
    validate_family,
)
from physborn.scenarios import (
    build_redundant_record_experiment,
    build_reference_experiment,
    build_sg_observer_space,
    intro_inconsistency_demo,
    textbook_born,
)
from physborn.verify import (
    conditionally_realizable,
    observer_restriction_check,
    verifiability,
    verify_trace_identity,
    w_subspace,
    z_subspace,
)

from conftest import (
    dense_lift,
    dense_textbook,
    expanded_condition_operator,
    identity_family,
    random_model,
    random_nested_family,
    random_span_projector,
    random_unitary,
)

GOLDEN_TEXTBOOK_RETRODICTION = 0.1


@pytest.fixture(scope="module")
def ref():
    return build_reference_experiment()


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_reference_exact_values(ref):
    fwd = prob_forward(ref.condition("I", ref.T0), ref.predicate("Fup"), ref.T1).value
    retro = prob_approx(ref.condition("Fup", ref.T1), ref.predicate("I"), ref.T0).value
    textbook = textbook_born(ref.model, ref.predicate("I"), ref.T0,
                             ref.predicate("Fup"), ref.T1)
    ok = (
        abs(fwd - 0.5) <= 1e-9
        and abs(retro - 1.0) <= 1e-9
        and textbook < 1 - 1e-6
        and abs(textbook - GOLDEN_TEXTBOOK_RETRODICTION) <= 1e-9
    )
    _report(1, ok, f"forward={fwd:.12g} retrodiction={retro:.12g} "
                   f"textbook={textbook:.12g}")


def test_criterion_02_intro_inconsistency():
    report = intro_inconsistency_demo()
    ok = (
        report.textbook_retrodiction < 1 - 1e-6
        and all(m.probability < 1 - 1e-6 for m in report.microstates)
        and abs(report.amended_retrodiction - 1.0) <= 1e-9
        and abs(report.amended_forward - 0.5) <= 1e-9
        and report.both_relations_restored
    )
    _report(2, ok, f"{len(report.microstates)} microstates, all below 1; "
                   "amended rule restores both relations")


def test_criterion_03_reduction_oracle():
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(100):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(1, 1 + 16 // d1))
        m = random_model(rng, d1, d2, n_indices=3)
        fam = identity_family(d1 * d2, 3)
        u, uy = random_unitary(rng, d1), random_unitary(rng, d1)
        px = u[:, :int(rng.integers(1, d1))]
        px = px @ px.conj().T
        py = uy[:, :int(rng.integers(1, d1))]
        py = py @ py.conj().T
        fwd = prob_forward(ConditionSpec(m, fam, px, 1), py, 2).value
        worst = max(worst, abs(fwd - dense_textbook(m, px, 1, py, 2)))
        bef = prob_before(ConditionSpec(m, fam, px, 2), py, 0).value
        worst = max(worst, abs(bef - dense_textbook(m, px, 2, py, 0)))
    _report(3, worst <= 1e-9, f"max deviation from textbook rule {worst:.3e}")


def test_criterion_04_nesting_and_trimming(ref):
    built_ok = validate_family(ref.model, ref.fam).passed
    rr = build_redundant_record_experiment()
    built_ok &= validate_family(rr.model, rr.fam).passed
    sp = build_sg_observer_space([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
    built_ok &= validate_family(sp.model, sp.fam).passed

    rng = np.random.default_rng(400)
    worst_collapse = 0.0
    worst_lemma = 0.0
    for _ in range(50):
        d = int(rng.integers(3, 10))
        fam = random_nested_family(rng, d, 3)
        x = random_span_projector(rng, d, int(rng.integers(1, d)))
        for k1, k2 in ((0, 1), (0, 2), (1, 2)):
            once = fam.at(k1) @ x @ fam.at(k1)
            twice = fam.at(k1) @ (fam.at(k2) @ x @ fam.at(k2)) @ fam.at(k1)
            worst_collapse = max(worst_collapse, float(np.max(np.abs(once - twice))))
    for _ in range(50):
        d = int(rng.integers(4, 10))
        u = random_unitary(rng, d)
        r = int(rng.integers(1, d - 1))
        p1 = u[:, :r] @ u[:, :r].conj().T
        p2 = u[:, :r + 1] @ u[:, :r + 1].conj().T
        # distinct projectors whose sandwiches of x agree: x spans one
        # direction inside the smaller subspace and one outside the larger
        v = u[:, 0]
        w = u[:, r + 1] if r + 1 < d else u[:, 0]
        x = np.outer(v, v.conj()) + (np.outer(w, w.conj()) if r + 1 < d else 0)
        premise = float(np.max(np.abs(p1 @ x @ p1 - p2 @ x @ p2)))
        conclusion = float(np.max(np.abs(x @ p1 @ x - x @ p2 @ x)))
        worst_lemma = max(worst_lemma, premise, conclusion)
    ok = built_ok and worst_collapse <= 1e-9 and worst_lemma <= 1e-9
    _report(4, ok, f"families valid; collapse residual {worst_collapse:.3e}, "
                   f"lemma residual {worst_lemma:.3e}")


def test_criterion_05_condition_operator_invariance(ref):
    worst_k0 = 0.0
    worst_exp = 0.0
    for name, k_c in (("I", ref.T0), ("Fup", ref.T1), ("Fdown", ref.T1)):
        cond = ref.condition(name, k_c)
        ts = start_time(cond)
        ops = [condition_operator(cond, k0) for k0 in range(ts.condition1_index + 1)]
        for op in ops[1:]:
            worst_k0 = max(worst_k0, float(np.max(np.abs(op - ops[0]))))
        lhs = condition_operator(cond, 0)
        rhs = expanded_condition_operator(cond, 0)
        worst_exp = max(worst_exp, float(np.max(np.abs(lhs - rhs))))
    ok = worst_k0 <= 1e-9 and worst_exp <= 1e-9
    _report(5, ok, f"k0 deviation {worst_k0:.3e}, expansion residual {worst_exp:.3e}")


def test_criterion_06_measurement_suite(ref):
    names = ["ready", "blocked", "I", "Fup", "Fdown"]
    full = OutcomeSet(tuple(ref.predicate(n) for n in names), ref.T1, complete=True)
    proc = MeasurementProcess(ref.model, ref.fam, ref.predicate("ready"),
                              ref.T_S, full)
    probs = [outcome_probability(proc, i) for i in range(len(names))]
    sum_dev = abs(sum(probs) - 1.0)

    fwd_dev = 0.0
    rep_dev = 0.0
    pair = OutcomeSet((ref.predicate("Fup"), ref.predicate("Fdown")), ref.T1)
    proc2 = MeasurementProcess(ref.model, ref.fam, ref.predicate("I"), ref.T0, pair)
    cond_start = ConditionSpec(ref.model, ref.fam, ref.predicate("I"), ref.T0)
    for i, name in enumerate(("Fup", "Fdown")):
        p = outcome_probability(proc2, i)
        fwd_dev = max(fwd_dev, abs(
            p - prob_forward(cond_start, ref.predicate(name), ref.T1).value
        ))
        a = kappa_path(proc2, i, "support")
        b = kappa_path(proc2, i, "observable")
        for k in range(proc2.k1, proc2.k2 + 1):
            rep_dev = max(rep_dev, float(np.max(np.abs(a.at(k) - b.at(k)))))

    rr = build_redundant_record_experiment()
    rproc = MeasurementProcess(
        rr.model, rr.fam, rr.predicates["I"], 1,
        OutcomeSet((rr.predicates["Fab"], rr.predicates["Fdown"]), 2),
    )
    refined = refine_outcomes(rproc)
    merged = refined.classes[0] == (frozenset({3, 4}),)

    ok = sum_dev <= 1e-9 and fwd_dev <= 1e-9 and rep_dev <= 1e-9 and merged
    _report(6, ok, f"sum deviation {sum_dev:.3e}, forward match {fwd_dev:.3e}, "
                   f"representation match {rep_dev:.3e}, redundant records merged")


def test_criterion_07_verifiability_suite(ref):
    cond_i = ref.condition("I", ref.T0)
    fwd_outs = OutcomeSet(
        (ref.predicate("Fup"), ref.predicate("Fdown"), ref.predicate("blocked")),
        ref.T1,
    )
    cond_f = ref.condition("Fup", ref.T1)
    bwd_outs = OutcomeSet((ref.predicate("I"), ref.predicate("notI")), ref.T0)
    verdicts = (
        verifiability(cond_i, fwd_outs).verdict
        and verifiability(cond_f, bwd_outs).verdict
    )
    trace_res = max(
        max(verify_trace_identity(cond_i, fwd_outs)),
        max(verify_trace_identity(cond_f, bwd_outs)),
    )
    zw_res = 0.0
    for name in ("Fup", "Fdown", "blocked"):
        y = ref.predicate(name)
        pz = z_subspace(cond_i, y, ref.T1)
        pw = w_subspace(cond_i, y, ref.T1)
        phys = ref.fam.at(ref.T1) @ dense_lift(ref.model, y, ref.T1)
        zw_res = max(zw_res, float(np.max(np.abs(pz + pw - phys))))

    rng = np.random.default_rng(700)
    violations = 0
    for _ in range(1000):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        n = int(rng.integers(2, min(d1, d2) + 1))
        uo, uw = random_unitary(rng, d1), random_unitary(rng, d2)
        dim = d1 * d2
        proj = np.zeros((dim, dim), dtype=complex)
        for i in range(n):
            v = np.kron(uo[:, i], uw[:, i])
            proj += np.outer(v, v.conj())
        m = Model(d1, d2, TimeGrid((0.0, 1.0)), (np.eye(dim, dtype=complex),))
        fam = PhysicalFamily((proj, proj))
        i = int(rng.integers(n))
        po = np.outer(uo[:, i], uo[:, i].conj())
        pm = np.outer(uw[:, i], uw[:, i].conj())
        holds, norm = observer_restriction_check(m, fam, po, pm, 0)
        if not holds or norm > 1e-9:
            violations += 1

    ok = verdicts and trace_res <= 1e-9 and zw_res <= 1e-9 and violations == 0
    _report(7, ok, f"verdicts verifiable; trace residual {trace_res:.3e}, "
                   f"Z/W residual {zw_res:.3e}, {violations} observer violations")


def test_criterion_08_observer_space_realizability():
    sp = build_sg_observer_space(
        [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]
    )
    spins_blocked = all(
        not is_physically_possible(
            sp.model, sp.fam, np.kron(np.eye(4, dtype=complex), sp.spin_projector(i)), 0
        )
        for i in range(4)
    )
    pairs_ok = True
    for axis in ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)):
        neg = tuple(-c for c in axis)
        sub = build_sg_observer_space([axis, neg])
        for i in range(2):
            spin = np.kron(np.eye(2, dtype=complex), sub.spin_projector(i))
            obs = np.kron(sub.observer_projectors[i], np.eye(2, dtype=complex))
            pairs_ok &= conditionally_realizable(sub.model, sub.fam, spin, obs, 0)
    ok = spins_blocked and pairs_ok
    _report(8, ok, "bare spins not physically possible; observer/spin pairs "
                   "conditionally realizable")


def test_criterion_09_sequence_guard(tmp_path):
    # refusal through the command line, exit code 3
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    m = Model(2, 1, TimeGrid((0.0, 1.0, 2.0)), (h, h))
    fam = identity_family(2, 3)
    preds = {"A": np.diag([1.0, 0]).astype(complex),
             "B": np.diag([0, 1.0]).astype(complex)}
    from physborn.scenario_io import serialize

    path = tmp_path / "norecord.json"
    path.write_text(serialize("no-record", m, fam, preds, ("t0", "t1", "t2")))
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(
        ["prob", "--scenario", str(path), "--rule", "sequence",
         "--cond", "A@t0", "--outcome", "B@t1", "--outcome2", "A@t2"],
        out, err,
    )
    refused = code == 3

    # commuting instance agrees with the counting chain rule
    rng = np.random.default_rng(900)
    worst = 0.0
    for _ in range(25):
        d = int(rng.integers(3, 7))
        steps = tuple(
            np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=d)))
            for _ in range(2)
        )
        mc = Model(d, 1, TimeGrid((0.0, 1.0, 2.0)), steps)
        famc = identity_family(d, 3)
        x = set(int(i) for i in rng.choice(d, size=rng.integers(1, d), replace=False))
        y1 = set(int(i) for i in rng.choice(d, size=rng.integers(1, d), replace=False))
        y2 = set(int(i) for i in rng.choice(d, size=rng.integers(1, d), replace=False))
        y1 |= {next(iter(x))}

        def diag_proj(labels):
            p = np.zeros((d, d), dtype=complex)
            for l in labels:
                p[l, l] = 1.0
            return p

        value = prob_sequence(
            ConditionSpec(mc, famc, diag_proj(x), 0),
            diag_proj(y1), 1, diag_proj(y2), 2,
        ).value
        chain = (len(x & y1) / len(x)) * (len(x & y1 & y2) / len(x & y1))
        worst = max(worst, abs(value - chain))
    ok = refused and worst <= 1e-9
    _report(9, ok, f"no-record instance refused with exit 3; "
                   f"chain-rule deviation {worst:.3e}")


def test_criterion_10_cli_determinism():
    commands = [
        ["demo", "intro"],
        ["prob", "--scenario", "reference", "--rule", "forward",
         "--cond", "I@t0", "--outcome", "Fup@t1"],
        ["verify", "--scenario", "reference",
         "--cond", "Fup@t1", "--outcomes", "I,notI@t0"],
    ]
    ok = True
    for argv in commands:
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            code = cli_main(argv, out, err)
            runs.append((code, out.getvalue().encode(), err.getvalue().encode()))
        ok &= runs[0] == runs[1] and runs[0][0] == 0
    _report(10, ok, "byte-identical output across consecutive runs")
