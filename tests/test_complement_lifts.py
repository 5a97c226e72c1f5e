"""Complement-held conditions against their dense oracles.

A condition whose lifted predicate X has rank m > d/2 is held by the
basis of its complement's range (``model.lift_predicate``); its possibility,
its supports and the measurement's record check then come from the r x d
block B = U^dagger X at the family's rank r.  These tests run such
conditions next to the dense oracles in ``conftest``, which rebuild X
from ``cond.x1`` and so do not depend on the form it is held in: on
I - R_t of the n = 16 benchmark chain, on ``notI`` of the reference
scenario, and on seeded Haar instances, near misses included.  They also
compare the two forms of one X directly, count the dense fallbacks, and
pin what the form is for: a measurement with a "not this record" outcome
lifts nothing wider than a record, and k0 = 0 runs no start-index scan.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import physborn
from physborn import condition, linalg
from physborn import model as model_mod
from physborn.born import OutcomeSet, prob_forward
from physborn.condition import (
    ConditionSpec,
    check_k0,
    condition_operator,
    start_time,
    support_at,
    trimmed,
)
from physborn.errors import DomainError, NotPhysicallyPossibleError
from physborn.measurement import MeasurementProcess, kappa_path, outcome_probability
from physborn.model import Lifted, PhysicalFamily, lift_predicate, lift_system1
from physborn.scenarios import build_reference_experiment

from conftest import (
    INDEX_REFUSALS,
    bench_chain,
    dense_condition_operator,
    dense_condition_possible,
    dense_kappas,
    dense_lift,
    dense_record_preserved,
    dense_start_time,
    dense_support_at,
    dense_trimmed,
    drifting_instance,
    identity_family,
    outcome_of,
    path_outcome_probability,
    random_model,
    random_nested_family,
    random_projector,
)

TOL = 1e-12


def _close(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return np.shape(a) == np.shape(b) and np.max(np.abs(np.asarray(a) - b), initial=0) <= TOL


def _agree(got: tuple, want: tuple) -> None:
    """Two ``outcome_of`` results: both answers within TOL, or both
    refusals with the same exception type and message."""
    assert got[0] == want[0], (got, want)
    assert _close(got[1], want[1]) if got[0] else got == want, (got, want)


def _same(call, oracle) -> None:
    _agree(outcome_of(call, INDEX_REFUSALS), outcome_of(oracle, INDEX_REFUSALS))


def _condition(model, fam, x1, k_c):
    """The condition, held by its complement, or None when the dense
    possibility verdict refuses it too."""
    ok, cond = outcome_of(lambda: ConditionSpec(model, fam, x1, k_c))
    assert ok == dense_condition_possible(model, fam, x1, k_c)
    if not ok:
        assert cond[0] is NotPhysicallyPossibleError
        return None
    assert 2 * cond.lifted.block.shape[1] < model.dim
    return cond


def _check(cond, scan: bool = True) -> None:
    """Trimmed operators, supports, condition operators and (with
    ``scan``) T_s against the dense oracles; possibility, weight and
    support of X against the range form of the same X at every index."""
    model, fam = cond.model, cond.fam
    for k in range(cond.k_c + 1):
        _same(lambda: trimmed(cond, k), lambda: dense_trimmed(cond, k))
        _same(lambda: support_at(cond, k), lambda: dense_support_at(cond, k))
    if scan:
        assert start_time(cond) == dense_start_time(cond)
    for k0 in range(model.n_indices):
        _same(lambda: condition_operator(cond, k0), lambda: dense_condition_operator(cond, k0))
    plain = Lifted(model, lift_system1(model, cond.x1, cond.k_c))
    for k in range(model.n_indices):
        assert cond.lifted.is_possible(fam, k) == plain.is_possible(fam, k)
        assert cond.lifted.has_weight(fam, k) == plain.has_weight(fam, k)
        (g, q), (g0, q0) = cond.lifted.support(fam, k), plain.support(fam, k)
        assert q.shape == q0.shape
        assert _close(q @ q.conj().T, q0 @ q0.conj().T)
        assert _close(g @ g.conj().T, g0 @ g0.conj().T)


def _check_measurement(proc) -> None:
    """Record flags, kappa paths and outcome probabilities against the
    dense oracles."""
    assert proc.record_preserved == dense_record_preserved(proc)
    for i in range(len(proc.outcomes)):
        ok, kappas = outcome_of(lambda: dense_kappas(proc, i), INDEX_REFUSALS)
        _agree(outcome_of(lambda: kappa_path(proc, i).kappas, INDEX_REFUSALS), (ok, kappas))
        got = outcome_of(lambda: outcome_probability(proc, i), INDEX_REFUSALS)
        _agree(got, (ok, float(np.trace(kappas[-1]).real) if ok else kappas))
        _agree(got, outcome_of(lambda: path_outcome_probability(proc, i), INDEX_REFUSALS))


def _split(model, y, k):
    """The complete outcome set (y, I - y) at k."""
    return OutcomeSet((y, np.eye(model.d1) - y), k, complete=True)


def test_lift_predicate_picks_the_complement_above_half_the_rank():
    c, model, fam = bench_chain()
    d = model.dim
    for t in (1, 8, c.n):
        rec, rest = c.records(t), np.eye(c.d1) - c.records(t)
        assert lift_predicate(model, rec, t).block.shape == (d, model.d2)
        assert lift_predicate(model, rest, t).block.shape == (d, model.d2)
        w = lift_system1(model, rest, t)
        assert w.shape == (d, d - model.d2)
        assert np.max(np.abs(w @ w.conj().T - dense_lift(model, rest, t))) <= TOL
    haar = random_model(np.random.default_rng(5), 4, 2, 2)
    half = np.diag([1.0, 1, 0, 0])      # m = d/2 keeps the range form
    assert np.array_equal(lift_predicate(haar, half, 1).block, lift_system1(haar, half, 1))
    assert lift_predicate(haar, np.diag([1.0, 1, 1, 0]), 1).block.shape == (8, 2)
    assert lift_predicate(haar, np.eye(4), 1).block.shape == (8, 0)


def test_the_chain_complement_matches_the_dense_oracles(fallbacks):
    c, model, fam = bench_chain()
    for t in (2, 9):
        cond = _condition(model, fam, np.eye(c.d1) - c.records(t), t)
        _check(cond, scan=t <= 2)       # the dense scan costs d^3 per index pair
    for t in (2, c.n):
        for start in (c.records(t - 1), np.eye(c.d1) - c.records(t - 1)):
            _check_measurement(MeasurementProcess(model, fam, start, t - 1,
                                                  _split(model, c.records(t), t)))
    assert fallbacks == []


def test_the_reference_not_i_matches_the_dense_oracles(fallbacks):
    ref = build_reference_experiment()
    not_i = ref.predicate("notI")
    for k in range(ref.model.n_indices):
        cond = _condition(ref.model, ref.fam, not_i, k)
        if cond is not None:
            _check(cond)
    for start, k1 in (("ready", ref.T_S), ("notI", ref.T_S), ("notI", ref.T0)):
        for y, k2 in (("I", ref.T0), ("Fup", ref.T1)):
            if k2 > k1:
                _check_measurement(MeasurementProcess(ref.model, ref.fam, ref.predicate(start),
                                                      k1, _split(ref.model, ref.predicate(y), k2)))
    assert fallbacks == []


def _wide(rng, d1: int) -> np.ndarray:
    """A system1 projector of rank above d1/2, the identity included."""
    return random_projector(rng, d1, int(rng.integers(d1 // 2 + 1, d1 + 1)))


@pytest.mark.parametrize("seed", range(6))
def test_haar_complements_match_the_dense_oracles(seed):
    rng = np.random.default_rng(900 + seed)
    model = random_model(rng, int(rng.integers(3, 6)), int(rng.integers(1, 4)),
                         int(rng.integers(3, 5)))
    n = model.n_indices
    nested = random_nested_family(rng, model.dim, n)
    bases = PhysicalFamily.from_bases([linalg.range_basis(p, model.tol)
                                       for p in nested.projectors])
    for fam in (identity_family(model.dim, n), nested, bases):
        for _ in range(3):
            x1, k_c = _wide(rng, model.d1), int(rng.integers(n - 1))
            cond = _condition(model, fam, x1, k_c)
            if cond is None:
                continue
            _check(cond)
            k2 = int(rng.integers(k_c + 1, n))
            ok, proc = outcome_of(lambda: MeasurementProcess(
                model, fam, x1, k_c, _split(model, _wide(rng, model.d1), k2)))
            if ok:
                _check_measurement(proc)
            else:   # an outcome that does not commute with the family
                assert proc[0] is NotPhysicallyPossibleError


def test_near_misses_decide_as_the_dense_oracle(fallbacks):
    near = 0
    for seed in range(12):
        for rotation in (None, 0):
            model, fam, x1, k_c = drifting_instance(np.random.default_rng(seed), rotation)
            rank = round(np.trace(x1).real)
            if 2 * rank == model.d1:
                continue
            if 2 * rank < model.d1:
                x1 = np.eye(model.d1) - x1
            bases = PhysicalFamily.from_bases([linalg.range_basis(p, model.tol)
                                               for p in fam.projectors])
            for family in (fam, bases):
                before = len(fallbacks)
                cond = _condition(model, family, x1, k_c)
                near += len(fallbacks) > before
                if cond is not None:
                    _check(cond)
    assert near >= 1


def test_the_support_cut_is_on_squared_singular_values():
    # P(0) spans e0, inside X, and v = cos(t) e3 + sin(t) e1, which meets X
    # in sin(t)^2 = 1e-10: below eps_eig, so the support is e0 alone
    model = random_model(np.random.default_rng(6), 4, 1, 2)
    t = 1e-5
    u = np.zeros((4, 2), dtype=complex)
    u[0, 0], u[3, 1], u[1, 1] = 1.0, np.cos(t), np.sin(t)
    v = model_mod.cumulative_propagator(model, 1)
    x1 = v @ np.diag([1.0, 1, 1, 0]) @ v.conj().T     # lifts at k_c = 1 to diag(1, 1, 1, 0)
    for fam in (PhysicalFamily((u @ u.conj().T, np.eye(4, dtype=complex))),
                PhysicalFamily.from_bases((u, np.eye(4, dtype=complex)))):
        cond = _condition(model, fam, x1, 1)
        _check(cond)
        e0 = np.diag([1.0, 0, 0, 0])
        assert np.max(np.abs(support_at(cond, 0) - e0)) <= 1e-9


def test_a_chain_measurement_lifts_nothing_wider_than_a_record(monkeypatch):
    c, model, fam = bench_chain()
    widths, trims, restricts = [], [], []
    lift, trim, restrict = model_mod.lift_system1, condition._trim, PhysicalFamily._restrict
    monkeypatch.setattr(model_mod, "lift_system1",
                        lambda *args: widths.append(lift(*args).shape[1]) or lift(*args))
    monkeypatch.setattr(condition, "_trim", lambda *args: trims.append(args) or trim(*args))
    t = 9
    proc = MeasurementProcess(model, fam, c.records(t - 1), t - 1, _split(model, c.records(t), t))
    values = [outcome_probability(proc, i) for i in range(2)]
    assert widths == [model.d2] * 3     # the start space, R_t, and I - R_t by R_t
    assert trims == []                  # no start-index scan for k0 = 0
    assert abs(sum(values) - 1) <= TOL
    cond = proc.outcome_condition(1)    # built on demand, with its own possibility test
    monkeypatch.setattr(PhysicalFamily, "_restrict",
                        lambda *args: restricts.append(args) or restrict(*args))
    assert cond.lifted.is_possible(fam, t)
    assert len(restricts) == 1          # one restriction per possibility test


def test_check_k0_zero_makes_no_trimming_product(monkeypatch):
    # counted as test_start_time_computed_once_per_condition counts them
    calls = []
    original = condition._trim

    def counting(cond, k):
        calls.append(k)
        return original(cond, k)

    monkeypatch.setattr(condition, "_trim", counting)
    scans = []
    scan = condition.start_time
    monkeypatch.setattr(condition, "start_time",
                        lambda cond, *rest: scans.append(cond) or scan(cond, *rest))
    ref = build_reference_experiment()
    cond = ref.condition("I", ref.T0)
    assert check_k0(cond, 0) == 0
    condition_operator(cond)
    prob_forward(cond, ref.predicate("Fup"), ref.T1)
    proc = MeasurementProcess(ref.model, ref.fam, ref.predicate("I"), ref.T0,
                              _split(ref.model, ref.predicate("Fup"), ref.T1))
    outcome_probability(proc, 0)
    assert calls == []
    assert scans == []
    # k0 > T_s is still refused by the scan, with its message; indices 0
    # and 1 hold one run of the family, so the scan makes no product
    with pytest.raises(DomainError,
                       match=r"^k0=2 is later than the condition's start index T_s=1$"):
        check_k0(cond, 2)
    assert scans == [cond]
    assert calls == []


def test_only_the_model_reads_the_held_form():
    for path in sorted(Path(physborn.__file__).parent.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (isinstance(node, ast.Attribute) and node.attr == "_complement"), \
                f"{path.name}:{node.lineno} reads the form of a lifted predicate"
