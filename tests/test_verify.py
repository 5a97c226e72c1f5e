"""Verifiability verdicts, Z/W subspaces, the trace identity, and the
observer restriction."""

import numpy as np
import pytest

from physborn import linalg
from physborn import model as model_mod
from physborn.born import OutcomeSet, prob_forward, prob_sequence
from physborn.condition import ConditionSpec
from physborn.errors import DomainError, NotPhysicallyPossibleError, UnreachableConditionError
from physborn.model import Model, PhysicalFamily, TimeGrid
from physborn.scenarios import build_reference_experiment, build_sg_observer_space
from physborn.verify import (
    conditionally_realizable,
    observer_restriction_check,
    verifiability,
    verify_trace_identity,
    w_subspace,
    z_subspace,
)

from conftest import dense_lift, random_unitary, rank_of, verifiable_pairs


@pytest.fixture(scope="module")
def ref():
    return build_reference_experiment()


def test_forward_verdict_on_reference(ref):
    cond = ref.condition("I", ref.T0)
    outcomes = OutcomeSet(
        (ref.predicate("Fup"), ref.predicate("Fdown"), ref.predicate("blocked")),
        ref.T1,
    )
    report = verifiability(cond, outcomes)
    assert report.verdict and report.direction == "forward"
    for v in report.outcomes:
        assert v.commutator_physical <= 1e-9
        assert v.commutator_condition <= 1e-9


def test_backward_verdict_on_reference(ref):
    cond = ref.condition("Fup", ref.T1)
    outcomes = OutcomeSet((ref.predicate("I"), ref.predicate("notI")), ref.T0)
    report = verifiability(cond, outcomes)
    assert report.verdict and report.direction == "backward"


def test_direction_guards(ref):
    cond = ref.condition("I", ref.T0)
    same_time = OutcomeSet((ref.predicate("Fup"),), ref.T0)
    with pytest.raises(DomainError, match="other than the condition index 1"):
        verifiability(cond, same_time)
    # either side of the condition index gets its direction from the indices
    assert verifiability(cond, OutcomeSet((ref.predicate("ready"),), ref.T_S)).direction \
        == "backward"
    assert verifiability(cond, OutcomeSet((ref.predicate("Fup"),), ref.T1)).direction \
        == "forward"


@pytest.mark.parametrize("k_c, k", [(0, 1), (1, 0)])
def test_condition_commutator_is_sandwiched_at_the_earlier_index(k_c, k):
    # P(0) keeps only |0>; X and Y overlap there and disagree on |1>, |2>.
    m = Model(3, 1, TimeGrid((0.0, 1.0)), (np.eye(3, dtype=complex),))
    fam = PhysicalFamily((np.diag([1.0, 0, 0]).astype(complex), np.eye(3, dtype=complex)))
    plus = np.array([0, 1, 1]) / np.sqrt(2)
    x = np.diag([1.0, 1.0, 0]).astype(complex)
    y = np.diag([1.0, 0, 0]).astype(complex) + np.outer(plus, plus)
    assert np.max(np.abs(x @ y - y @ x)) > 0.1
    cond = ConditionSpec(m, fam, x, k_c)
    outcomes = OutcomeSet((y,), k)
    report = verifiability(cond, outcomes)
    assert report.verdict and report.direction == ("forward" if k > k_c else "backward")
    assert max(verify_trace_identity(cond, outcomes)) <= 1e-12
    assert np.max(np.abs(z_subspace(cond, y, k) - fam.at(0))) <= 1e-12


def test_zw_decomposition_forward(ref):
    cond = ref.condition("I", ref.T0)
    for name in ("Fup", "Fdown", "blocked"):
        y = ref.predicate(name)
        pz = z_subspace(cond, y, ref.T1)
        pw = w_subspace(cond, y, ref.T1)
        assert linalg.is_projector(pz, cond.tol) and linalg.is_projector(pw, cond.tol)
        # together they recompose the physical part of the outcome
        phys = ref.fam.at(ref.T1) @ dense_lift(ref.model, y, ref.T1)
        assert np.max(np.abs(pz + pw - phys)) <= 1e-9
    # the detected outcomes certainly came from I; the blocked outcome
    # certainly did not
    assert rank_of(z_subspace(cond, ref.predicate("Fup"), ref.T1), cond.tol) == 1
    assert rank_of(w_subspace(cond, ref.predicate("Fup"), ref.T1), cond.tol) == 0
    assert rank_of(z_subspace(cond, ref.predicate("blocked"), ref.T1), cond.tol) == 0


def test_zw_decomposition_backward(ref):
    cond = ref.condition("Fup", ref.T1)
    pz = z_subspace(cond, ref.predicate("I"), ref.T0)
    pw = w_subspace(cond, ref.predicate("I"), ref.T0)
    # everything in the final record came through the first detector
    assert rank_of(pz, cond.tol) == 1
    assert rank_of(pw, cond.tol) == 0
    phys = ref.fam.at(ref.T1) @ dense_lift(ref.model, ref.predicate("Fup"), ref.T1)
    assert np.max(np.abs(pz - linalg.support_projector(phys @ phys.conj().T, cond.tol))) <= 1e-9


def test_zw_refused_when_not_verifiable():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    m = Model(2, 1, TimeGrid((0.0, 1.0)), (h,))
    fam = PhysicalFamily((np.eye(2, dtype=complex),) * 2)
    cond = ConditionSpec(m, fam, np.diag([1.0, 0]).astype(complex), 0)
    with pytest.raises(DomainError):
        z_subspace(cond, np.diag([0, 1.0]).astype(complex), 1)


def test_trace_identity_residuals(ref):
    cond_i = ref.condition("I", ref.T0)
    fwd = OutcomeSet(
        (ref.predicate("Fup"), ref.predicate("Fdown"), ref.predicate("blocked")),
        ref.T1,
    )
    assert max(verify_trace_identity(cond_i, fwd)) <= 1e-9
    cond_f = ref.condition("Fup", ref.T1)
    bwd = OutcomeSet((ref.predicate("I"), ref.predicate("notI")), ref.T0)
    assert max(verify_trace_identity(cond_f, bwd)) <= 1e-9


def test_zw_properties_on_generated_recording_models():
    pairs = verifiable_pairs(20, 300)
    assert sum(k > cond.k_c for cond, _, k in pairs) >= 100
    assert sum(k < cond.k_c for cond, _, k in pairs) >= 100
    for cond, y, k in pairs:
        fam = cond.fam
        py = dense_lift(cond.model, y, k)
        s = min(k, cond.k_c)
        px = dense_lift(cond.model, cond.x1, cond.k_c)
        a = fam.at(k) @ py if k > cond.k_c else fam.at(cond.k_c) @ px
        pz, pw = z_subspace(cond, y, k), w_subspace(cond, y, k)
        assert np.max(np.abs(pz @ pw)) <= 1e-9
        assert np.max(np.abs(a @ pz - pz)) <= 1e-9
        assert np.max(np.abs(a @ pw - pw)) <= 1e-9
        whole = linalg.support_projector(a @ fam.at(s) @ a, cond.tol)
        assert np.max(np.abs(pz + pw - whole)) <= 1e-9
        assert max(verify_trace_identity(cond, OutcomeSet((y,), k))) <= 1e-9
        with pytest.raises(DomainError):
            z_subspace(cond, y, cond.k_c)
        with pytest.raises(DomainError):
            w_subspace(cond, y, cond.k_c)


def test_sequence_over_a_complete_second_set_gives_the_forward_rule():
    # For k1 >= k_c the sequence rule is Tr(Y2 Y1 X P(0) X Y1) / Tr(X P(0));
    # single-record projectors Y2 sum to the identity, leaving the forward
    # rule for Y1, whatever the index of Y2.
    rng = np.random.default_rng(22)
    worst, checked = 0.0, 0
    for cond, y1, k in verifiable_pairs(22, 200):
        d1 = cond.model.d1
        for k1 in sorted({cond.k_c, k}):
            if k1 < cond.k_c:
                continue
            try:
                forward = prob_forward(cond, y1, k1).value
            except UnreachableConditionError:   # no weight at k0 = 0
                continue
            k2 = int(rng.integers(cond.model.n_indices))
            total = sum(prob_sequence(cond, y1, k1, np.diag(np.eye(d1)[r]), k2).value
                        for r in range(d1))
            worst = max(worst, abs(total - forward))
            checked += 1
    assert checked >= 200
    assert worst <= 1e-12


def test_trace_identity_refuses_k0_as_the_rules_do(ref):
    # With I at t0 the start index is T_s = 1.  k0 = 2 used to give
    # residuals, and k0 = -1, -3 wrapped round to P(2) and P(0).
    cond = ref.condition("I", ref.T0)
    fup = ref.predicate("Fup")
    outcomes = OutcomeSet((fup, ref.predicate("Fdown")), ref.T1)
    for k0 in (0, 1):
        assert max(verify_trace_identity(cond, outcomes, k0)) <= 1e-9
    for k0, error in ((2, DomainError), (-1, IndexError), (-3, IndexError), (3, IndexError)):
        with pytest.raises(error) as rule:
            prob_forward(cond, fup, ref.T1, k0)
        with pytest.raises(error) as identity:
            verify_trace_identity(cond, outcomes, k0)
        assert str(identity.value) == str(rule.value)
    assert str(identity.value) == "grid index 3 out of range [0, 2]"
    with pytest.raises(DomainError, match=r"^k0=2 is later than the condition's start index T_s=1$"):
        verify_trace_identity(cond, outcomes, 2)


def test_trace_identity_lifts_each_outcome_once(ref, monkeypatch):
    # each member of the outcome set is lifted once (OutcomeSet.lifted),
    # and "not this record" once, by its complement, as an outcome on
    # either side of the condition and as the condition itself
    lifts = []
    real = model_mod.lift_system1

    def counted(*args, **kwargs):
        lifts.append(args)
        return real(*args, **kwargs)

    cases = (
        (ref.condition("I", ref.T0), ("Fup", "Fdown"), ref.T1),
        (ref.condition("Fup", ref.T1), ("I", "notI"), ref.T0),
        (ref.condition("I", ref.T0), ("I", "notI"), ref.T1),
        (ref.condition("notI", ref.T0), ("Fup", "Fdown"), ref.T1),
    )
    monkeypatch.setattr(model_mod, "lift_system1", counted)
    for cond, names, k in cases:
        outcomes = OutcomeSet(tuple(ref.predicate(name) for name in names), k)
        for check in (verifiability, verify_trace_identity):
            lifts.clear()
            check(cond, outcomes)
            assert len(lifts) == 2, (names, check.__name__)


def _random_observer_instance(rng):
    """Observer/target pair satisfying the commutation hypotheses by
    construction: orthonormal observer states tied to orthonormal
    system2 states."""
    d1 = int(rng.integers(2, 5))
    d2 = int(rng.integers(2, 5))
    n = int(rng.integers(2, min(d1, d2) + 1))
    uo = random_unitary(rng, d1)
    uw = random_unitary(rng, d2)
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
    return m, fam, po, pm


def test_observer_restriction_thousand_instances():
    rng = np.random.default_rng(70)
    violations = 0
    for _ in range(1000):
        m, fam, po, pm = _random_observer_instance(rng)
        holds, norm = observer_restriction_check(m, fam, po, pm, 0)
        if not holds or norm > 1e-9:
            violations += 1
    assert violations == 0


def test_observer_restriction_hypothesis_guard():
    rng = np.random.default_rng(71)
    m, fam, po, pm = _random_observer_instance(rng)
    bad = np.full((m.d2, m.d2), 1.0 / m.d2, dtype=complex)
    with pytest.raises(NotPhysicallyPossibleError):
        observer_restriction_check(m, fam, po, bad, 0)


def test_observer_restriction_decides_possibility_as_a_condition(ref):
    # each predicate is lifted at k, so the check accepts an observer
    # record exactly where a condition on it can be built
    target = np.eye(ref.model.d2, dtype=complex)
    for name in ("I", "Fup", "blocked"):
        for k in range(ref.model.n_indices):
            try:
                ref.condition(name, k)
                possible = True
            except NotPhysicallyPossibleError:
                possible = False
            try:
                holds, norm = observer_restriction_check(
                    ref.model, ref.fam, ref.predicate(name), target, k)
                accepted = True
            except NotPhysicallyPossibleError as err:
                assert str(err) == ("hypothesis violated: observer predicate is not "
                                    f"physically possible at index {k}")
                accepted = False
            assert accepted == possible, (name, k)
            if accepted:    # the identity target commutes with everything
                assert holds and norm <= 1e-12


def test_conditional_realizability_on_observer_space():
    sp = build_sg_observer_space([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
    eye1 = np.eye(2, dtype=complex)
    for i in range(2):
        spin = np.kron(eye1, sp.spin_projector(i))
        obs = np.kron(sp.observer_projectors[i], np.eye(2, dtype=complex))
        assert conditionally_realizable(sp.model, sp.fam, spin, obs, 0)
    # mismatched pairing: the +z spin has no overlap with the -z observer
    spin = np.kron(eye1, sp.spin_projector(0))
    obs = np.kron(sp.observer_projectors[1], np.eye(2, dtype=complex))
    assert not conditionally_realizable(sp.model, sp.fam, spin, obs, 0)


def test_conditional_realizability_requires_possible_reference():
    sp = build_sg_observer_space([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)])
    # a bare spin projector cannot serve as the reference
    spin = np.kron(np.eye(2, dtype=complex), sp.spin_projector(0))
    with pytest.raises(NotPhysicallyPossibleError):
        conditionally_realizable(sp.model, sp.fam, spin, spin, 0)
