"""Probability rules: reduction oracle, regime guards, normalization,
and the sequence guard."""

import numpy as np
import pytest

from physborn.born import (
    OutcomeSet,
    prob_approx,
    prob_before,
    prob_forward,
    prob_intermediate_full,
    prob_intermediate_known,
    prob_sequence,
)
from physborn.condition import ConditionSpec
from physborn.errors import (
    DomainError,
    ShapeError,
    UnreachableConditionError,
    UnverifiableSequenceError,
)
from physborn.measurement import MeasurementProcess
from physborn.model import Model, PhysicalFamily, TimeGrid, lift_system1
from physborn.scenarios import build_reference_experiment, textbook_born
from physborn.verify import verifiable_backward

from conftest import identity_family, random_model, random_unitary


def _diag_projector(labels, d):
    p = np.zeros((d, d), dtype=complex)
    for l in labels:
        p[l, l] = 1.0
    return p


def test_reduction_to_textbook_rule_on_identity_family():
    # with the whole space physical, forward and before must coincide
    # with the unamended two-time rule
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(100):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(1, 1 + 16 // d1))
        m = random_model(rng, d1, d2, n_indices=3)
        fam = identity_family(d1 * d2, 3)
        u = random_unitary(rng, d1)
        rx = int(rng.integers(1, d1))
        px = u[:, :rx] @ u[:, :rx].conj().T
        uy = random_unitary(rng, d1)
        ry = int(rng.integers(1, d1))
        py = uy[:, :ry] @ uy[:, :ry].conj().T
        cond = ConditionSpec(m, fam, px, 1)
        fwd = prob_forward(cond, py, 2).value
        worst = max(worst, abs(fwd - textbook_born(m, px, 1, py, 2)))
        before = prob_before(ConditionSpec(m, fam, px, 2), py, 0).value
        worst = max(worst, abs(before - textbook_born(m, px, 2, py, 0)))
    assert worst <= 1e-9


def test_forward_complete_outcomes_sum_to_one():
    rng = np.random.default_rng(51)
    m = random_model(rng, 3, 2, n_indices=2)
    fam = identity_family(6, 2)
    cond = ConditionSpec(m, fam, _diag_projector([0, 1], 3), 0)
    total = sum(
        prob_forward(cond, _diag_projector([l], 3), 1).value for l in range(3)
    )
    assert abs(total - 1.0) <= 1e-9


def test_regime_guards():
    rng = np.random.default_rng(52)
    m = random_model(rng, 2, 2, n_indices=3)
    fam = identity_family(4, 3)
    px = _diag_projector([0], 2)
    py = _diag_projector([1], 2)
    cond = ConditionSpec(m, fam, px, 1)
    with pytest.raises(DomainError):
        prob_forward(cond, py, 0)  # before the condition
    with pytest.raises(DomainError):
        prob_before(cond, py, 1, k0=0)  # after k0
    with pytest.raises(DomainError):
        prob_approx(cond, py, 1)  # not strictly before k_c
    cond2 = ConditionSpec(m, fam, px, 2)
    with pytest.raises(DomainError):
        prob_intermediate_known(cond2, py, 2)
    outcomes = OutcomeSet((px, py), 1, complete=True)
    with pytest.raises(IndexError):
        prob_intermediate_full(cond2, outcomes, 5)


def test_intermediate_full_requires_complete_set():
    rng = np.random.default_rng(53)
    m = random_model(rng, 2, 2, n_indices=3)
    fam = identity_family(4, 3)
    cond = ConditionSpec(m, fam, _diag_projector([0], 2), 2)
    incomplete = OutcomeSet((_diag_projector([0], 2),), 1)
    with pytest.raises(DomainError):
        prob_intermediate_full(cond, incomplete, 0)


def test_intermediate_full_normalizes_over_outcomes():
    rng = np.random.default_rng(54)
    m = random_model(rng, 3, 2, n_indices=3)
    fam = identity_family(6, 3)
    cond = ConditionSpec(m, fam, _diag_projector([0, 1], 3), 2)
    outcomes = OutcomeSet(
        tuple(_diag_projector([l], 3) for l in range(3)), 1, complete=True
    )
    values = [prob_intermediate_full(cond, outcomes, i).value for i in range(3)]
    assert abs(sum(values) - 1.0) <= 1e-9
    assert all(-1e-12 <= v <= 1 + 1e-12 for v in values)


def test_outcome_set_validation():
    # construction checks only what needs no tolerance
    d = 3
    with pytest.raises(DomainError):
        OutcomeSet((), 0)
    with pytest.raises(ShapeError):
        OutcomeSet((np.eye(2), np.eye(3)), 0)  # mixed sizes
    with pytest.raises(ShapeError):
        OutcomeSet((np.ones((2, 3)),), 0)  # not square
    # the rest is checked first by each consumer, within its model's tolerance
    rng = np.random.default_rng(57)
    m = random_model(rng, d, 2, n_indices=3)
    fam = identity_family(d * 2, 3)
    cond = ConditionSpec(m, fam, _diag_projector([0], d), 2)
    consumers = (
        lambda outcomes: MeasurementProcess(m, fam, _diag_projector([0], d), 0, outcomes),
        lambda outcomes: prob_intermediate_full(cond, outcomes, 0),
        lambda outcomes: verifiable_backward(cond, outcomes),
    )
    a = _diag_projector([0, 1], d)
    b = _diag_projector([1], d)
    for outcomes, message in (
        (OutcomeSet((np.full((d, d), 0.5, dtype=complex),), 1), "must be projectors"),
        (OutcomeSet((a, b), 1), "pairwise orthogonal"),
        (OutcomeSet((b,), 1, complete=True), "does not sum to identity"),
    ):
        for consume in consumers:
            with pytest.raises(DomainError, match=message):
                consume(outcomes)
    ok = OutcomeSet((a, _diag_projector([2], d)), 1, complete=True)
    assert len(ok) == 2
    for consume in consumers:
        consume(ok)


def test_unreachable_condition_raises():
    # family collapses to a subspace orthogonal to the condition at k0
    proj = np.diag([1.0, 0, 0, 0]).astype(complex)
    m = Model(4, 1, TimeGrid((0.0, 1.0)), (np.eye(4, dtype=complex),))
    fam = PhysicalFamily((proj, np.eye(4, dtype=complex)))
    cond = ConditionSpec(m, fam, np.diag([0, 1.0, 0, 0]).astype(complex), 1)
    with pytest.raises(UnreachableConditionError):
        prob_forward(cond, np.diag([0, 1.0, 0, 0]).astype(complex), 1)


def test_sequence_refuses_no_record_instance():
    # Hadamard-style dynamics: the intermediate outcome leaves no record
    # that the condition held, so the sequence rule must refuse
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    m = Model(2, 1, TimeGrid((0.0, 1.0, 2.0)), (h, h))
    fam = identity_family(2, 3)
    pA = _diag_projector([0], 2)
    pB = _diag_projector([1], 2)
    cond = ConditionSpec(m, fam, pA, 0)
    with pytest.raises(UnverifiableSequenceError) as exc:
        prob_sequence(cond, pB, 1, pA, 2)
    assert exc.value.commutator_norm > 0.4


def test_sequence_commuting_instance_matches_chain_rule():
    # diagonal-phase dynamics keeps every projector diagonal, so the
    # sequence value must equal the counting chain rule on label sets
    rng = np.random.default_rng(55)
    for _ in range(20):
        d = int(rng.integers(3, 7))
        steps = tuple(
            np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=d)))
            for _ in range(2)
        )
        m = Model(d, 1, TimeGrid((0.0, 1.0, 2.0)), steps)
        fam = identity_family(d, 3)
        x = set(int(i) for i in rng.choice(d, size=rng.integers(1, d), replace=False))
        y1 = set(int(i) for i in rng.choice(d, size=rng.integers(1, d), replace=False))
        y2 = set(int(i) for i in rng.choice(d, size=rng.integers(1, d), replace=False))
        if not x & y1:
            y1 |= {next(iter(x))}
        cond = ConditionSpec(m, fam, _diag_projector(sorted(x), d), 0)
        value = prob_sequence(
            cond, _diag_projector(sorted(y1), d), 1, _diag_projector(sorted(y2), d), 2
        ).value
        chain = (len(x & y1) / len(x)) * (len(x & y1 & y2) / len(x & y1))
        assert abs(value - chain) <= 1e-9


def test_probability_results_carry_rule_names():
    rng = np.random.default_rng(56)
    m = random_model(rng, 2, 2, n_indices=3)
    fam = identity_family(4, 3)
    px = _diag_projector([0], 2)
    cond = ConditionSpec(m, fam, px, 1)
    assert prob_forward(cond, px, 1).rule == "forward"
    res = prob_approx(ConditionSpec(m, fam, px, 2), px, 1)
    assert res.rule == "approx" and res.warnings


def test_full_space_predicate_must_be_a_projector():
    ref = build_reference_experiment()
    cond = ref.condition("I", ref.T0)
    with pytest.raises(DomainError):
        prob_forward(cond, 0.5 * np.eye(ref.model.dim), ref.T1)
    # a full-space projector is taken as already lifted
    lifted = lift_system1(ref.model, ref.predicate("Fup"), ref.T1)
    assert (prob_forward(cond, lifted, ref.T1).value
            == prob_forward(cond, ref.predicate("Fup"), ref.T1).value)
