"""Trimming, observable representations, start times, and the condition
operator."""

import numpy as np
import pytest

from physborn import condition, linalg
from physborn.born import prob_forward
from physborn.condition import (
    ConditionSpec,
    StartTime,
    check_k0,
    condition_operator,
    observable_rep,
    start_time,
    support_at,
    trimmed,
)
from physborn.errors import (
    DomainError,
    NotPhysicallyPossibleError,
    UnreachableConditionError,
)
from physborn.model import Model, PhysicalFamily, TimeGrid, physical_restrict, schrodinger

from conftest import (
    expanded_condition_operator,
    random_nested_family,
    random_span_projector,
    random_unitary,
)


def _trivial_model(rng, d, n_indices):
    """Identity dynamics with a trivial system2 factor; the family
    carries all the structure."""
    return Model(d, 1, TimeGrid(tuple(float(t) for t in range(n_indices))),
                 (np.eye(d, dtype=complex),) * (n_indices - 1))


def test_trimming_collapse_on_random_families():
    # trimming at k1 of an operator already trimmed at k2 >= k1 equals
    # trimming at k1 directly
    rng = np.random.default_rng(40)
    for _ in range(50):
        d = int(rng.integers(3, 10))
        fam = random_nested_family(rng, d, 3)
        x = random_span_projector(rng, d, int(rng.integers(1, d)))
        for k1, k2 in ((0, 1), (0, 2), (1, 2)):
            once = fam.at(k1) @ x @ fam.at(k1)
            twice = fam.at(k1) @ (fam.at(k2) @ x @ fam.at(k2)) @ fam.at(k1)
            assert np.max(np.abs(once - twice)) <= 1e-9


def test_equal_sandwich_lemma_on_random_families():
    # whenever P(k1) X P(k1) = P(k2) X P(k2), also X P(k1) X = X P(k2) X;
    # arranged here by keeping the family constant over the early indices
    rng = np.random.default_rng(41)
    for _ in range(50):
        d = int(rng.integers(3, 10))
        u = random_unitary(rng, d)
        r = int(rng.integers(1, d))
        p_early = u[:, :r] @ u[:, :r].conj().T
        p_late = u[:, :min(d, r + 1)] @ u[:, :min(d, r + 1)].conj().T
        fam = PhysicalFamily((p_early, p_early, p_late))
        x = random_span_projector(rng, d, int(rng.integers(1, d)))
        b1 = fam.at(0) @ x @ fam.at(0)
        b2 = fam.at(1) @ x @ fam.at(1)
        assert np.max(np.abs(b1 - b2)) <= 1e-9  # premise, by construction
        a1 = x @ fam.at(0) @ x
        a2 = x @ fam.at(1) @ x
        assert np.max(np.abs(a1 - a2)) <= 1e-9


def test_condition_spec_validation():
    rng = np.random.default_rng(42)
    m = _trivial_model(rng, 4, 2)
    proj = np.diag([1.0, 0, 0, 0]).astype(complex)
    fam = PhysicalFamily((proj, proj))
    # orthogonal to the family: no overlap
    with pytest.raises(NotPhysicallyPossibleError):
        ConditionSpec(m, fam, np.diag([0, 1.0, 0, 0]).astype(complex), 1)


def test_trimmed_index_guard():
    rng = np.random.default_rng(43)
    m = _trivial_model(rng, 4, 3)
    fam = PhysicalFamily((np.eye(4, dtype=complex),) * 3)
    cond = ConditionSpec(m, fam, np.diag([1.0, 0, 0, 0]).astype(complex), 1)
    with pytest.raises(IndexError):
        trimmed(cond, 2)


def test_support_at_unreachable():
    rng = np.random.default_rng(44)
    m = _trivial_model(rng, 4, 2)
    early = np.diag([1.0, 0, 0, 0]).astype(complex)
    late = np.diag([1.0, 1.0, 0, 0]).astype(complex)
    fam = PhysicalFamily((early, late))
    cond = ConditionSpec(m, fam, np.diag([0, 1.0, 0, 0]).astype(complex), 1)
    with pytest.raises(UnreachableConditionError):
        support_at(cond, 0)
    assert np.max(np.abs(support_at(cond, 1) - np.diag([0, 1.0, 0, 0]))) < 1e-9


def test_observable_rep_diagonal_model():
    # d1=3 records, d2=1; permutation step sends label 0 -> label 1
    perm = np.zeros((3, 3), dtype=complex)
    perm[1, 0] = perm[0, 1] = perm[2, 2] = 1.0
    m = Model(3, 1, TimeGrid((0.0, 1.0)), (perm,))
    fam = PhysicalFamily((np.eye(3, dtype=complex),) * 2)
    cond = ConditionSpec(m, fam, np.diag([0, 1.0, 0]).astype(complex), 1)
    rep = observable_rep(cond)
    assert rep.labels_at(1) == frozenset({1})
    assert rep.labels_at(0) == frozenset({0})
    assert np.max(np.abs(rep.system1_projector(0) - np.diag([1.0, 0, 0]))) < 1e-12


def test_observable_rep_rejects_bad_basis():
    rng = np.random.default_rng(45)
    m = _trivial_model(rng, 4, 2)
    fam = PhysicalFamily((np.eye(4, dtype=complex),) * 2)
    cond = ConditionSpec(m, fam, np.diag([1.0, 0, 0, 0]).astype(complex), 1)
    with pytest.raises(DomainError):
        observable_rep(cond, basis1=np.ones((4, 4)))  # not unitary
    assert observable_rep(cond).labels_at(0) == frozenset({0})


def test_start_time_trimming_constancy():
    # family constant between 0 and 1, then grows: trimming demand holds
    # through index 1
    u = np.eye(4, dtype=complex)
    early = u[:, :1] @ u[:, :1].conj().T
    late = u[:, :3] @ u[:, :3].conj().T
    m = Model(4, 1, TimeGrid((0.0, 1.0, 2.0)),
              (np.eye(4, dtype=complex),) * 2)
    fam = PhysicalFamily((early, early, late))
    cond = ConditionSpec(m, fam, np.diag([1.0, 1.0, 0, 0]).astype(complex), 2)
    ts = start_time(cond)
    assert ts.condition1_index == 1
    assert not ts.empty


def _quadratic_start_time(cond, rep=None):
    """The start index by definition: every index is checked against
    every earlier one, and the latest qualifying index wins."""
    def demand1(k):
        tk = trimmed(cond, k)
        return all(linalg.approx_equal(trimmed(cond, t), tk, cond.tol) for t in range(k))

    def demand2(k):
        px = rep.projector(k)
        return linalg.approx_equal(physical_restrict(cond.model, cond.fam, px, k), px, cond.tol)

    cond1 = [k for k in range(cond.k_c + 1) if demand1(k)]
    k1 = max(cond1)
    if rep is None:
        return StartTime(k1, False, k1)
    joint = [k for k in cond1 if demand2(k)]
    if not joint:
        return StartTime(0, True, k1)
    return StartTime(max(joint), False, k1)


def _drifting_condition(rng):
    """A condition on random dynamics whose family drifts by a random walk
    of tiny rotations (steps of 1e-10 to 3e-9, either sign) and sometimes
    gains a rank, so trimmed operators at different indices differ by
    amounts on both sides of eps_zero."""
    d = int(rng.integers(3, 8))
    n = int(rng.integers(3, 10))
    u = random_unitary(rng, d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w, v = np.linalg.eigh(a + a.conj().T)
    w = w / np.max(np.abs(w))
    theta = np.cumsum(rng.choice((-1.0, 1.0), n) * rng.uniform(1e-10, 3e-9, n))

    def rotated(cols, k):
        b = (v * np.exp(-1j * theta[k] * w)) @ v.conj().T @ u[:, cols]
        return b @ b.conj().T

    rank, projs = int(rng.integers(1, d)), []
    for k in range(n):
        projs.append(rotated(list(range(rank)), k))
        if rank < d and rng.random() < 0.3:
            rank += 1
    k_c = n - 1
    m = Model(d, 1, TimeGrid(tuple(float(t) for t in range(n))),
              tuple(random_unitary(rng, d) for _ in range(n - 1)))
    cols = [0] + [i for i in range(1, d) if rng.random() < 0.5]
    x1 = schrodinger(m, rotated(cols, k_c), k_c)
    return ConditionSpec(m, PhysicalFamily(tuple(projs)), (x1 + x1.conj().T) / 2, k_c)


def test_start_time_matches_quadratic_oracle_on_drifting_families():
    rng = np.random.default_rng(46)
    non_transitive, kinds = 0, set()
    for _ in range(300):
        cond = _drifting_condition(rng)
        expected = _quadratic_start_time(cond)
        assert start_time(cond) == expected
        kinds.add((expected.index == 0, expected.index == cond.k_c))
        # an index after T_s whose trimmed operator still matches index 0:
        # a scan that compares with index 0 alone would accept it
        t0 = trimmed(cond, 0)
        non_transitive += any(
            linalg.approx_equal(t0, trimmed(cond, k), cond.tol)
            for k in range(expected.index + 1, cond.k_c + 1)
        )
    assert non_transitive > 0
    assert kinds == {(True, False), (False, False), (False, True)}


def test_start_time_computed_once_per_condition(monkeypatch):
    calls = []
    original = condition.trimmed

    def counting(cond, k):
        calls.append(k)
        return original(cond, k)

    monkeypatch.setattr(condition, "trimmed", counting)
    rng = np.random.default_rng(47)
    m = _trivial_model(rng, 4, 6)
    fam = PhysicalFamily((np.eye(4, dtype=complex),) * 6)
    x1 = np.diag([1.0, 0, 0, 0]).astype(complex)
    cond = ConditionSpec(m, fam, x1, 5)
    # constant trimming: T_s = k_c after one product per index
    assert start_time(cond) == StartTime(5, False, 5)
    assert sorted(calls) == list(range(6))
    calls.clear()
    assert start_time(cond) == StartTime(5, False, 5)
    check_k0(cond, 5)
    condition_operator(cond, 3)
    prob_forward(cond, x1, 5, k0=2)
    assert calls == []


def _swap_model():
    """d1 = d2 = 2, identity first step, then a step that flips system1
    when system2 is 1."""
    flip = np.zeros((4, 4), dtype=complex)
    flip[0, 0] = flip[3, 1] = flip[2, 2] = flip[1, 3] = 1.0
    return Model(2, 2, TimeGrid((0.0, 1.0, 2.0)), (np.eye(4, dtype=complex), flip))


def test_start_time_demand2_joint_below_condition1():
    m = _swap_model()
    fam = PhysicalFamily((np.diag([1.0, 1.0, 0, 0]).astype(complex),) * 3)  # span{|00>, |01>}
    cond = ConditionSpec(m, fam, np.diag([1.0, 0]).astype(complex), 2)
    rep = observable_rep(cond)
    # trimming is |00><00| throughout, but X(2) lifts to span{|00>, |11>},
    # which leaves the physical subspace
    assert start_time(cond) == StartTime(2, False, 2)
    ts = start_time(cond, rep)
    assert ts == StartTime(1, False, 2)
    assert ts == _quadratic_start_time(cond, rep)


def test_start_time_demand2_empty_joint_set():
    m = Model(2, 2, TimeGrid((0.0, 1.0, 2.0)), (np.eye(4, dtype=complex),) * 2)
    fam = PhysicalFamily((np.diag([1.0, 0, 0, 0]).astype(complex),) * 3)
    cond = ConditionSpec(m, fam, np.diag([1.0, 0]).astype(complex), 2)
    rep = observable_rep(cond)
    # X(k) = label 0 lifts to span{|00>, |01>}, never inside span{|00>}
    ts = start_time(cond, rep)
    assert ts == StartTime(0, True, 2)
    assert ts == _quadratic_start_time(cond, rep)


def test_condition_operator_k0_guard_and_invariance():
    u = np.eye(4, dtype=complex)
    fam = PhysicalFamily((
        u[:, :1] @ u[:, :1].conj().T,
        u[:, :2] @ u[:, :2].conj().T,
        u[:, :3] @ u[:, :3].conj().T,
    ))
    m = Model(4, 1, TimeGrid((0.0, 1.0, 2.0)), (np.eye(4, dtype=complex),) * 2)
    cond = ConditionSpec(m, fam, np.diag([1.0, 0, 0, 0]).astype(complex), 2)
    # trimmed changes between 0 and 1? here X = e0 only, so trimming is
    # constant and every k0 <= k_c qualifies
    ts = start_time(cond)
    ops = [condition_operator(cond, k0) for k0 in range(ts.condition1_index + 1)]
    for op in ops[1:]:
        assert np.max(np.abs(op - ops[0])) <= 1e-9
    # a condition that accumulates information right away gets a strict
    # guard: its trimmed operator grows between index 0 and 1
    cond2 = ConditionSpec(m, fam, np.diag([1.0, 1.0, 0, 0]).astype(complex), 2)
    ts2 = start_time(cond2)
    assert ts2.condition1_index == 0
    with pytest.raises(DomainError):
        condition_operator(cond2, 1)


def test_expanded_condition_operator_guard():
    u = np.eye(4, dtype=complex)
    fam = PhysicalFamily((u[:, :2] @ u[:, :2].conj().T,) * 3)
    m = Model(4, 1, TimeGrid((0.0, 1.0, 2.0)), (np.eye(4, dtype=complex),) * 2)
    cond = ConditionSpec(m, fam, np.diag([1.0, 0, 0, 0]).astype(complex), 2)
    lhs = condition_operator(cond, 0)
    rhs = expanded_condition_operator(cond, 0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9
    with pytest.raises(DomainError):
        expanded_condition_operator(cond, 0, chain=[2])  # not strictly inside
