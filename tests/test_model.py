"""Model, propagators, and physical-family validation."""

import numpy as np
import pytest

from physborn import linalg
from physborn.errors import (
    DomainError,
    NotPhysicallyPossibleError,
    ShapeError,
    ValidationError,
)
from physborn.model import (
    Model,
    PhysicalFamily,
    TimeGrid,
    cumulative_propagator,
    forward_closure,
    heisenberg,
    is_physically_possible,
    lift_system1,
    lift_system2,
    physical_restrict,
    schrodinger,
    validate_family,
)

from conftest import (
    check_self_consistency,
    identity_family,
    random_model,
    random_nested_family,
    random_unitary,
)


def test_time_grid_validation():
    with pytest.raises(ValidationError):
        TimeGrid((0.0,))
    with pytest.raises(ValidationError):
        TimeGrid((0.0, 0.0))
    with pytest.raises(ValidationError):
        TimeGrid((1.0, 0.5))
    g = TimeGrid((0.0, 1.5, 3.0))
    assert len(g) == 3 and g.n_steps == 2
    assert g.check_index(2) == 2
    with pytest.raises(IndexError):
        g.check_index(3)
    with pytest.raises(IndexError):
        g.check_index(-1)


def test_time_grid_refuses_non_finite_times():
    # NaN compares false both ways, so the ordering check cannot catch it
    for times in ((0.0, float("nan"), 2.0), (0.0, 1.0, float("inf")),
                  (-float("inf"), 1.0), (0.0, 10 ** 400)):
        with pytest.raises(ValidationError, match="time grid labels must be finite"):
            TimeGrid(times)
    assert TimeGrid((-1e300, 0.0, 1e300)).times == (-1e300, 0.0, 1e300)


def test_model_rejects_bad_steps():
    g = TimeGrid((0.0, 1.0, 2.0))
    eye = np.eye(4, dtype=complex)
    with pytest.raises(ValidationError):
        Model(2, 2, g, (eye,))  # wrong count
    with pytest.raises(ValidationError):
        Model(2, 2, g, (eye, 2 * eye))  # not unitary
    with pytest.raises(ValidationError):
        Model(0, 2, g, (eye, eye))


def test_cumulative_propagator_composition():
    rng = np.random.default_rng(30)
    m = random_model(rng, 2, 3, n_indices=4)
    v = np.eye(6, dtype=complex)
    for k in range(4):
        assert np.max(np.abs(cumulative_propagator(m, k) - v)) < 1e-12
        if k < 3:
            v = m.steps[k] @ v


def test_heisenberg_schrodinger_roundtrip():
    rng = np.random.default_rng(31)
    m = random_model(rng, 2, 2)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for k in range(m.n_indices):
        back = schrodinger(m, heisenberg(m, a, k), k)
        assert np.max(np.abs(back - a)) < 1e-10
    # index 0 is the reference frame
    assert np.max(np.abs(heisenberg(m, a, 0) - a)) < 1e-12


def test_lift_structure_and_commutation():
    rng = np.random.default_rng(32)
    m = random_model(rng, 3, 2)
    u = random_unitary(rng, 3)
    p1 = u[:, :1] @ u[:, :1].conj().T
    u2 = random_unitary(rng, 2)
    p2 = u2[:, :1] @ u2[:, :1].conj().T
    l1 = lift_system1(m, p1)
    l2 = lift_system2(m, p2)
    assert np.max(np.abs(l1 - np.kron(p1, np.eye(2)))) < 1e-12
    assert linalg.commutes(l1, l2, m.tol)
    with pytest.raises(ShapeError):
        lift_system1(m, p2)
    with pytest.raises(DomainError):
        lift_system1(m, 0.3 * p1)


def test_validate_family_random_nested():
    rng = np.random.default_rng(33)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2, 5))
        fam = random_nested_family(rng, d, n)
        m = Model(1, d, TimeGrid(tuple(float(t) for t in range(n))),
                  (np.eye(d, dtype=complex),) * (n - 1))
        assert validate_family(m, fam).passed
        # nesting is directional: reversing the family must fail unless
        # all ranks happened to be equal
        rev = PhysicalFamily(tuple(reversed(fam.projectors)))
        ranks = [linalg.rank_of(p, m.tol) for p in fam.projectors]
        if len(set(ranks)) > 1:
            assert not validate_family(m, rev).passed


def test_validate_family_reports_violating_pair():
    d = 4
    u = np.eye(d, dtype=complex)
    p_small = u[:, :1] @ u[:, :1].conj().T
    p_other = u[:, 1:3] @ u[:, 1:3].conj().T
    m = Model(1, d, TimeGrid((0.0, 1.0)), (np.eye(d, dtype=complex),))
    rep = validate_family(m, PhysicalFamily((p_small, p_other)))
    assert not rep.passed
    assert (0, 1) in rep.nesting_violations


def test_forward_closure_nesting_and_ranks():
    rng = np.random.default_rng(34)
    m = random_model(rng, 2, 3, n_indices=4)
    init = [rng.standard_normal(6) + 1j * rng.standard_normal(6)]
    extras = {2: [rng.standard_normal(6) + 1j * rng.standard_normal(6)]}
    fam = forward_closure(m, init, extras)
    assert validate_family(m, fam).passed
    ranks = [linalg.rank_of(p, m.tol) for p in fam.projectors]
    assert ranks == sorted(ranks)
    assert ranks[0] == 1 and ranks[2] == 2


def test_forward_closure_input_checks():
    rng = np.random.default_rng(35)
    m = random_model(rng, 2, 2)
    with pytest.raises(DomainError):
        forward_closure(m, [])
    with pytest.raises(ShapeError):
        forward_closure(m, [np.ones(3)])
    for k in (0, 3, -3):    # extras exist only at indices 1..2
        with pytest.raises(DomainError, match="extras"):
            forward_closure(m, [np.ones(4)], {k: [np.ones(4)]})


def test_physically_possible_and_restrict():
    d = 4
    m = Model(2, 2, TimeGrid((0.0, 1.0)), (np.eye(d, dtype=complex),))
    proj = np.diag([1.0, 0, 0, 0]).astype(complex)
    fam = PhysicalFamily((proj, proj))
    p_good = np.diag([1.0, 1.0, 0, 0]).astype(complex)
    assert is_physically_possible(m, fam, p_good, 0)
    assert np.max(np.abs(physical_restrict(m, fam, p_good, 0) - proj)) < 1e-12
    # orthogonal predicate commutes but has no overlap
    p_zero = np.diag([0, 0, 1.0, 1.0]).astype(complex)
    assert not is_physically_possible(m, fam, p_zero, 0)
    # non-commuting predicate
    h = np.zeros((d, d), dtype=complex)
    h[0, 1] = h[1, 0] = 1.0
    h[0, 0] = h[1, 1] = 1.0
    p_bad = h / 2
    assert not is_physically_possible(m, fam, p_bad, 0)
    with pytest.raises(NotPhysicallyPossibleError):
        physical_restrict(m, fam, p_bad, 0)


def test_check_self_consistency_identity_family():
    rng = np.random.default_rng(36)
    m = random_model(rng, 2, 2)
    fam = identity_family(4, m.n_indices)
    p = np.diag([1.0, 1.0, 0, 0]).astype(complex)
    assert check_self_consistency(m, fam, p, 0)
