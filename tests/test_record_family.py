"""Families of given projectors against the dense products.

``PhysicalFamily(projectors)`` keeps each P(k) by its size and labels
when every given projector is a record (diagonal, each entry exactly 0 or
1): a restriction gathers rows, a join scatters them, and the identity
hands a block back uncopied.  Any other given family keeps its matrices
for validation and applies each P(k) through the range basis of the
given matrix.  ``conftest.dense_family`` applies the same matrices as
dense d x d products; every verdict must be identical and every value
within 1e-12, on Haar, permutation and product steps, for conditions held
by their range and by their complement.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from physborn.born import prob_approx, prob_before, prob_forward, verifiable
from physborn.condition import ConditionSpec, start_time
from physborn.errors import ShapeError
from physborn.model import (
    Model,
    PhysicalFamily,
    TimeGrid,
    lift_predicate,
    validate_family,
)

from conftest import (
    dense_family,
    dense_validate_family,
    outcome_of,
    random_projector,
    random_unitary,
)


def _record(labels, d: int) -> np.ndarray:
    return np.diag(np.isin(np.arange(d), labels)).astype(complex)


def _labels(rng, d: int, n: int, kind: str) -> list:
    """Label sets of n nested records on d indices: every index
    ("identity"), or a random set of 0..d labels that grows at random
    ("growing"), with one label that an earlier index has removed from a
    later one ("non-nested")."""
    if kind == "identity":
        return [list(range(d))] * n
    order = rng.permutation(d)
    sizes = np.sort(rng.integers(0, d + 1, size=n))
    sets = [sorted(order[:s].tolist()) for s in sizes]
    if kind == "non-nested":
        k = int(rng.integers(1, n))
        if sets[k - 1] and len(sets[k]) > 1:
            sets[k] = [l for l in sets[k] if l != sets[k - 1][0]]
    return sets


def _predicate(rng, d1: int, rank: int) -> np.ndarray:
    """A system1 projector of the given rank: a record or a Haar one.
    Above d1/2 it is lifted by its complement."""
    if rng.random() < 0.5:
        return _record(rng.choice(d1, size=rank, replace=False), d1)
    return random_projector(rng, d1, rank)


def _same(got: tuple, want: tuple, atol: float) -> None:
    """Two ``outcome_of`` results: the same refusal, or probability results
    whose numbers agree within ``atol`` and whose rule and warnings match."""
    assert got[0] == want[0]
    if not got[0]:
        assert got[1] == want[1]
        return
    a, b = got[1], want[1]
    assert (a.rule, a.warnings) == (b.rule, b.warnings)
    np.testing.assert_allclose([a.value, a.numerator, a.denominator],
                               [b.value, b.numerator, b.denominator], rtol=0, atol=atol)


def _compare_with_dense(rng, model: Model, projectors, atol: float = 1e-12) -> None:
    """The family of the given projectors against ``dense_family`` of the
    same matrices: equal validation reports, and for three random
    conditions (held by their range or their complement) identical
    possibility verdicts at every index, refusals, start indices and
    verifiability verdicts, and forward, before (k0 > 0) and approximate
    values within ``atol``."""
    d1, n = model.d1, model.n_indices
    fam, dense = PhysicalFamily(projectors), dense_family(projectors)
    assert all(map(np.array_equal, fam.projectors, projectors))
    assert validate_family(model, fam) == validate_family(model, dense) \
        == dense_validate_family(model, dense)
    for _ in range(3):
        x1 = _predicate(rng, d1, int(rng.integers(1, d1 + 1)))
        k_c = int(rng.integers(n))
        for k in range(n):
            lifted = lift_predicate(model, x1, k)
            assert lifted.is_possible(fam, k) == lifted.is_possible(dense, k)
        got = outcome_of(lambda: ConditionSpec(model, fam, x1, k_c))
        want = outcome_of(lambda: ConditionSpec(model, dense, x1, k_c))
        assert got[0] == want[0]
        if not got[0]:
            assert got[1] == want[1]
            continue
        cond, ref = got[1], want[1]
        ts = start_time(cond)
        assert ts == start_time(ref)
        y1 = _predicate(rng, d1, int(rng.integers(1, d1 + 1)))
        k = int(rng.integers(n))
        y = lift_predicate(model, y1, k)
        assert verifiable(cond, y, k) == verifiable(ref, y, k)
        k0 = int(rng.integers(1, max(ts.condition1_index, 1) + 1))   # refused past T_s
        for rule, args in (
            (prob_forward, (y1, int(rng.integers(k_c, n)))),
            (prob_before, (y1, int(rng.integers(0, k0 + 1)), k0)),
            (prob_approx, (y1, int(rng.integers(0, k_c)) if k_c else 0)),
        ):
            _same(outcome_of(lambda: rule(cond, *args)), outcome_of(lambda: rule(ref, *args)),
                  atol)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(d1=st.integers(2, 4), d2=st.integers(1, 3), n=st.integers(2, 5),
       family=st.sampled_from(("identity", "growing", "non-nested")),
       steps=st.sampled_from(("haar", "permutation")),
       seed=st.integers(0, 2**32 - 1))
@example(d1=4, d2=2, n=4, family="identity", steps="haar", seed=0)
@example(d1=3, d2=2, n=4, family="growing", steps="permutation", seed=1)
def test_a_record_family_matches_the_dense_oracle(d1, d2, n, family, steps, seed):
    rng = np.random.default_rng(seed)
    d = d1 * d2
    us = [random_unitary(rng, d) if steps == "haar"
          else np.eye(d, dtype=complex)[rng.permutation(d)] for _ in range(n - 1)]
    model = Model(d1, d2, TimeGrid(tuple(float(t) for t in range(n))), tuple(us))
    projectors = [_record(labels, d) for labels in _labels(rng, d, n, family)]
    assert PhysicalFamily(projectors)._projectors is None     # framed by its labels
    _compare_with_dense(rng, model, projectors)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(d1=st.integers(2, 3), d2=st.integers(2, 4), n=st.integers(2, 4),
       kind=st.sampled_from(("product", "haar")), noise=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(d1=2, d2=4, n=3, kind="product", noise=True, seed=0)
@example(d1=3, d2=2, n=3, kind="haar", noise=False, seed=1)
def test_a_given_non_record_family_matches_the_dense_oracle(d1, d2, n, kind, noise, seed):
    # Nested P(k) = U_k U_k^dagger given densely, at ranks below, at and
    # above d/2.  A "product" family I (x) Q(k) under steps u1 (x) u2
    # commutes with every lifted system1 predicate, so its conditions are
    # possible and reach the rules; a "haar" family under Haar steps
    # mostly refuses them.  With ``noise`` each P(k) carries Hermitian
    # noise of at most 1e-11 per entry, a projector within eps_zero.  The
    # family applies the exact projector onto the given matrix's range
    # while the oracle applies the matrix as given: two operators apart by
    # about the noise, at most d times 1e-11 in norm, so values are
    # compared within ten times that; every verdict is still identical.
    rng = np.random.default_rng(seed)
    d = d1 * d2
    if kind == "product":
        us = [np.kron(random_unitary(rng, d1), random_unitary(rng, d2)) for _ in range(n - 1)]
        q, ranks = random_unitary(rng, d2), np.sort(rng.integers(1, d2 + 1, size=n))
        projectors = [np.kron(np.eye(d1), q[:, :r] @ q[:, :r].conj().T) for r in ranks]
    else:
        us = [random_unitary(rng, d) for _ in range(n - 1)]
        q, ranks = random_unitary(rng, d), np.sort(rng.integers(1, d + 1, size=n))
        projectors = [q[:, :r] @ q[:, :r].conj().T for r in ranks]
    if noise:
        for p in projectors:
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h += h.conj().T
            p += 1e-11 * h / np.max(np.abs(h))
    model = Model(d1, d2, TimeGrid(tuple(float(t) for t in range(n))), tuple(us))
    assert PhysicalFamily(projectors)._projectors is not None  # kept as given
    _compare_with_dense(rng, model, projectors, 10 * d * 1e-11 if noise else 1e-12)


def test_a_record_family_keeps_its_projectors_and_applies_them_bitwise():
    rng = np.random.default_rng(25)
    d1, d2 = 4, 3
    d = d1 * d2
    model = Model(d1, d2, TimeGrid((0.0, 1.0, 2.0)),
                  tuple(random_unitary(rng, d) for _ in range(2)))
    projectors = [_record([1, 4, 7], d), _record([0, 1, 4, 7, 9], d), np.eye(d, dtype=complex)]
    fam = PhysicalFamily(projectors)
    assert all(map(np.array_equal, fam.projectors, projectors))
    for k, p in enumerate(projectors):
        w = lift_predicate(model, _record([0, 2], d1), k).block     # held by its range
        assert np.array_equal(fam.apply(k, w), p @ w)
    w = lift_predicate(model, _record([1], d1), 2).block
    assert fam.apply(2, w) is w         # the identity hands the block back
    with pytest.raises(ShapeError):
        fam.apply(0, np.ones((d + 1, 2), dtype=complex))


def test_a_family_with_one_non_record_is_validated_as_given():
    # a 2e-9 near miss, or records of two sizes, among records
    d = 6
    near = _record([0, 1], d)
    near[0, 1] = near[1, 0] = 2e-9
    model = Model(3, 2, TimeGrid((0.0, 1.0, 2.0)), (np.eye(d),) * 2)
    for projectors, by_labels in (([near, _record([0, 1, 2], d), np.eye(d)], False),
                                  ([_record([0], d), _record([0, 1], d + 1), np.eye(d)], True)):
        fam = PhysicalFamily(projectors)
        assert (fam._projectors is None) == by_labels
        report = validate_family(model, fam)
        assert report == dense_validate_family(model, dense_family(projectors))
        assert not report.passed
