"""Records by their labels.

A record projector, diagonal with every diagonal entry exactly 0 or 1
(``linalg.record_labels``), is lifted by gathering the rows of V(k) at
its labels, without a projector check, a basis search or a product; its
outcome set is checked from its labels by ``OutcomeSet.lifted``, the one
owner of that check and of the members' lifts; and the intermediate-full
rule holds each outcome as ``lift_predicate`` holds a condition, so "not this
record" enters by its complement's small basis.  These tests hold the
gathered lifts to the product lift of ``conftest`` bit for bit, the
label-based set check to the dense one verdict for verdict and message
for message, and the held-form rule to the range-form one within 1e-12.
"""

import ast
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import physborn
from physborn import linalg
from physborn.born import OutcomeSet, prob_intermediate_full
from physborn.condition import ConditionSpec
from physborn.errors import PhysbornError
from physborn.measurement import MeasurementProcess, outcome_probability
from physborn.model import Model, TimeGrid, lift_predicate, lift_system1, lift_system2
from physborn.scenarios import build_reference_experiment

from conftest import (
    bench_chain,
    chain_intermediate_full,
    dense_lift,
    dense_orthogonal_projectors,
    outcome_of,
    product_lift1,
    product_lift2,
    random_model,
    random_projector,
    range_intermediate_full,
)

TOL = 1e-12


def _records(n: int, rng) -> list:
    """One record of every size 0..n on n labels, the labels drawn at
    random."""
    return [linalg.diagonal_projector(rng.choice(n, size=size, replace=False), n)
            for size in range(n + 1)]


def _assert_lifts_equal(model, p1=None, p2=None) -> None:
    for k in range(model.n_indices):
        if p1 is not None:
            assert np.array_equal(lift_system1(model, p1, k), product_lift1(model, p1, k))
        if p2 is not None:
            assert np.array_equal(lift_system2(model, p2, k), product_lift2(model, p2, k))


def test_record_lifts_equal_the_product_lift_on_the_chain():
    c, model, _ = bench_chain()
    j = 6
    up, lost = c.records(j), c.records(c.lost(j))
    for p1 in (up, up + lost, np.eye(c.d1) - up - lost, np.eye(c.d1)):
        assert linalg.record_labels(p1) is not None
        _assert_lifts_equal(model, p1=p1)
    for p2 in _records(c.d2, np.random.default_rng(1)):
        _assert_lifts_equal(model, p2=p2)


def test_record_lifts_equal_the_product_lift_on_the_reference_scenario():
    ref = build_reference_experiment()
    for name, p1 in ref.predicates.items():
        if p1.shape == (ref.model.d1, ref.model.d1):
            assert linalg.record_labels(p1) is not None, name
            _assert_lifts_equal(ref.model, p1=p1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_record_lifts_equal_the_product_lift_on_haar_models(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, int(rng.integers(2, 7)), int(rng.integers(1, 5)), 3)
    for p1 in _records(model.d1, rng):
        _assert_lifts_equal(model, p1=p1)
    for p2 in _records(model.d2, rng):
        _assert_lifts_equal(model, p2=p2)


def test_near_records_pass_the_check_and_get_the_record_basis():
    rng = np.random.default_rng(7)
    model = random_model(rng, 5, 3, 3)
    exact1 = linalg.diagonal_projector([0, 2, 3], 5)
    near1 = exact1 + np.diag([-1e-12, 2e-12, 1e-12, -3e-12, 0])
    exact2 = linalg.diagonal_projector([1], 3)
    near2 = exact2 + np.diag([1e-12, -1e-12, 0])
    for exact, near in ((exact1, near1), (exact2, near2)):
        assert linalg.record_labels(near) is None
        assert linalg.is_projector(near, model.tol)
    _assert_lifts_equal(model, p1=near1, p2=near2)
    for k in range(model.n_indices):
        assert np.array_equal(lift_system1(model, near1, k), lift_system1(model, exact1, k))
        assert np.array_equal(lift_system2(model, near2, k), lift_system2(model, exact2, k))
        # the held complement of a near record is that of the record
        held, exact = lift_predicate(model, near1, k), lift_predicate(model, exact1, k)
        assert np.array_equal(held.block, exact.block)
        eye = np.eye(model.dim)
        assert np.array_equal(held.inside(eye), exact.inside(eye))


def test_non_records_keep_the_product_lift():
    rng = np.random.default_rng(8)
    model = random_model(rng, 4, 2, 3)
    for p1 in (random_projector(rng, 4, 2), np.diag([0.0, 1, 1, 0]) + 1e-13):
        assert linalg.record_labels(p1) is None
        _assert_lifts_equal(model, p1=p1)


def test_record_labels():
    assert linalg.record_labels(linalg.diagonal_projector([0, 3], 4)) == (0, 3)
    assert linalg.record_labels(np.zeros((3, 3), dtype=complex)) == ()
    assert linalg.record_labels(np.eye(2, dtype=complex)) == (0, 1)
    for not_record in (np.diag([1.0, 0.5]), np.diag([1.0, 1j]), np.diag([1.0, -1.0]),
                       np.array([[1.0, 1e-300], [0.0, 0.0]]), np.ones((2, 3)),
                       np.diag([1.0, 1 + 1e-16j])):
        assert linalg.record_labels(np.asarray(not_record, dtype=complex)) is None


def _projector_callers(monkeypatch) -> list:
    """The name of the function that calls ``linalg.is_projector``, per
    call."""
    callers, original = [], linalg.is_projector

    def counted(p, tol):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):     # a generator expression
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return original(p, tol)

    monkeypatch.setattr(linalg, "is_projector", counted)
    return callers


def test_chain_measurements_and_full_queries_check_no_record_densely(monkeypatch):
    c, model, fam = bench_chain()
    callers = _projector_callers(monkeypatch)
    s, t = 8, 9
    up = c.records(t)
    proc = MeasurementProcess(model, fam, c.records(s), s,
                              OutcomeSet((up, np.eye(c.d1) - up), t, complete=True))
    assert abs(sum(outcome_probability(proc, i) for i in range(2)) - 1) <= TOL
    j = 6
    up, lost = c.records(j), c.records(c.lost(j))
    cond = ConditionSpec(model, fam, c.records(s), s)
    outcomes = OutcomeSet((up, lost, np.eye(c.d1) - up - lost), j, complete=True)
    assert prob_intermediate_full(cond, outcomes, 0).value == pytest.approx(1.0, abs=TOL)
    # records are checked from their labels, so no lift checks a projector
    # and the outcome-set check, the one caller left, needs none either
    assert callers == []
    # a set that is not all records still goes through the dense check
    tilted = random_projector(np.random.default_rng(3), c.d1, 1)
    mixed = OutcomeSet((up, tilted), j)
    assert not outcome_of(lambda: mixed.lifted(model))[0]
    assert callers == ["orthogonal_projectors"] * 2


@st.composite
def _record_sets(draw):
    """A set of records on n labels, with a complete flag: random label
    subsets, disjoint covers and overlaps alike."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):     # a partition of a random subset of the labels
        owner = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
        sets = [[a for a in range(n) if owner[a] == i] for i in range(max(owner) + 1)]
    else:
        sets = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n),
                             min_size=1, max_size=4))
    if not sets:
        sets = [[]]
    return [linalg.diagonal_projector(sorted(set(a)), n) for a in sets], draw(st.booleans())


def _identity_model(n: int) -> Model:
    """d1 = n, d2 = 1 and one identity step: each member of an outcome set
    lifts to its own range."""
    return Model(n, 1, TimeGrid((0.0, 1.0)), (np.eye(n, dtype=complex),))


def _set_check(projs, complete: bool) -> tuple:
    """``OutcomeSet.lifted``'s check on an identity model, with the
    members' projectors, built from their held forms, when it passes."""
    model = _identity_model(projs[0].shape[0])
    return outcome_of(lambda: tuple(
        m.inside(np.eye(model.dim)) for m in OutcomeSet(projs, 0, complete).lifted(model)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_record_sets())
def test_label_set_check_matches_the_dense_check(case):
    projs, complete = case
    got = _set_check(projs, complete)
    want = outcome_of(lambda: dense_orthogonal_projectors(projs, complete, linalg.DEFAULT_TOL))
    assert got[0] == want[0]
    if got[0]:
        assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))
    else:
        assert got[1] == want[1]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_record_sets(), st.integers(0, 2**32 - 1))
def test_mixed_sets_keep_the_dense_check(case, seed):
    projs, complete = case
    n = projs[0].shape[0]
    rng = np.random.default_rng(seed)
    other = (random_projector(rng, n, int(rng.integers(0, n + 1))) if rng.random() < 0.5
             else np.diag(rng.choice((0.0, 0.5, 1.0), n)).astype(complex))
    projs = projs + [other]
    got = _set_check(projs, complete)
    want = outcome_of(lambda: dense_orthogonal_projectors(projs, complete, linalg.DEFAULT_TOL))
    assert got[0] == want[0] and (got[0] or got[1] == want[1])


def _agree(call, oracle) -> None:
    """Same value and numerator within TOL, or the same refusal."""
    got, want = outcome_of(call, (PhysbornError, IndexError)), \
        outcome_of(oracle, (PhysbornError, IndexError))
    assert got[0] == want[0], (got, want)
    if got[0]:
        assert abs(got[1].value - want[1].value) <= TOL
        assert abs(got[1].numerator - want[1].numerator) <= TOL
        assert abs(got[1].denominator - want[1].denominator) <= TOL
    else:
        assert got[1] == want[1]


def test_held_full_outcomes_match_the_range_form_on_the_chain():
    c, model, fam = bench_chain()
    for s in (4, 8, 12):
        cond = ConditionSpec(model, fam, c.records(s), s)
        for j in range(1, s):
            up, lost = c.records(j), c.records(c.lost(j))
            outcomes = OutcomeSet((up, lost, np.eye(c.d1) - up - lost), j, complete=True)
            assert lift_predicate(model, outcomes.projectors[2], j).block.shape[1] == 2 * c.d2
            for i in range(3):
                _agree(lambda: prob_intermediate_full(cond, outcomes, i),
                       lambda: range_intermediate_full(cond, outcomes, i))
                _agree(lambda: prob_intermediate_full(cond, outcomes, i),
                       lambda: chain_intermediate_full(cond, outcomes, i))


def test_held_full_outcomes_match_the_range_form_on_the_reference_scenario():
    ref = build_reference_experiment()
    cond = ref.condition("Fup", ref.T1)
    outcomes = OutcomeSet((ref.predicate("I"), ref.predicate("notI")), ref.T0, complete=True)
    for i in range(2):
        _agree(lambda: prob_intermediate_full(cond, outcomes, i),
               lambda: range_intermediate_full(cond, outcomes, i))
    # full-space outcomes keep the range form of lift_predicate
    full = OutcomeSet(tuple(dense_lift(ref.model, ref.predicate(name), ref.T0)
                            for name in ("I", "notI")), ref.T0, complete=True)
    for i in range(2):
        _agree(lambda: prob_intermediate_full(cond, full, i),
               lambda: prob_intermediate_full(cond, outcomes, i))
        _agree(lambda: prob_intermediate_full(cond, full, i),
               lambda: range_intermediate_full(cond, full, i))


def test_intermediate_full_refusals_keep_their_types_and_messages():
    ref = build_reference_experiment()
    cond = ref.condition("Fup", ref.T1)
    i, not_i = ref.predicate("I"), ref.predicate("notI")
    complete = OutcomeSet((i, not_i), ref.T0, complete=True)
    cases = [
        (OutcomeSet((i, not_i), ref.T0), 0, 0,
         "prob_intermediate_full needs a complete outcome set"),
        (OutcomeSet((i, i + not_i), ref.T0, complete=True), 0, 0,
         "outcome projectors must be pairwise orthogonal"),
        (OutcomeSet((i,), ref.T0, complete=True), 0, 0,
         "outcome set flagged complete does not sum to identity"),
        (complete, 2, 0, "outcome index 2 out of range"),
        (complete, -1, 0, "outcome index -1 out of range"),
        (complete, 0, ref.T0, "prob_intermediate_full requires k0 < k < k_c, got 1, 1, 2"),
        (complete, 0, ref.T1, "prob_intermediate_full requires k0 < k < k_c, got 2, 1, 2"),
    ]
    for outcomes, y_index, k0, message in cases:
        got = outcome_of(lambda: prob_intermediate_full(cond, outcomes, y_index, k0),
                         (PhysbornError, IndexError))
        assert not got[0] and re.fullmatch(re.escape(message), got[1][1]), got
        _agree(lambda: prob_intermediate_full(cond, outcomes, y_index, k0),
               lambda: range_intermediate_full(cond, outcomes, y_index, k0))


def _references(name: str) -> set:
    """(module, top-level definition) of every place in the package whose
    code names ``name``; None for a module-level statement."""
    found = set()
    for path in sorted(Path(physborn.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                named = (node.attr if isinstance(node, ast.Attribute)
                         else node.id if isinstance(node, ast.Name)
                         else node.name if isinstance(node, ast.alias) else None)
                if named == name:
                    found.add((path.stem, getattr(top, "name", None)))
    return found


def test_only_outcome_sets_check_and_hold_their_members():
    # an outcome set is checked by OutcomeSet.lifted, and the dense check is
    # left to the position cells of position_distribution
    assert _references("orthogonal_projectors") == {
        ("born", "OutcomeSet"), ("measurement", "position_distribution")}
    assert {module for module, _ in _references("_held")} == {"born"}
