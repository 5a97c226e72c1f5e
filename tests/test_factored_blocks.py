"""The factored computation against its dense oracles.

The library keeps the family, every condition and every support as
orthonormal range bases and computes on d x r blocks.  These tests run it
next to the dense d x d formulas kept in ``conftest`` (the earlier library
bodies) on generated recording models, with their forward-closure family
and with the same family given as explicit projectors, on identity
families with non-diagonal predicates, and on the reference model.  They
also pin what the factoring is for: one trimming per intermediate-full
call, and a family and conditions that hold O(d r) numbers, not O(d^2).
"""

import gc
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from physborn.born import (
    OutcomeSet,
    prob_approx,
    prob_before,
    prob_forward,
    prob_intermediate_full,
    prob_intermediate_known,
    prob_sequence,
)
from physborn.condition import (
    ConditionSpec,
    condition_operator,
    start_time,
    support_at,
    trimmed,
)
from physborn.errors import NotPhysicallyPossibleError
from physborn.measurement import MeasurementProcess, kappa_path
from physborn.model import (
    Model,
    PhysicalFamily,
    TimeGrid,
    forward_closure,
    is_physically_possible,
)
from physborn.scenarios import build_reference_experiment
from physborn.verify import verifiability, verify_trace_identity, w_subspace, z_subspace

from conftest import (
    INDEX_REFUSALS,
    chain_approx,
    chain_before,
    chain_forward,
    chain_intermediate_full,
    chain_intermediate_known,
    chain_sequence,
    dense_condition_operator,
    dense_kappas,
    dense_lift,
    dense_support_at,
    dense_trace_identity,
    dense_trimmed,
    dense_verifiability_norms,
    dense_zw_subspace,
    identity_family,
    outcome_of,
    random_model,
    random_projector,
    random_record_projector,
    random_unitary,
    recording_model,
)

VALUE_TOL = 1e-12


def _same(call, oracle, close) -> bool:
    """Both answer and ``close`` holds for the answers, or both refuse
    with the same exception type and message.  True when both answered."""
    ok, got = outcome_of(call, INDEX_REFUSALS)
    ok_o, want = outcome_of(oracle, INDEX_REFUSALS)
    assert ok == ok_o, (got, want)
    if ok:
        assert close(got, want), (got, want)
    else:
        assert got == want
    return ok


def _results_close(a, b) -> bool:
    return (a.rule, a.warnings) == (b.rule, b.warnings) and all(
        abs(getattr(a, f) - getattr(b, f)) <= VALUE_TOL
        for f in ("value", "numerator", "denominator"))


def _within(bound):
    def close(a, b):
        if isinstance(a, tuple):
            return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
        return np.shape(a) == np.shape(b) and np.max(np.abs(np.asarray(a) - b), initial=0) <= bound
    return close


def _instance(kind: str, seed: int):
    """(model, family, system1 predicates) of one kind."""
    rng = np.random.default_rng(seed)
    if kind == "reference":
        ref = build_reference_experiment()
        return ref.model, ref.fam, list(ref.predicates.values()), rng
    if kind == "identity":
        d1, d2, n = int(rng.integers(2, 4)), int(rng.integers(1, 4)), int(rng.integers(3, 5))
        model = random_model(rng, d1, d2, n)
        preds = [random_projector(rng, d1, int(rng.integers(1, d1))) for _ in range(4)]
        return model, identity_family(model.dim, n), preds, rng
    model, fam = recording_model(rng)
    if kind == "explicit":
        fam = PhysicalFamily(fam.projectors)
    # records commute with the family; a rotated projector mostly does not
    preds = [random_record_projector(rng, model.d1) for _ in range(4)]
    preds.append(random_projector(rng, model.d1, int(rng.integers(1, model.d1))))
    return model, fam, preds, rng


def _check_condition(cond, preds, rng):
    model, n, k_c = cond.model, cond.model.n_indices, cond.k_c
    tol = cond.tol
    answered = 0
    for k in range(n):
        if k <= k_c:
            _same(lambda: trimmed(cond, k), lambda: dense_trimmed(cond, k), _within(VALUE_TOL))
            _same(lambda: support_at(cond, k), lambda: dense_support_at(cond, k),
                  _within(tol.eps_zero))
    for k0 in range(n + 1):
        _same(lambda: condition_operator(cond, k0), lambda: dense_condition_operator(cond, k0),
              _within(VALUE_TOL))
    y = preds[int(rng.integers(len(preds)))]
    k = int(rng.integers(n))
    k0 = int(rng.integers(n))
    y2, k2 = preds[int(rng.integers(len(preds)))], int(rng.integers(n))
    rules = [
        (prob_forward, chain_forward, (cond, y, k, k0)),
        (prob_before, chain_before, (cond, y, k, k0)),
        (prob_approx, chain_approx, (cond, y, k)),
        (prob_intermediate_known, chain_intermediate_known, (cond, y, k, k0)),
        (prob_sequence, chain_sequence, (cond, y, k, y2, k2, k0)),
    ]
    complete = OutcomeSet((y, np.eye(model.d1) - y), k, complete=True)
    rules += [(prob_intermediate_full, chain_intermediate_full, (cond, complete, i, k0))
              for i in range(2)]
    for rule, oracle, args in rules:
        answered += _same(lambda: rule(*args), lambda: oracle(*args), _results_close)

    # verdicts, Z, W and the trace identity
    single = OutcomeSet((y,), k)

    def dense_verdicts():
        if k == k_c:
            return verifiability(cond, single)      # the refusal needs no oracle
        py = dense_lift(model, y, k)
        phys, cnd = dense_verifiability_norms(cond, py, k)
        return phys, cnd, max(phys, cnd) <= tol.eps_zero

    def verdicts():
        v = verifiability(cond, single).outcomes[0]
        return v.commutator_physical, v.commutator_condition, v.verdict

    _same(verdicts, dense_verdicts,
          lambda a, b: a[2] == b[2] and _within(VALUE_TOL)(a[:2], b[:2]))
    _same(lambda: z_subspace(cond, y, k), lambda: dense_zw_subspace(cond, y, k, False),
          _within(tol.eps_zero))
    _same(lambda: w_subspace(cond, y, k), lambda: dense_zw_subspace(cond, y, k, True),
          _within(tol.eps_zero))
    _same(lambda: verify_trace_identity(cond, complete, k0),
          lambda: dense_trace_identity(cond, complete, k0), _within(VALUE_TOL))

    # kappas of a measurement from the condition to a later complete set
    if k_c + 1 < n:
        k2 = int(rng.integers(k_c + 1, n))
        try:
            proc = MeasurementProcess(model, cond.fam, cond.x1, k_c,
                                      OutcomeSet((y, np.eye(model.d1) - y), k2, complete=True))
        except NotPhysicallyPossibleError:   # an outcome that does not commute
            return answered
        for i in range(2):
            for rep in ("support", "observable"):
                _same(lambda: kappa_path(proc, i, rep).kappas,
                      lambda: dense_kappas(proc, i, rep), _within(VALUE_TOL))
    return answered


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(kind=st.sampled_from(["recording", "explicit", "identity", "reference"]),
       seed=st.integers(0, 2**32 - 1))
def test_factored_paths_match_the_dense_oracles(kind, seed):
    model, fam, preds, rng = _instance(kind, seed)
    for _ in range(3):
        x = preds[int(rng.integers(len(preds)))]
        k_c = int(rng.integers(model.n_indices))
        possible = is_physically_possible(model, fam, dense_lift(model, x, k_c), k_c)
        try:
            cond = ConditionSpec(model, fam, x, k_c)
        except NotPhysicallyPossibleError:
            assert not possible
            continue
        assert possible
        _check_condition(cond, preds, rng)


def test_intermediate_full_trims_the_condition_once(monkeypatch):
    ref = build_reference_experiment()
    cond = ref.condition("Fup", ref.T1)
    start_time(cond)            # the start index is kept on the condition
    trims = []
    original = PhysicalFamily._restrict

    def counted(fam, k, block):
        if block is cond.basis:     # the family restricting the condition
            trims.append(k)
        return original(fam, k, block)

    monkeypatch.setattr(PhysicalFamily, "_restrict", counted)
    outcomes = OutcomeSet((ref.predicate("I"), ref.predicate("notI")), ref.T0, complete=True)
    for i in range(2):
        trims.clear()
        prob_intermediate_full(cond, outcomes, i)
        assert trims == [ref.T0]


def _record_chain(rng, d1: int, d2: int, n: int) -> Model:
    """Steps that move each record to the next label and rotate system2
    by a Haar unitary chosen by the record."""
    steps = []
    for _ in range(n - 1):
        shift = np.roll(np.eye(d1), 1, axis=0)
        steps.append(sum(np.kron(np.outer(shift[:, r], np.eye(d1)[r]), random_unitary(rng, d2))
                         for r in range(d1)))
    return Model(d1, d2, TimeGrid(tuple(float(t) for t in range(n))), tuple(steps))


def test_family_and_conditions_hold_no_dense_matrices():
    rng = np.random.default_rng(61)
    d1, d2, n = 26, 6, 8               # d = 156
    model = _record_chain(rng, d1, d2, n)
    d = model.dim

    def ket(label):
        return np.kron(np.eye(d1)[label], random_unitary(rng, d2)[:, 0])

    initial = [ket(0), ket(1)]
    extras = {k: [ket(2 * k), ket(2 * k + 1)] for k in range(1, n)}
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fam = forward_closure(model, initial, extras)
        conds = []
        for k_c in range(n):
            for label in range(d1):
                if len(conds) == 10:
                    break
                try:
                    conds.append(ConditionSpec(model, fam, np.diag(np.eye(d1)[label]), k_c))
                except NotPhysicallyPossibleError:
                    pass
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(conds) == 10
    assert max(np.linalg.matrix_rank(fam.at(k)) for k in range(n)) <= 20
    assert retained < n * d * d * 16 / 4, retained


def test_outcome_sets_hold_record_projectors_as_labels():
    d1 = 33
    rng = np.random.default_rng(62)
    records = [np.diag(np.eye(d1)[r]).astype(complex) for r in (3, 7)]
    rotated = random_projector(rng, d1, 2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = OutcomeSet((np.diag(np.eye(d1)[3] + np.eye(d1)[7]).astype(complex),
                           np.eye(d1) - records[0] - records[1]), 2, complete=True)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < d1 * d1 * 16
    whole = records[0] + records[1]
    for p, q in zip(held.projectors, (whole, np.eye(d1) - whole)):
        assert np.array_equal(p, q)
    mixed = OutcomeSet((records[0], rotated), 1)
    assert len(mixed) == 2
    assert np.array_equal(mixed.projectors[0], records[0])
    assert np.array_equal(mixed.projectors[1], rotated)

