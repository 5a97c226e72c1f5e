"""Block-bounded tolerance decisions against their dense oracles.

The start index (demands (1) and (2)), physical possibility and family
validation decide each "max entry within eps_zero" test from bounds on
d x m blocks (``linalg.within_zero``) and build the d x d matrix only when
eps_zero lies between the bounds.  These tests compare every verdict with
the dense bodies kept in ``conftest``: on drifting families, whose
differences fall on both sides of eps_zero, on recording models and on the
reference model.  They also count the dense fallbacks: the drifting
families take some, the n = 16 benchmark chain and a Haar model with the
identity family take none.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from physborn import condition, linalg
from physborn.condition import ConditionSpec, StartTime, observable_rep, start_time
from physborn.errors import NotPhysicallyPossibleError
from physborn.model import (
    Model,
    PhysicalFamily,
    TimeGrid,
    is_physically_possible,
    validate_family,
)
from physborn.scenarios import build_reference_experiment

from conftest import (
    bench_chain,
    dense_condition2_holds,
    dense_condition_possible,
    dense_lift,
    dense_observable_labels,
    dense_start_time,
    dense_validate_family,
    drifting_instance,
    identity_family,
    outcome_of,
    random_model,
    random_projector,
    random_record_projector,
    recording_model,
)


def _as_bases(model: Model, fam: PhysicalFamily, rng) -> PhysicalFamily:
    """The same family held as range bases, each column scaled by a
    factor within 2e-9 of 1, so that each P(k) is a projector only to
    about eps_zero."""
    return PhysicalFamily.from_bases([u * (1 + rng.uniform(-2e-9, 2e-9, u.shape[1]))
                                      for u in (linalg.range_basis(p, model.tol)
                                                for p in fam.projectors)])


def _check_condition(model, fam, x1, k_c) -> None:
    """Possibility, T_s and the joint T_s with an observable
    representation, each against its dense oracle."""
    lifted = dense_lift(model, x1, k_c)
    possible = dense_condition_possible(model, fam, x1, k_c)
    assert is_physically_possible(model, fam, lifted, k_c) == possible
    try:
        cond = ConditionSpec(model, fam, x1, k_c)
    except NotPhysicallyPossibleError:
        assert not possible
        return
    assert possible
    assert start_time(cond) == dense_start_time(cond)
    ok, rep = outcome_of(lambda: observable_rep(cond))
    assert ((ok, rep.labels) if ok else (ok, rep)) == outcome_of(
        lambda: dense_observable_labels(cond))
    if ok:
        assert outcome_of(lambda: start_time(cond, rep)) == outcome_of(
            lambda: dense_start_time(cond, rep))
        for k in range(k_c + 1):    # demand (2) off the scan's path too
            assert outcome_of(lambda: condition._condition2_holds(cond, rep, k)) == outcome_of(
                lambda: dense_condition2_holds(cond, rep, k))


def _drifting_records(rng):
    """Identity dynamics, d2 = 1, and a family of diagonal projectors
    turned by a drifting tiny rotation (1e-10 to 1e-9 per index): the
    record predicates then commute with P(k), and stay inside it, only up
    to the drift, so possibility, the observable representation and
    demand (2) are decided near eps_zero."""
    d, n = int(rng.integers(3, 7)), int(rng.integers(3, 7))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w, v = np.linalg.eigh(a + a.conj().T)
    w = w / np.max(np.abs(w))
    theta = np.cumsum(rng.uniform(1e-10, 1e-9, n))
    rank, projs = int(rng.integers(1, d)), []
    for k in range(n):
        turn = (v * np.exp(-1j * theta[k] * w)) @ v.conj().T
        projs.append(turn @ np.diag(np.arange(d) < rank).astype(complex) @ turn.conj().T)
        if rank < d and rng.random() < 0.3:
            rank += 1
    model = Model(d, 1, TimeGrid(tuple(float(t) for t in range(n))),
                  (np.eye(d, dtype=complex),) * (n - 1))
    return model, PhysicalFamily(tuple(projs))


def _instance(kind: str, seed: int):
    """(model, family, [(system1 predicate, condition index)])."""
    rng = np.random.default_rng(seed)
    if kind in ("drifting", "drifting-bases"):
        model, fam, x1, k_c = drifting_instance(rng)
        # the same predicate rotated as the family is at index 0: near the
        # commutation threshold at k_c
        near = drifting_instance(np.random.default_rng(seed), rotation_index=0)[2]
        if kind == "drifting-bases":
            fam = _as_bases(model, fam, rng)
        other = random_projector(rng, model.d1, int(rng.integers(1, model.d1)))
        return model, fam, [(x1, k_c), (near, k_c), (other, int(rng.integers(k_c + 1)))]
    if kind == "reference":
        ref = build_reference_experiment()
        model, fam, preds = ref.model, ref.fam, list(ref.predicates.values())
    elif kind == "drifting-records":
        model, fam = _drifting_records(rng)
        preds = [random_record_projector(rng, model.d1) for _ in range(3)]
    else:
        model, fam = recording_model(rng)
        if kind == "explicit":
            fam = PhysicalFamily(fam.projectors)
        preds = [random_record_projector(rng, model.d1) for _ in range(3)]
        preds.append(random_projector(rng, model.d1, int(rng.integers(1, model.d1))))
    return model, fam, [(preds[int(rng.integers(len(preds)))], int(rng.integers(model.n_indices)))
                        for _ in range(4)]


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(kind=st.sampled_from(["drifting", "drifting-bases", "drifting-records", "recording",
                             "explicit", "reference"]),
       seed=st.integers(0, 2**32 - 1))
def test_block_decisions_match_the_dense_oracles(kind, seed):
    model, fam, conditions = _instance(kind, seed)
    assert validate_family(model, fam) == dense_validate_family(model, fam)
    for x1, k_c in conditions:
        _check_condition(model, fam, x1, k_c)


def test_observable_labels_match_the_dense_oracle_on_the_reference_model():
    ref = build_reference_experiment()
    reps = 0
    for x1, k_c in itertools.product(ref.predicates.values(), range(ref.model.n_indices)):
        try:
            cond = ConditionSpec(ref.model, ref.fam, x1, k_c)
        except NotPhysicallyPossibleError:
            continue
        ok, rep = outcome_of(lambda: observable_rep(cond))
        want = outcome_of(lambda: dense_observable_labels(cond))
        assert ((ok, rep.labels) if ok else (ok, rep)) == want
        reps += ok
    assert reps >= 3


def test_drifting_families_fall_back_near_the_threshold(fallbacks):
    for kind in ("drifting", "drifting-bases", "drifting-records"):
        fallbacks.clear()
        for seed in range(20):
            model, fam, conditions = _instance(kind, seed)
            assert validate_family(model, fam) == dense_validate_family(model, fam)
            for x1, k_c in conditions:
                _check_condition(model, fam, x1, k_c)
        assert len(fallbacks) > 0, kind


def test_the_benchmark_chain_takes_no_dense_fallback(fallbacks):
    c, model, fam = bench_chain()
    report = validate_family(model, fam)
    assert report.passed
    found = {}
    for s in range(c.n + 1):
        cond = ConditionSpec(model, fam, c.records(s), s)
        rep = observable_rep(cond)
        found[s] = cond, rep, start_time(cond), start_time(cond, rep)
    assert fallbacks == []
    assert report == dense_validate_family(model, fam)
    for s in (1, c.n):          # the dense scans cost d^3 per index
        cond, rep, ts, joint = found[s]
        assert (ts, joint) == (dense_start_time(cond), dense_start_time(cond, rep))


def test_a_haar_model_with_the_identity_family_takes_no_dense_fallback(fallbacks):
    rng = np.random.default_rng(48)
    model = random_model(rng, 4, 4, 6)
    fam = identity_family(model.dim, model.n_indices)
    for _ in range(6):
        x1 = random_projector(rng, model.d1, int(rng.integers(1, model.d1)))
        k_c = int(rng.integers(model.n_indices))
        cond = ConditionSpec(model, fam, x1, k_c)
        assert start_time(cond) == dense_start_time(cond) == StartTime(k_c, False, k_c)
        assert start_time(cond, observable_rep(cond)).index == k_c
    assert validate_family(model, fam).passed
    assert fallbacks == []
