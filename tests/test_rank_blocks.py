"""Measurements at the family's rank, against the m-space and path oracles.

For a family of range bases, P(k) = U U^dagger, the possibility tests of
a d x m orthonormal block W read the r x m coefficient block C = U^dagger
W: [W W^dagger, P(k)] through U_perp C with U_perp = U - W C^dagger, and
the weight of P(k) W W^dagger through ||C||_F.  ``outcome_probability``
reads one trace at k2 instead of the kappa path.  These tests compare the
verdicts with the dense max-entry norms and the earlier m-space body
(``conftest.mspace_commutes``), check that each recorded upper bound is
at least the dense Frobenius norm and each lower bound at most the
largest entry, compare the probabilities and refusals with the path trace
(``conftest.path_outcome_probability``), and count the work a measurement
does on the n = 16 benchmark chain.
"""

import itertools
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physborn import linalg, measurement
from physborn import model as model_mod
from physborn.born import OutcomeSet
from physborn.errors import DomainError, UnreachableConditionError
from physborn.measurement import MeasurementProcess, outcome_probability
from physborn.model import (
    Model,
    PhysicalFamily,
    TimeGrid,
    _commutes,
    _has_weight,
    _is_possible,
    lift_system1,
)
from physborn.scenarios import build_redundant_record_experiment, build_reference_experiment

from conftest import (
    INDEX_REFUSALS,
    bench_chain,
    drifting_instance,
    identity_family,
    mspace_commutes,
    outcome_of,
    path_outcome_probability,
    random_model,
    random_unitary,
)


@contextmanager
def _bounds():
    """The (upper, lower) pairs handed to ``linalg.within_zero``."""
    seen = []
    real = linalg.within_zero

    def recording(upper, lower, measure, tol):
        seen.append((upper, lower))
        return real(upper, lower, measure, tol)

    with mock.patch.object(linalg, "within_zero", recording):
        yield seen


def _basis_instance(rng, wide: bool, drift: float):
    """(model, family, [(k, W)]): a two-index family of range bases of
    ranks r0 <= r and blocks W of m columns, m > r when ``wide`` and m < r
    otherwise.  W spans columns of the family's own unitary, so it
    commutes with P(k), turned by exp(i drift H) for a random unit-norm
    Hermitian H."""
    d = int(rng.integers(4, 15))
    small, large = sorted(int(x) for x in rng.choice(np.arange(1, d), size=2, replace=False))
    r, m = (small, large) if wide else (large, small)
    v = random_unitary(rng, d)
    r0 = int(rng.integers(1, r + 1))
    fam = PhysicalFamily.from_bases([v[:, :r0], v[:, :r]])
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h, e = np.linalg.eigh(a + a.conj().T)
    turn = (e * np.exp(1j * drift * h / np.max(np.abs(h)))) @ e.conj().T
    model = Model(d, 1, TimeGrid((0.0, 1.0)), (np.eye(d, dtype=complex),))
    blocks = []
    for k in range(2):
        cols = rng.choice(d, size=m, replace=False)
        blocks.append((k, turn @ v[:, cols]))
    return model, fam, blocks


def _drifting(rng, as_bases: bool) -> list:
    """[(model, family, [(k, W)])] of ``conftest.drifting_instance``: the
    predicate lifted at every index, and a near miss (the predicate
    rotated as the family is at index 0) lifted at k_c; the family as its
    explicit projectors or as their range bases."""
    plain = drifting_instance(rng)
    near = drifting_instance(np.random.default_rng(rng.integers(2**32)), rotation_index=0)
    instances = []
    for (model, fam, x1, _), indices in ((plain, range(plain[0].n_indices)),
                                         (near, (near[3],))):
        if as_bases:
            fam = PhysicalFamily.from_bases([linalg.range_basis(p, model.tol)
                                             for p in fam.projectors])
        instances.append((model, fam, [(k, lift_system1(model, x1, k)) for k in indices]))
    return instances


def _check_block(m: Model, fam: PhysicalFamily, k: int, w: np.ndarray) -> None:
    eps = m.tol.eps_zero
    x, p = w @ w.conj().T, fam.at(k)
    comm, weight = x @ p - p @ x, p @ x
    with _bounds() as seen:
        commutes = _commutes(m, fam, k, w)
        has_weight = _has_weight(m, fam, k, w)
    assert len(seen) == 2
    for (upper, lower), dense in zip(seen, (comm, weight)):
        assert upper >= np.linalg.norm(dense) - 1e-12
        assert lower <= linalg.max_abs(dense) + 1e-12
    assert commutes == (fam.commutator_norm(k, w) <= eps) == mspace_commutes(m, fam, k, w)
    assert has_weight == (fam.overlap_norm(k, w) > eps)
    assert _is_possible(m, fam, k, w) == (commutes and has_weight)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(kind=st.sampled_from(["wide", "narrow", "drifting", "drifting-bases"]),
       drift=st.sampled_from([0.0, 1e-11, 3e-10, 1e-9, 3e-9, 1e-6, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_possibility_tests_match_the_dense_oracles(kind, drift, seed):
    rng = np.random.default_rng(seed)
    if kind in ("wide", "narrow"):
        instances = [_basis_instance(rng, kind == "wide", drift)]
    else:
        instances = _drifting(rng, kind == "drifting-bases")
    for m, fam, blocks in instances:
        for k, w in blocks:
            _check_block(m, fam, k, w)


def _processes(m: Model, fam: PhysicalFamily, starts, outcome_sets):
    """Every process the library builds from the given start predicates
    at their indices and the given outcome sets."""
    for (p0, k1), outcomes in itertools.product(starts, outcome_sets):
        if outcomes.k > k1:
            ok, proc = outcome_of(lambda: MeasurementProcess(m, fam, p0, k1, outcomes))
            if ok:
                yield proc


def _compare(procs) -> dict:
    """Probabilities within 1e-12 and identical refusals, for every
    outcome (one index past the end too) and both representations."""
    seen = {"value": 0, "zero": 0, "refused": 0}
    for proc in procs:
        for i, rep in itertools.product(range(len(proc.outcomes) + 1),
                                         ("support", "observable")):
            got = outcome_of(lambda: outcome_probability(proc, i, rep), INDEX_REFUSALS)
            want = outcome_of(lambda: path_outcome_probability(proc, i, rep), INDEX_REFUSALS)
            assert got[0] == want[0]
            if not got[0]:
                assert got == want
                seen["refused"] += 1
                continue
            assert abs(got[1] - want[1]) <= 1e-12
            seen["zero" if got[1] == 0.0 else "value"] += 1
    return seen


def _complement_sets(preds: dict, d1: int, n: int) -> list:
    return [OutcomeSet((y, np.eye(d1) - y), k, complete=True)
            for y, k in itertools.product(preds.values(), range(1, n))]


def test_outcome_probability_matches_the_path_trace_on_the_scenarios():
    seen = {"value": 0, "zero": 0, "refused": 0}
    for ex in (build_reference_experiment(), build_redundant_record_experiment()):
        m, n = ex.model, ex.model.n_indices
        starts = list(itertools.product(ex.predicates.values(), range(n)))
        for key, count in _compare(_processes(
                m, ex.fam, starts, _complement_sets(ex.predicates, m.d1, n))).items():
            seen[key] += count
    # values, unreachable outcomes (0.0) and refusals, each many times
    assert min(seen.values()) >= 20


def test_outcome_probability_matches_the_path_trace_on_the_chain():
    c, m, fam = bench_chain()
    starts = [(c.records(s), s) for s in (0, 1, 8, 15)]
    sets = [OutcomeSet((c.records(t), np.eye(c.d1) - c.records(t)), t, complete=True)
            for t in (2, 9, 16)]
    # the records of stage 12, not yet written at index 9: unreachable
    sets.append(OutcomeSet((c.records(12), c.records(c.lost(12))), 9))
    seen = _compare(_processes(m, fam, starts, sets))
    assert seen["value"] >= 10 and seen["zero"] >= 1


def test_outcome_probability_refuses_in_the_order_of_the_path():
    # d2 = 1, identity dynamics; P(0) = |0><0| and P(1) = P(2) = I.  The
    # start space |1><1| at index 1 is possible there, but its start
    # index is 0, where it has no weight.
    e0, e1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    m = Model(2, 1, TimeGrid((0.0, 1.0, 2.0)), (np.eye(2, dtype=complex),) * 2)
    eye = np.eye(2, dtype=complex)
    proc = MeasurementProcess(m, PhysicalFamily((e0, eye, eye)), e1, 1,
                              OutcomeSet((e1, e0), 2, complete=True))
    for rep in ("support", "observable", "bogus"):
        with pytest.raises(UnreachableConditionError,
                           match="^start space has no physical weight at k0$"):
            outcome_probability(proc, 0, rep)
    # an unreachable outcome: 0.0 for both representations, but an
    # unknown one is refused first
    ref = build_reference_experiment()
    outcomes = OutcomeSet((ref.predicate("ready"), ref.predicate("Fup")), ref.T1)
    proc = MeasurementProcess(ref.model, ref.fam, ref.predicate("I"), ref.T0, outcomes)
    assert proc.outcome_condition(0) is None
    assert outcome_probability(proc, 0) == outcome_probability(proc, 0, "observable") == 0.0
    with pytest.raises(DomainError, match="^unknown representation 'bogus'$"):
        outcome_probability(proc, 0, "bogus")


def test_a_chain_measurement_reads_one_trace_and_restricts_once(monkeypatch):
    c, m, fam = bench_chain()
    s, t = 5, 6
    up = c.records(t)
    proc = MeasurementProcess(m, fam, c.records(s), s,
                              OutcomeSet((up, np.eye(c.d1) - up), t, complete=True))
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((measurement, "kappa_path"), (measurement, "cumulative_propagator"),
                         (model_mod, "cumulative_propagator")):
        counted(module, name)
    values = [outcome_probability(proc, i) for i in range(2)]
    assert calls == []
    assert abs(values[0] - 0.5) <= 1e-12 and abs(values[1] - 0.5) <= 1e-12

    # one restriction per possibility test, for a family of range bases
    # (the chain's complement outcome, m = 192 > r = 7) and for an
    # explicit family
    haar = random_model(np.random.default_rng(3), 4, 4, 3)
    cases = [(m, fam, t, lift_system1(m, np.eye(c.d1) - up, t)),
             (haar, identity_family(haar.dim, 3), 1, lift_system1(haar, np.diag([1, 1, 0, 0]), 1))]
    counted(PhysicalFamily, "_restrict")
    for mod, family, k, w in cases:
        calls.clear()
        assert _is_possible(mod, family, k, w)
        assert calls == ["_restrict"]
