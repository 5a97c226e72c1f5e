"""Verifiability decided from blocks against the dense commutators.

``born.verifiable`` decides both demands, [Y, P(k)] and [Y, X] sandwiched
by P(s), from coefficient blocks at the family's rank
(``model._commutes``, ``model._sandwich_commutes``) and builds a d x d
commutator only when eps_zero lies between the bounds
(``linalg.within_zero``).  These tests compare every verdict with the
largest entries of the dense commutators (``conftest.dense_verifiability_norms``)
on the benchmark chain in both storage forms, the sg-observers space,
Haar models with the identity family, and Haar models whose family and
outcomes are adapted to the condition and then turned by a tiny rotation,
so that the dense norm lies within 10x of eps_zero on either side.  They
count the dense fallbacks, and pin that no decision measures the dense
norms: only ``verifiability``'s report and the sequence refusal do.
"""

import numpy as np
import pytest

from physborn import born, verify
from physborn.born import OutcomeSet, prob_sequence, verifiable
from physborn.condition import ConditionSpec
from physborn.errors import NotPhysicallyPossibleError, UnverifiableSequenceError
from physborn.model import Model, PhysicalFamily, TimeGrid, lift_predicate, lift_system1
from physborn.scenario_io import builtin_scenario
from physborn.scenarios import build_reference_experiment
from physborn.verify import verifiability, verify_trace_identity, w_subspace, z_subspace

from conftest import (
    bench_chain,
    dense_lift,
    dense_verifiability_norms,
    identity_family,
    random_model,
    random_projector,
    random_unitary,
)


def _dense_norm(cond: ConditionSpec, y, k: int) -> float:
    """The larger dense commutator norm of the outcome y at k."""
    return max(dense_verifiability_norms(cond, dense_lift(cond.model, y, k), k))


def _same_verdict(cond: ConditionSpec, y, k: int) -> bool:
    """Asserts the block verdict equals the dense one, and returns it."""
    block = verifiable(cond, lift_predicate(cond.model, y, k), k)
    assert block == (_dense_norm(cond, y, k) <= cond.tol.eps_zero), (cond.k_c, k)
    return block


@pytest.mark.parametrize("storage", ["bases", "explicit"])
def test_the_chain_decides_verifiability_without_a_dense_fallback(storage, fallbacks):
    c, model, fam = bench_chain()
    if storage == "explicit":
        fam = PhysicalFamily(fam.projectors)
    rng = np.random.default_rng(15)
    verdicts = []
    for s in (0, 7, 16):
        cond = ConditionSpec(model, fam, c.records(s), s)
        for k in (1, 6, 9, 16):
            for y in (c.records(k), np.eye(c.d1) - c.records(k),
                      random_projector(rng, c.d1, 2)):
                verdicts.append(_same_verdict(cond, y, k))
    assert fallbacks == []
    assert True in verdicts and False in verdicts


def test_sg_observer_verdicts_match_the_dense_oracle():
    sc = builtin_scenario("sg-observers")
    rng = np.random.default_rng(16)
    preds = list(sc.predicates.values())
    preds += [preds[0] + preds[2], random_projector(rng, sc.model.d1, 2)]
    verdicts = []
    for x in preds[:-1]:
        for k_c in (0, 1):
            try:
                cond = ConditionSpec(sc.model, sc.fam, x, k_c)
            except NotPhysicallyPossibleError:
                continue
            verdicts += [_same_verdict(cond, y, k) for y in preds for k in (0, 1)]
    assert True in verdicts and False in verdicts


def test_haar_models_with_the_identity_family(fallbacks):
    rng = np.random.default_rng(17)
    verdicts = []
    for _ in range(8):
        model = random_model(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)), 4)
        fam = identity_family(model.dim, model.n_indices)
        x1 = random_projector(rng, model.d1, int(rng.integers(1, model.d1)))
        cond = ConditionSpec(model, fam, x1, int(rng.integers(model.n_indices)))
        for k in range(model.n_indices):
            for y in (x1, np.eye(model.d1) - x1,
                      random_projector(rng, model.d1, int(rng.integers(1, model.d1)))):
                verdicts.append(_same_verdict(cond, y, k))
    assert fallbacks == []
    assert True in verdicts and False in verdicts


def _adapted_instance(rng, storage: str):
    """(condition, orthonormal d x d basis v) on a Haar model: every column
    of v lies in the range of the lifted condition X or in its complement,
    so any projector onto columns of v commutes with X.  The family is the
    identity, or P(k) onto the first r_k columns of v with r_k
    nondecreasing, held explicitly or as range bases."""
    model = random_model(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)),
                         int(rng.integers(3, 6)))
    d, k_c = model.dim, int(rng.integers(model.n_indices))
    x1 = random_projector(rng, model.d1, int(rng.integers(1, model.d1)))
    wx = lift_system1(model, x1, k_c)
    m = wx.shape[1]
    q = np.linalg.qr(np.hstack((wx, random_unitary(rng, d))))[0]
    inside, outside = q[:, :m] @ random_unitary(rng, m), q[:, m:] @ random_unitary(rng, d - m)
    rest = np.hstack((inside[:, 1:], outside))
    v = np.hstack((inside[:, :1], rest[:, rng.permutation(d - 1)]))
    if storage == "identity":
        fam = identity_family(d, model.n_indices)
    else:
        ranks = np.minimum(d, np.cumsum(rng.integers(0, 3, model.n_indices)) + 1)
        bases = [v[:, :r] for r in ranks]
        fam = (PhysicalFamily.from_bases(bases) if storage == "bases"
               else PhysicalFamily(tuple(b @ b.conj().T for b in bases)))
    return ConditionSpec(model, fam, x1, k_c), v


def _turned(q: np.ndarray, h_vecs: np.ndarray, h_vals: np.ndarray, theta: float) -> np.ndarray:
    """e^{i theta H} q e^{-i theta H} for H = h_vecs diag(h_vals) h_vecs^dagger."""
    u = (h_vecs * np.exp(1j * theta * h_vals)) @ h_vecs.conj().T
    return u @ q @ u.conj().T


def _near_miss(rng, cond: ConditionSpec, v: np.ndarray, k: int):
    """A projector onto random columns of v, turned by a random Hermitian
    generator so far that its larger dense commutator norm lies within
    10x of eps_zero (to first order in the angle); None when the turn
    moves neither commutator off zero."""
    d = len(v)
    cols = rng.choice(d, size=int(rng.integers(1, d)), replace=False)
    q = v[:, cols] @ v[:, cols].conj().T
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h_vals, h_vecs = np.linalg.eigh(a + a.conj().T)
    probe = 1e-6
    slope = _dense_norm(cond, _turned(q, h_vecs, h_vals, probe), k) / probe
    if slope < 1e-3:
        return None
    target = cond.tol.eps_zero * 10.0 ** rng.uniform(-1, 1)
    return _turned(q, h_vecs, h_vals, target / slope)


def test_haar_near_misses_and_refusals_match_the_dense_oracle(fallbacks):
    rng = np.random.default_rng(18)
    eps = 1e-9
    seen = {"exact": 0, "far": 0, "below": set(), "above": set()}
    near_fallbacks = 0
    for i in range(36):
        storage = ("identity", "explicit", "bases")[i % 3]
        cond, v = _adapted_instance(rng, storage)
        model = cond.model
        for k in range(model.n_indices):
            d = len(v)
            cols = rng.choice(d, size=int(rng.integers(1, d)), replace=False)
            if _same_verdict(cond, v[:, cols] @ v[:, cols].conj().T, k):
                seen["exact"] += 1
            far = random_projector(rng, model.d1, int(rng.integers(1, model.d1)))
            if not _same_verdict(cond, far, k):
                seen["far"] += 1
            y = _near_miss(rng, cond, v, k)
            if y is None:
                continue
            before = len(fallbacks)
            _same_verdict(cond, y, k)
            near_fallbacks += len(fallbacks) > before
            side = "below" if _dense_norm(cond, y, k) <= eps else "above"
            seen[side].add(("forward" if k > cond.k_c else "backward" if k < cond.k_c
                            else "same", storage))
    assert seen["exact"] > 0 and seen["far"] > 0
    for side in ("below", "above"):
        for direction in ("forward", "backward"):
            for storage in ("identity", "explicit", "bases"):
                assert (direction, storage) in seen[side], (side, direction, storage)
    assert near_fallbacks >= 1


@pytest.fixture
def norm_calls(monkeypatch) -> list:
    """Records each call of the dense ``verifiability_norms``, under the
    names ``born`` and ``verify`` use."""
    calls = []
    real = born.verifiability_norms

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(born, "verifiability_norms", counted)
    monkeypatch.setattr(verify, "verifiability_norms", counted)
    return calls


def test_only_reports_and_refusals_measure_the_dense_norms(norm_calls):
    ref = build_reference_experiment()
    cond = ref.condition("I", ref.T0)
    fup, fdown = ref.predicate("Fup"), ref.predicate("Fdown")
    outcomes = OutcomeSet((fup, fdown), ref.T1)
    prob_sequence(ref.condition("ready", ref.T_S), ref.predicate("I"), ref.T0, fup, ref.T1)
    z_subspace(cond, fup, ref.T1)
    w_subspace(cond, fup, ref.T1)
    verify_trace_identity(cond, outcomes)
    assert norm_calls == []

    assert verifiability(cond, outcomes).verdict
    assert len(norm_calls) == 2

    # Hadamard dynamics on a bare qubit: nothing records the condition
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    model = Model(2, 1, TimeGrid((0.0, 1.0, 2.0)), (h, h))
    bare = ConditionSpec(model, identity_family(2, 3), np.diag([1.0, 0.0]), 0)
    with pytest.raises(UnverifiableSequenceError) as refusal:
        prob_sequence(bare, np.diag([0.0, 1.0]), 1, np.diag([1.0, 0.0]), 2)
    assert len(norm_calls) == 3
    assert refusal.value.commutator_norm == pytest.approx(0.5, abs=1e-12)
