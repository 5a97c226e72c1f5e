"""The system2 gauge relation.

A unitary G = I (x) W that acts on system2 alone leaves every system1
record where it is.  Conjugating every step and every P(k) by G
therefore conjugates every lifted system1 predicate by G, and with it the
states, so the probabilities do not change and Z becomes G Z G^dagger.
Checked on the reference model (an explicit family) and on seeded
recording models (families of range bases), with seeded Haar W.
"""

import numpy as np
import pytest

from physborn import linalg
from physborn.born import prob_before, prob_forward, prob_sequence
from physborn.condition import ConditionSpec
from physborn.errors import PhysbornError
from physborn.model import Model, PhysicalFamily
from physborn.scenarios import build_reference_experiment
from physborn.verify import z_subspace

from conftest import random_record_projector, random_unitary, recording_model

TOL = 1e-12


def _gauged(model: Model, fam: PhysicalFamily, w: np.ndarray, as_bases: bool) -> tuple:
    """(model, family, G): the model and family conjugated by G = I (x) w,
    the family held as range bases or as explicit projectors."""
    g = np.kron(np.eye(model.d1), w)
    steps = tuple(g @ u @ g.conj().T for u in model.steps)
    gauged = Model(model.d1, model.d2, model.grid, steps, model.tol)
    if as_bases:
        bases = [g @ linalg.range_basis(p, model.tol) for p in fam.projectors]
        return gauged, PhysicalFamily.from_bases(bases), g
    return gauged, PhysicalFamily(tuple(g @ p @ g.conj().T for p in fam.projectors)), g


def _value_or_refusal(call):
    try:
        return True, call()
    except PhysbornError as exc:
        return False, type(exc)


def _same(call, gauged_call, compare) -> bool:
    """Asserts both calls answer alike; True when they answered."""
    (ok, a), (ok2, b) = _value_or_refusal(call), _value_or_refusal(gauged_call)
    assert ok == ok2
    if ok:
        compare(a, b)
    else:
        assert a is b
    return ok


def _check(model, fam, as_bases: bool, preds, rng, n_sequences: int) -> dict:
    """Compares forward, before, sequence and Z on every (condition,
    outcome) pair of ``preds`` and on seeded sequence queries; returns how
    many of each answered."""
    gmodel, gfam, g = _gauged(model, fam, random_unitary(rng, model.d2), as_bases)
    n = model.n_indices
    answered = {"forward": 0, "before": 0, "sequence": 0, "z": 0}

    def close(a, b):
        assert abs(a.value - b.value) <= TOL

    def conjugated(z, gz):
        assert np.max(np.abs(g @ z @ g.conj().T - gz)) <= TOL

    for x in preds:
        for k_c in range(n):
            ok, cond = _value_or_refusal(lambda: ConditionSpec(model, fam, x, k_c))
            ok2, gcond = _value_or_refusal(lambda: ConditionSpec(gmodel, gfam, x, k_c))
            assert ok == ok2
            if not ok:
                continue
            for y in preds:
                answered["before"] += _same(lambda: prob_before(cond, y, 0),
                                            lambda: prob_before(gcond, y, 0), close)
                for k in range(n):
                    answered["forward"] += _same(lambda: prob_forward(cond, y, k),
                                                 lambda: prob_forward(gcond, y, k), close)
                    answered["z"] += _same(lambda: z_subspace(cond, y, k),
                                           lambda: z_subspace(gcond, y, k), conjugated)
            for _ in range(n_sequences):
                y1, y2 = (preds[int(i)] for i in rng.integers(len(preds), size=2))
                k1, k2 = (int(i) for i in rng.integers(n, size=2))
                answered["sequence"] += _same(lambda: prob_sequence(cond, y1, k1, y2, k2),
                                              lambda: prob_sequence(gcond, y1, k1, y2, k2),
                                              close)
    return answered


def test_the_reference_model_is_gauge_invariant():
    ref = build_reference_experiment()
    answered = _check(ref.model, ref.fam, False, list(ref.predicates.values()),
                      np.random.default_rng(31), 4)
    assert all(answered.values()), answered


@pytest.mark.parametrize("seed", [32, 33, 34])
def test_recording_models_with_range_bases_are_gauge_invariant(seed):
    rng = np.random.default_rng(seed)
    model, fam = recording_model(rng)
    preds = [random_record_projector(rng, model.d1) for _ in range(3)]
    answered = _check(model, fam, True, preds, rng, 4)
    assert answered["forward"] and answered["z"], answered
