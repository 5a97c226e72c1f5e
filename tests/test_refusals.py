"""Library refusals that no other test reaches, each pinned by its type
and message, and the family validation of bases of two sizes."""

import re

import numpy as np
import pytest

from physborn import linalg
from physborn.born import OutcomeSet, prob_forward
from physborn.condition import ConditionSpec, observable_rep
from physborn.errors import DomainError, ShapeError, UnreachableConditionError
from physborn.measurement import MeasurementProcess, kappa_path
from physborn.model import (
    Model,
    PhysicalFamily,
    TimeGrid,
    forward_closure,
    heisenberg,
    validate_family,
)
from physborn.scenarios import build_reference_experiment, textbook_born

from conftest import identity_family


def _overweight_forward():
    """Two steps diag(1 + 0.495e-9, 1), each within eps_zero of unitary:
    their product scales |0> by about 1 + 0.99e-9 in amplitude, so the
    forward value of diag(1, 0) on itself is about 1 + 1.98e-9, past
    1 + eps_zero.  Accepted input reaches the range check."""
    step = np.diag([1 + 0.495e-9, 1]).astype(complex)
    m = Model(2, 1, TimeGrid((0.0, 1.0, 2.0)), (step, step))
    up = np.diag([1, 0]).astype(complex)
    prob_forward(ConditionSpec(m, identity_family(2, 3), up, 0), up, 2)


def _labels_past_k_c():
    ref = build_reference_experiment()
    cond = ref.condition("I", ref.T0)
    observable_rep(cond).labels_at(cond.k_c + 1)


def _kappa_past_k2():
    ref = build_reference_experiment()
    outcomes = OutcomeSet((ref.predicate("Fup"), ref.predicate("Fdown")), ref.T1)
    proc = MeasurementProcess(ref.model, ref.fam, ref.predicate("I"), ref.T0, outcomes)
    path = kappa_path(proc, 0)
    path.at(path.k2 + 1)


def _heisenberg_wrong_shape():
    m = Model(2, 1, TimeGrid((0.0, 1.0)), (np.eye(2, dtype=complex),))
    heisenberg(m, np.eye(3), 1)


def _closure_wrong_extra():
    m = Model(2, 1, TimeGrid((0.0, 1.0)), (np.eye(2, dtype=complex),))
    forward_closure(m, [np.array([1.0, 0.0])], {1: [np.zeros(3)]})


def _commutator_unequal_shapes():
    linalg.commutator_norm(np.eye(2), np.eye(3))


def _textbook_zero_condition():
    ref = build_reference_experiment()
    zero = np.zeros_like(ref.predicate("I"))
    textbook_born(ref.model, zero, ref.T0, ref.predicate("Fup"), ref.T1)


@pytest.mark.parametrize("call, error, message", [
    (_overweight_forward, DomainError, "forward: probability 1.0000000019800002 outside [0, 1]"),
    (_labels_past_k_c, IndexError, "observable representation covers indices 0..1"),
    (_kappa_past_k2, IndexError, "path covers indices 1..2"),
    (_heisenberg_wrong_shape, ShapeError, "operator shape (3, 3) does not match model dim 2"),
    (_closure_wrong_extra, ShapeError, "extra state at index 1 has wrong dimension"),
    (_commutator_unequal_shapes, ShapeError,
     "commutator needs equal square shapes, got (2, 2), (3, 3)"),
    (_textbook_zero_condition, UnreachableConditionError, "textbook condition has zero trace"),
], ids=["result-range", "labels-at", "kappa-at", "heisenberg-shape", "closure-extra",
        "commutator-shapes", "textbook-zero"])
def test_refusal_type_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_bases_of_two_sizes_fail_validation_without_a_crash():
    """P(0) from a basis of 3 rows cannot nest with P(1) from one of 4: the
    pair test reports no violation, and the projector check fails P(0)."""
    m = Model(4, 1, TimeGrid((0.0, 1.0)), (np.eye(4, dtype=complex),))
    fam = PhysicalFamily.from_bases([np.eye(3, dtype=complex)[:, :1],
                                     np.eye(4, dtype=complex)[:, :2]])
    report = validate_family(m, fam)
    assert report.projector_ok == (False, True)
    assert report.nesting_violations == ()
    assert not report.passed
