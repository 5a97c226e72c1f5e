"""Library refusals that no other test reaches, each pinned by its type
and message, and the family validation of bases of two sizes."""

import re

import numpy as np
import pytest

from physborn import linalg
from physborn.born import OutcomeSet, prob_forward, prob_intermediate_full
from physborn.condition import ConditionSpec, observable_rep
from physborn.errors import DomainError, ShapeError, UnreachableConditionError
from physborn.measurement import MeasurementProcess, kappa_path, outcome_probability
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


# Each index gate of the library, called at index k on the reference
# model, with its refusal message for k out of range.
def _grid_site(k):
    ref = build_reference_experiment()
    return prob_forward(ref.condition("I", ref.T0), ref.predicate("Fup"), k)


def _family_site(k):
    return build_reference_experiment().fam.at(k)


def _labels_site(k):
    ref = build_reference_experiment()
    return observable_rep(ref.condition("I", ref.T0)).labels_at(k)


def _reference_process():
    ref = build_reference_experiment()
    outcomes = OutcomeSet((ref.predicate("Fup"), ref.predicate("Fdown")), ref.T1)
    return MeasurementProcess(ref.model, ref.fam, ref.predicate("I"), ref.T0, outcomes)


def _kappa_site(k):
    return kappa_path(_reference_process(), 0).at(k)


def _outcome_site(k):
    return outcome_probability(_reference_process(), k)


def _y_index_site(k):
    ref = build_reference_experiment()
    outcomes = OutcomeSet((ref.predicate("I"), ref.predicate("notI")), ref.T0, complete=True)
    return prob_intermediate_full(ref.condition("Fup", ref.T1), outcomes, k)


INDEX_SITES = {
    "grid": (_grid_site, "grid index {k} out of range [0, 2]"),
    "family": (_family_site, "family index {k} out of range [0, 2]"),
    "labels": (_labels_site, "observable representation covers indices 0..1"),
    "kappa": (_kappa_site, "path covers indices 1..2"),
    "outcome": (_outcome_site, "outcome index {k} out of range"),
    "y_index": (_y_index_site, "outcome index {k} out of range"),
}
NOT_INDICES = {"2.9": 2.9, "1.0": 1.0, "float64": np.float64(1.0), "True": True,
               "bool_": np.True_}
INDEX_CASES = [(lambda call=call, k=k: call(k), IndexError, message.format(k=k))
               for call, message in INDEX_SITES.values() for k in NOT_INDICES.values()]
INDEX_IDS = [f"{site}-{name}" for site in INDEX_SITES for name in NOT_INDICES]
# a text index is written by repr, "grid index '2' out of range [0, 2]",
# so that it does not read as an integer in range
TEXT_SITES, TEXT_INDICES = ("grid", "family"), ("2", "1")
TEXT_CASES = [(lambda call=INDEX_SITES[site][0], k=k: call(k), IndexError,
               INDEX_SITES[site][1].format(k=repr(k)))
              for site in TEXT_SITES for k in TEXT_INDICES]
TEXT_IDS = [f"{site}-text-{k}" for site in TEXT_SITES for k in TEXT_INDICES]


@pytest.mark.parametrize("call, error, message", [
    (_overweight_forward, DomainError, "forward: probability 1.0000000019800002 outside [0, 1]"),
    (_labels_past_k_c, IndexError, "observable representation covers indices 0..1"),
    (_kappa_past_k2, IndexError, "path covers indices 1..2"),
    (_heisenberg_wrong_shape, ShapeError, "operator shape (3, 3) does not match model dim 2"),
    (_closure_wrong_extra, ShapeError, "extra state at index 1 has wrong dimension"),
    (_commutator_unequal_shapes, ShapeError,
     "commutator needs equal square shapes, got (2, 2), (3, 3)"),
    (_textbook_zero_condition, UnreachableConditionError, "textbook condition has zero trace"),
    *INDEX_CASES, *TEXT_CASES,
], ids=["result-range", "labels-at", "kappa-at", "heisenberg-shape", "closure-extra",
        "commutator-shapes", "textbook-zero", *INDEX_IDS, *TEXT_IDS])
def test_refusal_type_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("site, k", [("grid", 2), ("family", 1), ("labels", 1), ("kappa", 2),
                                     ("outcome", 1), ("y_index", 0)])
def test_a_numpy_integer_index_answers_as_an_int(site, k):
    got, want = INDEX_SITES[site][0](np.int64(k)), INDEX_SITES[site][0](k)
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    else:
        assert got == want


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
