"""Measurement processes, kappa paths, refinement, and position
distributions."""

import numpy as np
import pytest

from physborn.born import OutcomeSet, prob_forward
from physborn.condition import ConditionSpec
from physborn.errors import DomainError, ShapeError
from physborn.measurement import (
    MeasurementProcess,
    kappa_path,
    outcome_probability,
    position_distribution,
    refine_outcomes,
    rho_path,
)
from physborn.scenarios import (
    CELL_DET1,
    KET_Y_UP,
    build_redundant_record_experiment,
    build_reference_experiment,
)


@pytest.fixture(scope="module")
def ref():
    return build_reference_experiment()


def _proc_i_to_f(ref):
    outcomes = OutcomeSet((ref.predicate("Fup"), ref.predicate("Fdown")), ref.T1)
    return MeasurementProcess(ref.model, ref.fam, ref.predicate("I"), ref.T0, outcomes)


def test_outcome_probabilities_and_forward_agreement(ref):
    proc = _proc_i_to_f(ref)
    assert proc.is_measurement
    start = ConditionSpec(ref.model, ref.fam, ref.predicate("I"), ref.T0)
    total = 0.0
    for i, y in enumerate(proc.outcomes.projectors):
        p = outcome_probability(proc, i)
        total += p
        assert abs(p - 0.5) <= 1e-9
        assert abs(p - prob_forward(start, y, ref.T1).value) <= 1e-9
    assert abs(total - 1.0) <= 1e-9


def test_support_and_observable_representations_agree(ref):
    proc = _proc_i_to_f(ref)
    for i in range(2):
        a = kappa_path(proc, i, "support")
        b = kappa_path(proc, i, "observable")
        for k in range(proc.k1, proc.k2 + 1):
            assert np.max(np.abs(a.at(k) - b.at(k))) <= 1e-9
    with pytest.raises(DomainError):
        kappa_path(proc, 0, "bogus")


def test_kappa_start_state_is_spin_up_y_in_detector_one(ref):
    proc = _proc_i_to_f(ref)
    path = rho_path(kappa_path(proc, 0))
    cell = np.zeros(5, dtype=complex)
    cell[CELL_DET1] = 1.0
    expected = np.kron(KET_Y_UP, cell)
    target = np.outer(expected, expected.conj())
    assert np.max(np.abs(path.at(ref.T0) - target)) <= 1e-9
    # each rho has unit trace and the raw kappa traces are probabilities
    for k in range(proc.k1, proc.k2 + 1):
        assert abs(np.trace(path.at(k)).real - 1.0) <= 1e-9


def test_full_outcome_set_from_ready_start(ref):
    names = ["ready", "blocked", "I", "Fup", "Fdown"]
    outcomes = OutcomeSet(
        tuple(ref.predicate(n) for n in names), ref.T1, complete=True
    )
    proc = MeasurementProcess(ref.model, ref.fam, ref.predicate("ready"),
                              ref.T_S, outcomes)
    probs = [outcome_probability(proc, i) for i in range(len(names))]
    assert abs(sum(probs) - 1.0) <= 1e-9
    expected = {"ready": 0.0, "blocked": 0.5, "I": 0.0, "Fup": 0.25, "Fdown": 0.25}
    for name, p in zip(names, probs):
        assert abs(p - expected[name]) <= 1e-9


def test_outcomes_must_follow_start(ref):
    outcomes = OutcomeSet((ref.predicate("I"),), ref.T0)
    with pytest.raises(DomainError):
        MeasurementProcess(ref.model, ref.fam, ref.predicate("I"), ref.T0, outcomes)


def test_position_distribution_tracks_the_particle(ref):
    proc = _proc_i_to_f(ref)
    path = kappa_path(proc, 0)
    dist = position_distribution(path, ref.position_cells)
    assert dist.shape == (2, 5)
    # all mass in detector 1 at t0, detector 2 at t1
    assert abs(dist[0, 3] - 1.0) <= 1e-9
    assert abs(dist[1, 4] - 1.0) <= 1e-9
    assert np.max(np.abs(dist.sum(axis=1) - 1.0)) <= 1e-9


def test_position_distribution_input_checks(ref):
    proc = _proc_i_to_f(ref)
    path = kappa_path(proc, 0)
    with pytest.raises(DomainError):
        position_distribution(path, ref.position_cells[:-1])  # incomplete
    overlapping = (ref.position_cells[0] + ref.position_cells[1],) + ref.position_cells[1:]
    with pytest.raises(DomainError):
        position_distribution(path, overlapping)
    with pytest.raises(DomainError):
        position_distribution(path, ())  # no cells
    with pytest.raises(ShapeError):
        position_distribution(path, (np.eye(3), np.eye(2)))  # mixed sizes
    with pytest.raises(ShapeError):
        # complete and orthogonal, but not on the path's d2 = 10
        position_distribution(path, (np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1.0])))


def test_refinement_merges_redundant_records():
    rr = build_redundant_record_experiment()
    outcomes = OutcomeSet((rr.predicates["Fab"], rr.predicates["Fdown"]), 2)
    proc = MeasurementProcess(rr.model, rr.fam, rr.predicates["I"], 1, outcomes)
    refined = refine_outcomes(proc)
    # the two redundant final records imply identical particle histories
    # and must land in one class; the down record stands alone
    assert refined.classes[0] == (frozenset({3, 4}),)
    assert refined.classes[1] == (frozenset({5}),)
    assert refined.unreachable == (frozenset(), frozenset())


def test_refinement_keeps_distinct_records_apart(ref):
    outcomes = OutcomeSet(
        (ref.predicate("Fup"), ref.predicate("Fdown"), ref.predicate("blocked")),
        ref.T1,
    )
    proc = MeasurementProcess(ref.model, ref.fam, ref.predicate("ready"),
                              ref.T_S, outcomes)
    refined = refine_outcomes(proc)
    assert all(len(cls) == 1 for classes in refined.classes for cls in classes)


def test_refinement_requires_diagonal_outcomes():
    from physborn.model import Model, PhysicalFamily, TimeGrid

    m = Model(2, 1, TimeGrid((0.0, 1.0)), (np.eye(2, dtype=complex),))
    fam = PhysicalFamily((np.eye(2, dtype=complex),) * 2)
    plus = np.full((2, 2), 0.5, dtype=complex)  # rank 1 but not diagonal
    proc = MeasurementProcess(m, fam, np.eye(2, dtype=complex), 0,
                              OutcomeSet((plus,), 1))
    with pytest.raises(DomainError):
        refine_outcomes(proc)
