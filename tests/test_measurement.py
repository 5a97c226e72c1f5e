"""Measurement processes, kappa paths, refinement, and position
distributions."""

import dataclasses
import json
import re

import numpy as np
import pytest

from physborn import born, condition, linalg, measurement, model, verify
from physborn.born import OutcomeSet, prob_forward, prob_intermediate_known
from physborn.condition import ConditionSpec, observable_rep, start_time
from physborn.errors import (
    DomainError,
    NotPhysicallyPossibleError,
    ShapeError,
    UnreachableConditionError,
)
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
    REC_F_DOWN,
    REC_F_UP,
    build_redundant_record_experiment,
    build_reference_experiment,
)

from conftest import dense_kappas


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


def _counted_lifts(monkeypatch) -> list:
    """Records each ``lift_system1`` call, in every module that imports it."""
    lifts = []
    real = model.lift_system1

    def counted(*args, **kwargs):
        lifts.append(args)
        return real(*args, **kwargs)

    for module in (model, condition, verify):
        monkeypatch.setattr(module, "lift_system1", counted)
    return lifts


def test_each_reachable_outcome_is_lifted_once(ref, monkeypatch):
    lifts = _counted_lifts(monkeypatch)
    _proc_i_to_f(ref)
    assert len(lifts) == 3      # the start space and the two outcomes


def test_observable_readers_take_the_lifts_of_the_representation(ref, monkeypatch):
    # observable_rep lifts each X(k) once; demand (2), the observable rule
    # and the observable anchors read those lifts
    assert not hasattr(born, "lift_system1") and not hasattr(measurement, "lift_system1")
    cond = ref.condition("Fup", ref.T1)
    rep = observable_rep(cond)
    proc = _proc_i_to_f(ref)
    lifts = _counted_lifts(monkeypatch)

    def count(call) -> int:
        lifts.clear()
        call()
        return len(lifts)

    assert count(lambda: start_time(cond, rep)) == 0
    assert count(lambda: prob_intermediate_known(cond, ref.predicate("I"), ref.T0, 0, rep)) == 1
    # the outcome's condition reads its held lift; then X(k) at k = 0..k2
    assert count(lambda: kappa_path(proc, 0, "observable")) == 3
    assert count(lambda: outcome_probability(proc, 0, "observable")) == 3
    assert count(lambda: observable_rep(cond)) == 3


def test_an_outcome_condition_is_the_condition_of_its_held_lift(ref):
    # built from the process's lift, it equals a condition built afresh,
    # for a complement-held outcome (I - Fup, rank above d/2) too
    fup = ref.predicate("Fup")
    outcomes = OutcomeSet((fup, np.eye(len(fup)) - fup), ref.T1)
    proc = MeasurementProcess(ref.model, ref.fam, ref.predicate("I"), ref.T0, outcomes)
    for i, y in enumerate(outcomes.projectors):
        held, fresh = proc.outcome_condition(i), ConditionSpec(ref.model, ref.fam, y, ref.T1)
        assert held.lifted is proc._lifted_outcome(i)
        assert np.array_equal(held.x1, fresh.x1) and held.k_c == fresh.k_c
        assert held.lifted._complement == fresh.lifted._complement
        assert np.array_equal(held.lifted.block, fresh.lifted.block)
        assert start_time(held) == start_time(fresh)
    assert [proc.outcome_condition(i).lifted._complement for i in range(2)] == [False, True]


def test_an_outcome_index_out_of_range_is_refused(ref):
    proc = _proc_i_to_f(ref)
    calls = (lambda i: outcome_probability(proc, i), lambda i: kappa_path(proc, i),
             lambda i: outcome_probability(proc, i, "observable"), proc.outcome_condition)
    for call in calls:
        for i in (-2, -1, 2):
            with pytest.raises(IndexError, match=f"^outcome index {i} out of range$"):
                call(i)
    assert kappa_path(proc, 1).outcome_index == 1


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


def test_outcome_refusals_keep_their_types_and_messages(ref):
    # an outcome with weight that does not commute with the family at k2
    u = np.zeros(5, dtype=complex)
    u[REC_F_UP] = u[REC_F_DOWN] = 2 ** -0.5
    tilted = np.outer(u, u.conj())
    message = f"condition predicate is not physically possible at index {ref.T1}"
    for outcomes in ((tilted, np.eye(5) - tilted), (np.eye(5) - tilted, tilted)):
        with pytest.raises(NotPhysicallyPossibleError, match=f"^{re.escape(message)}$"):
            MeasurementProcess(ref.model, ref.fam, ref.predicate("I"), ref.T0,
                               OutcomeSet(outcomes, ref.T1, complete=True))
    # outcomes must be system1 projectors; refused after the start space's checks
    full = OutcomeSet((np.eye(ref.model.dim),), ref.T1)
    with pytest.raises(ShapeError, match=r"^system1 operator shape \(50, 50\), expected \(5, 5\)$"):
        MeasurementProcess(ref.model, ref.fam, ref.predicate("I"), ref.T0, full)
    with pytest.raises(NotPhysicallyPossibleError, match="^start space is not physically possible"):
        MeasurementProcess(ref.model, ref.fam, ref.predicate("blocked"), ref.T_S, full)


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


def _unreachable_label_process(outcomes) -> MeasurementProcess:
    """A process on d1 = 3, d2 = 1 with identity dynamics from label 0 at
    index 0 to system1 records at index 1, where the family keeps label 0
    alone: every other label has no physical weight at k2."""
    p0 = np.diag([1.0, 0, 0]).astype(complex)
    m = model.Model(3, 1, model.TimeGrid((0.0, 1.0)), (np.eye(3, dtype=complex),))
    return MeasurementProcess(m, model.PhysicalFamily((p0, p0)), p0, 0, OutcomeSet(outcomes, 1))


def test_an_unreachable_outcome_has_no_normalized_path():
    # its kappas vanish, as the dense oracle's do, and rho_path refuses at
    # the first index of the window
    proc = _unreachable_label_process((np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])))
    path = kappa_path(proc, 1)
    for kap, dense in zip(path.kappas, dense_kappas(proc, 1)):
        assert not np.any(kap) and not np.any(dense)
    assert outcome_probability(proc, 1) == 0.0
    with pytest.raises(UnreachableConditionError, match="^outcome unreachable at index 0$"):
        rho_path(path)


def test_refinement_sets_apart_labels_without_weight():
    # label 1 of the reachable outcome {0, 1} and label 2, all of the
    # unreachable outcome {2}, have probability 0 by the dense kappas
    proc = _unreachable_label_process((np.diag([1.0, 1.0, 0]), np.diag([0, 0, 1.0])))
    refined = refine_outcomes(proc)
    assert refined.classes == ((frozenset({0}),), ())
    assert refined.unreachable == (frozenset({1}), frozenset({2}))
    for label, weight in ((0, 1.0), (1, 0.0), (2, 0.0)):
        single = _unreachable_label_process((np.diag(np.eye(3)[label]),))
        assert abs(np.trace(dense_kappas(single, 0)[-1]).real - weight) <= 1e-12


def test_a_near_record_is_judged_alike_by_serialize_and_refinement():
    # a diagonal entry 1 + 0.9e-9 (1 + i) has each part within eps_zero of
    # 1 but lies 1.27e-9 from it, so it is no record; 1 + 0.9e-9 is one
    from physborn.model import Model, PhysicalFamily, TimeGrid
    from physborn.scenario_io import serialize

    m = Model(2, 1, TimeGrid((0.0, 1.0)), (np.eye(2, dtype=complex),))
    fam = PhysicalFamily((np.eye(2, dtype=complex),) * 2)
    corner = np.diag([1 + 0.9e-9 * (1 + 1j), 0.0])
    near = np.diag([1 + 0.9e-9, 0.0])
    assert linalg.near_record_labels(corner, m.tol) is None
    assert linalg.near_record_labels(near, m.tol) == (0,)
    preds = json.loads(serialize("near", m, fam, {"corner": corner, "near": near}))["predicates"]
    assert list(preds["corner"]) == ["matrix"] and preds["near"] == {"labels": [0]}
    proc = MeasurementProcess(m, fam, np.eye(2, dtype=complex), 0, OutcomeSet((near,), 1))
    assert refine_outcomes(proc).classes == ((frozenset({0}),),)
    # the process refuses the corner as a projector (its Hermitian defect
    # is 1.8e-9), so refinement is handed it after construction
    object.__setattr__(proc, "outcomes", OutcomeSet((corner,), 1))
    with pytest.raises(DomainError, match="requires outcomes diagonal"):
        refine_outcomes(proc)


@pytest.mark.parametrize("start, k1, names, k2", [
    ("ready", 0, ("I", "blocked"), 1),
    ("I", 1, ("Fup", "Fdown"), 2),
])
def test_kappa_paths_answer_at_a_tiny_eigenvalue_cut(start, k1, names, k2):
    """Each kappa is PSD by construction, so a path is returned even when
    eps_eig lies below its rounding: its eigenvalues stay above -1e-15,
    and the last trace is the outcome probability."""
    ref = build_reference_experiment(linalg.Tolerance(1e-9, 1e-18))
    outcomes = OutcomeSet(tuple(ref.predicate(n) for n in names), k2)
    proc = MeasurementProcess(ref.model, ref.fam, ref.predicate(start), k1, outcomes)
    for i in range(len(names)):
        path = kappa_path(proc, i)
        assert min(np.linalg.eigvalsh(kap)[0] for kap in path.kappas) >= -1e-15
        assert abs(np.trace(path.at(k2)).real - outcome_probability(proc, i)) <= 1e-12


@pytest.mark.parametrize("closure_tol", ["default", "small"])
@pytest.mark.parametrize("rep", ["support", "observable"])
@pytest.mark.parametrize("build, start, outcomes, k1", [
    (build_reference_experiment, "I", ("Fup", "Fdown"), 1),
    (build_redundant_record_experiment, "I", ("Fab", "Fdown"), 1),
], ids=["reference", "redundant-record"])
def test_kappa_paths_match_the_oracle_at_a_small_eps_eig(build, start, outcomes, k1, rep,
                                                         closure_tol):
    # at eps_eig = 1e-18 the trimmed operators' rounding dips below
    # -eps_eig; neither the library nor the oracle refuses on it, and
    # every kappa is PSD up to rounding.  The family is built at the
    # default eps_eig or at 1e-18: above the rounding floor the forward
    # closure keeps the same directions at both.
    small = linalg.Tolerance(1e-9, 1e-18)
    ex = build(small) if closure_tol == "small" else build()
    m = dataclasses.replace(ex.model, tol=small)
    outs = OutcomeSet(tuple(ex.predicates[name] for name in outcomes), k1 + 1)
    proc = MeasurementProcess(m, ex.fam, ex.predicates[start], k1, outs)
    for i in range(len(outcomes)):
        path = kappa_path(proc, i, rep)
        dense = dense_kappas(proc, i, rep)
        assert len(path.kappas) == len(dense)
        for kap, want in zip(path.kappas, dense):
            assert linalg.max_abs(kap - want) <= 1e-12
            assert np.linalg.eigvalsh(want)[0] >= -1e-12
