"""Built-in scenario constructions and their frozen numbers."""

import numpy as np
import pytest

from physborn import linalg
from physborn.born import OutcomeSet, prob_approx, prob_forward, prob_intermediate_full
from physborn.errors import DomainError
from physborn.linalg import Tolerance
from physborn.model import (
    is_physically_possible,
    lift_system1,
    schrodinger,
    validate_family,
)
from physborn.scenarios import (
    build_redundant_record_experiment,
    build_reference_experiment,
    build_sg_observer_space,
    intro_inconsistency_demo,
    spin_state,
    textbook_born,
)

from conftest import check_self_consistency

# value fixed by direct computation in the built model, then frozen
TEXTBOOK_RETRODICTION = 0.1


@pytest.fixture(scope="module")
def ref():
    return build_reference_experiment()


def test_dimensions_and_unitarity(ref):
    assert ref.model.d1 == 5 and ref.model.d2 == 10
    assert ref.model.n_indices == 3
    for u in ref.model.steps:
        assert linalg.is_unitary(u, ref.model.tol)


def test_family_validates_and_is_self_consistent(ref):
    assert validate_family(ref.model, ref.fam).passed
    for name, k in (("I", ref.T0), ("Fup", ref.T1), ("Fdown", ref.T1)):
        lifted = lift_system1(ref.model, ref.predicate(name), k)
        assert check_self_consistency(ref.model, ref.fam, lifted, k)


def test_record_i_pins_down_the_particle(ref):
    # inside the physical subspace at t0, the first detector record
    # forces spin +y in the detector-1 cell
    p = ref.fam.at(ref.T0)
    li = lift_system1(ref.model, ref.predicate("I"), ref.T0)
    red = linalg.partial_trace_1(
        schrodinger(ref.model, p @ li @ p, ref.T0), 5, 10
    )
    red = red / np.trace(red).real
    ypl = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
    cell = np.zeros(5, dtype=complex)
    cell[3] = 1.0
    target = np.kron(ypl, cell)
    assert np.max(np.abs(red - np.outer(target, target.conj()))) <= 1e-9


def test_forward_probability_is_half(ref):
    cond = ref.condition("I", ref.T0)
    assert abs(prob_forward(cond, ref.predicate("Fup"), ref.T1).value - 0.5) <= 1e-9


def test_amended_retrodiction_is_one(ref):
    cond = ref.condition("Fup", ref.T1)
    assert abs(prob_approx(cond, ref.predicate("I"), ref.T0).value - 1.0) <= 1e-9
    outcomes = OutcomeSet((ref.predicate("I"), ref.predicate("notI")),
                          ref.T0, complete=True)
    assert abs(prob_intermediate_full(cond, outcomes, 0).value - 1.0) <= 1e-9


def test_textbook_retrodiction_fails(ref):
    value = textbook_born(ref.model, ref.predicate("I"), ref.T0,
                          ref.predicate("Fup"), ref.T1)
    assert value < 1 - 1e-6
    assert abs(value - TEXTBOOK_RETRODICTION) <= 1e-9


def test_textbook_born_trivial_cases(ref):
    eye1 = np.eye(5, dtype=complex)
    assert abs(textbook_born(ref.model, ref.predicate("I"), ref.T0, eye1, ref.T0) - 1.0) <= 1e-12
    assert abs(textbook_born(ref.model, ref.predicate("I"), ref.T0,
                             ref.predicate("I"), ref.T0) - 1.0) <= 1e-12


def test_complete_outcomes_from_ready_sum_to_one(ref):
    cond = ref.condition("ready", ref.T_S)
    total = sum(
        prob_forward(cond, ref.predicate(n), ref.T1).value
        for n in ("Fup", "Fdown", "blocked")
    )
    assert abs(total - 1.0) <= 1e-9


def test_intro_demo_report():
    report = intro_inconsistency_demo()
    assert report.textbook_retrodiction < 1 - 1e-6
    assert report.microstates  # the physical I-subspace is nonempty
    for m in report.microstates:
        assert m.weight > 1e-9
        assert m.probability < 1 - 1e-6
    assert abs(report.amended_retrodiction - 1.0) <= 1e-9
    assert abs(report.amended_forward - 0.5) <= 1e-9
    assert report.both_relations_restored


def test_spin_state_directions():
    up = spin_state((0.0, 0.0, 1.0))
    assert np.max(np.abs(up - np.array([1.0, 0.0]))) <= 1e-12
    xp = spin_state((1.0, 0.0, 0.0))
    assert abs(abs(np.vdot(xp, up)) ** 2 - 0.5) <= 1e-12
    with pytest.raises(DomainError):
        spin_state((1.0, 1.0, 1.0))  # not unit length


def test_observer_space_construction():
    one = build_sg_observer_space([(0.0, 0.0, 1.0)])
    assert linalg.rank_of(one.fam.at(0), one.model.tol) == 1
    two = build_sg_observer_space([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
    assert linalg.rank_of(two.fam.at(0), two.model.tol) == 2
    assert linalg.is_projector(two.fam.at(0), two.model.tol)
    with pytest.raises(DomainError):
        build_sg_observer_space([(0.0, 0.0, 1.0), (0.0, 0.0, 1.0)])
    with pytest.raises(DomainError):
        build_sg_observer_space([])


def test_four_direction_observer_space_spin_not_possible():
    sp = build_sg_observer_space(
        [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]
    )
    for i in range(4):
        full = np.kron(np.eye(4, dtype=complex), sp.spin_projector(i))
        assert not is_physically_possible(sp.model, sp.fam, full, 0)


def test_redundant_record_scenario_validates():
    rr = build_redundant_record_experiment()
    assert validate_family(rr.model, rr.fam).passed
    for u in rr.model.steps:
        assert linalg.is_unitary(u, rr.model.tol)


def test_conditions_take_the_model_tolerance():
    tol = Tolerance(1e-6, 1e-5)
    ref = build_reference_experiment(tol)
    assert ref.condition("I", ref.T0).tol == tol
