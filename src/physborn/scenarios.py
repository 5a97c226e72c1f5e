"""Built-in models.

The centerpiece is a minimal cell-discretized Stern-Gerlach experiment:
a spin-1/2 particle leaves a source, a y-oriented magnet either sends it
into a detector (spin up) or a barrier (spin down), and a second
x-oriented stage splits the detected branch into two final detector
records.  A five-state record register absorbs the experimental
equipment wholesale; the particle is a spin qubit tensored with five
path cells.  Every step unitary is a permutation of product basis states
built in spin eigenbases, so unreachable sectors are completed with
identity blocks and the construction is exactly reproducible.

Also provided: the observer-subspace toy model (one orthonormal observer
state per spin direction), the textbook two-time rule used as a
reduction oracle, and the report demonstrating why the textbook rule
cannot produce both the forward and the retrodicted probability at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .born import prob_approx, prob_forward
from .condition import ConditionSpec
from .errors import DomainError, UnreachableConditionError
from .linalg import DEFAULT_TOL, Tolerance
from .model import (
    Model,
    PhysicalFamily,
    TimeGrid,
    forward_closure,
    heisenberg,
    lift_predicate,
    lift_system1,
)

# Record register labels (system1).
REC_READY = 0
REC_BLOCKED = 1
REC_I = 2          # set-up recorded through the first detector
REC_F_UP = 3       # second detector, upper half
REC_F_DOWN = 4     # second detector, lower half
RECORD_NAMES = ("ready", "blocked", "I", "Fup", "Fdown")

# Path cells (second factor of system2).
CELL_SOURCE = 0
CELL_SG1_UP = 1
CELL_BARRIER = 2
CELL_DET1 = 3
CELL_DET2 = 4
CELL_NAMES = ("source", "sg1up", "barrier", "det1", "det2")

N_RECORDS = 5
N_CELLS = 5
D2 = 2 * N_CELLS   # spin qubit (x) path cells

# Spin-1/2 states in the z basis.
KET_Z_UP = np.array([1.0, 0.0], dtype=complex)
KET_Z_DOWN = np.array([0.0, 1.0], dtype=complex)
KET_X_UP = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
KET_X_DOWN = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
KET_Y_UP = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
KET_Y_DOWN = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2)


def _basis_state(record: int, spin: np.ndarray, cell: int, n_records: int = N_RECORDS) -> np.ndarray:
    rec = np.zeros(n_records, dtype=complex)
    rec[record] = 1.0
    path = np.zeros(N_CELLS, dtype=complex)
    path[cell] = 1.0
    return np.kron(rec, np.kron(spin, path))


def _permutation_unitary(dim: int, cycles) -> np.ndarray:
    """Unitary acting as 2-cycles on the given orthonormal vector pairs
    and as the identity on their complement."""
    u = np.eye(dim, dtype=complex)
    for a, b in cycles:
        a = np.asarray(a, dtype=complex).reshape(-1)
        b = np.asarray(b, dtype=complex).reshape(-1)
        # swap a <-> b: subtract their identity action, add the swap
        u = u - np.outer(a, a.conj()) - np.outer(b, b.conj()) \
              + np.outer(b, a.conj()) + np.outer(a, b.conj())
    return u


def _diagonal_projector(labels, n: int = N_RECORDS) -> np.ndarray:
    """n x n projector onto the given basis labels (records by default)."""
    p = np.zeros((n, n), dtype=complex)
    for l in labels:
        p[l, l] = 1.0
    return p


@dataclass(frozen=True)
class ReferenceExperiment:
    """The built reference model with its named pieces.

    Grid indices: 0 = t_s (source), 1 = t_0 (first detector),
    2 = t_1 (second detector).
    """

    model: Model
    fam: PhysicalFamily
    predicates: dict          # name -> d1 x d1 record projector
    position_cells: tuple     # complete orthogonal system2 cell projectors

    T_S = 0
    T0 = 1
    T1 = 2

    def predicate(self, name: str) -> np.ndarray:
        return self.predicates[name]

    def condition(self, name: str, k: int, tol: Tolerance = DEFAULT_TOL) -> ConditionSpec:
        return ConditionSpec(self.model, self.fam, self.predicates[name], k, tol)


def _first_step(n_records: int) -> np.ndarray:
    """The y magnet: spin up enters detector 1 and writes I, spin down
    hits the barrier and writes blocked."""
    return _permutation_unitary(n_records * D2, [
        (_basis_state(REC_READY, KET_Y_UP, CELL_SOURCE, n_records),
         _basis_state(REC_I, KET_Y_UP, CELL_DET1, n_records)),
        (_basis_state(REC_READY, KET_Y_DOWN, CELL_SOURCE, n_records),
         _basis_state(REC_BLOCKED, KET_Y_DOWN, CELL_BARRIER, n_records)),
    ])


def _source_states(n_records: int) -> list:
    """Both z spin states of the ready particle at the source."""
    return [_basis_state(REC_READY, spin, CELL_SOURCE, n_records)
            for spin in (KET_Z_UP, KET_Z_DOWN)]


def _reference_steps() -> tuple:
    step2 = _permutation_unitary(N_RECORDS * D2, [
        (_basis_state(REC_I, KET_X_UP, CELL_DET1),
         _basis_state(REC_F_UP, KET_X_UP, CELL_DET2)),
        (_basis_state(REC_I, KET_X_DOWN, CELL_DET1),
         _basis_state(REC_F_DOWN, KET_X_DOWN, CELL_DET2)),
    ])
    return _first_step(N_RECORDS), step2


def build_reference_experiment(tol: Tolerance = DEFAULT_TOL) -> ReferenceExperiment:
    """Assemble the reference model, its physical family, and the named
    record predicates."""
    model = Model(
        d1=N_RECORDS,
        d2=D2,
        grid=TimeGrid((0.0, 1.0, 2.0)),
        steps=_reference_steps(),
        tol=tol,
    )
    # At the final time each individual outcome state is physically
    # possible on its own, not only the combination reachable from the
    # ready start; they enter as extra generators.
    extras = {
        2: [
            _basis_state(REC_F_UP, KET_X_UP, CELL_DET2),
            _basis_state(REC_F_DOWN, KET_X_DOWN, CELL_DET2),
        ]
    }
    fam = forward_closure(model, _source_states(N_RECORDS), extras, tol)
    eye1 = np.eye(N_RECORDS, dtype=complex)
    predicates = {
        "ready": _diagonal_projector([REC_READY]),
        "blocked": _diagonal_projector([REC_BLOCKED]),
        "I": _diagonal_projector([REC_I]),
        "Fup": _diagonal_projector([REC_F_UP]),
        "Fdown": _diagonal_projector([REC_F_DOWN]),
        "notI": eye1 - _diagonal_projector([REC_I]),
    }
    cells = tuple(
        np.kron(np.eye(2, dtype=complex), _diagonal_projector([c], N_CELLS))
        for c in range(N_CELLS)
    )
    return ReferenceExperiment(model, fam, predicates, cells)


# Redundant-record variant: the first detector branch ends in an even
# superposition of two final record labels that imply the same particle
# state, so outcome refinement must merge them into one class.
REC6_F_A = 3
REC6_F_B = 4
REC6_F_DOWN = 5
RECORD6_NAMES = ("ready", "blocked", "I", "Fa", "Fb", "Fdown")


@dataclass(frozen=True)
class RedundantRecordExperiment:
    model: Model
    fam: PhysicalFamily
    predicates: dict


def build_redundant_record_experiment(tol: Tolerance = DEFAULT_TOL) -> RedundantRecordExperiment:
    n_rec = 6
    f_a = _basis_state(REC6_F_A, KET_X_UP, CELL_DET2, n_rec)
    f_b = _basis_state(REC6_F_B, KET_X_UP, CELL_DET2, n_rec)
    # Three-vector cycle subspace: the detected +x branch lands on the
    # even superposition of the two redundant records.
    step2 = _permutation_unitary(n_rec * D2, [
        (_basis_state(REC_I, KET_X_UP, CELL_DET1, n_rec), (f_a + f_b) / np.sqrt(2)),
        (_basis_state(REC_I, KET_X_DOWN, CELL_DET1, n_rec),
         _basis_state(REC6_F_DOWN, KET_X_DOWN, CELL_DET2, n_rec)),
    ])
    model = Model(n_rec, D2, TimeGrid((0.0, 1.0, 2.0)), (_first_step(n_rec), step2), tol)
    extras = {
        2: [
            (f_a + f_b) / np.sqrt(2),
            _basis_state(REC6_F_DOWN, KET_X_DOWN, CELL_DET2, n_rec),
        ]
    }
    fam = forward_closure(model, _source_states(n_rec), extras, tol)
    predicates = {
        "ready": _diagonal_projector([REC_READY], n_rec),
        "I": _diagonal_projector([REC_I], n_rec),
        "Fa": _diagonal_projector([REC6_F_A], n_rec),
        "Fb": _diagonal_projector([REC6_F_B], n_rec),
        "Fab": _diagonal_projector([REC6_F_A, REC6_F_B], n_rec),
        "Fdown": _diagonal_projector([REC6_F_DOWN], n_rec),
    }
    return RedundantRecordExperiment(model, fam, predicates)


def spin_state(direction) -> np.ndarray:
    """+1 eigenvector of s.sigma for a unit 3-vector (sx, sy, sz)."""
    sx, sy, sz = (float(c) for c in direction)
    norm = np.sqrt(sx * sx + sy * sy + sz * sz)
    if abs(norm - 1.0) > 1e-9:
        raise DomainError("direction must be a unit vector")
    theta = np.arccos(np.clip(sz, -1.0, 1.0))
    phi = np.arctan2(sy, sx)
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)],
                    dtype=complex)


@dataclass(frozen=True)
class SGObserverSpace:
    """One orthonormal observer state per spin direction, tied to the
    matching spin state in the physical subspace."""

    model: Model
    fam: PhysicalFamily
    directions: tuple
    spin_states: tuple       # system2 kets
    observer_projectors: tuple   # d1 x d1 rank-1 projectors

    def spin_projector(self, i: int) -> np.ndarray:
        s = self.spin_states[i]
        return np.outer(s, s.conj())


def build_sg_observer_space(directions, tol: Tolerance = DEFAULT_TOL) -> SGObserverSpace:
    """Static model: d1 observer states, a spin qubit, identity dynamics,
    and the physical projector summing |O(s)><O(s)| (x) |s><s|."""
    directions = tuple(tuple(float(c) for c in d) for d in directions)
    for i, a in enumerate(directions):
        for b in directions[i + 1:]:
            if max(abs(x - y) for x, y in zip(a, b)) < 1e-12:
                raise DomainError(f"duplicate direction {a}")
    d1 = len(directions)
    if d1 < 1:
        raise DomainError("need at least one direction")
    spins = tuple(spin_state(d) for d in directions)
    dim = d1 * 2
    proj = np.zeros((dim, dim), dtype=complex)
    obs_projs = []
    for i, s in enumerate(spins):
        o = np.zeros(d1, dtype=complex)
        o[i] = 1.0
        obs_projs.append(np.outer(o, o.conj()))
        v = np.kron(o, s)
        proj += np.outer(v, v.conj())
    model = Model(d1, 2, TimeGrid((0.0, 1.0)), (np.eye(dim, dtype=complex),), tol)
    fam = PhysicalFamily((proj, proj))
    return SGObserverSpace(model, fam, directions, spins, tuple(obs_projs))


def textbook_born(model: Model, pX, k_x: int, pY, k_y: int,
                  tol: Tolerance = DEFAULT_TOL) -> float:
    """The unamended two-time rule Tr(X Y) / Tr(X) with both predicates
    Heisenberg-lifted; the reduction oracle for the amended rules."""
    px = lift_predicate(model, pX, k_x)
    py = lift_predicate(model, pY, k_y)
    den = np.trace(px).real
    if den <= tol.eps_zero:
        raise UnreachableConditionError("textbook condition has zero trace")
    return float(np.trace(px @ py).real / den)


@dataclass(frozen=True)
class MicrostateResult:
    label: str
    weight: float            # physical weight of the microstate
    probability: float       # forward probability of Fup at t1


@dataclass(frozen=True)
class IntroReport:
    """The two relations the unamended rule cannot produce together, and
    the amended values that restore both."""

    textbook_retrodiction: float       # < 1: the rule forgets the record
    microstates: tuple                 # MicrostateResult per microstate, all < 1
    amended_retrodiction: float        # = 1
    amended_forward: float             # = 0.5
    both_relations_restored: bool


def intro_inconsistency_demo(tol: Tolerance = DEFAULT_TOL) -> IntroReport:
    """Evaluate the reference experiment four ways.

    (a) textbook retrodiction of the first record from the final record
    is below 1; (b) no microstate compatible with the first record makes
    the final outcome certain; (c) the amended rules give retrodiction 1
    and forward probability 1/2, restoring both relations at once.
    """
    ref = build_reference_experiment(tol)
    model, fam = ref.model, ref.fam
    p_i = lift_system1(model, ref.predicate("I"), ref.T0)
    p_fup = lift_system1(model, ref.predicate("Fup"), ref.T1)

    textbook = textbook_born(model, ref.predicate("I"), ref.T0,
                             ref.predicate("Fup"), ref.T1, tol)

    # Microstates: eigenbasis of the physical part of the record
    # predicate, plus every product-basis record-I state with nonzero
    # physical weight.
    micro = []
    phys_i = fam.at(ref.T0) @ p_i
    w, v = np.linalg.eigh(linalg.hermitian_part(phys_i))
    n_phys = 0
    for col, lam in zip(v.T, w):
        if lam < 1 - 100 * tol.eps_eig:
            continue
        n_phys += 1
        micro.append(("physical-eigenstate-%d" % n_phys, np.outer(col, col.conj())))
    for spin_name, spin in (("z+", KET_Z_UP), ("z-", KET_Z_DOWN)):
        for cell in range(N_CELLS):
            ket = _basis_state(REC_I, spin, cell)
            px = heisenberg(model, np.outer(ket, ket.conj()), ref.T0)
            if np.trace(fam.at(ref.T0) @ px).real <= tol.eps_zero:
                continue
            micro.append((f"I,spin {spin_name},{CELL_NAMES[cell]}", px))

    p0 = fam.at(0)
    results = []
    for label, px in micro:
        weight = np.trace(px @ p0).real
        value = np.trace(p_fup @ px @ p0 @ px).real / weight
        results.append(MicrostateResult(label, float(weight), float(value)))

    cond_fup = ref.condition("Fup", ref.T1, tol)
    retro = prob_approx(cond_fup, ref.predicate("I"), ref.T0).value
    cond_i = ref.condition("I", ref.T0, tol)
    forward = prob_forward(cond_i, ref.predicate("Fup"), ref.T1).value

    restored = abs(retro - 1.0) <= 1e-9 and all(r.probability < 1 - 1e-6 for r in results)
    return IntroReport(float(textbook), tuple(results), float(retro),
                       float(forward), restored)
