"""Verifiability analysis.

Probabilities are verifiable when every outcome retains the information
that the condition held.  That reduces to two commutator demands per
outcome; when they pass, the outcome subspace splits into the part that
certainly came from the condition (Z) and the part that certainly did
not (W), and the probability can be rewritten as a trace against Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .born import OutcomeSet, verifiability_norms
from .condition import ConditionSpec
from .errors import DomainError, NotPhysicallyPossibleError
from .model import (
    Model,
    PhysicalFamily,
    is_physically_possible,
    lift_predicate,
    lift_system1,
    lift_system2,
)


@dataclass(frozen=True)
class OutcomeVerdict:
    commutator_physical: float
    commutator_condition: float
    verdict: bool


@dataclass(frozen=True)
class VerifiabilityReport:
    k: int
    direction: str           # "forward" | "backward"
    outcomes: tuple          # OutcomeVerdict per outcome
    verdict: bool


def _lifted_verdicts(cond: ConditionSpec, outcomes: OutcomeSet) -> list:
    """(Heisenberg outcome operator, OutcomeVerdict) per outcome, after
    checking the set within the model's tolerance; each outcome is lifted
    once."""
    linalg.orthogonal_projectors(outcomes.projectors, outcomes.complete, cond.tol)
    k = outcomes.k
    pairs = []
    for y in outcomes.projectors:
        py = lift_predicate(cond.model, y, k)
        phys, cnd = verifiability_norms(cond, py, k)
        pairs.append((py, OutcomeVerdict(phys, cnd, max(phys, cnd) <= cond.tol.eps_zero)))
    return pairs


def _report(cond: ConditionSpec, outcomes: OutcomeSet, direction: str) -> VerifiabilityReport:
    verdicts = tuple(v for _, v in _lifted_verdicts(cond, outcomes))
    return VerifiabilityReport(outcomes.k, direction, verdicts,
                               all(v.verdict for v in verdicts))


def verifiable_forward(cond: ConditionSpec, outcomes: OutcomeSet) -> VerifiabilityReport:
    """Verifiability of outcomes obtained after the condition; the
    condition-commutator is sandwiched at k_c."""
    if outcomes.k <= cond.k_c:
        raise DomainError("verifiable_forward requires outcomes after the condition index")
    return _report(cond, outcomes, "forward")


def verifiable_backward(cond: ConditionSpec, outcomes: OutcomeSet) -> VerifiabilityReport:
    """Verifiability of outcomes obtained before the condition; the
    condition-commutator is sandwiched at the outcome index."""
    if outcomes.k >= cond.k_c:
        raise DomainError("verifiable_backward requires outcomes before the condition index")
    return _report(cond, outcomes, "backward")


def _zw_subspace(cond: ConditionSpec, py: np.ndarray, k: int, negate: bool) -> np.ndarray:
    """Z (or W with ``negate``) for the verified Heisenberg outcome
    operator py at k.

    The later of the two predicates supplies A, its physical part at its
    own index; the earlier one, E (or I - E for W), is taken at the
    earlier index s.  The demands make P(s) A P(s) commute with the
    projector P(s) E, so A carries the range of P(s) E onto Z: the range
    of A P(s) E.  Its squared singular values are the eigenvalues of
    P(s) A P(s) on the range of P(s) E, so the support cut at eps_eig
    drops exactly the directions where that operator falls below it.
    """
    if k == cond.k_c:
        raise DomainError("Z/W construction refused: outcome and condition share index "
                          f"{k}, so neither direction applies")
    fam = cond.fam
    px = cond.projector
    if k > cond.k_c:
        a, e = fam.at(k) @ py, px         # physical Y, classified against X
    else:
        a, e = fam.at(cond.k_c) @ px, py  # physical X, classified against Y
    if negate:
        e = np.eye(e.shape[0], dtype=complex) - e
    ae = a @ fam.at(min(k, cond.k_c)) @ e
    return linalg.support_projector(ae @ ae.conj().T, cond.tol)


def _verifiable_lift(cond: ConditionSpec, y, k: int) -> np.ndarray:
    """The lifted outcome, after checking both verifiability demands."""
    py = lift_predicate(cond.model, y, k)
    if max(verifiability_norms(cond, py, k)) > cond.tol.eps_zero:
        raise DomainError(
            "Z/W construction refused: outcome is not verifiable against the condition"
        )
    return py


def z_subspace(cond: ConditionSpec, y, k: int) -> np.ndarray:
    """Projector onto the elements of the outcome subspace that must have
    come from the condition.  Refuses when the outcome is not verifiable
    or sits at the condition index.
    """
    return _zw_subspace(cond, _verifiable_lift(cond, y, k), k, negate=False)


def w_subspace(cond: ConditionSpec, y, k: int) -> np.ndarray:
    """Projector onto the elements of the outcome subspace that certainly
    did not come from the condition."""
    return _zw_subspace(cond, _verifiable_lift(cond, y, k), k, negate=True)


def verify_trace_identity(cond: ConditionSpec, outcomes: OutcomeSet,
                          k0: int = 0) -> tuple:
    """Residual |LHS - RHS| per outcome of the rewritten probability
    numerator: the condition-sandwiched trace against Y versus the plain
    trace of Z against the index-k0 projector."""
    k = outcomes.k
    lifted = _lifted_verdicts(cond, outcomes)
    if not all(v.verdict for _, v in lifted):
        raise DomainError("trace identity requires a verifiable outcome set")
    px = cond.projector
    p0 = cond.fam.at(k0)
    residuals = []
    for py, _ in lifted:
        pz = _zw_subspace(cond, py, k, negate=False)
        if k > cond.k_c:
            lhs = np.trace(py @ px @ p0 @ px).real
        else:
            lhs = np.trace(cond.fam.at(k) @ py @ px @ p0).real
        rhs = np.trace(pz @ p0).real
        residuals.append(abs(lhs - rhs))
    return tuple(residuals)


def observer_restriction_check(model: Model, fam: PhysicalFamily, pO, pM,
                               k: int) -> tuple:
    """Given commuting, nonvanishing system1 observer and system2 target
    predicates, the target must commute with the physical part of the
    observer.  Returns (holds, commutator_norm)."""
    full_o = lift_system1(model, pO)
    full_m = lift_system2(model, pM)
    for name, op in (("observer", full_o), ("target", full_m)):
        if not is_physically_possible(model, fam, op, k):
            raise NotPhysicallyPossibleError(
                f"hypothesis violated: {name} predicate is not physically possible at index {k}"
            )
    norm = linalg.commutator_norm(full_m, fam.at(k) @ full_o)
    return norm <= model.tol.eps_zero, norm


def conditionally_realizable(model: Model, fam: PhysicalFamily, pC, pR,
                             k: int) -> bool:
    """A subspace is conditionally realizable when it commutes with, and
    overlaps, the physical part of some physically possible reference."""
    tol = model.tol
    pC = linalg.as_matrix(pC)
    pR = linalg.as_matrix(pR)
    if not is_physically_possible(model, fam, pR, k):
        raise NotPhysicallyPossibleError("reference subspace is not physically possible")
    phys_r = fam.at(k) @ pR
    return (
        linalg.commutes(pC, phys_r, tol)
        and linalg.max_abs(phys_r @ pC) > tol.eps_zero
    )
