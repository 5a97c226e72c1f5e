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
from .model import Model, PhysicalFamily, is_physically_possible, lift_predicate


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


def _report(cond: ConditionSpec, outcomes: OutcomeSet, direction: str) -> VerifiabilityReport:
    k = outcomes.k
    s = cond.k_c if direction == "forward" else k
    verdicts = []
    for y in outcomes.projectors:
        phys, cnd = verifiability_norms(cond, lift_predicate(cond.model, y, k), k, s)
        verdicts.append(OutcomeVerdict(phys, cnd,
                                       phys <= cond.tol.eps_zero and cnd <= cond.tol.eps_zero))
    return VerifiabilityReport(k, direction, tuple(verdicts),
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


def _split_eigenbasis(b: np.ndarray, px_side: np.ndarray,
                      tol: linalg.Tolerance) -> tuple:
    """Eigenvectors of a PSD Hermitian matrix with eigenvalue above the
    support threshold, rotated within degenerate clusters so each vector
    lies either inside or orthogonal to the given projector.

    Returns (inside, outside) lists of vectors; raises DomainError when a
    clean division does not exist.
    """
    w, v = np.linalg.eigh(linalg.hermitian_part(b))
    keep = np.nonzero(w > tol.eps_eig)[0]
    inside, outside = [], []
    i = 0
    while i < len(keep):
        # Cluster near-equal eigenvalues; eigh may mix their vectors.
        j = i + 1
        while j < len(keep) and abs(w[keep[j]] - w[keep[i]]) <= 100 * tol.eps_zero:
            j += 1
        block = v[:, keep[i:j]]
        overlap = block.conj().T @ px_side @ block
        mw, mv = np.linalg.eigh(linalg.hermitian_part(overlap))
        rotated = block @ mv
        for col, mu in zip(rotated.T, mw):
            if mu > 1 - 100 * tol.eps_eig:
                inside.append(col)
            elif mu < 100 * tol.eps_eig:
                outside.append(col)
            else:
                raise DomainError(
                    f"eigenbasis cannot be divided cleanly (membership {mu:.3e})"
                )
        i = j
    return inside, outside


def _zw_subspace(cond: ConditionSpec, py: np.ndarray, k: int, direction: str,
                 negate: bool) -> np.ndarray:
    """Z (or W with ``negate``) for the Heisenberg outcome operator py."""
    fam = cond.fam
    tol = cond.tol
    px = cond.projector
    eye = np.eye(px.shape[0], dtype=complex)

    if direction == "forward":
        # Outcome side is Y at k, classified against (not-)X; sandwich at
        # the condition index.
        s = cond.k_c
        anchor = fam.at(k) @ py        # physical part of Y
        member = fam.at(s) @ ((eye - px) if negate else px)
    elif direction == "backward":
        # Condition side is X at k_c, classified against (not-)Y; sandwich
        # at the outcome index.
        s = k
        anchor = fam.at(cond.k_c) @ px
        member = fam.at(s) @ ((eye - py) if negate else py)
    else:
        raise DomainError(f"unknown direction {direction!r}")

    b = fam.at(s) @ anchor @ fam.at(s)
    if linalg.max_abs(b) <= tol.eps_zero:
        return np.zeros_like(b)
    member_proj = linalg.support_projector(member @ member.conj().T, tol)
    inside, _ = _split_eigenbasis(b, member_proj, tol)
    if not inside:
        return np.zeros_like(b)
    # Each inside-eigenvector already lies in the range of P(s); applying
    # the anchor carries it to the subspace the Z/W projector lives on.
    carried = [anchor @ u for u in inside]
    carried = [c for c in carried if np.linalg.norm(c) > tol.eps_zero]
    if not carried:
        return np.zeros_like(b)
    return linalg.projector_from_span(carried, tol)


def z_subspace(cond: ConditionSpec, y, k: int, direction: str) -> np.ndarray:
    """Projector onto the elements of the outcome subspace that must have
    come from the condition.  Refuses when the outcome is not verifiable.
    """
    return _zw_subspace(cond, _verifiable_lift(cond, y, k, direction), k, direction,
                        negate=False)


def w_subspace(cond: ConditionSpec, y, k: int, direction: str) -> np.ndarray:
    """Projector onto the elements of the outcome subspace that certainly
    did not come from the condition."""
    return _zw_subspace(cond, _verifiable_lift(cond, y, k, direction), k, direction,
                        negate=True)


def _verifiable_lift(cond: ConditionSpec, y, k: int, direction: str) -> np.ndarray:
    """The lifted outcome, after checking both verifiability demands."""
    py = lift_predicate(cond.model, y, k)
    s = cond.k_c if direction == "forward" else k
    if max(verifiability_norms(cond, py, k, s)) > cond.tol.eps_zero:
        raise DomainError(
            "Z/W construction refused: outcome is not verifiable against the condition"
        )
    return py


def verify_trace_identity(cond: ConditionSpec, outcomes: OutcomeSet,
                          k0: int = 0) -> tuple:
    """Residual |LHS - RHS| per outcome of the rewritten probability
    numerator: the condition-sandwiched trace against Y versus the plain
    trace of Z against the index-k0 projector."""
    k = outcomes.k
    direction = "forward" if k > cond.k_c else "backward"
    report = _report(cond, outcomes, direction)
    if not report.verdict:
        raise DomainError("trace identity requires a verifiable outcome set")
    px = cond.projector
    p0 = cond.fam.at(k0)
    residuals = []
    for y in outcomes.projectors:
        py = lift_predicate(cond.model, y, k)
        pz = _zw_subspace(cond, py, k, direction, negate=False)
        if direction == "forward":
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
    tol = model.tol
    full_o = np.kron(linalg.as_matrix(pO), np.eye(model.d2, dtype=complex))
    full_m = np.kron(np.eye(model.d1, dtype=complex), linalg.as_matrix(pM))
    p = fam.at(k)
    for name, op in (("observer", full_o), ("target", full_m)):
        if not linalg.commutes(op, p, tol):
            raise NotPhysicallyPossibleError(
                f"hypothesis violated: {name} predicate does not commute with the family"
            )
        if linalg.max_abs(p @ op) <= tol.eps_zero:
            raise NotPhysicallyPossibleError(
                f"hypothesis violated: {name} predicate vanishes on the family"
            )
    phys_o = p @ full_o
    norm = linalg.commutator_norm(full_m, phys_o)
    return norm <= tol.eps_zero, norm


def conditionally_realizable(model: Model, fam: PhysicalFamily, pC, pR,
                             k: int) -> bool:
    """A subspace is conditionally realizable when it commutes with, and
    overlaps, the physical part of some physically possible reference."""
    tol = model.tol
    pC = linalg.as_matrix(pC)
    pR = linalg.as_matrix(pR)
    if not is_physically_possible(fam, pR, k, tol):
        raise NotPhysicallyPossibleError("reference subspace is not physically possible")
    phys_r = fam.at(k) @ pR
    return (
        linalg.commutes(pC, phys_r, tol)
        and linalg.max_abs(phys_r @ pC) > tol.eps_zero
    )
