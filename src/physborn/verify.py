"""Verifiability analysis.

Probabilities are verifiable when every outcome retains the information
that the condition held.  That reduces to two commutator demands per
outcome, decided from blocks by :func:`born.verifiable`; the dense
commutator norms (:func:`born.verifiability_norms`) are only reported,
by :func:`verifiability`.  When the demands pass, the outcome subspace
splits into the part that certainly came from the condition (Z) and the
part that certainly did not (W), and the probability can be rewritten as
a trace against Z.
Outcomes and the condition are read as ``model.lift_predicate`` holds
them, and Z as a range basis; only :func:`z_subspace` and
:func:`w_subspace` form a d x d projector.  The family enters through
their trimmed factors (``Lifted.trimmed``) and P(k) B
(``PhysicalFamily.apply``): one formula for every form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .born import OutcomeSet, _trace, verifiability_norms, verifiable
from .condition import ConditionSpec, condition_state
from .errors import DomainError, NotPhysicallyPossibleError
from .model import (
    Lifted,
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


def verifiability(cond: ConditionSpec, outcomes: OutcomeSet) -> VerifiabilityReport:
    """Verifiability of an outcome set against the condition.

    The direction follows from the indices: ``forward`` for outcomes
    after the condition, ``backward`` for outcomes before it.  The
    condition-commutator is sandwiched at the earlier of the two
    indices.  Outcomes at the condition index are refused.  Each verdict
    is :func:`born.verifiable`; the two commutator norms beside it are
    measured densely (:func:`born.verifiability_norms`) for the report.
    """
    if outcomes.k == cond.k_c:
        raise DomainError("verifiability requires outcomes at an index other than "
                          f"the condition index {cond.k_c}")
    direction = "forward" if outcomes.k > cond.k_c else "backward"
    k = outcomes.k
    verdicts = []
    for member in outcomes.lifted(cond.model):
        phys, cnd = verifiability_norms(cond, member, k)
        verdicts.append(OutcomeVerdict(phys, cnd, verifiable(cond, member, k)))
    return VerifiabilityReport(k, direction, tuple(verdicts),
                               all(v.verdict for v in verdicts))


def _zw_subspace(cond: ConditionSpec, y: Lifted, k: int, negate: bool) -> np.ndarray:
    """Orthonormal basis of Z (or W with ``negate``) for the verified
    lifted outcome Y at k.

    The later of the two predicates, X_a, supplies A = P(k_a) X_a, its
    physical part at its own index k_a; the earlier one, E (or I - E for
    W), is applied at the earlier index s in the form it is held by.  The
    demands make P(s) A P(s) commute with the projector P(s) E, so A
    carries the range of P(s) E onto Z: the range of A P(s) E.  Its
    squared singular values are the eigenvalues of P(s) A P(s) on the
    range of P(s) E, so the support cut at eps_eig drops exactly the
    directions where that operator falls below it.

    With the trimmed factor T(k) = P(k) L of X_a = L L^dagger
    (``Lifted.trimmed``), A P(s) E = T(k_a) (E T(s))^dagger.  The QR
    factorization E T(s) = Q R leaves T(k_a) R^dagger Q^dagger, whose
    range is that of T(k_a) R^dagger, with the same singular values: Z is
    its range (``Lifted.trimmed_range``).
    """
    if k == cond.k_c:
        raise DomainError("Z/W construction refused: outcome and condition share index "
                          f"{k}, so neither direction applies")
    fam = cond.fam
    if k > cond.k_c:
        a, e = y, cond.lifted       # physical Y, classified against X
    else:
        a, e = cond.lifted, y       # physical X, classified against Y
    ts = a.trimmed(fam, min(k, cond.k_c))
    r = np.linalg.qr(e.outside(ts) if negate else e.inside(ts), mode="r")
    return a.trimmed_range(fam, max(k, cond.k_c), r)


def _verifiable_lift(cond: ConditionSpec, y, k: int) -> Lifted:
    """The lifted outcome, after checking both verifiability demands."""
    lifted = lift_predicate(cond.model, y, k)
    if not verifiable(cond, lifted, k):
        raise DomainError(
            "Z/W construction refused: outcome is not verifiable against the condition"
        )
    return lifted


def z_subspace(cond: ConditionSpec, y, k: int) -> np.ndarray:
    """Projector onto the elements of the outcome subspace that must have
    come from the condition.  Refuses when the outcome is not verifiable
    or sits at the condition index.
    """
    q = _zw_subspace(cond, _verifiable_lift(cond, y, k), k, negate=False)
    return q @ q.conj().T


def w_subspace(cond: ConditionSpec, y, k: int) -> np.ndarray:
    """Projector onto the elements of the outcome subspace that certainly
    did not come from the condition."""
    q = _zw_subspace(cond, _verifiable_lift(cond, y, k), k, negate=True)
    return q @ q.conj().T


def verify_trace_identity(cond: ConditionSpec, outcomes: OutcomeSet,
                          k0: int = 0) -> tuple:
    """Residual |LHS - RHS| per outcome of the rewritten probability
    numerator: the trace of Y against the condition operator rho = X
    P(k0) X (forward) or of P(k) Y X against P(k0) (backward), versus
    the plain trace of Z against the index-k0 projector, Tr(Q^dagger P(k0)
    Q) for the range basis Q of Z (a squared Frobenius norm for a family
    of bases).  ``k0`` is refused as in the probability rules."""
    k = outcomes.k
    lifted = list(outcomes.lifted(cond.model))
    if not all(verifiable(cond, y, k) for y in lifted):
        raise DomainError("trace identity requires a verifiable outcome set")
    phi, core = condition_state(cond, k0)   # also refuses k0 as the rules do
    residuals = []
    for y in lifted:
        qz = _zw_subspace(cond, y, k, negate=False)
        if k > cond.k_c:
            lhs = _trace(y.factor(phi), core).real
        else:   # the real part of Tr(L^dagger Y P(k) T(k0)), T(k0) = P(k0) L
            t0 = cond.lifted.trimmed(cond.fam, k0)
            lhs = np.trace(cond.lifted.factor(y.inside(cond.fam.apply(k, t0)))).real
        rhs = np.trace(cond.fam.sandwich(k0, qz)).real
        residuals.append(abs(lhs - rhs))
    return tuple(residuals)


def observer_restriction_check(model: Model, fam: PhysicalFamily, pO, pM,
                               k: int) -> tuple:
    """Given a system1 observer O and a system2 target M, both lifted at k
    and physically possible there (decided as for a condition), M must
    commute with the physical part P(k) O of the observer.  Returns
    (holds, max entry of [M, P(k) O])."""
    wo, wm = lift_system1(model, pO, k), lift_system2(model, pM, k)
    for name, w in (("observer", wo), ("target", wm)):
        if not Lifted(model, w).is_possible(fam, k):
            raise NotPhysicallyPossibleError(
                f"hypothesis violated: {name} predicate is not physically possible at index {k}"
            )
    # M P(k) O - P(k) O M from the blocks, with P(k) O = G W_O^dagger
    g, wmh, woh = fam.apply(k, wo), wm.conj().T, wo.conj().T
    norm = linalg.max_abs(wm @ (wmh @ g) @ woh - g @ (woh @ wm) @ wmh)
    return norm <= model.tol.eps_zero, norm


def conditionally_realizable(model: Model, fam: PhysicalFamily, pC, pR,
                             k: int) -> bool:
    """A subspace is conditionally realizable when it commutes with, and
    overlaps, the physical part of some physically possible reference.
    ``pC`` and ``pR`` are arbitrary full-space matrices, Heisenberg-frame
    operators at index 0, so the tests are dense, as in
    :func:`model.is_physically_possible`."""
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
