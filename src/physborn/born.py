"""Probability rules on the physical subspace.

Five regimes are implemented, selected explicitly by the caller:

* ``prob_forward``             outcome at or after the condition,
* ``prob_intermediate_full``   outcome strictly between k0 and the
                               condition, with the full outcome set,
* ``prob_intermediate_known``  same window, based only on what was known
                               at the outcome time,
* ``prob_before``              outcome at or before k0,
* ``prob_approx``              the before-rule reused at t0 = t as an
                               approximation inside the window,

plus the guarded two-outcome sequence rule.  Each function validates its
regime against the supplied indices and raises instead of silently
switching formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .condition import ConditionSpec, ObservableRep, check_k0, support_at
from .errors import (
    DomainError,
    UnreachableConditionError,
    UnverifiableSequenceError,
)
from .model import lift_predicate

_K0_BOUND = "the condition's start index T_s={ts}"


@dataclass(frozen=True)
class OutcomeSet:
    """Pairwise-orthogonal system1 outcome projectors at one grid index.

    With ``complete`` set, the projectors must sum to the system1
    identity.  Construction checks only what needs no tolerance (at
    least one matrix, one square shape); each consumer checks the rest
    with its model's tolerance (:func:`linalg.orthogonal_projectors`).
    """

    projectors: tuple
    k: int
    complete: bool = False

    def __post_init__(self):
        object.__setattr__(self, "projectors", linalg.square_set(self.projectors))

    def __len__(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True)
class ProbabilityResult:
    value: float
    numerator: float
    denominator: float
    rule: str
    warnings: tuple = field(default_factory=tuple)


def _real_trace(m: np.ndarray, tol: linalg.Tolerance, context: str) -> float:
    t = complex(np.trace(m))
    if abs(t.imag) > tol.eps_zero * max(1.0, abs(t.real)):
        raise DomainError(
            f"trace in {context} has imaginary residue {t.imag:.3e}; "
            "inputs are not genuinely Hermitian projectors"
        )
    return t.real


def _result(num: float, den: float, rule: str, tol: linalg.Tolerance,
            warnings: tuple = ()) -> ProbabilityResult:
    if den <= tol.eps_zero:
        raise UnreachableConditionError(
            f"{rule}: condition has no physical weight (denominator {den:.3e})"
        )
    value = num / den
    if value < -tol.eps_zero or value > 1.0 + tol.eps_zero:
        raise DomainError(f"{rule}: probability {value} outside [0, 1]")
    return ProbabilityResult(float(value), float(num), float(den), rule, warnings)


def prob_forward(cond: ConditionSpec, y, k: int, k0: int = 0) -> ProbabilityResult:
    """P(Y at k | X at k_c) for k >= k_c:
    Tr(Y X P(k0) X) / Tr(X P(k0))."""
    k = cond.model.grid.check_index(k)
    if k < cond.k_c:
        raise DomainError(f"prob_forward requires k >= k_c, got k={k} < k_c={cond.k_c}")
    check_k0(cond, k0, _K0_BOUND)
    py = lift_predicate(cond.model, y, k)
    px = cond.projector
    p0 = cond.fam.at(k0)
    num = _real_trace(py @ px @ p0 @ px, cond.tol, "prob_forward numerator")
    den = _real_trace(px @ p0, cond.tol, "prob_forward denominator")
    return _result(num, den, "forward", cond.tol)


def prob_intermediate_full(cond: ConditionSpec, outcomes: OutcomeSet, y_index: int,
                           k0: int = 0) -> ProbabilityResult:
    """The general intermediate-time rule over a complete outcome set at
    its index k.

    Numerator: Tr(X P(k) Y P_sup(k) P(k0) P_sup(k) Y P(k)) with P_sup the
    support of the condition trimmed to k; normalizer: the same summed
    over every outcome in the set.
    """
    linalg.orthogonal_projectors(outcomes.projectors, outcomes.complete, cond.tol)
    k = cond.model.grid.check_index(outcomes.k)
    if not (k0 < k < cond.k_c):
        raise DomainError(
            f"prob_intermediate_full requires k0 < k < k_c, got {k0}, {k}, {cond.k_c}"
        )
    if not outcomes.complete:
        raise DomainError("prob_intermediate_full needs a complete outcome set")
    check_k0(cond, k0, _K0_BOUND)
    if not 0 <= y_index < len(outcomes):
        raise IndexError(f"outcome index {y_index} out of range")

    px = cond.projector
    pk = cond.fam.at(k)
    p0 = cond.fam.at(k0)
    sup = support_at(cond, k)
    core = sup @ p0 @ sup

    def term(y1) -> float:
        py = lift_predicate(cond.model, y1, k)
        return _real_trace(
            px @ pk @ py @ core @ py @ pk, cond.tol, "prob_intermediate_full term"
        )

    terms = [term(y1) for y1 in outcomes.projectors]
    return _result(terms[y_index], sum(terms), "intermediate_full", cond.tol)


def prob_intermediate_known(cond: ConditionSpec, y, k: int, k0: int = 0,
                            rep: ObservableRep | None = None) -> ProbabilityResult:
    """Intermediate-time rule based only on what was known at k.

    Anchored on the support of the trimmed condition (rule
    ``intermediate_known/support``), or, with an accepted observable
    representation ``rep``, on its lifted X(k) predicate
    (``intermediate_known/observable``).
    """
    k = cond.model.grid.check_index(k)
    if not (k0 < k < cond.k_c):
        raise DomainError(
            f"prob_intermediate_known requires k0 < k < k_c, got {k0}, {k}, {cond.k_c}"
        )
    check_k0(cond, k0, _K0_BOUND)
    if rep is None:
        anchor, variant = support_at(cond, k), "support"
    else:
        anchor, variant = rep.projector(k), "observable"
    py = lift_predicate(cond.model, y, k)
    p0 = cond.fam.at(k0)
    num = _real_trace(py @ anchor @ p0 @ anchor, cond.tol, "prob_intermediate_known")
    den = _real_trace(anchor @ p0, cond.tol, "prob_intermediate_known")
    return _result(num, den, f"intermediate_known/{variant}", cond.tol)


def prob_before(cond: ConditionSpec, y, k: int, k0: int = 0) -> ProbabilityResult:
    """P(Y at k | X at k_c) for k <= k0:
    Tr(X P(k0) Y P(k0)) / Tr(X P(k0))."""
    k = cond.model.grid.check_index(k)
    if k > k0:
        raise DomainError(f"prob_before requires k <= k0, got k={k} > k0={k0}")
    check_k0(cond, k0, _K0_BOUND)
    py = lift_predicate(cond.model, y, k)
    px = cond.projector
    p0 = cond.fam.at(k0)
    num = _real_trace(px @ p0 @ py @ p0, cond.tol, "prob_before numerator")
    den = _real_trace(px @ p0, cond.tol, "prob_before denominator")
    return _result(num, den, "before", cond.tol)


def prob_approx(cond: ConditionSpec, y, k: int) -> ProbabilityResult:
    """The before-rule reused with k0 = k, as an approximation inside the
    window k < k_c.  Flagged in the warnings."""
    k = cond.model.grid.check_index(k)
    if k >= cond.k_c:
        raise DomainError(f"prob_approx requires k < k_c, got k={k}, k_c={cond.k_c}")
    py = lift_predicate(cond.model, y, k)
    px = cond.projector
    pk = cond.fam.at(k)
    num = _real_trace(pk @ px @ pk @ py, cond.tol, "prob_approx numerator")
    den = _real_trace(px @ pk, cond.tol, "prob_approx denominator")
    return _result(num, den, "approx", cond.tol,
                   warnings=("approximation: condition treated as starting at k",))


def verifiability_norms(cond: ConditionSpec, py: np.ndarray, k: int) -> tuple:
    """Commutator magnitudes of the two verifiability demands for the
    Heisenberg outcome operator ``py`` at index k: [Y, P(k)], and [Y, X]
    sandwiched by P(s) at the earlier index s = min(k, k_c)."""
    ps = cond.fam.at(min(k, cond.k_c))
    px = cond.projector
    return (linalg.commutator_norm(py, cond.fam.at(k)),
            linalg.max_abs(ps @ (py @ px - px @ py) @ ps))


def prob_sequence(cond: ConditionSpec, y1, k1: int, y2, k2: int,
                  k0: int = 0) -> ProbabilityResult:
    """P(Y2 at k2; Y1 at k1 | X at k_c):
    Tr(Y2 Y1 X P(k0) X Y1) / Tr(X P(k0)).

    Refuses unless the (Y1, k1) stage is verifiable against the
    condition; otherwise the number would be unreliable.
    """
    k1 = cond.model.grid.check_index(k1)
    k2 = cond.model.grid.check_index(k2)
    check_k0(cond, k0, _K0_BOUND)
    py1 = lift_predicate(cond.model, y1, k1)
    py2 = lift_predicate(cond.model, y2, k2)
    worst = max(verifiability_norms(cond, py1, k1))
    if worst > cond.tol.eps_zero:
        raise UnverifiableSequenceError(
            "sequence refused: intermediate outcome is not verifiable "
            f"(commutator norm {worst:.3e})",
            worst,
        )
    px = cond.projector
    p0 = cond.fam.at(k0)
    num = _real_trace(py2 @ py1 @ px @ p0 @ px @ py1, cond.tol, "prob_sequence")
    den = _real_trace(px @ p0, cond.tol, "prob_sequence")
    return _result(num, den, "sequence", cond.tol)
