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

Every rule is the textbook trace Tr(Y rho) / Tr(rho).  Only the state
rho differs, and it is built from the condition trimmed to the physical
family: the condition operator X P(k0) X, or a trimmed operator P X P.
States are (phi, core) blocks from ``condition``, and every outcome is
held as ``model.lift_predicate`` holds it (``model.Lifted``), so that
"not this record" is lifted by the small basis of its complement.  Each
trace is a sum over a small block, Tr(Y rho) = Tr(M core M^dagger) with
M^dagger M = phi^dagger Y phi (``Lifted.factor``).

Verifiability, which the sequence rule and ``verify`` require, is decided
by :func:`verifiable` from the same blocks; :func:`verifiability_norms`
measures the two commutators densely for reports and refusal messages.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .condition import (
    ConditionSpec,
    ObservableRep,
    _support,
    check_k0,
    condition_state,
    trimmed_state,
)
from .errors import (
    DomainError,
    UnreachableConditionError,
    UnverifiableSequenceError,
)
from .model import (
    Lifted,
    Model,
    _commutes,
    _sandwich_commutes,
    lift_predicate,
)


@dataclass(frozen=True, init=False, slots=True)
class OutcomeSet:
    """Pairwise-orthogonal projectors of one shape at one grid index,
    system1 or full-space, that sum to the identity when ``complete``.

    Construction checks only what needs no tolerance (at least one
    matrix, one square shape); :meth:`lifted`, through which every
    consumer reads the set, checks the rest.  A record projector
    (:func:`linalg.record_labels`) is held as its labels, and
    :attr:`projectors` rebuilds it exactly.
    """

    k: int
    complete: bool
    dim: int = field(repr=False)
    _held: tuple = field(repr=False)

    def __init__(self, projectors, k: int, complete: bool = False):
        projs = linalg.square_set(projectors)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "dim", projs[0].shape[0])
        object.__setattr__(self, "_held", tuple(
            p if (labels := linalg.record_labels(p)) is None else labels for p in projs))

    @property
    def projectors(self) -> tuple:
        """The outcome projectors as dim x dim matrices."""
        return tuple(linalg.diagonal_projector(h, self.dim) if isinstance(h, tuple) else h
                     for h in self._held)

    def __len__(self) -> int:
        return len(self._held)

    def lifted(self, model: Model) -> Iterator[Lifted]:
        """Check the set with ``model.tol`` and lift each member at k with
        :func:`model.lift_predicate`.

        A set of records is checked from its labels (disjoint, and
        covering 0..dim-1 when complete), any other set by
        :func:`linalg.orthogonal_projectors`, with the same verdicts and
        messages.  The check runs on the call and each lift when the
        returned iterator reaches it, so a consumer's refusals in between
        keep their order.
        """
        projs = self.projectors
        if all(isinstance(h, tuple) for h in self._held):
            seen = set()
            for labels in self._held:
                if seen.intersection(labels):
                    raise DomainError("outcome projectors must be pairwise orthogonal")
                seen.update(labels)
            if self.complete and len(seen) != self.dim:
                raise DomainError("outcome set flagged complete does not sum to identity")
        else:
            linalg.orthogonal_projectors(projs, self.complete, model.tol)
        return (lift_predicate(model, y, self.k) for y in projs)


@dataclass(frozen=True)
class ProbabilityResult:
    value: float
    numerator: float
    denominator: float
    rule: str
    warnings: tuple = field(default_factory=tuple)


def _trace(m: np.ndarray, core) -> complex:
    """Tr(M core M^dagger), core None standing for the identity: Tr(rho)
    for rho = phi core phi^dagger with M = phi, Tr(Y rho) with M the
    factor of phi^dagger Y phi (``Lifted.factor``).  The rules read its
    real part: core and M core M^dagger are Hermitian by construction, so
    the imaginary part is rounding."""
    return complex(np.vdot(m, m if core is None else m @ core))


def _result(num: float, den: float, rule: str, tol: linalg.Tolerance,
            warnings: tuple = ()) -> ProbabilityResult:
    if den <= tol.eps_zero:
        raise UnreachableConditionError(
            f"{rule}: condition has no physical weight (denominator at most "
            f"eps_zero={tol.eps_zero:g})"
        )
    value = num / den
    if value < -tol.eps_zero or value > 1.0 + tol.eps_zero:
        raise DomainError(f"{rule}: probability {value} outside [0, 1]")
    return ProbabilityResult(float(value), float(num), float(den), rule, warnings)


def _born(y: Lifted, rho: tuple, rule: str, tol: linalg.Tolerance,
          warnings: tuple = (), effect: tuple | None = None) -> ProbabilityResult:
    """Tr(Y rho) / Tr(rho) for the lifted outcome Y and a Hermitian state
    rho.  Each rule builds only its rho; the numerator is taken against
    ``effect`` instead when given (the sequence rule's Y1 rho Y1).  The
    intermediate-full rule normalizes its terms over the outcome set
    instead."""
    phi, core = rho if effect is None else effect
    num = _trace(y.factor(phi), core).real
    return _result(num, _trace(*rho).real, rule, tol, warnings)


def prob_forward(cond: ConditionSpec, y, k: int, k0: int = 0) -> ProbabilityResult:
    """P(Y at k | X at k_c) for k >= k_c, with rho the condition
    operator X P(k0) X."""
    k = cond.model.grid.check_index(k)
    if k < cond.k_c:
        raise DomainError(f"prob_forward requires k >= k_c, got k={k} < k_c={cond.k_c}")
    rho = condition_state(cond, k0)
    return _born(lift_predicate(cond.model, y, k), rho, "forward", cond.tol)


def _window(rule: str, cond: ConditionSpec, k: int, k0: int) -> int:
    """k as a grid index, refused unless k0 < k < k_c: the window of the
    intermediate rules."""
    k = cond.model.grid.check_index(k)
    if not (k0 < k < cond.k_c):
        raise DomainError(f"{rule} requires k0 < k < k_c, got {k0}, {k}, {cond.k_c}")
    return k


def prob_intermediate_full(cond: ConditionSpec, outcomes: OutcomeSet, y_index: int,
                           k0: int = 0) -> ProbabilityResult:
    """The general intermediate-time rule over a complete outcome set at
    its index k.

    Each outcome's term is Tr(trimmed(k) Y S P(k0) S Y), with S the
    support of the condition trimmed to k; the normalizer is the sum of
    the terms over the set.  The condition is trimmed to k once: G = P(k)
    W gives both the trimmed operator G G^dagger and S, its range.  Each
    outcome Y is held as :meth:`OutcomeSet.lifted` holds it, and Y S is
    taken from that form (:meth:`model.Lifted.inside`).
    """
    members = outcomes.lifted(cond.model)
    k = _window("prob_intermediate_full", cond, outcomes.k, k0)
    if not outcomes.complete:
        raise DomainError("prob_intermediate_full needs a complete outcome set")
    check_k0(cond, k0)
    y_index = linalg._index(y_index, 0, len(outcomes) - 1, "outcome index {k} out of range")

    back, sup = _support(cond, k)
    core = cond.fam.sandwich(k0, sup)
    terms = []
    for member in members:
        # Y S P(k0) S Y as a state, traced against G G^dagger
        m = back.conj().T @ member.inside(sup)
        terms.append(_trace(m, core).real)
    return _result(terms[y_index], sum(terms), "intermediate_full", cond.tol)


def prob_intermediate_known(cond: ConditionSpec, y, k: int, k0: int = 0,
                            rep: ObservableRep | None = None) -> ProbabilityResult:
    """Intermediate-time rule based only on what was known at k, with rho
    = A P(k0) A.

    The anchor A is the support of the trimmed condition (rule
    ``intermediate_known/support``), or, with an accepted observable
    representation ``rep``, its lifted X(k) predicate as ``rep`` holds it
    (``intermediate_known/observable``).
    """
    k = _window("prob_intermediate_known", cond, k, k0)
    check_k0(cond, k0)
    if rep is None:
        anchor, variant = _support(cond, k)[1], "support"
    else:
        anchor = rep.lifted(k)
        variant = "observable"
    rho = (anchor, cond.fam.sandwich(k0, anchor))
    return _born(lift_predicate(cond.model, y, k), rho, f"intermediate_known/{variant}", cond.tol)


def prob_before(cond: ConditionSpec, y, k: int, k0: int = 0) -> ProbabilityResult:
    """P(Y at k | X at k_c) for k <= k0, with rho the condition trimmed
    to k0, P(k0) X P(k0)."""
    k = cond.model.grid.check_index(k)
    if k > k0:
        raise DomainError(f"prob_before requires k <= k0, got k={k} > k0={k0}")
    check_k0(cond, k0)
    return _born(lift_predicate(cond.model, y, k), trimmed_state(cond, k0), "before",
                 cond.tol)


def prob_approx(cond: ConditionSpec, y, k: int) -> ProbabilityResult:
    """The before-rule reused with k0 = k, as an approximation inside the
    window k < k_c: rho is the condition trimmed to k.  Flagged in the
    warnings."""
    k = cond.model.grid.check_index(k)
    if k >= cond.k_c:
        raise DomainError(f"prob_approx requires k < k_c, got k={k}, k_c={cond.k_c}")
    return _born(lift_predicate(cond.model, y, k), trimmed_state(cond, k), "approx",
                 cond.tol, warnings=("approximation: condition treated as starting at k",))


def verifiable(cond: ConditionSpec, y: Lifted, k: int) -> bool:
    """Whether the lifted outcome Y at index k is verifiable against the
    condition: [Y, P(k)] and [Y, X] sandwiched by P(s) at the earlier
    index s = min(k, k_c) have no entry above eps_zero.

    Both demands are decided from blocks at the family's rank
    (``model._commutes`` and ``model._sandwich_commutes``); a d x d
    commutator is built only for a near miss.  Y and X enter by the
    blocks they are held by, since [I - B, A] = -[B, A].
    """
    return (_commutes(cond.model, cond.fam, k, y.block)
            and _sandwich_commutes(cond.model, cond.fam, min(k, cond.k_c), y.block,
                                   cond.lifted.block))


def verifiability_norms(cond: ConditionSpec, y: Lifted, k: int) -> tuple:
    """Max entry magnitudes of the two commutators :func:`verifiable`
    decides, for a report: [Y, P(k)], and [Y, X] sandwiched by P(s), from
    the blocks Y and X are held by.  Both are built as dense d x d
    matrices (``PhysicalFamily.commutator_norm`` and
    ``PhysicalFamily.sandwich_commutator_norm``); no verdict is taken
    from them."""
    return (cond.fam.commutator_norm(k, y.block),
            cond.fam.sandwich_commutator_norm(min(k, cond.k_c), y.block, cond.lifted.block))


def prob_sequence(cond: ConditionSpec, y1, k1: int, y2, k2: int,
                  k0: int = 0) -> ProbabilityResult:
    """P(Y2 at k2; Y1 at k1 | X at k_c) = Tr(Y2 Y1 rho Y1) / Tr(rho), with
    rho the condition operator X P(k0) X.

    Refuses unless the (Y1, k1) stage is verifiable against the
    condition (:func:`verifiable`); otherwise the number would be
    unreliable.  Only a refusal measures the commutator norm it reports.
    """
    k1 = cond.model.grid.check_index(k1)
    k2 = cond.model.grid.check_index(k2)
    rho = condition_state(cond, k0)
    lifted1 = lift_predicate(cond.model, y1, k1)
    lifted2 = lift_predicate(cond.model, y2, k2)
    if not verifiable(cond, lifted1, k1):
        worst = max(verifiability_norms(cond, lifted1, k1))
        raise UnverifiableSequenceError(
            "sequence refused: intermediate outcome is not verifiable "
            f"(commutator norm {worst:.3e})",
            worst,
        )
    phi, core = rho
    return _born(lifted2, rho, "sequence", cond.tol, effect=(lifted1.inside(phi), core))
