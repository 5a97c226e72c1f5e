"""Measurement-process machinery.

A measurement runs from a system1 start space at index k1 to a set of
system1 end spaces at index k2.  For each outcome the time-indexed
system2 operator kappa(t) carries both what is known about system2 while
the measurement unfolds and, through its final trace, the outcome
probability.

Each kappa is computed from blocks: the anchor is a d x s range basis Q,
the start state a (phi, core) pair, and the partial trace over system1 of
(V Q) K (V Q)^dagger is a contraction over a (d1, d2, s) reshape.  An
outcome probability is the trace of the last kappa, tr(K) / Tr(rho),
and is read without the path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .born import OutcomeSet
from .condition import (
    ConditionSpec,
    _support,
    check_k0,
    condition_state,
    observable_rep,
)
from .errors import (
    DomainError,
    NotPhysicallyPossibleError,
    ShapeError,
    UnreachableConditionError,
)
from .model import Model, PhysicalFamily, _has_weight, cumulative_propagator, lift_system1


@dataclass(frozen=True)
class MeasurementProcess:
    """System1 start space at k1, kept as its condition, and an outcome
    set at k2 > k1.

    ``is_measurement`` reports whether every reachable outcome retains
    the preparation record (its trimmed support at k1 lies inside the
    start space); a violation degrades the process to a non-measurement
    but does not block evaluation.
    """

    model: Model
    fam: PhysicalFamily
    m0: np.ndarray
    k1: int
    outcomes: OutcomeSet
    k0: int = 0

    def __post_init__(self):
        tol = self.model.tol
        linalg.orthogonal_projectors(self.outcomes.projectors, self.outcomes.complete, tol)
        object.__setattr__(self, "m0", linalg.as_matrix(self.m0))
        k1 = self.model.grid.check_index(self.k1)
        k2 = self.model.grid.check_index(self.outcomes.k)
        object.__setattr__(self, "k1", k1)
        if k2 <= k1:
            raise DomainError(f"outcomes at index {k2} must follow the start index {k1}")
        try:
            start_cond = ConditionSpec(self.model, self.fam, self.m0, k1)
        except NotPhysicallyPossibleError:
            raise NotPhysicallyPossibleError(
                "start space is not physically possible at k1"
            ) from None
        check_k0(start_cond, self.k0, "the start space's start index")
        object.__setattr__(self, "_start", start_cond)

        conds, record_ok = [], []
        for p in self.outcomes.projectors:
            try:
                cond = ConditionSpec(self.model, self.fam, p, k2)
            except NotPhysicallyPossibleError:
                # Only an outcome without physical weight passes: unreachable.
                w = lift_system1(self.model, p, k2)
                if _has_weight(self.model, self.fam, k2, w):
                    raise
                conds.append(None)
                record_ok.append(True)
                continue
            conds.append(cond)
            # X S = S for the start space X = W W^dagger and the support
            # S = Q Q^dagger: no entry of (W W^dagger Q - Q) Q^dagger above
            # eps_zero.  Q is orthonormal, so its Frobenius norm is that of
            # the d x s block W W^dagger Q - Q.
            q = _anchor(self, k1, cond.basis)
            w = start_cond.basis
            miss = w @ (w.conj().T @ q) - q
            frob = np.linalg.norm(miss)
            record_ok.append(linalg.within_zero(
                frob, frob / len(q), lambda: linalg.max_abs(miss @ q.conj().T), tol))
        object.__setattr__(self, "_conds", tuple(conds))
        object.__setattr__(self, "record_preserved", tuple(record_ok))

    @property
    def k2(self) -> int:
        return self.outcomes.k

    @property
    def is_measurement(self) -> bool:
        return all(self.record_preserved)

    def outcome_condition(self, i: int) -> ConditionSpec | None:
        """Condition spec for outcome i, or None when unreachable."""
        return self._conds[i]


@dataclass(frozen=True)
class KappaPath:
    """Per-index system2 operators for one outcome, over [k1, k2].

    Built by :func:`kappa_path` and :func:`refine_outcomes`, which stamp
    it with the model's tolerance for :func:`rho_path` and
    :func:`position_distribution` to decide with.
    """

    outcome_index: int
    k1: int
    kappas: tuple
    representation: str
    tol: linalg.Tolerance

    def at(self, k: int) -> np.ndarray:
        if not self.k1 <= k <= self.k2:
            raise IndexError(f"path covers indices {self.k1}..{self.k2}")
        return self.kappas[k - self.k1]

    @property
    def k2(self) -> int:
        return self.k1 + len(self.kappas) - 1


def _anchor(proc: MeasurementProcess, k: int, w: np.ndarray) -> np.ndarray:
    """Range basis of the support of P(k) W W^dagger P(k); no columns where
    it has no physical weight."""
    _, q = _support(proc.model, proc.fam, k, w)
    return np.zeros((proc.model.dim, 0), dtype=complex) if q is None else q


def _start_state(proc: MeasurementProcess, tol: linalg.Tolerance) -> tuple:
    """((phi, core), Tr(rho)) for rho = phi core phi^dagger the start
    space's condition operator M P(k0) M: the core of every kappa and its
    normalizer."""
    phi, core = condition_state(proc._start, proc.k0)
    den = np.vdot(phi, phi @ core).real
    if den <= tol.eps_zero:
        raise UnreachableConditionError("start space has no physical weight at k0")
    return (phi, core), den


def _kappas(proc: MeasurementProcess, state: tuple, anchor_at,
            tol: linalg.Tolerance) -> tuple:
    """kappa(k) for k in [k1, k2]: the partial trace over system1, in the
    Schrodinger picture at k, of A rho A / Tr(rho), with A = Q Q^dagger
    for the range basis Q = anchor_at(k) and ``state`` = ((phi, core),
    Tr(rho)) from :func:`_start_state`.

    A rho A = Q K Q^dagger with K = (Q^dagger phi) core (Q^dagger
    phi)^dagger; with R = V(k) Q reshaped to (d1, d2, s), the partial
    trace is sum over a, p, q of R[a, i, p] K[p, q] conj(R[a, j, q]).
    """
    model = proc.model
    (phi, core), den = state
    kappas = []
    for k in range(proc.k1, proc.k2 + 1):
        q = anchor_at(k)
        m = q.conj().T @ phi
        r = cumulative_propagator(model, k) @ q
        rk = (r @ (m @ core @ m.conj().T)).reshape(model.d1, model.d2, -1)
        op = np.einsum("aip,ajp->ij", rk, r.reshape(model.d1, model.d2, -1).conj())
        kap = linalg.hermitian_part(op / den)
        w = np.linalg.eigvalsh(kap)
        if w[0] < -tol.eps_eig:
            raise DomainError(f"kappa at index {k} is not PSD (eigenvalue {w[0]:.3e})")
        kappas.append(kap)
    return tuple(kappas)


def _outcome_anchor(proc: MeasurementProcess, i: int, rep: str) -> tuple:
    """(state, anchor_at) for outcome i: the start state of
    :func:`_start_state` and the range basis of the representation's
    anchor at each index, None for an unreachable outcome.  Refuses a
    start space without weight, then an unknown ``rep``, then a basis
    that :func:`observable_rep` rejects."""
    cond = proc.outcome_condition(i)
    state = _start_state(proc, proc.model.tol)
    if rep not in ("support", "observable"):
        raise DomainError(f"unknown representation {rep!r}")
    if cond is None:
        return state, None
    if rep == "support":
        return state, lambda k: _anchor(proc, k, cond.basis)
    orep = observable_rep(cond)  # raises if the basis is unsuitable
    return state, lambda k: lift_system1(proc.model, orep.system1_projector(k), k)


def kappa_path(proc: MeasurementProcess, i: int, rep: str = "support") -> KappaPath:
    """System2 knowledge path for outcome i.

    ``rep="support"`` anchors each time on the support of the outcome
    condition trimmed back from k2; ``rep="observable"`` anchors on the
    lifted label sets of an observable representation (standard system1
    basis).  Partial traces are taken in the Schrodinger picture at each
    index so the tensor factorization stays aligned.
    """
    tol = proc.model.tol
    state, anchor_at = _outcome_anchor(proc, i, rep)
    if anchor_at is None:
        d2 = proc.model.d2
        kappas = tuple(np.zeros((d2, d2), dtype=complex)
                       for _ in range(proc.k1, proc.k2 + 1))
    else:
        kappas = _kappas(proc, state, anchor_at, tol)
    return KappaPath(i, proc.k1, kappas, rep, tol)


def rho_path(path: KappaPath) -> KappaPath:
    """Normalize each kappa to unit trace."""
    rhos = []
    for offset, kap in enumerate(path.kappas):
        t = np.trace(kap).real
        if t <= path.tol.eps_zero:
            raise UnreachableConditionError(
                f"outcome unreachable at index {path.k1 + offset}"
            )
        rhos.append(kap / t)
    return KappaPath(path.outcome_index, path.k1, tuple(rhos), path.representation, path.tol)


def outcome_probability(proc: MeasurementProcess, i: int, rep: str = "support") -> float:
    """Tr(kappa_i(k2)); agrees with the forward rule for the outcome.

    kappa_i(k2) is the partial trace of Q K Q^dagger / Tr(rho), with Q
    the orthonormal k2 anchor of ``rep`` and K = (Q^dagger phi) core
    (Q^dagger phi)^dagger, so its trace is tr(K) / Tr(rho): one s x m
    block, without the path, propagators or partial traces of
    :func:`kappa_path`.  It refuses as :func:`kappa_path` does, in its
    order: a start space without weight, an unknown ``rep``, then
    ``observable_rep``'s rejection.  The per-index PSD check of the
    kappas is not run: K is PSD by construction.  An unreachable outcome
    has probability 0.0.
    """
    ((phi, core), den), anchor_at = _outcome_anchor(proc, i, rep)
    if anchor_at is None:
        return 0.0
    m = anchor_at(proc.k2).conj().T @ phi
    return float(np.vdot(m, m @ core).real / den)


@dataclass(frozen=True)
class RefinedOutcomes:
    """Equivalence classes of system1 basis labels with identical
    normalized paths, grouped per outcome."""

    classes: tuple        # per outcome: tuple of frozensets of labels
    unreachable: tuple    # per outcome: frozenset of zero-probability labels


def refine_outcomes(proc: MeasurementProcess) -> RefinedOutcomes:
    """Split every outcome into the smallest label sets that still behave
    as measurement outcomes.

    Outcomes must be diagonal 0/1 projectors in the standard system1
    basis.  Labels within one outcome land in the same class iff their
    normalized system2 paths coincide at every index of the window.

    A label's path is anchored on the support of its projector trimmed
    at each index, without a ConditionSpec: labels that are physically
    tied to other labels (their projector does not commute with the
    family) still get a path; such ties are exactly what refinement is
    meant to detect.
    """
    tol = proc.model.tol
    all_classes, all_unreachable = [], []
    state = None    # built at the first label, after its outcome's diagonal check
    for p in proc.outcomes.projectors:
        diag = np.diag(p).real
        if linalg.max_abs(p - np.diag(diag)) > tol.eps_zero or not np.all(
            (np.abs(diag) <= tol.eps_zero) | (np.abs(diag - 1) <= tol.eps_zero)
        ):
            raise DomainError(
                "refine_outcomes requires outcomes diagonal in the standard system1 basis"
            )
        labels = [int(l) for l in np.nonzero(diag > 0.5)[0]]
        paths, unreachable = {}, set()
        for label in labels:
            w = lift_system1(proc.model, linalg.diagonal_projector([label], proc.model.d1),
                             proc.k2)
            state = state or _start_state(proc, tol)
            kappas = _kappas(proc, state, lambda k: _anchor(proc, k, w), tol)
            path = KappaPath(-1, proc.k1, kappas, "support", tol)
            if np.trace(path.at(proc.k2)).real <= tol.eps_zero:
                unreachable.add(label)
                continue
            paths[label] = rho_path(path)
        classes = []
        for label, path in paths.items():
            for cls in classes:
                ref = paths[next(iter(cls))]
                if all(
                    linalg.approx_equal(path.at(k), ref.at(k), tol)
                    for k in range(proc.k1, proc.k2 + 1)
                ):
                    cls.add(label)
                    break
            else:
                classes.append({label})
        all_classes.append(tuple(frozenset(c) for c in classes))
        all_unreachable.append(frozenset(unreachable))
    return RefinedOutcomes(tuple(all_classes), tuple(all_unreachable))


def position_distribution(path: KappaPath, position_projectors) -> np.ndarray:
    """Per-index probabilities over a complete set of orthogonal system2
    cells; rows are grid offsets from k1, columns are cells."""
    projs = linalg.orthogonal_projectors(position_projectors, True, path.tol)
    d2 = path.kappas[0].shape[0]
    if projs[0].shape != (d2, d2):
        raise ShapeError(f"position projectors have shape {projs[0].shape}, "
                         f"expected {(d2, d2)}")
    normalized = rho_path(path)
    out = np.empty((len(normalized.kappas), len(projs)))
    for row, rho in enumerate(normalized.kappas):
        for col, p in enumerate(projs):
            out[row, col] = np.trace(p @ rho).real
    return out
