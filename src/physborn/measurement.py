"""Measurement-process machinery.

A measurement runs from a system1 start space at index k1 to a set of
system1 end spaces at index k2.  For each outcome the time-indexed
system2 operator kappa(t) carries both what is known about system2 while
the measurement unfolds and, through its final trace, the outcome
probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .born import OutcomeSet, prob_forward
from .condition import ConditionSpec, check_k0, observable_rep, trimmed
from .errors import DomainError, NotPhysicallyPossibleError, UnreachableConditionError
from .model import (
    Model,
    PhysicalFamily,
    is_physically_possible,
    lift_system1,
    schrodinger,
)


@dataclass(frozen=True)
class MeasurementProcess:
    """System1 start projector at k1, outcome set at k2 > k1.

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
        object.__setattr__(self, "m0", linalg.as_matrix(self.m0))
        k1 = self.model.grid.check_index(self.k1)
        k2 = self.model.grid.check_index(self.outcomes.k)
        object.__setattr__(self, "k1", k1)
        if k2 <= k1:
            raise DomainError(f"outcomes at index {k2} must follow the start index {k1}")
        tol = self.model.tol
        start = lift_system1(self.model, self.m0, k1)
        if not is_physically_possible(self.fam, start, k1, tol):
            raise NotPhysicallyPossibleError("start space is not physically possible at k1")
        object.__setattr__(self, "_start", start)

        check_k0(ConditionSpec(self.model, self.fam, self.m0, k1, tol), self.k0,
                 "the start space's start index")

        conds, record_ok = [], []
        for p in self.outcomes.projectors:
            full = lift_system1(self.model, p, k2)
            if linalg.max_abs(self.fam.at(k2) @ full) <= tol.eps_zero:
                conds.append(None)        # unreachable outcome, probability 0
                record_ok.append(True)
                continue
            cond = ConditionSpec(self.model, self.fam, p, k2, tol)
            conds.append(cond)
            back = trimmed(cond, k1)
            if linalg.max_abs(back) <= tol.eps_zero:
                record_ok.append(True)
                continue
            sup = linalg.support_projector(back, tol)
            record_ok.append(linalg.approx_equal(start @ sup, sup, tol))
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
    """Per-index system2 operators for one outcome, over [k1, k2]."""

    outcome_index: int
    k1: int
    kappas: tuple
    representation: str

    def at(self, k: int) -> np.ndarray:
        if not self.k1 <= k <= self.k1 + len(self.kappas) - 1:
            raise IndexError(f"path covers indices {self.k1}..{self.k1 + len(self.kappas) - 1}")
        return self.kappas[k - self.k1]

    @property
    def k2(self) -> int:
        return self.k1 + len(self.kappas) - 1


def kappa_path(proc: MeasurementProcess, i: int, rep: str = "support") -> KappaPath:
    """System2 knowledge path for outcome i.

    ``rep="support"`` anchors each time on the support of the outcome
    condition trimmed back from k2; ``rep="observable"`` anchors on the
    lifted label sets of an observable representation (standard system1
    basis).  Partial traces are taken in the Schrodinger picture at each
    index so the tensor factorization stays aligned.
    """
    model = proc.model
    tol = model.tol
    cond = proc.outcome_condition(i)
    start = proc._start
    den = np.trace(start @ proc.fam.at(proc.k0)).real
    if den <= tol.eps_zero:
        raise UnreachableConditionError("start space has no physical weight at k0")

    if rep not in ("support", "observable"):
        raise DomainError(f"unknown representation {rep!r}")
    orep = None
    if cond is not None and rep == "observable":
        orep = observable_rep(cond)  # raises if the basis is unsuitable

    core = start @ proc.fam.at(proc.k0) @ start
    kappas = []
    for k in range(proc.k1, proc.k2 + 1):
        if cond is None:
            kappas.append(np.zeros((model.d2, model.d2), dtype=complex))
            continue
        back = trimmed(cond, k)
        if rep == "support":
            if linalg.max_abs(back) <= tol.eps_zero:
                anchor = np.zeros_like(back)
            else:
                anchor = linalg.support_projector(back, tol)
        else:
            anchor = orep.projector(k)
        op = schrodinger(model, anchor @ core @ anchor, k)
        kap = linalg.partial_trace_1(op, model.d1, model.d2) / den
        kap = (kap + kap.conj().T) / 2
        w = np.linalg.eigvalsh(kap)
        if w.size and w[0] < -tol.eps_eig:
            raise DomainError(f"kappa at index {k} is not PSD (eigenvalue {w[0]:.3e})")
        kappas.append(kap)
    return KappaPath(i, proc.k1, tuple(kappas), rep)


def rho_path(path: KappaPath, tol: linalg.Tolerance = linalg.DEFAULT_TOL) -> KappaPath:
    """Normalize each kappa to unit trace."""
    rhos = []
    for offset, kap in enumerate(path.kappas):
        t = np.trace(kap).real
        if t <= tol.eps_zero:
            raise UnreachableConditionError(
                f"outcome unreachable at index {path.k1 + offset}"
            )
        rhos.append(kap / t)
    return KappaPath(path.outcome_index, path.k1, tuple(rhos), path.representation)


def outcome_probability(proc: MeasurementProcess, i: int, rep: str = "support") -> float:
    """Tr(kappa_i(k2)); agrees with the forward rule for the outcome."""
    path = kappa_path(proc, i, rep)
    return float(np.trace(path.at(proc.k2)).real)


def forward_check(proc: MeasurementProcess, i: int) -> float:
    """Forward-rule probability of outcome i given the start space, for
    cross-checking against the kappa trace."""
    start_cond = ConditionSpec(proc.model, proc.fam, proc.m0, proc.k1, proc.model.tol)
    y = proc.outcomes.projectors[i]
    try:
        return prob_forward(start_cond, y, proc.k2, proc.k0).value
    except UnreachableConditionError:
        return 0.0


def _label_path(proc: MeasurementProcess, e1: np.ndarray,
                tol: linalg.Tolerance) -> KappaPath:
    """Support-form kappa path for a single label projector.

    Unlike :func:`kappa_path` this works from the trimmed operator
    directly, so labels that are physically tied to other labels (their
    projector does not commute with the family) still get a path; such
    ties are exactly what refinement is meant to detect.
    """
    model = proc.model
    full = lift_system1(model, e1, proc.k2)
    start = proc._start
    den = np.trace(start @ proc.fam.at(proc.k0)).real
    if den <= tol.eps_zero:
        raise UnreachableConditionError("start space has no physical weight at k0")
    core = start @ proc.fam.at(proc.k0) @ start
    kappas = []
    for k in range(proc.k1, proc.k2 + 1):
        p = proc.fam.at(k)
        back = p @ full @ p
        back = (back + back.conj().T) / 2
        if linalg.max_abs(back) <= tol.eps_zero:
            anchor = np.zeros_like(back)
        else:
            anchor = linalg.support_projector(back, tol)
        op = schrodinger(model, anchor @ core @ anchor, k)
        kap = linalg.partial_trace_1(op, model.d1, model.d2) / den
        kappas.append((kap + kap.conj().T) / 2)
    return KappaPath(-1, proc.k1, tuple(kappas), "support")


@dataclass(frozen=True)
class RefinedOutcomes:
    """Equivalence classes of system1 basis labels with identical
    normalized paths, grouped per outcome."""

    classes: tuple        # per outcome: tuple of frozensets of labels
    unreachable: tuple    # per outcome: frozenset of zero-probability labels


def refine_outcomes(proc: MeasurementProcess,
                    tol: linalg.Tolerance | None = None) -> RefinedOutcomes:
    """Split every outcome into the smallest label sets that still behave
    as measurement outcomes.

    Outcomes must be diagonal 0/1 projectors in the standard system1
    basis.  Labels within one outcome land in the same class iff their
    normalized system2 paths coincide at every index of the window.
    """
    tol = tol or proc.model.tol
    all_classes, all_unreachable = [], []
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
            e = np.zeros((proc.model.d1, proc.model.d1), dtype=complex)
            e[label, label] = 1.0
            path = _label_path(proc, e, tol)
            if np.trace(path.at(proc.k2)).real <= tol.eps_zero:
                unreachable.add(label)
                continue
            paths[label] = rho_path(path, tol)
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


def position_distribution(path: KappaPath, position_projectors,
                          tol: linalg.Tolerance = linalg.DEFAULT_TOL) -> np.ndarray:
    """Per-index probabilities over a complete set of orthogonal system2
    cells; rows are grid offsets from k1, columns are cells."""
    projs = [linalg.as_matrix(p) for p in position_projectors]
    d2 = projs[0].shape[0]
    for p in projs:
        if not linalg.is_projector(p, tol):
            raise DomainError("position projectors must be projectors")
    for i, a in enumerate(projs):
        for b in projs[i + 1:]:
            if linalg.max_abs(a @ b) > tol.eps_zero:
                raise DomainError("position projectors must be pairwise orthogonal")
    total = sum(projs[1:], start=projs[0])
    if not linalg.approx_equal(total, np.eye(d2, dtype=complex), tol):
        raise DomainError("position projectors must sum to the system2 identity")

    normalized = rho_path(path, tol)
    out = np.empty((len(normalized.kappas), len(projs)))
    for row, rho in enumerate(normalized.kappas):
        for col, p in enumerate(projs):
            out[row, col] = np.trace(p @ rho).real
    return out
