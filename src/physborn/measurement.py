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
from .born import OutcomeSet
from .condition import ConditionSpec, check_k0, observable_rep, trimmed
from .errors import (
    DomainError,
    NotPhysicallyPossibleError,
    ShapeError,
    UnreachableConditionError,
)
from .model import Model, PhysicalFamily, lift_system1, schrodinger


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
        object.__setattr__(self, "_start", start_cond.projector)

        conds, record_ok = [], []
        for p in self.outcomes.projectors:
            try:
                cond = ConditionSpec(self.model, self.fam, p, k2)
            except NotPhysicallyPossibleError:
                # Only an outcome without physical weight passes: unreachable.
                weight = linalg.max_abs(self.fam.at(k2) @ lift_system1(self.model, p, k2))
                if weight > tol.eps_zero:
                    raise
                conds.append(None)
                record_ok.append(True)
                continue
            conds.append(cond)
            sup = _support(trimmed(cond, k1), tol)
            record_ok.append(linalg.approx_equal(self._start @ sup, sup, tol))
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


def _support(back: np.ndarray, tol: linalg.Tolerance) -> np.ndarray:
    """Support projector of a trimmed operator; zero where it has no
    physical weight."""
    if linalg.max_abs(back) <= tol.eps_zero:
        return np.zeros_like(back)
    return linalg.support_projector(back, tol)


def _start_weight(proc: MeasurementProcess, tol: linalg.Tolerance) -> float:
    """Tr(start P(k0)), the normalizer of every kappa."""
    den = np.trace(proc._start @ proc.fam.at(proc.k0)).real
    if den <= tol.eps_zero:
        raise UnreachableConditionError("start space has no physical weight at k0")
    return den


def _kappas(proc: MeasurementProcess, den: float, anchor_at,
            tol: linalg.Tolerance) -> tuple:
    """kappa(k) for k in [k1, k2]: the partial trace over system1, in the
    Schrodinger picture at k, of A start P(k0) start A / den, with
    A = anchor_at(k)."""
    model = proc.model
    start = proc._start
    core = start @ proc.fam.at(proc.k0) @ start
    kappas = []
    for k in range(proc.k1, proc.k2 + 1):
        anchor = anchor_at(k)
        op = schrodinger(model, anchor @ core @ anchor, k)
        kap = linalg.hermitian_part(linalg.partial_trace_1(op, model.d1, model.d2) / den)
        w = np.linalg.eigvalsh(kap)
        if w[0] < -tol.eps_eig:
            raise DomainError(f"kappa at index {k} is not PSD (eigenvalue {w[0]:.3e})")
        kappas.append(kap)
    return tuple(kappas)


def kappa_path(proc: MeasurementProcess, i: int, rep: str = "support") -> KappaPath:
    """System2 knowledge path for outcome i.

    ``rep="support"`` anchors each time on the support of the outcome
    condition trimmed back from k2; ``rep="observable"`` anchors on the
    lifted label sets of an observable representation (standard system1
    basis).  Partial traces are taken in the Schrodinger picture at each
    index so the tensor factorization stays aligned.
    """
    tol = proc.model.tol
    cond = proc.outcome_condition(i)
    den = _start_weight(proc, tol)
    if rep not in ("support", "observable"):
        raise DomainError(f"unknown representation {rep!r}")
    if cond is None:
        d2 = proc.model.d2
        kappas = tuple(np.zeros((d2, d2), dtype=complex)
                       for _ in range(proc.k1, proc.k2 + 1))
    elif rep == "support":
        kappas = _kappas(proc, den, lambda k: _support(trimmed(cond, k), tol), tol)
    else:
        orep = observable_rep(cond)  # raises if the basis is unsuitable
        kappas = _kappas(proc, den, orep.projector, tol)
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
    """Tr(kappa_i(k2)); agrees with the forward rule for the outcome."""
    path = kappa_path(proc, i, rep)
    return float(np.trace(path.at(proc.k2)).real)


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
    fam = proc.fam
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
            full = lift_system1(proc.model, e, proc.k2)

            def anchor_at(k, full=full):
                return _support(linalg.hermitian_part(fam.at(k) @ full @ fam.at(k)), tol)

            path = KappaPath(-1, proc.k1, _kappas(proc, _start_weight(proc, tol), anchor_at, tol),
                             "support", tol)
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
