"""Objects derived from a conditioning event (X, t_c).

Given a system1 predicate asserted at a grid index, this module derives
the trimmed operator at earlier times, its support projector, the
observable representation X(t) (what the predicate implies about system1
at earlier times, in a chosen basis), the start index T_s, and the
condition operator consumed by the probability rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DomainError, NotPhysicallyPossibleError, UnreachableConditionError
from .linalg import Tolerance
from .model import (
    Model,
    PhysicalFamily,
    is_physically_possible,
    lift_system1,
    physical_restrict,
    schrodinger,
)


@dataclass(frozen=True)
class ConditionSpec:
    """A system1 predicate ``x1`` (Schrodinger picture at its own time)
    asserted at grid index ``k_c``."""

    model: Model
    fam: PhysicalFamily
    x1: np.ndarray
    k_c: int

    def __post_init__(self):
        object.__setattr__(self, "x1", linalg.as_matrix(self.x1))
        object.__setattr__(self, "k_c", self.model.grid.check_index(self.k_c))
        lifted = lift_system1(self.model, self.x1, self.k_c)
        if not is_physically_possible(self.model, self.fam, lifted, self.k_c):
            raise NotPhysicallyPossibleError(
                f"condition predicate is not physically possible at index {self.k_c}"
            )
        object.__setattr__(self, "_lifted", lifted)
        object.__setattr__(self, "_condition1_index", None)  # set by start_time

    @property
    def tol(self) -> Tolerance:
        """The model's tolerance."""
        return self.model.tol

    @property
    def projector(self) -> np.ndarray:
        """Heisenberg lift of the predicate at its own index."""
        return self._lifted


def trimmed(cond: ConditionSpec, k: int) -> np.ndarray:
    """P(k) X P(k): the condition moved back to index k with all
    non-physical components removed.  Hermitian PSD, not a projector in
    general."""
    k = cond.model.grid.check_index(k)
    if k > cond.k_c:
        raise IndexError(f"trimming index {k} lies after the condition index {cond.k_c}")
    p = cond.fam.at(k)
    return linalg.hermitian_part(p @ cond.projector @ p)


def support_at(cond: ConditionSpec, k: int) -> np.ndarray:
    """Projector onto the smallest subspace containing the trimmed
    operator at index k."""
    t = trimmed(cond, k)
    if linalg.max_abs(t) <= cond.tol.eps_zero:
        raise UnreachableConditionError(
            f"condition has no physical weight at index {k}"
        )
    return linalg.support_projector(t, cond.tol)


@dataclass(frozen=True)
class ObservableRep:
    """Per-index label sets X(k) in a chosen system1 basis, for k <= k_c.

    ``basis`` holds the orthonormal system1 basis as columns; ``labels``
    maps each grid index k <= k_c to the frozenset of column indices that
    the condition leaves possible at that time.
    """

    cond: ConditionSpec
    basis: np.ndarray
    labels: tuple

    def labels_at(self, k: int) -> frozenset:
        if not 0 <= k <= self.cond.k_c:
            raise IndexError(f"observable representation covers indices 0..{self.cond.k_c}")
        return self.labels[k]

    def system1_projector(self, k: int) -> np.ndarray:
        """d1 x d1 projector onto the X(k) labels."""
        cols = self.basis[:, sorted(self.labels_at(k))]
        return cols @ cols.conj().T

    def projector(self, k: int) -> np.ndarray:
        """Heisenberg lift of the X(k) predicate at index k."""
        return lift_system1(self.cond.model, self.system1_projector(k), k)


def observable_rep(cond: ConditionSpec, basis1=None) -> ObservableRep:
    """Derive the label sets X(k) from the partial trace of the trimmed
    operator, expressed in the Schrodinger picture at each index.

    Raises DomainError if any lifted X(k) fails to commute with the
    physical family at k; that signals an unsuitable basis choice.
    """
    model = cond.model
    if basis1 is None:
        basis = np.eye(model.d1, dtype=complex)
    else:
        basis = linalg.as_matrix(basis1)
        if basis.shape != (model.d1, model.d1) or not linalg.is_unitary(basis, cond.tol):
            raise DomainError("basis1 must be a d1 x d1 orthonormal basis (unitary matrix)")

    labels = []
    for k in range(cond.k_c + 1):
        sch = schrodinger(model, trimmed(cond, k), k)
        a1 = linalg.partial_trace_2(sch, model.d1, model.d2)
        diag = np.real(np.einsum("ij,jk,ki->i", basis.conj().T, a1, basis))
        chosen = frozenset(int(i) for i in np.nonzero(diag > cond.tol.eps_eig)[0])
        if not chosen:
            raise UnreachableConditionError(
                f"condition implies no system1 labels at index {k}"
            )
        labels.append(chosen)

    rep = ObservableRep(cond, basis, tuple(labels))
    for k in range(cond.k_c + 1):
        if not linalg.commutes(rep.projector(k), cond.fam.at(k), cond.tol):
            raise DomainError(
                f"observable representation rejected: X({k}) does not commute with "
                "the physical family; perhaps the wrong system1 basis was chosen"
            )
    # The representation must reproduce the original predicate at k_c.
    own = rep.system1_projector(cond.k_c)
    if linalg.max_abs(own @ cond.x1 - cond.x1) > 10 * cond.tol.eps_eig:
        raise DomainError(
            "observable representation rejected: X(k_c) does not cover the predicate"
        )
    return rep


@dataclass(frozen=True)
class StartTime:
    """Result of :func:`start_time`.

    ``index`` is the reported start index (0 with ``empty`` set when no
    index satisfies both demands); ``condition1_index`` is the start
    index derived from the trimming-constancy demand alone.
    """

    index: int
    empty: bool
    condition1_index: int


def _condition1_indices(cond: ConditionSpec, top: int):
    """Indices k <= top that satisfy demand (1), in decreasing order.

    trimmed(0) is held for the whole scan, so an index whose trimmed
    operator already differs from index 0 costs one trimming product;
    only indices that match it are compared with indices 1..k-1.  Index
    0 qualifies vacuously and is always yielded last.
    """
    t0 = trimmed(cond, 0)
    for k in range(top, 0, -1):
        tk = trimmed(cond, k)
        if linalg.approx_equal(t0, tk, cond.tol) and all(
            linalg.approx_equal(trimmed(cond, t), tk, cond.tol) for t in range(1, k)
        ):
            yield k
    yield 0


def _condition2_holds(cond: ConditionSpec, rep: ObservableRep, k: int) -> bool:
    px = rep.projector(k)
    restricted = physical_restrict(cond.model, cond.fam, px, k)
    return linalg.approx_equal(restricted, px, cond.tol)


def start_time(cond: ConditionSpec, rep: ObservableRep | None = None) -> StartTime:
    """Latest grid index before which the condition had accumulated no
    information about the outside world.

    Demand (1): the trimmed operator is the same at the index and at
    every earlier one.  Demand (2), applied only when ``rep`` is given:
    the physical part of X(k) equals its full lift, i.e. the implied
    system1 state carries no information about system2.  Ties resolve to
    the latest qualifying index; an empty joint set is reported via the
    ``empty`` flag with index 0.

    Indices are scanned from k_c down to 0 and the first that qualifies
    is returned.  Each index is first compared with index 0, so a scan
    typically costs k_c+1 trimming products rather than one per pair of
    indices.  The demand-(1) index is computed once per condition and
    kept on it; with ``rep`` the scan for both demands starts from that
    index.
    """
    k1 = cond._condition1_index
    if k1 is None:
        k1 = next(_condition1_indices(cond, cond.k_c))
        object.__setattr__(cond, "_condition1_index", k1)
    if rep is None:
        return StartTime(k1, False, k1)
    for k in _condition1_indices(cond, k1):
        if _condition2_holds(cond, rep, k):
            return StartTime(k, False, k1)
    return StartTime(0, True, k1)


def check_k0(cond: ConditionSpec, k0: int,
             bound: str = "the start index T_s={ts}") -> int:
    """Validate k0 against the grid and the condition's demand-(1) start
    index; return it as a grid index.

    ``bound`` names the start index in the error message and may
    mention its value as ``{ts}``.
    """
    k0 = cond.model.grid.check_index(k0)
    ts = start_time(cond).condition1_index
    if k0 > ts:
        raise DomainError(f"k0={k0} is later than " + bound.format(ts=ts))
    return k0


def condition_operator(cond: ConditionSpec, k0: int = 0) -> np.ndarray:
    """X P(k0) X, the condition as it enters the probability rules.

    ``k0`` must not exceed the start index computed from the trimming
    demand; by the equal-sandwich lemma the result is the same for every
    valid choice.
    """
    k0 = check_k0(cond, k0)
    px = cond.projector
    return linalg.hermitian_part(px @ cond.fam.at(k0) @ px)
