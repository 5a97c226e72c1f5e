"""Objects derived from a conditioning event (X, t_c).

Given a system1 predicate asserted at a grid index, this module derives
the trimmed operator at earlier times, its support projector, the
observable representation X(t) (what the predicate implies about system1
at earlier times, in a chosen basis), the start index T_s, and the
condition operator consumed by the probability rules.

A condition keeps its lifted predicate as a d x m orthonormal basis W of
its range (X = W W^dagger), and everything derived from it is a block:
the trimmed operator at k is G G^dagger for G = P(k) W, the support is
the range of G, and a state rho is a pair (phi, core) with rho = phi core
phi^dagger (core None for the identity).  The rules and the measurement
kappas use the blocks (:func:`condition_state`, :func:`trimmed_state`);
:func:`trimmed`, :func:`support_at` and :func:`condition_operator` return
dense d x d matrices, rebuilt from the blocks on each call.  G and its
range come from the family, which alone knows how it holds P(k)
(``PhysicalFamily.apply``, :func:`model.physical_range`).
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
    _commutes,
    _is_possible,
    _require_commutes,
    _row_norms2,
    cumulative_propagator,
    lift_system1,
    physical_range,
)


@dataclass(frozen=True)
class ConditionSpec:
    """A system1 predicate ``x1`` (Schrodinger picture at its own time)
    asserted at grid index ``k_c``.

    It keeps the d x m orthonormal basis W of the lifted predicate's
    range, V(k_c)^dagger (B (x) I) with B a range basis of ``x1``.  It is
    physically possible when W W^dagger commutes with P(k_c) and P(k_c) W
    W^dagger is not zero, both within eps_zero and decided from blocks
    (:func:`model._is_possible`).
    """

    model: Model
    fam: PhysicalFamily
    x1: np.ndarray
    k_c: int

    def __post_init__(self):
        object.__setattr__(self, "x1", linalg.as_matrix(self.x1))
        object.__setattr__(self, "k_c", self.model.grid.check_index(self.k_c))
        w = lift_system1(self.model, self.x1, self.k_c)
        if not _is_possible(self.model, self.fam, self.k_c, w):
            raise NotPhysicallyPossibleError(
                f"condition predicate is not physically possible at index {self.k_c}"
            )
        object.__setattr__(self, "_basis", w)
        object.__setattr__(self, "_condition1_index", None)  # set by start_time

    @property
    def tol(self) -> Tolerance:
        """The model's tolerance."""
        return self.model.tol

    @property
    def basis(self) -> np.ndarray:
        """The d x m orthonormal basis W of the lifted predicate's range."""
        return self._basis

    @property
    def projector(self) -> np.ndarray:
        """Heisenberg lift of the predicate at its own index, as a dense
        d x d projector W W^dagger (rebuilt on each call)."""
        return self._basis @ self._basis.conj().T


def _trim_index(cond: ConditionSpec, k: int) -> int:
    k = cond.model.grid.check_index(k)
    if k > cond.k_c:
        raise IndexError(f"trimming index {k} lies after the condition index {cond.k_c}")
    return k


def _trim(cond: ConditionSpec, k: int) -> np.ndarray:
    """G = P(k) W: the one trimming step behind every trimmed operator."""
    return cond.fam.apply(_trim_index(cond, k), cond.basis)


def _support(model: Model, fam: PhysicalFamily, k: int, block: np.ndarray) -> tuple:
    """(G, Q) for G = P(k) block and Q the orthonormal basis of the support
    of G G^dagger, the range of G at the eps_eig cut on its squared
    singular values (:func:`model.physical_range`); Q is None when G
    G^dagger has no physical weight (no entry above eps_zero: for a PSD
    matrix the largest entry is on the diagonal, the largest squared row
    norm of G)."""
    g, q = physical_range(model, fam, k, block)
    if g.size == 0 or np.max(_row_norms2(g)) <= model.tol.eps_zero:
        return g, None
    return g, q


def _no_weight(k: int) -> UnreachableConditionError:
    return UnreachableConditionError(f"condition has no physical weight at index {k}")


def _dense(state: tuple) -> np.ndarray:
    """The d x d matrix rho = phi core phi^dagger of a (phi, core) state,
    core None standing for the identity."""
    phi, core = state
    return linalg.hermitian_part((phi if core is None else phi @ core) @ phi.conj().T)


def trimmed_state(cond: ConditionSpec, k: int) -> tuple:
    """P(k) X P(k) as the state (G, None), G = P(k) W."""
    return _trim(cond, k), None


def trimmed(cond: ConditionSpec, k: int) -> np.ndarray:
    """P(k) X P(k) = G G^dagger with G = P(k) W: the condition moved back
    to index k with all non-physical components removed, and the state
    rho of the before and approx rules.  Hermitian PSD, not a projector
    in general."""
    return _dense(trimmed_state(cond, k))


def support_at(cond: ConditionSpec, k: int) -> np.ndarray:
    """Projector onto the smallest subspace containing the trimmed
    operator at index k: the range of P(k) W."""
    _, q = _support(cond.model, cond.fam, _trim_index(cond, k), cond.basis)
    if q is None:
        raise _no_weight(k)
    return q @ q.conj().T


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
        # Tr_2 of V(k) G G^dagger V(k)^dagger, G = P(k) W, by a reshape
        r = (cumulative_propagator(model, k) @ _trim(cond, k)).reshape(
            model.d1, model.d2, -1)
        a1 = np.einsum("ibp,jbp->ij", r, r.conj())
        diag = np.real(np.einsum("ij,jk,ki->i", basis.conj().T, a1, basis))
        chosen = frozenset(int(i) for i in np.nonzero(diag > cond.tol.eps_eig)[0])
        if not chosen:
            raise UnreachableConditionError(
                f"condition implies no system1 labels at index {k}"
            )
        labels.append(chosen)

    rep = ObservableRep(cond, basis, tuple(labels))
    for k in range(cond.k_c + 1):
        w = lift_system1(model, rep.system1_projector(k), k)
        if not _commutes(model, cond.fam, k, w):
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


def _same_trimming(cond: ConditionSpec, ga: np.ndarray, gb: np.ndarray) -> bool:
    """Whether the trimmed operators G_a G_a^dagger and G_b G_b^dagger agree
    within eps_zero, for d x m blocks G = P(k) W.

    Their difference D = G_a (G_a - G_b)^dagger + (G_a - G_b) G_b^dagger
    has ||D||_F <= (||G_a||_F + ||G_b||_F) ||G_a - G_b||_F, and its
    diagonal, the difference of the squared row norms, bounds its largest
    entry from below; the dense operators are compared only in between.
    """
    upper = (np.linalg.norm(ga) + np.linalg.norm(gb)) * np.linalg.norm(ga - gb)
    lower = np.max(np.abs(_row_norms2(ga) - _row_norms2(gb)))
    return linalg.within_zero(
        upper, lower, lambda: linalg.max_abs(_dense((ga, None)) - _dense((gb, None))), cond.tol)


def _condition1_indices(cond: ConditionSpec, top: int):
    """Indices k <= top that satisfy demand (1), in decreasing order.

    Each trimmed operator is held as its block G_k = P(k) W, and two are
    compared by :func:`_same_trimming`, which forms no d x d matrix
    unless the difference is near eps_zero.  G_0 is held for the whole
    scan, so an index whose block already differs from index 0 costs one
    trimming product; only indices that match it are compared with every
    index 1..k-1.  Index 0 qualifies vacuously and is always yielded last.
    """
    g0 = _trim(cond, 0)
    for k in range(top, 0, -1):
        gk = _trim(cond, k)
        if _same_trimming(cond, g0, gk) and all(
            _same_trimming(cond, _trim(cond, t), gk) for t in range(1, k)
        ):
            yield k
    yield 0


def _condition2_holds(cond: ConditionSpec, rep: ObservableRep, k: int) -> bool:
    """Demand (2) at k: P(k) X(k) = X(k) within eps_zero, for the lifted
    X(k) = W_x W_x^dagger.  P X - X = -((I - P) W_x) W_x^dagger, whose
    Frobenius norm is ||(I - P) W_x||_F.  Raises NotPhysicallyPossibleError
    when X(k) does not commute with P(k)."""
    model = cond.model
    w = lift_system1(model, rep.system1_projector(k), k)
    _require_commutes(model, cond.fam, k, w)
    frob = np.linalg.norm(w - cond.fam.apply(k, w))

    def measure():
        px = w @ w.conj().T
        return linalg.max_abs(cond.fam.at(k) @ px - px)

    return linalg.within_zero(frob, frob / model.dim, measure, cond.tol)


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
    typically costs k_c+1 trimming products P(k) W rather than one per
    pair of indices.  Both demands are decided from d x m blocks, with
    the dense max-entry test only for a difference near eps_zero (see
    :func:`linalg.within_zero`).  The demand-(1) index is computed once
    per condition and kept on it; with ``rep`` the scan for both demands
    starts from that index.
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
             bound: str = "the condition's start index T_s={ts}") -> int:
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


def condition_state(cond: ConditionSpec, k0: int = 0) -> tuple:
    """X P(k0) X as the state (W, W^dagger P(k0) W): the state rho of the
    forward and sequence rules and of the measurement kappas.

    ``k0`` must not exceed the start index computed from the trimming
    demand; by the equal-sandwich lemma the result is the same for every
    valid choice.
    """
    k0 = check_k0(cond, k0)
    return cond.basis, cond.fam.sandwich(k0, cond.basis)


def condition_operator(cond: ConditionSpec, k0: int = 0) -> np.ndarray:
    """X P(k0) X as a dense d x d matrix; see :func:`condition_state`."""
    return _dense(condition_state(cond, k0))
