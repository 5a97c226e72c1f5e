"""Objects derived from a conditioning event (X, t_c).

Given a system1 predicate asserted at a grid index, this module derives
the trimmed operator at earlier times, its support projector, the
observable representation X(t) (what the predicate implies about system1
at earlier times, as sets of record labels, each lifted once), the start
index T_s, and the condition operator consumed by the probability rules.

A condition keeps its lifted predicate X only in the form
:func:`model.lift_predicate` picks (``ConditionSpec.lifted``): the d x m
orthonormal basis W of its range (X = W W^dagger), or, when m > d/2, the
d x (d - m) basis Wbar of its complement's range (X = I - Wbar
Wbar^dagger), so that "not this record" costs about what its record
costs.  :class:`model.Lifted` is the one owner of the form: it decides
possibility and builds, at the family's rank, the support of P(k) X P(k),
the trimmed factor T = P(k) W or P(k) X with T T^dagger = P(k) X P(k),
and the condition state X P(k0) X.  A state rho is a pair (phi, core)
with rho = phi core phi^dagger (core None for the identity).  The rules
and the measurement kappas use the blocks (:func:`condition_state`,
:func:`trimmed_state`); :func:`trimmed`, :func:`support_at` and
:func:`condition_operator` return dense d x d matrices, rebuilt from the
blocks on each call.  ``check_k0`` passes k0 = 0 without the start-index
scan, since 0 <= T_s always holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DomainError, NotPhysicallyPossibleError, ShapeError, UnreachableConditionError
from .linalg import Tolerance
from .model import (
    Lifted,
    Model,
    PhysicalFamily,
    _commutes,
    _row_norms2,
    cumulative_propagator,
    lift_predicate,
    lift_system1,
)


@dataclass(frozen=True)
class ConditionSpec:
    """A system1 predicate ``x1`` (Schrodinger picture at its own time)
    asserted at grid index ``k_c``.

    It keeps the lifted predicate X as :func:`model.lift_predicate` holds it
    (:attr:`lifted`): by the d x m orthonormal basis W of its range,
    V(k_c)^dagger (B (x) I) with B a range basis of ``x1``, or, when m >
    d/2, by the basis of its complement's range.  It is physically
    possible when X commutes with P(k_c) and P(k_c) X is not zero, both
    within eps_zero and decided from blocks (:meth:`model.Lifted.is_possible`).
    """

    model: Model
    fam: PhysicalFamily
    x1: np.ndarray
    k_c: int

    def __post_init__(self):
        object.__setattr__(self, "x1", linalg.as_matrix(self.x1))
        object.__setattr__(self, "k_c", self.model.grid.check_index(self.k_c))
        d1 = self.model.d1
        if self.x1.shape != (d1, d1):
            raise ShapeError(f"system1 operator shape {self.x1.shape}, expected {(d1, d1)}")
        lifted = lift_predicate(self.model, self.x1, self.k_c)
        if not lifted.is_possible(self.fam, self.k_c):
            raise NotPhysicallyPossibleError(
                f"condition predicate is not physically possible at index {self.k_c}"
            )
        self._hold(lifted)

    @classmethod
    def of_lifted(cls, model: Model, fam: PhysicalFamily, x1: np.ndarray, k_c: int,
                  lifted: Lifted) -> ConditionSpec:
        """The condition of ``x1`` at ``k_c`` from ``lifted``, its lift at
        ``k_c`` already found possible there: nothing is checked, lifted
        or tested again."""
        cond = cls.__new__(cls)
        for name, value in (("model", model), ("fam", fam), ("x1", x1), ("k_c", k_c)):
            object.__setattr__(cond, name, value)
        cond._hold(lifted)
        return cond

    def _hold(self, lifted: Lifted) -> None:
        object.__setattr__(self, "_lifted", lifted)
        object.__setattr__(self, "_condition1_index", None)  # set by start_time

    @property
    def tol(self) -> Tolerance:
        """The model's tolerance."""
        return self.model.tol

    @property
    def lifted(self) -> Lifted:
        """The lifted predicate X, in the form it is held."""
        return self._lifted


def _trim_index(cond: ConditionSpec, k: int) -> int:
    return linalg._index(cond.model.grid.check_index(k), 0, cond.k_c,
                         "trimming index {k} lies after the condition index {hi}")


def _trim(cond: ConditionSpec, k: int) -> np.ndarray:
    """The trimmed factor T at k (:meth:`model.Lifted.trimmed`): the one
    trimming step behind every trimmed operator T T^dagger."""
    return cond.lifted.trimmed(cond.fam, _trim_index(cond, k))


def _support(cond: ConditionSpec, k: int) -> tuple:
    """(T, Q) of :meth:`model.Lifted.support` at k: a factor of the
    trimmed operator and the range basis Q of its support; refuses when
    the condition has no physical weight at k."""
    back, q = cond.lifted.support(cond.fam, k)
    if q is None:
        raise UnreachableConditionError(f"condition has no physical weight at index {k}")
    return back, q


def _dense(state: tuple) -> np.ndarray:
    """The d x d matrix rho = phi core phi^dagger of a (phi, core) state,
    core None standing for the identity."""
    phi, core = state
    return linalg.hermitian_part((phi if core is None else phi @ core) @ phi.conj().T)


def trimmed_state(cond: ConditionSpec, k: int) -> tuple:
    """P(k) X P(k) as the state (T, None) for the trimmed factor T."""
    return _trim(cond, k), None


def trimmed(cond: ConditionSpec, k: int) -> np.ndarray:
    """P(k) X P(k) = T T^dagger for the trimmed factor T: the condition
    moved back to index k with all non-physical components removed, and
    the state rho of the before and approx rules.  Hermitian PSD, not a
    projector in general."""
    return _dense(trimmed_state(cond, k))


def support_at(cond: ConditionSpec, k: int) -> np.ndarray:
    """Projector onto the smallest subspace containing the trimmed
    operator at index k: the range of P(k) X."""
    q = _support(cond, _trim_index(cond, k))[1]
    return q @ q.conj().T


@dataclass(frozen=True)
class ObservableRep:
    """Per-index record label sets X(k), for k <= k_c.

    ``labels`` maps each grid index k <= k_c to the frozenset of system1
    record labels that the condition leaves possible at that time;
    ``lifts`` holds the range basis of each lifted X(k), lifted once.
    """

    cond: ConditionSpec
    labels: tuple
    lifts: tuple = field(compare=False, repr=False)

    def labels_at(self, k: int) -> frozenset:
        return self.labels[linalg._index(k, 0, self.cond.k_c,
                                         "observable representation covers indices 0..{hi}")]

    def system1_projector(self, k: int) -> np.ndarray:
        """d1 x d1 record projector onto the X(k) labels."""
        return linalg.diagonal_projector(sorted(self.labels_at(k)), self.cond.model.d1)

    def lifted(self, k: int) -> np.ndarray:
        """The d x m range basis of the lifted X(k), checked against the family."""
        self.labels_at(k)       # refuses an index past k_c
        return self.lifts[k]


def observable_rep(cond: ConditionSpec) -> ObservableRep:
    """Derive the label sets X(k) from the diagonal of the partial trace
    Tr_2 of the trimmed operator, expressed in the Schrodinger picture at
    each index, and lift each X(k) once.

    Raises DomainError if any lifted X(k) fails to commute with the
    physical family at k, or if X(k_c) does not cover the predicate.
    """
    model = cond.model
    labels = []
    for k in range(cond.k_c + 1):
        r = cumulative_propagator(model, k) @ _trim(cond, k)
        # the diagonal of Tr_2 of r r^dagger: for each label, the squared
        # singular value of its row block, cut as every rank is
        diag = _row_norms2(r.reshape(model.d1, -1))
        chosen = frozenset(int(i) for i in np.flatnonzero(linalg.rank_cut(diag, cond.tol)))
        if not chosen:
            raise UnreachableConditionError(
                f"condition implies no system1 labels at index {k}"
            )
        labels.append(chosen)

    lifts = []
    for k, chosen in enumerate(labels):
        w = lift_system1(model, linalg.diagonal_projector(sorted(chosen), model.d1), k)
        if not _commutes(model, cond.fam, k, w):
            raise DomainError(f"observable representation rejected: X({k}) does not "
                              "commute with the physical family")
        lifts.append(w)
    rep = ObservableRep(cond, tuple(labels), tuple(lifts))
    # X(k_c) covers the predicate: X(k_c) x1 = x1 within eps_zero.  The
    # difference is d1 x d1, so its max entry is both bounds.
    gap = linalg.max_abs(rep.system1_projector(cond.k_c) @ cond.x1 - cond.x1)
    if not linalg.within_zero(gap, lambda: gap, lambda: gap, cond.tol):
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


def _held_factor(cond: ConditionSpec, k: int) -> tuple:
    """The trimmed factor G_k = P(k) L (:func:`_trim`) with its Frobenius norm."""
    g = _trim(cond, k)
    return g, np.linalg.norm(g)


def _same_trimming(cond: ConditionSpec, a: tuple, b: tuple) -> bool:
    """Whether the trimmed operators G_a G_a^dagger and G_b G_b^dagger agree
    within eps_zero, for held trimmed factors a = (G_a, ||G_a||_F) and b
    (:func:`_held_factor`).

    Their difference D = G_a (G_a - G_b)^dagger + (G_a - G_b) G_b^dagger
    has ||D||_F <= (||G_a||_F + ||G_b||_F) ||G_a - G_b||_F, and its
    diagonal, the difference of the squared row norms, bounds its largest
    entry from below; the dense operators are compared only in between.
    """
    (ga, na), (gb, nb) = a, b
    return linalg.within_zero(
        (na + nb) * np.linalg.norm(ga - gb),
        lambda: np.max(np.abs(_row_norms2(ga) - _row_norms2(gb))),
        lambda: linalg.max_abs(_dense((ga, None)) - _dense((gb, None))), cond.tol)


def _condition1_indices(cond: ConditionSpec, top: int):
    """Indices k <= top that satisfy demand (1), in decreasing order.

    The indices of one run of the family
    (:meth:`model.PhysicalFamily.run_start`) hold one P(k), so their
    trimmed factors are equal bit for bit and match each other: an index
    qualifies exactly when the first index f of its run does, and f
    qualifies when its trimmed operator matches that of the first index of
    every earlier run.  So each run is decided once.  The run of index 0
    qualifies with no product.  Any other run builds G_f once and compares
    it with G_0, held from the first such run to the end of the scan; only
    a run that matches G_0 is compared with the first index of each run
    from index 1 up, each built again (a complement factor is d x d).
    Each trimmed operator is held as its factor with its norm
    (:func:`_held_factor`), and two are compared by :func:`_same_trimming`,
    which forms no d x d product unless the difference is near eps_zero.
    Index 0 qualifies vacuously and is always yielded last.
    """
    fam, h0, k = cond.fam, None, top
    while k > 0:
        first = fam.run_start(k)
        if first:
            hf = _held_factor(cond, first)
            h0 = h0 or _held_factor(cond, 0)
            qualifies = _same_trimming(cond, h0, hf) and all(
                _same_trimming(cond, _held_factor(cond, t), hf)
                for t in range(1, first) if fam.run_start(t) == t)
        if not first or qualifies:
            yield from range(k, max(first - 1, 0), -1)
        k = first - 1
    yield 0


def _condition2_holds(cond: ConditionSpec, rep: ObservableRep, k: int) -> bool:
    """Demand (2) at k: P(k) X(k) = X(k) within eps_zero, for the lifted
    X(k) = W_x W_x^dagger that ``rep`` holds.  P X - X = (P W_x - W_x)
    W_x^dagger, whose Frobenius norm is ||P W_x - W_x||_F; the dense
    test, between the bounds, measures that same product of blocks.  P X
    = X implies [X, P] = 0, so a non-commuting X(k) reads false."""
    w = rep.lifted(k)
    miss = cond.fam.apply(k, w) - w
    frob = np.linalg.norm(miss)
    return linalg.within_zero(frob, lambda: frob / cond.model.dim,
                              lambda: linalg.max_abs(miss @ w.conj().T), cond.tol)


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
    is returned.  The scan decides each run of equal P(k) once, first
    against index 0 (:func:`_condition1_indices`), so it typically costs
    one trimming product per run, and none on a family that is one run,
    rather than one per pair of indices.  Both demands are decided from
    blocks, with the dense max-entry test only for a difference near
    eps_zero (see :func:`linalg.within_zero`).  The demand-(1) index is
    computed once per condition and kept on it; with ``rep`` the scan for
    both demands starts from that index.
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
    index; return it as a grid index.  k0 = 0 passes without the scan of
    :func:`start_time`, since 0 <= T_s always holds.

    ``bound`` names the start index in the error message and may
    mention its value as ``{ts}``.
    """
    k0 = cond.model.grid.check_index(k0)
    if k0 == 0:
        return k0
    ts = start_time(cond).condition1_index
    if k0 > ts:
        raise DomainError(f"k0={k0} is later than " + bound.format(ts=ts))
    return k0


def condition_state(cond: ConditionSpec, k0: int = 0) -> tuple:
    """X P(k0) X as a state (:meth:`model.Lifted.state`): the state rho of
    the forward and sequence rules and of the measurement kappas.

    ``k0`` must not exceed the start index computed from the trimming
    demand; by the equal-sandwich lemma the result is the same for every
    valid choice.
    """
    return cond.lifted.state(cond.fam, check_k0(cond, k0))


def condition_operator(cond: ConditionSpec, k0: int = 0) -> np.ndarray:
    """X P(k0) X as a dense d x d matrix; see :func:`condition_state`."""
    return _dense(condition_state(cond, k0))
