"""Time-gridded closed-system models and the physical-subspace family.

A ``Model`` is a system1 (x) system2 Hilbert factorization with one unitary
per grid step.  All stored projector families live in the Heisenberg
picture with reference at grid index 0; ``heisenberg`` converts a
Schrodinger-picture operator at index k into that frame.

The nested family of subspaces describing which state vectors are
physically admissible at each time is carried by ``PhysicalFamily`` and
validated against the nesting law P(j) P(k) = P(j) for j < k.  A family
built by :func:`forward_closure` keeps one orthonormal d x r range basis
per index, and every lift returns a d x m orthonormal basis of the
lifted range at its grid index (:func:`lift_predicate`), so that the
rules work on d x r and d x m blocks; a dense d x d projector is formed
only where a public function returns one.  ``PhysicalFamily`` is the one
owner of its storage form: no other module asks whether P(k) is held as
a projector or as a range basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DomainError, NotPhysicallyPossibleError, ShapeError, ValidationError
from .linalg import DEFAULT_TOL, Tolerance


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time labels; indices drive all computation."""

    times: tuple

    def __post_init__(self):
        try:
            times = tuple(float(t) for t in self.times)
        except OverflowError:   # an integer beyond the float range
            times = (math.inf,)
        if not all(math.isfinite(t) for t in times):
            raise ValidationError("time grid labels must be finite (no NaN or infinity)")
        object.__setattr__(self, "times", times)
        if len(times) < 2:
            raise ValidationError("a time grid needs at least 2 points")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("time grid labels must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def check_index(self, k: int) -> int:
        k = int(k)
        if not 0 <= k < len(self.times):
            raise IndexError(f"grid index {k} out of range [0, {len(self.times) - 1}]")
        return k


@dataclass(frozen=True)
class Model:
    """Closed-system model: dimensions, grid, and per-step propagators.

    ``steps[k]`` propagates grid index k -> k+1 in the Schrodinger
    picture and must be unitary on the full d1*d2 space.
    """

    d1: int
    d2: int
    grid: TimeGrid
    steps: tuple
    tol: Tolerance = DEFAULT_TOL
    _cum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValidationError("subsystem dimensions must be positive")
        steps = tuple(linalg.as_matrix(u) for u in self.steps)
        object.__setattr__(self, "steps", steps)
        if len(steps) != self.grid.n_steps:
            raise ValidationError(
                f"expected {self.grid.n_steps} step unitaries, got {len(steps)}"
            )
        d = self.dim
        for k, u in enumerate(steps):
            if u.shape != (d, d):
                raise ValidationError(f"step {k} has shape {u.shape}, expected {(d, d)}")
            if not linalg.is_unitary(u, self.tol):
                raise ValidationError(f"step {k} is not unitary within eps_zero")
        cum = [np.eye(d, dtype=complex)]
        for u in steps:
            cum.append(u @ cum[-1])
        object.__setattr__(self, "_cum", tuple(cum))

    @property
    def dim(self) -> int:
        return self.d1 * self.d2

    @property
    def n_indices(self) -> int:
        return len(self.grid)


def cumulative_propagator(model: Model, k: int) -> np.ndarray:
    """V(k) = U_k ... U_1, with V(0) the identity."""
    model.grid.check_index(k)
    return model._cum[k]


def heisenberg(model: Model, a_schrodinger, k: int) -> np.ndarray:
    """Express a Schrodinger-picture operator at index k in the reference
    frame of index 0: V(k)^dagger a V(k)."""
    a = linalg.as_matrix(a_schrodinger)
    if a.shape != (model.dim, model.dim):
        raise ShapeError(f"operator shape {a.shape} does not match model dim {model.dim}")
    v = cumulative_propagator(model, k)
    return v.conj().T @ a @ v


def _projector_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of a projector, as columns: the
    standard basis vectors on its unit diagonal when it is diagonal, its
    eigenvectors with eigenvalue above 1/2 otherwise."""
    diag = np.diagonal(p)
    if not np.count_nonzero(p - np.diag(diag)):
        return np.eye(len(p), dtype=complex)[:, diag.real > 0.5]
    w, v = np.linalg.eigh(linalg.hermitian_part(p))
    return v[:, w > 0.5]


def _factor_basis(model: Model, p, which: str, n: int) -> np.ndarray:
    """Range basis of a checked projector on the n-dimensional ``which``."""
    p = linalg.as_matrix(p)
    if p.shape != (n, n):
        raise ShapeError(f"{which} operator shape {p.shape}, expected {(n, n)}")
    if not linalg.is_projector(p, model.tol):
        raise DomainError(f"lift_{which} requires a projector")
    return _projector_basis(p)


def lift_system1(model: Model, p1, k: int) -> np.ndarray:
    """Heisenberg lift of a system1 projector at grid index k, as the d x m
    orthonormal basis W = V(k)^dagger (B (x) identity) of its range, with
    B a range basis of p1; no d x d product is made."""
    b = _factor_basis(model, p1, "system1", model.d1)
    # (B^dagger (x) I) V(k), row (b, j) = sum_a conj(B[a, b]) V[(a, j), :]
    v = cumulative_propagator(model, k)
    rows = b.conj().T @ v.reshape(model.d1, model.d2 * model.dim)
    return rows.reshape(-1, model.dim).conj().T


def lift_system2(model: Model, p2, k: int) -> np.ndarray:
    """Heisenberg lift of a system2 projector at grid index k, as the d x m
    orthonormal basis V(k)^dagger (identity (x) B) of its range, with B a
    range basis of p2."""
    b = _factor_basis(model, p2, "system2", model.d2)
    # column (a, c) = sum_j V^dagger[:, (a, j)] B[j, c]
    vh = cumulative_propagator(model, k).conj().T.reshape(model.dim, model.d1, model.d2)
    return (vh @ b).reshape(model.dim, -1)


def lift_predicate(model: Model, p, k: int) -> np.ndarray:
    """Heisenberg lift of a predicate at index k, as an orthonormal basis of
    its range: a system1 projector is lifted with :func:`lift_system1`, a
    full-space projector is taken as already lifted (see
    :func:`_full_space_basis`)."""
    p = linalg.as_matrix(p)
    if p.shape == (model.d1, model.d1):
        return lift_system1(model, p, k)
    if p.shape != (model.dim, model.dim):
        raise ShapeError(f"predicate shape {p.shape} matches neither system1 nor the full space")
    if not linalg.is_projector(p, model.tol):
        raise DomainError("a full-space predicate must be a projector")
    return _full_space_basis(model, p, k)


def _full_space_basis(model: Model, p: np.ndarray, k: int) -> np.ndarray:
    """Range basis of a full-space projector at index k.

    When p keeps or removes, within eps_zero, each record label's whole
    block V(k)^dagger (e_a (x) I), it is the lift of that diagonal system1
    projector and gets the basis :func:`lift_system1` gives it, so a
    predicate passed lifted or unlifted yields the same numbers; any
    other projector gets its eigenvectors with eigenvalue above 1/2.
    """
    d, d1, d2 = model.dim, model.d1, model.d2
    vh = cumulative_propagator(model, k).conj().T
    moved = (p @ vh).reshape(d, d1, d2)
    blocks = vh.reshape(d, d1, d2)
    eps = model.tol.eps_zero
    kept = [linalg.max_abs(moved[:, a] - blocks[:, a]) <= eps for a in range(d1)]
    if all(kept[a] or linalg.max_abs(moved[:, a]) <= eps for a in range(d1)):
        return lift_system1(model, linalg.diagonal_projector(np.flatnonzero(kept), d1), k)
    return _projector_basis(p)


class PhysicalFamily:
    """Time-indexed physical subspaces P(k), one per grid index,
    Heisenberg frame at index 0.  Nesting (earlier ranges contained in
    later ones) is checked by :func:`validate_family`, not at
    construction.

    ``PhysicalFamily(projectors)`` keeps the given dense projectors and
    applies them as they are.  :meth:`from_bases` (what
    :func:`forward_closure` builds) keeps one orthonormal d x r basis U
    per index instead, with P(k) = U U^dagger: the family then holds
    O(d r) numbers per index, applying P(k) to a d x m block costs
    O(d r m), and :meth:`at` rebuilds the dense projector on each call.
    Callers use P(k) B (:meth:`apply`), B^dagger P(k) B (:meth:`sandwich`)
    and the range of P(k) B (:func:`physical_range`), whatever the form.
    """

    __slots__ = ("_projectors", "_bases")

    def __init__(self, projectors):
        self._projectors = tuple(linalg.as_matrix(p) for p in projectors)
        self._bases = None

    @classmethod
    def from_bases(cls, bases) -> "PhysicalFamily":
        """Family with P(k) = U_k U_k^dagger for the given orthonormal
        column bases U_k."""
        fam = cls.__new__(cls)
        fam._projectors = None
        fam._bases = tuple(bases)
        return fam

    def __len__(self) -> int:
        return len(self._bases if self._projectors is None else self._projectors)

    def _index(self, k: int) -> int:
        if not 0 <= k < len(self):
            raise IndexError(f"family index {k} out of range [0, {len(self) - 1}]")
        return int(k)

    def at(self, k: int) -> np.ndarray:
        """The dense d x d projector P(k)."""
        k = self._index(k)
        if self._projectors is not None:
            return self._projectors[k]
        u = self._bases[k]
        return u @ u.conj().T

    @property
    def projectors(self) -> tuple:
        """Every P(k) as a dense projector."""
        return tuple(self.at(k) for k in range(len(self)))

    def _restrict(self, k: int, block: np.ndarray) -> tuple:
        """P(k) block as a pair (frame, coef) with P(k) block = frame @ coef:
        the index's range basis U with coef = U^dagger block, or None with
        coef = P(k) block for an explicit projector."""
        k = self._index(k)
        if self._projectors is not None:
            return None, self._projectors[k] @ block
        u = self._bases[k]
        return u, u.conj().T @ block

    def apply(self, k: int, block: np.ndarray) -> np.ndarray:
        """P(k) block."""
        frame, coef = self._restrict(k, block)
        return coef if frame is None else frame @ coef

    def sandwich(self, k: int, block: np.ndarray) -> np.ndarray:
        """block^dagger P(k) block."""
        frame, coef = self._restrict(k, block)
        return (block if frame is None else coef).conj().T @ coef

    def commutator_norm(self, k: int, w: np.ndarray) -> float:
        """Max entry magnitude of [W W^dagger, P(k)] for a d x m block W:
        C - C^dagger for C = W G^dagger = W W^dagger P(k), G = P(k) W."""
        c = w @ self.apply(k, w).conj().T
        return linalg.max_abs(c - c.conj().T)

    def overlap_norm(self, k: int, w: np.ndarray) -> float:
        """Max entry magnitude of P(k) W W^dagger."""
        return linalg.max_abs(self.apply(k, w) @ w.conj().T)


def physical_range(model: Model, fam: PhysicalFamily, k: int, block: np.ndarray) -> tuple:
    """(G, Q): G = P(k) block and the orthonormal basis Q of its range
    at the eps_eig cut of :func:`linalg.range_basis`.  For a family of
    range bases, G = U C with C = U^dagger block and Q = U range_basis(C):
    the SVD is of the r x m matrix C, not of the d x m block G."""
    frame, coef = fam._restrict(k, block)
    if frame is None:
        return coef, linalg.range_basis(coef, model.tol)
    return frame @ coef, frame @ linalg.range_basis(coef, model.tol)


@dataclass(frozen=True)
class FamilyValidation:
    """Diagnostic output of :func:`validate_family`."""

    projector_ok: tuple          # per index: passes is_projector
    nonzero: tuple               # per index: projector is not ~0
    nesting_violations: tuple    # index pairs (j, k) with P(j) P(k) != P(j)
    passed: bool


def validate_family(model: Model, fam: PhysicalFamily) -> FamilyValidation:
    """Check projector validity, nonzeroness, and the nesting law
    P(j) P(k) = P(j) for every index pair j < k, each within eps_zero.

    An explicit family is checked with dense d x d products.  A basis
    family is checked from its blocks (:func:`_basis_checks`), and the
    dense max-entry test runs only for a quantity that falls between
    the bounds of :func:`linalg.within_zero`; the verdicts are the same.
    """
    if fam._projectors is None:
        proj_ok, nonzero, violations = _basis_checks(model, fam)
    else:
        proj_ok, nonzero, violations = _dense_checks(model, fam)
    passed = (
        len(fam) == model.n_indices
        and all(proj_ok)
        and all(nonzero)
        and not violations
    )
    return FamilyValidation(proj_ok, nonzero, violations, passed)


def _dense_checks(model: Model, fam: PhysicalFamily) -> tuple:
    """The checks of :func:`validate_family` on explicit projectors."""
    tol = model.tol
    projs = fam.projectors
    n = len(projs)
    proj_ok = tuple(
        p.shape == (model.dim, model.dim) and linalg.is_projector(p, tol)
        for p in projs
    )
    nonzero = tuple(linalg.max_abs(p) > tol.eps_zero for p in projs)
    violations = []
    for j in range(n):
        for k in range(j + 1, n):
            pj, pk = projs[j], projs[k]
            if pj.shape == pk.shape and linalg.max_abs(pj @ pk - pj) > tol.eps_zero:
                violations.append((j, k))
    return proj_ok, nonzero, tuple(violations)


def _basis_checks(model: Model, fam: PhysicalFamily) -> tuple:
    """The checks of :func:`validate_family` on P(k) = U U^dagger, from
    blocks of U.

    With E = U^dagger U - I, P^2 - P = U E U^dagger, whose Frobenius norm
    is at most (1 + ||E||_F) ||E||_F and whose diagonal bounds its largest
    entry from below; U U^dagger is Hermitian up to rounding.  ||P||_F is
    ||U^dagger U||_F and the largest squared row norm of U is a diagonal
    entry of P.  For j < k, P(j) P(k) - P(j) = -U_j R^dagger with
    R = (I - P(k)) U_j, so its Frobenius norm is at most ||U_j||_2 ||R||_F
    and its diagonal is the row-wise product of U_j and R; R is formed
    for every j < k at once.
    """
    tol = model.tol
    bases = fam._bases
    proj_ok, nonzero, e_norms = [], [], []
    for k, u in enumerate(bases):
        gram = u.conj().T @ u
        e = gram - np.eye(len(gram))
        e_norms.append(np.linalg.norm(e))
        diag = np.einsum("ij,jk,ik->i", u, e, u.conj())
        proj_ok.append(u.shape[0] == model.dim and linalg.within_zero(
            (1 + e_norms[k]) * e_norms[k], np.max(np.abs(diag), initial=0.0),
            lambda: linalg.projector_defect(fam.at(k)), tol))
        nonzero.append(not linalg.within_zero(
            np.linalg.norm(gram), np.max(_row_norms2(u), initial=0.0),
            lambda: linalg.max_abs(fam.at(k)), tol))

    violations = []
    for k, uk in enumerate(bases):
        earlier = [j for j in range(k) if bases[j].shape[0] == uk.shape[0]]
        if not earlier:
            continue
        stacked = np.hstack([bases[j] for j in earlier])
        rest = stacked - uk @ (uk.conj().T @ stacked)
        start = 0
        for j in earlier:
            cols = slice(start, start + bases[j].shape[1])
            start = cols.stop
            uj, r = stacked[:, cols], rest[:, cols]
            if not linalg.within_zero(
                    math.sqrt(1 + e_norms[j]) * np.linalg.norm(r),
                    np.max(np.abs(np.einsum("ij,ij->i", uj, r.conj()))),
                    lambda: linalg.max_abs(fam.at(j) @ fam.at(k) - fam.at(j)), tol):
                violations.append((j, k))
    return tuple(proj_ok), tuple(nonzero), tuple(sorted(violations))


def _row_norms2(g: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of g."""
    return np.einsum("ij,ij->i", g, g.conj()).real


def forward_closure(model: Model, initial_states, extras=None) -> PhysicalFamily:
    """Build a nested family from generator states.

    The index-0 subspace is the span of ``initial_states``.  At each
    later index k the previous range is kept and any ``extras[k]`` vectors
    (Schrodinger picture at index k) are pulled to the reference frame and
    appended, so nesting holds by construction; an extras index outside
    1..n-1 is refused.  The family keeps the orthonormal basis of each
    span (:func:`linalg.span_basis`); an index without extras shares the
    basis of the one before.
    """
    tol = model.tol
    initial_states = [np.asarray(v, dtype=complex).reshape(-1) for v in initial_states]
    if not initial_states:
        raise DomainError("forward_closure needs at least one initial state")
    for v in initial_states:
        if v.shape != (model.dim,):
            raise ShapeError(f"initial state has dimension {v.shape[0]}, expected {model.dim}")
    extras = {int(k): list(vs) for k, vs in (extras or {}).items()}
    for k in extras:
        if not 0 < k < model.n_indices:
            raise DomainError(f"extras index {k} lies outside 1..{model.n_indices - 1}")

    generators = list(initial_states)
    bases = [linalg.span_basis(generators, tol)]
    for k in range(1, model.n_indices):
        added = extras.get(k, [])
        if added:
            vk = cumulative_propagator(model, k)
        for extra in added:
            extra = np.asarray(extra, dtype=complex).reshape(-1)
            if extra.shape != (model.dim,):
                raise ShapeError(f"extra state at index {k} has wrong dimension")
            generators.append(vk.conj().T @ extra)
        bases.append(linalg.span_basis(generators, tol) if added else bases[-1])
    return PhysicalFamily.from_bases(bases)


def _commutes(model: Model, fam: PhysicalFamily, k: int, w: np.ndarray,
              restricted: tuple | None = None) -> bool:
    """Whether [W W^dagger, P(k)] has no entry above eps_zero, for a d x m
    orthonormal block W; ``restricted`` is ``fam._restrict(k, w)``,
    computed when not given.

    For a family of range bases, P(k) = U U^dagger with U of rank r and
    the coefficient block C = U^dagger W is r x m.  With X = W W^dagger
    the commutator is X P (I - X) - (I - X) P X, two parts with
    orthogonal ranges that are each other's adjoints (U U^dagger is
    Hermitian by construction), and (I - X) P X = U_perp C W^dagger for
    U_perp = U - W C^dagger = (I - X) U.  So its
    Frobenius norm is sqrt(2) ||U_perp C||_F, in O(d r m).  For an
    explicit projector, G = P(k) W splits as W A + R with A = W^dagger G
    and W^dagger R = 0, and the squared norm is ||A - A^dagger||_F^2 +
    2 ||R||_F^2, in O(d m^2).  The norm over d bounds the largest entry
    from below.
    """
    frame, coef = fam._restrict(k, w) if restricted is None else restricted
    if frame is None:
        a = w.conj().T @ coef
        frob = math.hypot(np.linalg.norm(a - a.conj().T),
                          math.sqrt(2) * np.linalg.norm(coef - w @ a))
    else:
        frob = math.sqrt(2) * np.linalg.norm((frame - w @ coef.conj().T) @ coef)
    return linalg.within_zero(frob, frob / len(w), lambda: fam.commutator_norm(k, w), model.tol)


def _has_weight(model: Model, fam: PhysicalFamily, k: int, w: np.ndarray,
                restricted: tuple | None = None) -> bool:
    """Whether P(k) W W^dagger has an entry above eps_zero, for a d x m
    orthonormal block W; ``restricted`` is ``fam._restrict(k, w)``,
    computed when not given.  Its Frobenius norm is ||P(k) W||_F: the
    norm of the coefficient block, r x m C = U^dagger W for a family of
    orthonormal range bases U, or of P(k) W itself for an explicit
    projector.  That norm over d bounds its largest entry from below."""
    _, coef = fam._restrict(k, w) if restricted is None else restricted
    frob = np.linalg.norm(coef)
    return not linalg.within_zero(frob, frob / len(w), lambda: fam.overlap_norm(k, w), model.tol)


def _is_possible(model: Model, fam: PhysicalFamily, k: int, w: np.ndarray) -> bool:
    """Whether W W^dagger (W orthonormal) is physically possible at k: it
    commutes with P(k) and P(k) W W^dagger is not zero.  P(k) W is
    restricted once, and both tests read the (frame, coef) pair."""
    restricted = fam._restrict(k, w)
    return (_commutes(model, fam, k, w, restricted)
            and _has_weight(model, fam, k, w, restricted))


def _require_commutes(model: Model, fam: PhysicalFamily, k: int, w: np.ndarray) -> None:
    if not _commutes(model, fam, k, w):
        raise NotPhysicallyPossibleError(
            f"predicate does not commute with the physical family at index {k}"
        )


def is_physically_possible(model: Model, fam: PhysicalFamily, pX, k: int) -> bool:
    """A predicate is physically possible at k iff it commutes with the
    family there and has nonzero overlap with it."""
    pX = linalg.as_matrix(pX)
    p = fam.at(k)
    return (
        linalg.commutes(pX, p, model.tol)
        and linalg.max_abs(p @ pX) > model.tol.eps_zero
    )

