"""Dense complex-matrix helpers on top of numpy.

Products, adjoints, traces and tensor products are plain numpy; this
module holds what numpy does not: the tolerances, input coercion, the
Hermitian part, record and support projectors, the labels of a record
(exact, or within eps_zero), orthonormal range bases, the
tolerance-based predicates, the bounded zero test, the projector-set
check and the one index gate.  A step or a projector that equals base I
(base 1 or 0) outside S x S is gathered into its pair (S, M[S, S]) by
:func:`support_block` and scattered back by :func:`scatter_block`, the
one gather and the one scatter of such a pair.  Every function that
decides within a tolerance takes it as a required argument; the caller
passes its model's.
eps_eig has one meaning and is read here alone: :func:`rank_cut` keeps
a direction whose squared singular value, an eigenvalue of the PSD
operator it spans, exceeds eps_eig, and :func:`check_eps_eig` refuses an
eps_eig at or below the rounding floor (d eps)^2 of a dimension d.
Matrices are plain ``numpy.ndarray`` objects with complex dtype;
operator equality is always "max entry magnitude of the difference
below a tolerance", never bitwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used by all predicates.

    eps_zero : magnitudes below this are treated as zero.
    eps_eig  : the one rank cut (:func:`rank_cut`): a direction is kept
               when its squared singular value, an eigenvalue of the PSD
               operator it spans, exceeds eps_eig, an absolute threshold.
               A model refuses an eps_eig at or below the rounding floor
               of its dimension (:func:`check_eps_eig`).
    """

    eps_zero: float = 1e-9
    eps_eig: float = 1e-7

    def __post_init__(self):
        if not (0.0 < self.eps_zero < 1.0):
            raise DomainError(f"eps_zero must lie in (0, 1), got {self.eps_zero}")
        if not (0.0 < self.eps_eig < 1.0):
            raise DomainError(f"eps_eig must lie in (0, 1), got {self.eps_eig}")


DEFAULT_TOL = Tolerance()


def rank_cut(values, tol: Tolerance):
    """The keep mask of every rank cut: true where a squared singular
    value, or an eigenvalue of a PSD matrix, exceeds eps_eig."""
    return values > tol.eps_eig


def check_eps_eig(tol: Tolerance, d: int) -> None:
    """Refuse an eps_eig at or below the rounding floor (d eps)^2 of
    dimension d, with eps the float64 machine epsilon: an SVD or eigh of a
    d-row matrix of norm about 1 leaves rounding singular values up to
    about d eps, so a cut at or below their square keeps rounding.  The
    floor is 1.2e-28 at d = 50 and 4.9e-26 at d = 1000."""
    floor = (d * float(np.finfo(float).eps)) ** 2
    if tol.eps_eig <= floor:
        raise DomainError(f"eps_eig = {tol.eps_eig:.3g} lies at or below the rounding "
                          f"floor (d eps)^2 = {floor:.3g} of dimension d = {d}")


def as_2d(a) -> np.ndarray:
    """Coerce to a 2-D complex array with at least one row and column,
    reading no entry."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def as_matrix(a) -> np.ndarray:
    """:func:`as_2d`, rejecting NaN/Inf entries."""
    m = as_2d(a)
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix contains non-finite entries")
    return m


def _index(k, lo: int, hi: int, message: str) -> int:
    """k as an int when it is an integer in lo..hi; otherwise
    IndexError(message.format(k=k, lo=lo, hi=hi)).  An integer is what
    ``operator.index`` accepts, except a bool, so a float, even 1.0, is
    refused rather than truncated.  The one index check of the package;
    a plain int in range returns at the first test.  The message writes
    k by ``str``, except that a k which is neither a bool, a float nor
    accepted by ``operator.index`` is written by ``repr``, so that the
    text '2' does not read as the integer 2."""
    if k.__class__ is int and lo <= k <= hi:
        return k
    try:
        i = None if isinstance(k, (bool, np.bool_)) else operator.index(k)
    except TypeError:
        i = None
        if not isinstance(k, (float, np.floating)):
            k = repr(k)
    if i is None or not lo <= i <= hi:
        raise IndexError(message.format(k=k, lo=lo, hi=hi))
    return i


def max_abs(m: np.ndarray) -> float:
    """Max entry magnitude; 0.0 for empty input."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def approx_equal(a: np.ndarray, b: np.ndarray, tol: Tolerance) -> bool:
    if a.shape != b.shape:
        return False
    return max_abs(a - b) <= tol.eps_zero


def within_zero(upper: float, lower, measure, tol: Tolerance) -> bool:
    """Whether a matrix D has no entry above eps_zero, decided from two
    bounds when they settle it: ``upper`` >= ||D||_F >= max|D_ij| >=
    ``lower()``.  True when ``upper`` is at most eps_zero, false when
    ``lower()`` exceeds it.  ``lower`` is called only when ``upper`` does
    not settle the test, and ``measure`` only when neither does; it builds
    D densely and returns its max entry magnitude.  This is the one place
    that orders the bounds, so every bounded decision passes through it.

    The callers hold D as blocks with d rows and get both bounds from
    them, in O(d r m) for a d x m block against a family of rank r.  The
    lower bound may cost more than the upper one, and the d x d matrix is
    formed only for a near miss.
    """
    if upper <= tol.eps_zero:
        return True
    if lower() > tol.eps_zero:
        return False
    return measure() <= tol.eps_zero


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2, exactly Hermitian."""
    return (m + m.conj().T) / 2


def is_hermitian(m: np.ndarray, tol: Tolerance) -> bool:
    return m.shape[0] == m.shape[1] and max_abs(m - m.conj().T) <= tol.eps_zero


@np.errstate(over="ignore", invalid="ignore")
def is_unitary(m: np.ndarray, tol: Tolerance) -> bool:
    if m.shape[0] != m.shape[1]:
        return False
    return max_abs(m.conj().T @ m - np.eye(m.shape[0])) <= tol.eps_zero


@np.errstate(over="ignore", invalid="ignore")
def projector_defect(p: np.ndarray) -> float:
    """max(max|P - P^dagger|, max|P^2 - P|) for a square matrix P; inf or
    NaN, never the other part, when an entry is too large to square."""
    return float(np.maximum(max_abs(p - p.conj().T), max_abs(p @ p - p)))


def is_projector(p, tol: Tolerance) -> bool:
    """Square, Hermitian and idempotent within eps_zero."""
    p = as_matrix(p)
    return p.shape[0] == p.shape[1] and projector_defect(p) <= tol.eps_zero


def commutes(a, b, tol: Tolerance) -> bool:
    """True iff the max entry magnitude of [a, b] is below eps_zero."""
    return commutator_norm(a, b) <= tol.eps_zero


def commutator_norm(a, b) -> float:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ShapeError(f"commutator needs equal square shapes, got {a.shape}, {b.shape}")
    return max_abs(a @ b - b @ a)


def support_projector(h, tol: Tolerance) -> np.ndarray:
    """Projector onto the span of eigenvectors of a PSD Hermitian matrix
    that :func:`rank_cut` keeps.

    Raises DomainError for non-Hermitian input or an eigenvalue below
    -eps_eig, a negative direction the cut would keep.
    """
    h = as_matrix(h)
    if not is_hermitian(h, tol):
        raise DomainError("support_projector requires a Hermitian matrix")
    w, v = np.linalg.eigh(hermitian_part(h))
    if rank_cut(-w[0], tol):
        raise DomainError(f"matrix is not PSD: smallest eigenvalue {w[0]:.3e}")
    vs = v[:, rank_cut(w, tol)]
    return vs @ vs.conj().T


def range_basis(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis of the support of a a^dagger, as columns: the left
    singular vectors of a that :func:`rank_cut` keeps.

    The squared singular values of a are the eigenvalues of a a^dagger,
    so this keeps the directions :func:`support_projector` keeps for that
    product, without forming it.  For generator vectors as the columns of
    a, it is a basis of their span.
    """
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, rank_cut(s * s, tol)]


def record_labels(p: np.ndarray) -> tuple | None:
    """The labels of a record projector, a square diagonal matrix whose
    diagonal entries are each exactly 0 or 1, as the tuple of those with
    entry 1; None for any other matrix.  Such a matrix is a projector
    exactly, so no tolerance enters.  A non-diagonal projector usually
    fails on its diagonal, before its n^2 entries are counted."""
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        return None
    diag = p.diagonal().tolist()
    ones = diag.count(1)
    if ones + diag.count(0) != len(diag) or np.count_nonzero(p) != ones:
        return None
    return tuple(i for i, x in enumerate(diag) if x)


def near_record_labels(p: np.ndarray, tol: Tolerance) -> tuple | None:
    """The labels of the record a square matrix is within eps_zero of, as
    a tuple: the indices whose diagonal entry has real part above 1/2,
    when p minus the record on them has no entry above eps_zero in
    magnitude; None otherwise."""
    if p.shape[0] != p.shape[1]:
        return None
    labels = np.flatnonzero(np.diagonal(p).real > 0.5)
    if max_abs(p - diagonal_projector(labels, len(p))) > tol.eps_zero:
        return None
    return tuple(labels.tolist())


def support_indices(m: np.ndarray, base: int) -> np.ndarray:
    """The sorted indices S of the nonzero rows and columns of m - base I
    for a square m and a base of 0 or 1, from exact zeros: m equals
    base I outside S x S.  For a step (base 1) S is the set of indices it
    moves; for a projector (base 0) it is its support."""
    d = len(m)
    # each entry's real and imaginary parts, compared as floats: several
    # times faster than comparing the complex numbers
    nonzero = (np.ascontiguousarray(m).view(np.float64) != 0).reshape(d, d, 2)
    i = np.arange(d)
    nonzero[i, i] = (np.diagonal(m) != base)[:, None]
    rows = nonzero.reshape(d, 2 * d).any(axis=1)
    return np.flatnonzero(rows | nonzero.any(axis=0).any(axis=1))


def support_block(m: np.ndarray, base: int) -> tuple:
    """(S, m[S, S]) for a square m and a base of 0 or 1, with S from
    :func:`support_indices`: the pair m is held as.  The block is m itself,
    uncopied, when S is every index."""
    s = support_indices(m, base)
    return s, m if len(s) == len(m) else m[np.ix_(s, s)]


def scatter_block(s, block: np.ndarray, base: int, d: int) -> np.ndarray:
    """The d x d matrix that is ``block`` on S x S and base I outside it,
    the inverse of :func:`support_block`: ``block`` itself when S is every
    index."""
    if len(s) == d:
        return block
    m = np.eye(d, dtype=complex) if base else np.zeros((d, d), dtype=complex)
    m[np.ix_(s, s)] = block
    return m


def diagonal_projector(labels, n: int) -> np.ndarray:
    """n x n projector onto the given standard basis labels (a record)."""
    p = np.zeros((n, n), dtype=complex)
    p[labels, labels] = 1.0
    return p


def square_set(projectors) -> tuple:
    """The given matrices as a non-empty tuple of one square shape: the
    checks on a projector set that need no tolerance."""
    projs = tuple(as_matrix(p) for p in projectors)
    if not projs:
        raise DomainError("an outcome set needs at least one projector")
    d = projs[0].shape[0]
    if any(p.shape != (d, d) for p in projs):
        raise ShapeError("outcome projectors must share one dimension")
    return projs


def orthogonal_projectors(projectors, complete: bool, tol: Tolerance) -> tuple:
    """The given matrices as a tuple of pairwise-orthogonal projectors of
    one shape; with ``complete`` set they must also sum to the identity.
    Each matrix is checked by :func:`is_projector`, each pair by its
    product and the sum against the identity, all within eps_zero."""
    projs = square_set(projectors)
    if not all(is_projector(p, tol) for p in projs):
        raise DomainError("outcome set entries must be projectors")
    for i, a in enumerate(projs):
        for b in projs[i + 1:]:
            if max_abs(a @ b) > tol.eps_zero:
                raise DomainError("outcome projectors must be pairwise orthogonal")
    if complete:
        total = sum(projs[1:], start=projs[0])
        if not approx_equal(total, np.eye(total.shape[0], dtype=complex), tol):
            raise DomainError("outcome set flagged complete does not sum to identity")
    return projs
