"""Dense complex-matrix helpers on top of numpy.

Products, adjoints, traces and tensor products are plain numpy; this
module holds what numpy does not: the tolerances, input coercion, the
Hermitian part, record and support projectors, orthonormal range and
span bases, the tolerance-based predicates, the bounded zero test and
the projector-set check.  Every function that decides within a tolerance
takes it as a required argument; the caller passes its model's.
Matrices are plain ``numpy.ndarray`` objects with complex dtype;
operator equality is always "max entry magnitude of the difference
below a tolerance", never bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used by all predicates.

    eps_zero : magnitudes below this are treated as zero.
    eps_eig  : eigenvalue threshold for support membership.
    """

    eps_zero: float = 1e-9
    eps_eig: float = 1e-7

    def __post_init__(self):
        if not (0.0 < self.eps_zero < 1.0):
            raise DomainError(f"eps_zero must lie in (0, 1), got {self.eps_zero}")
        if not (0.0 < self.eps_eig < 1.0):
            raise DomainError(f"eps_eig must lie in (0, 1), got {self.eps_eig}")


DEFAULT_TOL = Tolerance()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix contains non-finite entries")
    return m


def max_abs(m: np.ndarray) -> float:
    """Max entry magnitude; 0.0 for empty input."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def approx_equal(a: np.ndarray, b: np.ndarray, tol: Tolerance) -> bool:
    if a.shape != b.shape:
        return False
    return max_abs(a - b) <= tol.eps_zero


def within_zero(upper: float, lower: float, measure, tol: Tolerance) -> bool:
    """Whether a matrix D has no entry above eps_zero, decided from two
    bounds when they settle it: ``upper`` >= ||D||_F >= max|D_ij| >=
    ``lower``.  True when ``upper`` is at most eps_zero, false when
    ``lower`` exceeds it; only in between is ``measure()`` called, which
    builds D densely and returns its max entry magnitude.

    The callers hold D as blocks with d rows and get both bounds from
    them: in O(d r m) for a d x m block against a family of rank r, and
    in O(d m^2) for the commutator with an explicit projector.  The d x d
    matrix is formed only for a near miss.
    """
    if upper <= tol.eps_zero:
        return True
    if lower > tol.eps_zero:
        return False
    return _measured_within_zero(measure, tol)


def _measured_within_zero(measure, tol: Tolerance) -> bool:
    """The dense max-entry test that decides between the bounds."""
    return measure() <= tol.eps_zero


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2, exactly Hermitian."""
    return (m + m.conj().T) / 2


def is_hermitian(m: np.ndarray, tol: Tolerance) -> bool:
    return m.shape[0] == m.shape[1] and max_abs(m - m.conj().T) <= tol.eps_zero


def is_unitary(m: np.ndarray, tol: Tolerance) -> bool:
    if m.shape[0] != m.shape[1]:
        return False
    return max_abs(m.conj().T @ m - np.eye(m.shape[0])) <= tol.eps_zero


def projector_defect(p: np.ndarray) -> float:
    """max(max|P - P^dagger|, max|P^2 - P|) for a square matrix P."""
    return max(max_abs(p - p.conj().T), max_abs(p @ p - p))


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
    with eigenvalue above eps_eig.

    Raises DomainError for non-Hermitian input or an eigenvalue below
    -eps_eig.
    """
    h = as_matrix(h)
    if not is_hermitian(h, tol):
        raise DomainError("support_projector requires a Hermitian matrix")
    w, v = np.linalg.eigh(hermitian_part(h))
    if w[0] < -tol.eps_eig:
        raise DomainError(f"matrix is not PSD: smallest eigenvalue {w[0]:.3e}")
    keep = w > tol.eps_eig
    vs = v[:, keep]
    return vs @ vs.conj().T


def range_basis(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis of the support of a a^dagger, as columns: the left
    singular vectors of a whose squared singular value exceeds eps_eig.

    The squared singular values of a are the eigenvalues of a a^dagger,
    so this keeps the directions :func:`support_projector` keeps for that
    product, without forming it.
    """
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, s * s > tol.eps_eig]


def span_basis(vectors, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis, as columns, of the span of the given vectors
    (which need not be orthonormal or independent): the left singular
    vectors whose singular value exceeds eps_eig relative to the largest
    one (or to 1 when that is smaller)."""
    cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not cols:
        raise DomainError("a span needs at least one vector")
    a = np.column_stack(cols)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = s > tol.eps_eig * max(1.0, float(s[0]) if s.size else 1.0)
    return u[:, keep]


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
    one shape; with ``complete`` set they must also sum to the identity."""
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
