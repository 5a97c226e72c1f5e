"""Dense complex-matrix helpers on top of numpy.

Products, adjoints, traces and tensor products are plain numpy; this
module holds what numpy does not: the tolerances, input coercion, the
Hermitian part, partial traces, support and span projectors, the
tolerance-based predicates and the projector-set check.  Every function
that decides within a tolerance takes it as a required argument; the
caller passes its model's.  Matrices are plain ``numpy.ndarray``
objects with complex dtype; operator equality is always "max entry
magnitude of the difference below a tolerance", never bitwise.
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


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2, exactly Hermitian."""
    return (m + m.conj().T) / 2


def partial_trace_2(m, d1: int, d2: int) -> np.ndarray:
    """Trace out the second tensor factor of a (d1*d2) x (d1*d2) matrix."""
    m = as_matrix(m)
    if m.shape != (d1 * d2, d1 * d2):
        raise ShapeError(f"expected shape {(d1 * d2, d1 * d2)}, got {m.shape}")
    return np.einsum("ikjk->ij", m.reshape(d1, d2, d1, d2))


def partial_trace_1(m, d1: int, d2: int) -> np.ndarray:
    """Trace out the first tensor factor of a (d1*d2) x (d1*d2) matrix."""
    m = as_matrix(m)
    if m.shape != (d1 * d2, d1 * d2):
        raise ShapeError(f"expected shape {(d1 * d2, d1 * d2)}, got {m.shape}")
    return np.einsum("kikj->ij", m.reshape(d1, d2, d1, d2))


def is_hermitian(m: np.ndarray, tol: Tolerance) -> bool:
    return m.shape[0] == m.shape[1] and max_abs(m - m.conj().T) <= tol.eps_zero


def is_unitary(m: np.ndarray, tol: Tolerance) -> bool:
    if m.shape[0] != m.shape[1]:
        return False
    return max_abs(m.conj().T @ m - np.eye(m.shape[0])) <= tol.eps_zero


def is_projector(p, tol: Tolerance) -> bool:
    """Hermitian and idempotent within eps_zero."""
    p = as_matrix(p)
    return is_hermitian(p, tol) and max_abs(p @ p - p) <= tol.eps_zero


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


def rank_of(p: np.ndarray, tol: Tolerance) -> int:
    """Rank of a Hermitian PSD matrix at the support tolerance."""
    w = np.linalg.eigvalsh(hermitian_part(p))
    return int(np.sum(w > tol.eps_eig))


def projector_from_span(vectors, tol: Tolerance) -> np.ndarray:
    """Orthogonal projector onto the span of the given vectors (columns
    need not be orthonormal or independent)."""
    cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not cols:
        raise DomainError("projector_from_span needs at least one vector")
    a = np.column_stack(cols)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = s > tol.eps_eig * max(1.0, float(s[0]) if s.size else 1.0)
    us = u[:, keep]
    return us @ us.conj().T


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
