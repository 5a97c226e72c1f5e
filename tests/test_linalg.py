"""Kernel checks against independent elementwise oracles."""

import numpy as np
import pytest

from physborn import linalg
from physborn.errors import DomainError, ShapeError
from physborn.linalg import DEFAULT_TOL, Tolerance

from conftest import random_unitary


def _rand(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def test_partial_traces_by_index_summation():
    rng = np.random.default_rng(15)
    d1, d2 = 3, 4
    m = _rand(rng, d1 * d2, d1 * d2)
    # oracle: explicit sums over the traced index
    out2 = np.zeros((d1, d1), dtype=complex)
    out1 = np.zeros((d2, d2), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            for k in range(d2):
                out2[i, j] += m[i * d2 + k, j * d2 + k]
    for i in range(d2):
        for j in range(d2):
            for k in range(d1):
                out1[i, j] += m[k * d2 + i, k * d2 + j]
    assert np.max(np.abs(linalg.partial_trace_2(m, d1, d2) - out2)) < 1e-12
    assert np.max(np.abs(linalg.partial_trace_1(m, d1, d2) - out1)) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(16)
    m = _rand(rng, 12, 12)
    t = np.trace(m)
    assert abs(np.trace(linalg.partial_trace_2(m, 3, 4)) - t) < 1e-10
    assert abs(np.trace(linalg.partial_trace_1(m, 3, 4)) - t) < 1e-10


def test_partial_trace_of_kron_factors():
    rng = np.random.default_rng(17)
    a, b = _rand(rng, 3, 3), _rand(rng, 4, 4)
    k = np.kron(a, b)
    assert np.max(np.abs(linalg.partial_trace_2(k, 3, 4) - a * np.trace(b))) < 1e-10
    assert np.max(np.abs(linalg.partial_trace_1(k, 3, 4) - b * np.trace(a))) < 1e-10


def test_support_projector_constructed_spectrum():
    rng = np.random.default_rng(18)
    u = random_unitary(rng, 5)
    w = np.array([2.0, 0.7, 1e-3, 0.0, 0.0])
    h = (u * w) @ u.conj().T
    p = linalg.support_projector((h + h.conj().T) / 2, DEFAULT_TOL)
    expected = u[:, :3] @ u[:, :3].conj().T
    assert np.max(np.abs(p - expected)) < 1e-9
    assert linalg.rank_of(p, DEFAULT_TOL) == 3


def test_support_projector_rejects_negative_and_nonhermitian():
    with pytest.raises(DomainError):
        linalg.support_projector(np.diag([1.0, -0.5]).astype(complex), DEFAULT_TOL)
    with pytest.raises(DomainError):
        linalg.support_projector(np.array([[0.0, 1.0], [0.0, 0.0]]), DEFAULT_TOL)


def test_projector_from_span_contains_inputs():
    rng = np.random.default_rng(19)
    vs = [_rand(rng, 6, 1).ravel() for _ in range(3)]
    p = linalg.projector_from_span(vs + [vs[0] + vs[1]], DEFAULT_TOL)  # dependent vector
    assert linalg.is_projector(p, DEFAULT_TOL)
    assert linalg.rank_of(p, DEFAULT_TOL) == 3
    for v in vs:
        assert np.max(np.abs(p @ v - v)) < 1e-9


def test_projector_from_span_empty():
    with pytest.raises(DomainError):
        linalg.projector_from_span([], DEFAULT_TOL)


def test_predicates_on_constructed_cases():
    rng = np.random.default_rng(20)
    u = random_unitary(rng, 4)
    tol = DEFAULT_TOL
    assert linalg.is_unitary(u, tol)
    assert not linalg.is_unitary(u * 1.01, tol)
    p = u[:, :2] @ u[:, :2].conj().T
    assert linalg.is_projector(p, tol)
    assert linalg.is_hermitian(p, tol)
    assert not linalg.is_projector(0.5 * p, tol)
    assert linalg.commutes(p, np.eye(4, dtype=complex), tol)
    q = u[:, 2:] @ u[:, 2:].conj().T
    assert linalg.commutes(p, q, tol)  # orthogonal complement commutes


def test_commutator_norm_of_paulis():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    # [sz, sx] = 2i sy; max entry magnitude 2
    assert abs(linalg.commutator_norm(sz, sx) - 2.0) < 1e-12
    assert linalg.commutator_norm(sz, sz) == 0.0


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ShapeError):
        linalg.as_matrix(np.ones(3))
    with pytest.raises(DomainError):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_tolerance_bounds():
    with pytest.raises(DomainError):
        Tolerance(eps_zero=0.0)
    with pytest.raises(DomainError):
        Tolerance(eps_eig=2.0)
    t = Tolerance(eps_zero=1e-8, eps_eig=1e-6)
    assert t.eps_zero == 1e-8
