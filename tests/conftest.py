"""Shared random-matrix helpers for the test suite.

Everything is seeded through numpy Generators so failures reproduce.
"""

from __future__ import annotations

import numpy as np

from physborn import linalg
from physborn.condition import ConditionSpec, support_at
from physborn.errors import DomainError, NotPhysicallyPossibleError
from physborn.linalg import DEFAULT_TOL, projector_from_span
from physborn.model import Model, PhysicalFamily, TimeGrid, is_physically_possible


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Ginibre matrix."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projector(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    u = random_unitary(rng, d)
    return u[:, :rank] @ u[:, :rank].conj().T


def random_nested_family(rng: np.random.Generator, d: int,
                         n_indices: int) -> PhysicalFamily:
    """Random family satisfying the nesting law by construction: later
    projectors span everything earlier ones do, plus fresh directions."""
    u = random_unitary(rng, d)
    rank = int(rng.integers(1, d))
    projs = []
    for _ in range(n_indices):
        projs.append(u[:, :rank] @ u[:, :rank].conj().T)
        if rank < d and rng.random() < 0.6:
            rank += int(rng.integers(1, d - rank + 1))
    return PhysicalFamily(tuple(projs))


def random_model(rng: np.random.Generator, d1: int, d2: int,
                 n_indices: int = 3) -> Model:
    steps = tuple(random_unitary(rng, d1 * d2) for _ in range(n_indices - 1))
    return Model(d1, d2, TimeGrid(tuple(float(t) for t in range(n_indices))), steps)


def identity_family(d: int, n_indices: int) -> PhysicalFamily:
    return PhysicalFamily((np.eye(d, dtype=complex),) * n_indices)


def random_span_projector(rng: np.random.Generator, d: int, n_vecs: int) -> np.ndarray:
    vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(n_vecs)]
    return projector_from_span(vecs, DEFAULT_TOL)


# ---------------------------------------------------------------------------
# Oracles: definitions from the paper that the library does not compute.


def check_self_consistency(model: Model, fam: PhysicalFamily, pX, k: int) -> bool:
    """True iff the physical part of the predicate at k spans exactly the
    states reachable from the index-0 subspace."""
    pX = linalg.as_matrix(pX)
    if not is_physically_possible(model, fam, pX, k):
        raise NotPhysicallyPossibleError(
            f"self-consistency check requires a physically possible predicate at index {k}"
        )
    restricted = fam.at(k) @ pX
    sandwiched = restricted @ fam.at(0) @ restricted.conj().T
    support = linalg.support_projector(sandwiched, model.tol)
    return linalg.approx_equal(restricted, support, model.tol)


def expanded_condition_operator(cond: ConditionSpec, k0: int = 0,
                                chain=None) -> np.ndarray:
    """The condition operator rewritten through its implied past: a
    palindromic chain of trimmed-support projectors around index k0,
    X S(k_n) ... S(k_1) S(k0) S(k_1) ... S(k_n) X.

    Equals ``condition_operator`` whenever k0 is a valid start index (the
    equal-sandwich lemma); ``chain`` defaults to every index strictly
    between k0 and k_c, in increasing order.
    """
    k0 = cond.model.grid.check_index(k0)
    if chain is None:
        chain = range(k0 + 1, cond.k_c)
    core = support_at(cond, k0)
    for k in chain:
        k = cond.model.grid.check_index(k)
        if not k0 < k < cond.k_c:
            raise DomainError(f"chain index {k} outside ({k0}, {cond.k_c})")
        s = support_at(cond, k)
        core = s @ core @ s
    px = cond.projector
    return linalg.hermitian_part(px @ core @ px)
