"""Time-gridded closed-system models and the physical-subspace family.

A ``Model`` is a system1 (x) system2 Hilbert factorization with one unitary
per grid step.  All stored projector families live in the Heisenberg
picture with reference at grid index 0; ``heisenberg`` converts a
Schrodinger-picture operator at index k into that frame.

The nested family of projectors describing which state vectors are
physically admissible at each time is carried by ``PhysicalFamily`` and
validated against the nesting law P(j) P(k) = P(j) for j < k.
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


def schrodinger(model: Model, a_heisenberg, k: int) -> np.ndarray:
    """Inverse of :func:`heisenberg`: V(k) a V(k)^dagger."""
    a = linalg.as_matrix(a_heisenberg)
    if a.shape != (model.dim, model.dim):
        raise ShapeError(f"operator shape {a.shape} does not match model dim {model.dim}")
    v = cumulative_propagator(model, k)
    return v @ a @ v.conj().T


def lift_system1(model: Model, p1, k: int | None = None) -> np.ndarray:
    """Extend a system1 projector to the full space: kron(p1, identity).

    With ``k`` given, the lifted operator is additionally moved to the
    Heisenberg frame at that grid index.
    """
    p1 = linalg.as_matrix(p1)
    if p1.shape != (model.d1, model.d1):
        raise ShapeError(f"system1 operator shape {p1.shape}, expected {(model.d1, model.d1)}")
    if not linalg.is_projector(p1, model.tol):
        raise DomainError("lift_system1 requires a projector")
    full = np.kron(p1, np.eye(model.d2, dtype=complex))
    if k is None:
        return full
    return heisenberg(model, full, k)


def lift_predicate(model: Model, p, k: int) -> np.ndarray:
    """Heisenberg operator of a predicate at index k: a system1 projector
    is lifted with :func:`lift_system1`, a full-space projector is taken
    as already lifted."""
    p = linalg.as_matrix(p)
    if p.shape == (model.d1, model.d1):
        return lift_system1(model, p, k)
    if p.shape != (model.dim, model.dim):
        raise ShapeError(f"predicate shape {p.shape} matches neither system1 nor the full space")
    if not linalg.is_projector(p, model.tol):
        raise DomainError("a full-space predicate must be a projector")
    return p


def lift_system2(model: Model, p2) -> np.ndarray:
    """Extend a system2 projector to the full space: kron(identity, p2)."""
    p2 = linalg.as_matrix(p2)
    if p2.shape != (model.d2, model.d2):
        raise ShapeError(f"system2 operator shape {p2.shape}, expected {(model.d2, model.d2)}")
    if not linalg.is_projector(p2, model.tol):
        raise DomainError("lift_system2 requires a projector")
    return np.kron(np.eye(model.d1, dtype=complex), p2)


@dataclass(frozen=True)
class PhysicalFamily:
    """Time-indexed projectors, one per grid index, Heisenberg frame at
    index 0.  Nesting (earlier ranges contained in later ones) is checked
    by :func:`validate_family`, not at construction."""

    projectors: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "projectors", tuple(linalg.as_matrix(p) for p in self.projectors)
        )

    def __len__(self) -> int:
        return len(self.projectors)

    def at(self, k: int) -> np.ndarray:
        return self.projectors[int(k)]


@dataclass(frozen=True)
class FamilyValidation:
    """Diagnostic output of :func:`validate_family`."""

    projector_ok: tuple          # per index: passes is_projector
    nonzero: tuple               # per index: projector is not ~0
    nesting_violations: tuple    # index pairs (j, k) with P(j) P(k) != P(j)
    passed: bool


def validate_family(model: Model, fam: PhysicalFamily) -> FamilyValidation:
    """Check projector validity, nonzeroness, and the nesting law for
    every index pair j < k."""
    tol = model.tol
    n = len(fam)
    proj_ok = tuple(
        p.shape == (model.dim, model.dim) and linalg.is_projector(p, tol)
        for p in fam.projectors
    )
    nonzero = tuple(linalg.max_abs(p) > tol.eps_zero for p in fam.projectors)
    violations = []
    for j in range(n):
        for k in range(j + 1, n):
            pj, pk = fam.at(j), fam.at(k)
            if pj.shape == pk.shape and linalg.max_abs(pj @ pk - pj) > tol.eps_zero:
                violations.append((j, k))
    passed = (
        n == model.n_indices
        and all(proj_ok)
        and all(nonzero)
        and not violations
    )
    return FamilyValidation(proj_ok, nonzero, tuple(violations), passed)


def forward_closure(model: Model, initial_states, extras=None) -> PhysicalFamily:
    """Build a nested family from generator states.

    The index-0 projector is the support of the span of
    ``initial_states``.  At each later index k the previous range is kept
    and any ``extras[k]`` vectors (Schrodinger picture at index k) are
    pulled to the reference frame and appended, so nesting holds by
    construction; an extras index outside 1..n-1 is refused.
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
    projectors = [linalg.projector_from_span(generators, tol)]
    for k in range(1, model.n_indices):
        vk = cumulative_propagator(model, k)
        for extra in extras.get(k, []):
            extra = np.asarray(extra, dtype=complex).reshape(-1)
            if extra.shape != (model.dim,):
                raise ShapeError(f"extra state at index {k} has wrong dimension")
            generators.append(vk.conj().T @ extra)
        projectors.append(linalg.projector_from_span(generators, tol))
    return PhysicalFamily(tuple(projectors))


def is_physically_possible(model: Model, fam: PhysicalFamily, pX, k: int) -> bool:
    """A predicate is physically possible at k iff it commutes with the
    family there and has nonzero overlap with it."""
    pX = linalg.as_matrix(pX)
    p = fam.at(k)
    return (
        linalg.commutes(pX, p, model.tol)
        and linalg.max_abs(p @ pX) > model.tol.eps_zero
    )


def physical_restrict(model: Model, fam: PhysicalFamily, pX, k: int) -> np.ndarray:
    """P(k) pX, the physical part of a commuting predicate (possibly zero)."""
    pX = linalg.as_matrix(pX)
    p = fam.at(k)
    if not linalg.commutes(pX, p, model.tol):
        raise NotPhysicallyPossibleError(
            f"predicate does not commute with the physical family at index {k}"
        )
    return p @ pX
