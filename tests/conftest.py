"""Shared random-matrix helpers for the test suite.

Everything is seeded through numpy Generators so failures reproduce.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

from physborn import linalg
from physborn.born import OutcomeSet, ProbabilityResult
from physborn.condition import (
    ConditionSpec,
    ObservableRep,
    StartTime,
    check_k0,
    observable_rep,
    support_at,
)
from physborn.errors import (
    DomainError,
    NotPhysicallyPossibleError,
    PhysbornError,
    ShapeError,
    UnreachableConditionError,
    UnverifiableSequenceError,
)
from physborn.linalg import DEFAULT_TOL
from physborn.measurement import kappa_path
from physborn.model import (
    FamilyValidation,
    Model,
    PhysicalFamily,
    TimeGrid,
    cumulative_propagator,
    forward_closure,
    heisenberg,
    is_physically_possible,
    lift_system1,
)


# The refusals of a comparison that also reaches an index out of range.
INDEX_REFUSALS = (PhysbornError, IndexError)


def outcome_of(call, refusals=PhysbornError) -> tuple:
    """(True, result) or (False, (exception type, message)): a refusal,
    an exception of ``refusals``, compared as a value.  Any other
    exception propagates and fails the test."""
    try:
        return True, call()
    except refusals as exc:
        return False, (type(exc), str(exc))


# ---------------------------------------------------------------------------
# Dense helpers the library no longer needs: partial traces, span
# projectors, ranks, and the move back to the Schrodinger picture.


def partial_trace_2(m, d1: int, d2: int) -> np.ndarray:
    """Trace out the second tensor factor of a (d1*d2) x (d1*d2) matrix."""
    m = linalg.as_matrix(m)
    if m.shape != (d1 * d2, d1 * d2):
        raise ShapeError(f"expected shape {(d1 * d2, d1 * d2)}, got {m.shape}")
    return np.einsum("ikjk->ij", m.reshape(d1, d2, d1, d2))


def partial_trace_1(m, d1: int, d2: int) -> np.ndarray:
    """Trace out the first tensor factor of a (d1*d2) x (d1*d2) matrix."""
    m = linalg.as_matrix(m)
    if m.shape != (d1 * d2, d1 * d2):
        raise ShapeError(f"expected shape {(d1 * d2, d1 * d2)}, got {m.shape}")
    return np.einsum("kikj->ij", m.reshape(d1, d2, d1, d2))


def physical_restrict(model: Model, fam: PhysicalFamily, pX, k: int) -> np.ndarray:
    """P(k) pX, the physical part of a commuting predicate (possibly zero)."""
    pX = linalg.as_matrix(pX)
    p = fam.at(k)
    if not linalg.commutes(pX, p, model.tol):
        raise NotPhysicallyPossibleError(
            f"predicate does not commute with the physical family at index {k}"
        )
    return p @ pX


def projector_from_span(vectors, tol: linalg.Tolerance) -> np.ndarray:
    """Orthogonal projector onto the span of the given vectors."""
    us = linalg.span_basis(vectors, tol)
    return us @ us.conj().T


def rank_of(p: np.ndarray, tol: linalg.Tolerance) -> int:
    """Rank of a Hermitian PSD matrix at the support tolerance."""
    w = np.linalg.eigvalsh(linalg.hermitian_part(p))
    return int(np.sum(w > tol.eps_eig))


def schrodinger(model: Model, a_heisenberg, k: int) -> np.ndarray:
    """Inverse of ``model.heisenberg``: V(k) a V(k)^dagger."""
    a = linalg.as_matrix(a_heisenberg)
    if a.shape != (model.dim, model.dim):
        raise ShapeError(f"operator shape {a.shape} does not match model dim {model.dim}")
    v = cumulative_propagator(model, k)
    return v @ a @ v.conj().T


def dense_lift(model: Model, p, k: int) -> np.ndarray:
    """Heisenberg lift of a predicate at index k as a dense d x d
    projector: V(k)^dagger (p (x) I) V(k) for a system1 projector, a
    full-space projector as it is.  The reference for the library's
    range-basis lifts, with their refusals."""
    p = linalg.as_matrix(p)
    if p.shape == (model.d1, model.d1):
        if not linalg.is_projector(p, model.tol):
            raise DomainError("lift_system1 requires a projector")
        return heisenberg(model, np.kron(p, np.eye(model.d2, dtype=complex)), k)
    if p.shape != (model.dim, model.dim):
        raise ShapeError(f"predicate shape {p.shape} matches neither system1 nor the full space")
    if not linalg.is_projector(p, model.tol):
        raise DomainError("a full-space predicate must be a projector")
    return p


def dense_textbook(model: Model, pX, k_x: int, pY, k_y: int) -> float:
    """The unamended two-time rule Tr(X Y) / Tr(X) on ``dense_lift``
    projectors: the reference for ``scenarios.textbook_born``."""
    px, py = dense_lift(model, pX, k_x), dense_lift(model, pY, k_y)
    return float(np.trace(px @ py).real / np.trace(px).real)


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


def random_record_projector(rng, d1):
    """Projector onto a random proper, nonempty subset of the record labels."""
    labels = rng.choice(d1, size=int(rng.integers(1, d1)), replace=False)
    return np.diag(np.isin(np.arange(d1), labels)).astype(complex)


def recording_model(rng):
    """Seeded model whose steps write records: each step permutes the
    record labels and applies a Haar system2 unitary chosen by the
    record.  The family is the forward closure of single-record states,
    with fresh ones added at random later indices."""
    d1, d2, n = int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(3, 5))
    steps = []
    for _ in range(n - 1):
        perm = rng.permutation(d1)
        u = sum(np.kron(np.outer(np.eye(d1)[perm[r]], np.eye(d1)[r]), random_unitary(rng, d2))
                for r in range(d1))
        steps.append(u)
    model = Model(d1, d2, TimeGrid(tuple(float(t) for t in range(n))), tuple(steps))

    def record_state():
        return np.kron(np.eye(d1)[rng.integers(d1)], random_unitary(rng, d2)[:, 0])

    initial = [record_state() for _ in range(int(rng.integers(1, 3)))]
    extras = {k: [record_state() for _ in range(int(rng.integers(0, 2)))] for k in range(1, n)}
    return model, forward_closure(model, initial, extras)


def bench_chain(n: int = 16, seed: int = 1) -> tuple:
    """(chain, model, family) of the benchmark's n-stage Stern-Gerlach
    chain (``bench/chain.py``): d = 6 (2n + 1), family ranks 2..n+1."""
    path = Path(__file__).resolve().parents[1] / "bench" / "chain.py"
    spec = importlib.util.spec_from_file_location("bench_chain", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    c = module.Chain(n, seed)
    model = Model(c.d1, c.d2, TimeGrid(tuple(float(t) for t in range(c.n + 1))), c.steps)
    return c, model, forward_closure(model, c.initial, c.extras)


def drifting_condition(rng):
    """A condition on random dynamics whose family drifts by a random walk
    of tiny rotations (steps of 1e-10 to 3e-9, either sign) and sometimes
    gains a rank, so trimmed operators at different indices differ by
    amounts on both sides of eps_zero."""
    return ConditionSpec(*drifting_instance(rng))


def drifting_instance(rng, rotation_index=None):
    """(model, family, x1, k_c) of :func:`drifting_condition`.  The lifted
    predicate is rotated as the family is at ``rotation_index`` (k_c by
    default); at another index it commutes with P(k_c) only up to the
    drift between the two."""
    d = int(rng.integers(3, 8))
    n = int(rng.integers(3, 10))
    u = random_unitary(rng, d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w, v = np.linalg.eigh(a + a.conj().T)
    w = w / np.max(np.abs(w))
    theta = np.cumsum(rng.choice((-1.0, 1.0), n) * rng.uniform(1e-10, 3e-9, n))

    def rotated(cols, k):
        b = (v * np.exp(-1j * theta[k] * w)) @ v.conj().T @ u[:, cols]
        return b @ b.conj().T

    rank, projs = int(rng.integers(1, d)), []
    for k in range(n):
        projs.append(rotated(list(range(rank)), k))
        if rank < d and rng.random() < 0.3:
            rank += 1
    k_c = n - 1
    m = Model(d, 1, TimeGrid(tuple(float(t) for t in range(n))),
              tuple(random_unitary(rng, d) for _ in range(n - 1)))
    cols = [0] + [i for i in range(1, d) if rng.random() < 0.5]
    x1 = schrodinger(m, rotated(cols, k_c if rotation_index is None else rotation_index), k_c)
    return m, PhysicalFamily(tuple(projs)), (x1 + x1.conj().T) / 2, k_c


def verifiable_pairs(seed: int, count: int):
    """At least ``count`` (condition, system1 outcome, index) triples on
    recording models, the outcome before or after the condition.  Record
    projectors commute with these families, so every pair is verifiable."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        model, fam = recording_model(rng)
        for _ in range(6):
            k_c, k = (int(i) for i in rng.choice(model.n_indices, size=2, replace=False))
            x, y = (random_record_projector(rng, model.d1) for _ in range(2))
            try:
                pairs.append((ConditionSpec(model, fam, x, k_c), y, k))
            except NotPhysicallyPossibleError:
                continue
    return pairs


# ---------------------------------------------------------------------------
# Dense oracles.  The library keeps a condition, the family and every
# support as d x r range bases and works on blocks; these are its earlier
# bodies, written with d x d projectors throughout (P(k) from ``fam.at``,
# X and every outcome from ``dense_lift``), and keep its checks in their
# order.


def dense_x(cond: ConditionSpec) -> np.ndarray:
    """The condition's lifted predicate X at k_c, from ``dense_lift``."""
    return dense_lift(cond.model, cond.x1, cond.k_c)


def dense_rep_projector(rep: ObservableRep, k: int) -> np.ndarray:
    """The lifted X(k) predicate of an observable representation, from
    ``dense_lift``."""
    return dense_lift(rep.cond.model, rep.system1_projector(k), k)


def dense_trimmed(cond: ConditionSpec, k: int) -> np.ndarray:
    """P(k) X P(k)."""
    k = cond.model.grid.check_index(k)
    if k > cond.k_c:
        raise IndexError(f"trimming index {k} lies after the condition index {cond.k_c}")
    p = cond.fam.at(k)
    return linalg.hermitian_part(p @ dense_x(cond) @ p)


def dense_support_at(cond: ConditionSpec, k: int) -> np.ndarray:
    """Support projector of the trimmed operator at k, by eigh."""
    t = dense_trimmed(cond, k)
    if linalg.max_abs(t) <= cond.tol.eps_zero:
        raise UnreachableConditionError(
            f"condition has no physical weight at index {k}"
        )
    return linalg.support_projector(t, cond.tol)


def dense_condition_operator(cond: ConditionSpec, k0: int = 0) -> np.ndarray:
    """X P(k0) X."""
    k0 = check_k0(cond, k0)
    px = dense_x(cond)
    return linalg.hermitian_part(px @ cond.fam.at(k0) @ px)


def _dense_support(back: np.ndarray, tol: linalg.Tolerance) -> np.ndarray:
    if linalg.max_abs(back) <= tol.eps_zero:
        return np.zeros_like(back)
    return linalg.support_projector(back, tol)


def dense_kappas(proc, i: int, rep: str = "support") -> tuple:
    """The kappas of ``measurement.kappa_path``: the partial trace over
    system1, in the Schrodinger picture at k, of A rho A / Tr(rho)."""
    model, tol = proc.model, proc.model.tol
    cond = proc.outcome_condition(i)
    core = dense_condition_operator(ConditionSpec(model, proc.fam, proc.m0, proc.k1), proc.k0)
    den = np.trace(core).real
    if den <= tol.eps_zero:
        raise UnreachableConditionError("start space has no physical weight at k0")
    if rep not in ("support", "observable"):
        raise DomainError(f"unknown representation {rep!r}")
    if cond is None:
        return tuple(np.zeros((model.d2, model.d2), dtype=complex)
                     for _ in range(proc.k1, proc.k2 + 1))
    if rep == "support":
        anchor_at = lambda k: _dense_support(dense_trimmed(cond, k), tol)  # noqa: E731
    else:
        rep = observable_rep(cond)
        anchor_at = lambda k: dense_rep_projector(rep, k)  # noqa: E731
    kappas = []
    for k in range(proc.k1, proc.k2 + 1):
        anchor = anchor_at(k)
        op = schrodinger(model, anchor @ core @ anchor, k)
        kap = linalg.hermitian_part(partial_trace_1(op, model.d1, model.d2) / den)
        w = np.linalg.eigvalsh(kap)
        if w[0] < -tol.eps_eig:
            raise DomainError(f"kappa at index {k} is not PSD (eigenvalue {w[0]:.3e})")
        kappas.append(kap)
    return tuple(kappas)


def path_outcome_probability(proc, i: int, rep: str = "support") -> float:
    """The earlier body of ``measurement.outcome_probability``: the trace
    of the last kappa of the whole path."""
    path = kappa_path(proc, i, rep)
    return float(np.trace(path.at(proc.k2)).real)


def dense_verifiability_norms(cond: ConditionSpec, py: np.ndarray, k: int) -> tuple:
    """[Y, P(k)] and P(s) [Y, X] P(s) for the dense Heisenberg outcome py."""
    ps = cond.fam.at(min(k, cond.k_c))
    px = dense_x(cond)
    return (linalg.commutator_norm(py, cond.fam.at(k)),
            linalg.max_abs(ps @ (py @ px - px @ py) @ ps))


def _dense_zw(cond: ConditionSpec, py: np.ndarray, k: int, negate: bool) -> np.ndarray:
    if k == cond.k_c:
        raise DomainError("Z/W construction refused: outcome and condition share index "
                          f"{k}, so neither direction applies")
    fam = cond.fam
    px = dense_x(cond)
    if k > cond.k_c:
        a, e = fam.at(k) @ py, px
    else:
        a, e = fam.at(cond.k_c) @ px, py
    if negate:
        e = np.eye(e.shape[0], dtype=complex) - e
    ae = a @ fam.at(min(k, cond.k_c)) @ e
    return linalg.support_projector(ae @ ae.conj().T, cond.tol)


def dense_zw_subspace(cond: ConditionSpec, y, k: int, negate: bool) -> np.ndarray:
    """Z (W with ``negate``): the support of (A P(s) E)(A P(s) E)^dagger."""
    py = dense_lift(cond.model, y, k)
    if max(dense_verifiability_norms(cond, py, k)) > cond.tol.eps_zero:
        raise DomainError(
            "Z/W construction refused: outcome is not verifiable against the condition"
        )
    return _dense_zw(cond, py, k, negate)


def dense_trace_identity(cond: ConditionSpec, outcomes: OutcomeSet, k0: int = 0) -> tuple:
    """The residuals of ``verify.verify_trace_identity``."""
    linalg.orthogonal_projectors(outcomes.projectors, outcomes.complete, cond.tol)
    k = outcomes.k
    lifted = [dense_lift(cond.model, y, k) for y in outcomes.projectors]
    if not all(max(dense_verifiability_norms(cond, py, k)) <= cond.tol.eps_zero
               for py in lifted):
        raise DomainError("trace identity requires a verifiable outcome set")
    rho = dense_condition_operator(cond, k0)
    p0 = cond.fam.at(k0)
    residuals = []
    for py in lifted:
        pz = _dense_zw(cond, py, k, negate=False)
        if k > cond.k_c:
            lhs = np.einsum("ij,ji->", py, rho).real
        else:
            lhs = np.trace(cond.fam.at(k) @ py @ dense_x(cond) @ p0).real
        rhs = np.trace(pz @ p0).real
        residuals.append(abs(lhs - rhs))
    return tuple(residuals)


# ---------------------------------------------------------------------------
# Dense tolerance-decision oracles.  The library decides each "max entry
# within eps_zero" test below from bounds on d x m blocks and builds the
# d x d matrix only between the bounds; these are its earlier bodies,
# which compare dense d x d matrices every time.


def dense_condition1_indices(cond: ConditionSpec, top: int):
    """Demand-(1) indices k <= top, in decreasing order, from dense
    trimmed operators."""
    t0 = dense_trimmed(cond, 0)
    for k in range(top, 0, -1):
        tk = dense_trimmed(cond, k)
        if linalg.approx_equal(t0, tk, cond.tol) and all(
            linalg.approx_equal(dense_trimmed(cond, t), tk, cond.tol) for t in range(1, k)
        ):
            yield k
    yield 0


def mspace_commutes(model: Model, fam: PhysicalFamily, k: int, w: np.ndarray) -> bool:
    """The earlier body of ``model._commutes``, in the predicate's m-space
    for every family: G = P(k) W splits as W A + R with A = W^dagger G,
    and ||[W W^dagger, P(k)]||_F^2 = ||A - A^dagger||_F^2 + 2 ||R||_F^2,
    in O(d m^2)."""
    g = fam.apply(k, w)
    a = w.conj().T @ g
    frob = math.hypot(np.linalg.norm(a - a.conj().T), math.sqrt(2) * np.linalg.norm(g - w @ a))
    return linalg.within_zero(frob, frob / len(w), lambda: fam.commutator_norm(k, w), model.tol)


def dense_condition_possible(model: Model, fam: PhysicalFamily, x1, k_c: int) -> bool:
    """The possibility test of ``ConditionSpec`` by its max-entry norms."""
    w = lift_system1(model, x1, k_c)
    eps = model.tol.eps_zero
    return fam.commutator_norm(k_c, w) <= eps and fam.overlap_norm(k_c, w) > eps


def dense_condition2_holds(cond: ConditionSpec, rep: ObservableRep, k: int) -> bool:
    """Demand (2) at k: P(k) X(k) = X(k) for the dense lifted X(k)."""
    px = dense_rep_projector(rep, k)
    restricted = physical_restrict(cond.model, cond.fam, px, k)
    return linalg.approx_equal(restricted, px, cond.tol)


def dense_start_time(cond: ConditionSpec, rep: ObservableRep | None = None) -> StartTime:
    """``start_time`` with dense trimmed operators and lifted X(k)."""
    k1 = next(dense_condition1_indices(cond, cond.k_c))
    if rep is None:
        return StartTime(k1, False, k1)
    for k in dense_condition1_indices(cond, k1):
        if dense_condition2_holds(cond, rep, k):
            return StartTime(k, False, k1)
    return StartTime(0, True, k1)


def dense_validate_family(model: Model, fam: PhysicalFamily) -> FamilyValidation:
    """Every projector and every pair j < k checked with d x d products."""
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
    passed = (
        n == model.n_indices
        and all(proj_ok)
        and all(nonzero)
        and not violations
    )
    return FamilyValidation(proj_ok, nonzero, tuple(violations), passed)


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
    core = dense_support_at(cond, k0)
    for k in chain:
        k = cond.model.grid.check_index(k)
        if not k0 < k < cond.k_c:
            raise DomainError(f"chain index {k} outside ({k0}, {cond.k_c})")
        s = dense_support_at(cond, k)
        core = s @ core @ s
    px = dense_x(cond)
    return linalg.hermitian_part(px @ core @ px)


# ---------------------------------------------------------------------------
# Product-chain oracles.  The library computes every rule as one trace
# Tr(Y rho) / Tr(rho) against a state rho built by ``condition``; these
# write each rule's formula out literally, as a chain of d x d products
# with its own denominator, and keep the rules' checks in their order.

_K0_WORDING = "the condition's start index T_s={ts}"


def _chain_trace(m: np.ndarray, tol: linalg.Tolerance, context: str) -> float:
    t = complex(np.trace(m))
    if abs(t.imag) > tol.eps_zero * max(1.0, abs(t.real)):
        raise DomainError(
            f"trace in {context} has imaginary residue {t.imag:.3e}; "
            "inputs are not genuinely Hermitian projectors"
        )
    return t.real


def _chain_result(num: float, den: float, rule: str, tol: linalg.Tolerance,
                  warnings: tuple = ()) -> ProbabilityResult:
    if den <= tol.eps_zero:
        raise UnreachableConditionError(
            f"{rule}: condition has no physical weight (denominator {den:.3e})"
        )
    value = num / den
    if value < -tol.eps_zero or value > 1.0 + tol.eps_zero:
        raise DomainError(f"{rule}: probability {value} outside [0, 1]")
    return ProbabilityResult(float(value), float(num), float(den), rule, warnings)


def chain_forward(cond: ConditionSpec, y, k: int, k0: int = 0) -> ProbabilityResult:
    """Tr(Y X P(k0) X) / Tr(X P(k0))."""
    k = cond.model.grid.check_index(k)
    if k < cond.k_c:
        raise DomainError(f"prob_forward requires k >= k_c, got k={k} < k_c={cond.k_c}")
    check_k0(cond, k0, _K0_WORDING)
    py = dense_lift(cond.model, y, k)
    px = dense_x(cond)
    p0 = cond.fam.at(k0)
    num = _chain_trace(py @ px @ p0 @ px, cond.tol, "prob_forward numerator")
    den = _chain_trace(px @ p0, cond.tol, "prob_forward denominator")
    return _chain_result(num, den, "forward", cond.tol)


def chain_intermediate_full(cond: ConditionSpec, outcomes: OutcomeSet, y_index: int,
                            k0: int = 0) -> ProbabilityResult:
    """Tr(X P(k) Y S P(k0) S Y P(k)) over its sum across the complete set,
    with S the support of the condition trimmed to k."""
    linalg.orthogonal_projectors(outcomes.projectors, outcomes.complete, cond.tol)
    k = cond.model.grid.check_index(outcomes.k)
    if not (k0 < k < cond.k_c):
        raise DomainError(
            f"prob_intermediate_full requires k0 < k < k_c, got {k0}, {k}, {cond.k_c}"
        )
    if not outcomes.complete:
        raise DomainError("prob_intermediate_full needs a complete outcome set")
    check_k0(cond, k0, _K0_WORDING)
    if not 0 <= y_index < len(outcomes):
        raise IndexError(f"outcome index {y_index} out of range")
    px = dense_x(cond)
    pk = cond.fam.at(k)
    sup = support_at(cond, k)
    core = sup @ cond.fam.at(k0) @ sup
    terms = []
    for y1 in outcomes.projectors:
        py = dense_lift(cond.model, y1, k)
        terms.append(_chain_trace(px @ pk @ py @ core @ py @ pk, cond.tol,
                                  "prob_intermediate_full term"))
    return _chain_result(terms[y_index], sum(terms), "intermediate_full", cond.tol)


def chain_intermediate_known(cond: ConditionSpec, y, k: int, k0: int = 0,
                             rep: ObservableRep | None = None) -> ProbabilityResult:
    """Tr(Y A P(k0) A) / Tr(A P(k0)), A the support or the lifted X(k)."""
    k = cond.model.grid.check_index(k)
    if not (k0 < k < cond.k_c):
        raise DomainError(
            f"prob_intermediate_known requires k0 < k < k_c, got {k0}, {k}, {cond.k_c}"
        )
    check_k0(cond, k0, _K0_WORDING)
    if rep is None:
        anchor, variant = support_at(cond, k), "support"
    else:
        anchor, variant = dense_rep_projector(rep, k), "observable"
    py = dense_lift(cond.model, y, k)
    p0 = cond.fam.at(k0)
    num = _chain_trace(py @ anchor @ p0 @ anchor, cond.tol, "prob_intermediate_known")
    den = _chain_trace(anchor @ p0, cond.tol, "prob_intermediate_known")
    return _chain_result(num, den, f"intermediate_known/{variant}", cond.tol)


def chain_before(cond: ConditionSpec, y, k: int, k0: int = 0) -> ProbabilityResult:
    """Tr(X P(k0) Y P(k0)) / Tr(X P(k0))."""
    k = cond.model.grid.check_index(k)
    if k > k0:
        raise DomainError(f"prob_before requires k <= k0, got k={k} > k0={k0}")
    check_k0(cond, k0, _K0_WORDING)
    py = dense_lift(cond.model, y, k)
    px = dense_x(cond)
    p0 = cond.fam.at(k0)
    num = _chain_trace(px @ p0 @ py @ p0, cond.tol, "prob_before numerator")
    den = _chain_trace(px @ p0, cond.tol, "prob_before denominator")
    return _chain_result(num, den, "before", cond.tol)


def chain_approx(cond: ConditionSpec, y, k: int) -> ProbabilityResult:
    """Tr(P(k) X P(k) Y) / Tr(X P(k))."""
    k = cond.model.grid.check_index(k)
    if k >= cond.k_c:
        raise DomainError(f"prob_approx requires k < k_c, got k={k}, k_c={cond.k_c}")
    py = dense_lift(cond.model, y, k)
    px = dense_x(cond)
    pk = cond.fam.at(k)
    num = _chain_trace(pk @ px @ pk @ py, cond.tol, "prob_approx numerator")
    den = _chain_trace(px @ pk, cond.tol, "prob_approx denominator")
    return _chain_result(num, den, "approx", cond.tol,
                         warnings=("approximation: condition treated as starting at k",))


def chain_sequence(cond: ConditionSpec, y1, k1: int, y2, k2: int,
                   k0: int = 0) -> ProbabilityResult:
    """Tr(Y2 Y1 X P(k0) X Y1) / Tr(X P(k0)), refused unless (Y1, k1) is
    verifiable."""
    k1 = cond.model.grid.check_index(k1)
    k2 = cond.model.grid.check_index(k2)
    check_k0(cond, k0, _K0_WORDING)
    py1 = dense_lift(cond.model, y1, k1)
    py2 = dense_lift(cond.model, y2, k2)
    worst = max(dense_verifiability_norms(cond, py1, k1))
    if worst > cond.tol.eps_zero:
        raise UnverifiableSequenceError(
            "sequence refused: intermediate outcome is not verifiable "
            f"(commutator norm {worst:.3e})",
            worst,
        )
    px = dense_x(cond)
    p0 = cond.fam.at(k0)
    num = _chain_trace(py2 @ py1 @ px @ p0 @ px @ py1, cond.tol, "prob_sequence")
    den = _chain_trace(px @ p0, cond.tol, "prob_sequence")
    return _chain_result(num, den, "sequence", cond.tol)
