"""Model, propagators, and physical-family validation."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import physborn
from physborn import linalg, model
from physborn.errors import (
    DomainError,
    NotPhysicallyPossibleError,
    ShapeError,
    ValidationError,
)
from physborn.scenarios import build_reference_experiment
from physborn.model import (
    Model,
    PhysicalFamily,
    TimeGrid,
    cumulative_propagator,
    forward_closure,
    heisenberg,
    is_physically_possible,
    lift_predicate,
    lift_system1,
    lift_system2,
    validate_family,
)

from conftest import (
    bench_chain,
    check_self_consistency,
    dense_lift,
    dense_propagators,
    identity_family,
    outcome_of,
    physical_restrict,
    random_model,
    random_nested_family,
    random_unitary,
    rank_of,
    schrodinger,
)


def test_time_grid_validation():
    with pytest.raises(ValidationError):
        TimeGrid((0.0,))
    with pytest.raises(ValidationError):
        TimeGrid((0.0, 0.0))
    with pytest.raises(ValidationError):
        TimeGrid((1.0, 0.5))
    g = TimeGrid((0.0, 1.5, 3.0))
    assert len(g) == 3 and g.n_steps == 2
    assert g.check_index(2) == 2
    with pytest.raises(IndexError):
        g.check_index(3)
    with pytest.raises(IndexError):
        g.check_index(-1)


def test_time_grid_refuses_non_finite_times():
    # NaN compares false both ways, so the ordering check cannot catch it
    for times in ((0.0, float("nan"), 2.0), (0.0, 1.0, float("inf")),
                  (-float("inf"), 1.0), (0.0, 10 ** 400)):
        with pytest.raises(ValidationError, match="time grid labels must be finite"):
            TimeGrid(times)
    assert TimeGrid((-1e300, 0.0, 1e300)).times == (-1e300, 0.0, 1e300)


def test_model_rejects_bad_steps():
    g = TimeGrid((0.0, 1.0, 2.0))
    eye = np.eye(4, dtype=complex)
    with pytest.raises(ValidationError):
        Model(2, 2, g, (eye,))  # wrong count
    with pytest.raises(ValidationError):
        Model(2, 2, g, (eye, 2 * eye))  # not unitary
    with pytest.raises(ValidationError):
        Model(0, 2, g, (eye, eye))


def test_cumulative_propagator_composition():
    rng = np.random.default_rng(30)
    m = random_model(rng, 2, 3, n_indices=4)
    v = np.eye(6, dtype=complex)
    for k in range(4):
        assert np.max(np.abs(cumulative_propagator(m, k) - v)) < 1e-12
        if k < 3:
            v = m.steps[k] @ v


def _step(rng, kind: str, d: int, size: int) -> np.ndarray:
    """A d x d unitary step of one kind, moving ``size`` random indices
    (all of them for a Haar step)."""
    u = np.eye(d, dtype=complex)
    s = np.sort(rng.choice(d, size=size, replace=False))
    if kind == "permutation":     # a phased permutation, as a record step
        u[:, s] = 0
        u[rng.permutation(s), s] = np.exp(2j * np.pi * rng.random(size))
    elif kind == "block":
        u[np.ix_(s, s)] = random_unitary(rng, size)
    elif kind == "haar":
        u = random_unitary(rng, d)
    return u


def _near_miss(u: np.ndarray, miss: str) -> None:
    """Perturb u in place: by 2e-9 along, or 5e-10 across, the phase of
    the largest entry of its moved block, which moves U^dagger U - I by
    more than eps_zero (that entry is at least 1/sqrt(12) in size), or
    by at most 5e-10; or by 2e-9 at an entry of an unmoved row or
    column, which widens S.  A step that moves nothing is perturbed on
    its diagonal."""
    s = linalg.support_indices(u, 1)
    rest = np.setdiff1d(np.arange(len(u)), s)
    if miss.startswith("outside") and len(rest):
        a, b = rest[0], s[0] if len(s) else rest[0]
        u[(a, b) if miss == "outside row" else (b, a)] += 2e-9
        return
    if not len(s):
        s = rest[:1]
    block = np.abs(u[np.ix_(s, s)])
    i, j = np.unravel_index(np.argmax(block), block.shape)
    phase = u[s[i], s[j]] / abs(u[s[i], s[j]])
    u[s[i], s[j]] += 5e-10j * phase if miss == "accepted" else 2e-9 * phase


_KINDS = ("identity", "permutation", "block", "haar")


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(d1=st.integers(1, 4), d2=st.integers(1, 3),
       kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4),
       miss=st.sampled_from((None, "refused", "accepted", "outside row", "outside column",
                             "misshaped")),
       seed=st.integers(0, 2**32 - 1))
@example(d1=2, d2=1, kinds=["identity"], miss="misshaped", seed=0)
def test_model_matches_the_dense_construction(d1, d2, kinds, miss, seed):
    # identical verdicts and messages, and V(k) within 1e-12, on steps
    # that move no index, a few, a random block of 1..d, or all of them;
    # "misshaped" refuses a step and appends a (d + 1) x (d + 1) one,
    # whose shape both refuse first
    rng = np.random.default_rng(seed)
    d = d1 * d2
    steps = [_step(rng, kind, d, int(rng.integers(1, d + 1))) for kind in kinds]
    if miss is not None:
        _near_miss(steps[int(rng.integers(len(steps)))],
                   "refused" if miss == "misshaped" else miss)
    if miss == "misshaped":
        steps.append(np.eye(d + 1, dtype=complex))
    grid = TimeGrid(tuple(float(t) for t in range(len(steps) + 1)))
    built = outcome_of(lambda: Model(d1, d2, grid, tuple(steps)))
    dense = outcome_of(lambda: dense_propagators(steps, d))
    assert built[0] == dense[0] == (miss in (None, "accepted"))
    if not built[0]:
        assert built[1] == dense[1]
        if miss == "misshaped":
            assert built[1] == (ValidationError, f"step {len(kinds)} has shape "
                                f"{(d + 1, d + 1)}, expected {(d, d)}")
        return
    for k, v in enumerate(dense[1]):
        assert np.max(np.abs(cumulative_propagator(built[1], k) - v)) <= 1e-12


def test_a_step_is_read_by_the_indices_it_moves():
    # a chain step moves 6 indices, a Haar step all of them, the identity
    # none; an identity step shares V(k-1), uncopied
    _, chain, _ = bench_chain(4)
    assert [len(linalg.support_indices(u, 1)) for u in chain.steps] == [6] * 4
    rng = np.random.default_rng(36)
    haar, eye = random_unitary(rng, 6), np.eye(6, dtype=complex)
    assert len(linalg.support_indices(haar, 1)) == 6
    assert not len(linalg.support_indices(eye, 1))
    m = Model(2, 3, TimeGrid((0.0, 1.0, 2.0, 3.0)), (haar, eye, haar))
    assert cumulative_propagator(m, 2) is cumulative_propagator(m, 1)
    for k, v in enumerate(dense_propagators(m.steps, 6)):
        assert np.max(np.abs(cumulative_propagator(m, k) - v)) <= 1e-12


def test_heisenberg_schrodinger_roundtrip():
    rng = np.random.default_rng(31)
    m = random_model(rng, 2, 2)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for k in range(m.n_indices):
        back = schrodinger(m, heisenberg(m, a, k), k)
        assert np.max(np.abs(back - a)) < 1e-10
    # index 0 is the reference frame
    assert np.max(np.abs(heisenberg(m, a, 0) - a)) < 1e-12


def test_lift_structure_and_commutation():
    rng = np.random.default_rng(32)
    m = random_model(rng, 3, 2)
    u = random_unitary(rng, 3)
    p1 = u[:, :1] @ u[:, :1].conj().T
    u2 = random_unitary(rng, 2)
    p2 = u2[:, :1] @ u2[:, :1].conj().T
    w1, w2 = lift_system1(m, p1, 0), lift_system2(m, p2, 0)
    l1, l2 = w1 @ w1.conj().T, w2 @ w2.conj().T
    assert np.max(np.abs(l1 - np.kron(p1, np.eye(2)))) < 1e-12
    assert np.max(np.abs(l2 - np.kron(np.eye(3), p2))) < 1e-12
    assert linalg.commutes(l1, l2, m.tol)
    with pytest.raises(ShapeError):
        lift_system1(m, p2, 0)
    with pytest.raises(DomainError):
        lift_system1(m, 0.3 * p1, 0)


def test_validate_family_random_nested():
    rng = np.random.default_rng(33)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2, 5))
        fam = random_nested_family(rng, d, n)
        m = Model(1, d, TimeGrid(tuple(float(t) for t in range(n))),
                  (np.eye(d, dtype=complex),) * (n - 1))
        assert validate_family(m, fam).passed
        # nesting is directional: reversing the family must fail unless
        # all ranks happened to be equal
        rev = PhysicalFamily(tuple(reversed(fam.projectors)))
        ranks = [rank_of(p, m.tol) for p in fam.projectors]
        if len(set(ranks)) > 1:
            assert not validate_family(m, rev).passed


def test_validate_family_reports_violating_pair():
    d = 4
    u = np.eye(d, dtype=complex)
    p_small = u[:, :1] @ u[:, :1].conj().T
    p_other = u[:, 1:3] @ u[:, 1:3].conj().T
    m = Model(1, d, TimeGrid((0.0, 1.0)), (np.eye(d, dtype=complex),))
    rep = validate_family(m, PhysicalFamily((p_small, p_other)))
    assert not rep.passed
    assert (0, 1) in rep.nesting_violations


def test_forward_closure_nesting_and_ranks():
    rng = np.random.default_rng(34)
    m = random_model(rng, 2, 3, n_indices=4)
    init = [rng.standard_normal(6) + 1j * rng.standard_normal(6)]
    extras = {2: [rng.standard_normal(6) + 1j * rng.standard_normal(6)]}
    fam = forward_closure(m, init, extras)
    assert validate_family(m, fam).passed
    ranks = [rank_of(p, m.tol) for p in fam.projectors]
    assert ranks == sorted(ranks)
    assert ranks[0] == 1 and ranks[2] == 2


def test_forward_closure_input_checks():
    rng = np.random.default_rng(35)
    m = random_model(rng, 2, 2)
    with pytest.raises(DomainError):
        forward_closure(m, [])
    with pytest.raises(ShapeError):
        forward_closure(m, [np.ones(3)])
    # extras exist only at integer indices 1..2: a float or a bool is
    # refused, not truncated
    for k in (0, 3, -3, 2.5, 2.7, True):
        with pytest.raises(DomainError, match=f"^extras index {k} lies outside 1..2$"):
            forward_closure(m, [np.ones(4)], {k: [np.ones(4)]})


def test_physically_possible_and_restrict():
    d = 4
    m = Model(2, 2, TimeGrid((0.0, 1.0)), (np.eye(d, dtype=complex),))
    proj = np.diag([1.0, 0, 0, 0]).astype(complex)
    fam = PhysicalFamily((proj, proj))
    p_good = np.diag([1.0, 1.0, 0, 0]).astype(complex)
    assert is_physically_possible(m, fam, p_good, 0)
    assert np.max(np.abs(physical_restrict(m, fam, p_good, 0) - proj)) < 1e-12
    # orthogonal predicate commutes but has no overlap
    p_zero = np.diag([0, 0, 1.0, 1.0]).astype(complex)
    assert not is_physically_possible(m, fam, p_zero, 0)
    # non-commuting predicate
    h = np.zeros((d, d), dtype=complex)
    h[0, 1] = h[1, 0] = 1.0
    h[0, 0] = h[1, 1] = 1.0
    p_bad = h / 2
    assert not is_physically_possible(m, fam, p_bad, 0)
    with pytest.raises(NotPhysicallyPossibleError):
        physical_restrict(m, fam, p_bad, 0)


def test_physically_possible_answers_for_any_square_matrix():
    # both functions test the matrix they are given, entry by entry: a
    # near-projector or a non-projector gets an answer, not a refusal
    m = Model(2, 2, TimeGrid((0.0, 1.0)), (np.eye(4, dtype=complex),))
    proj = np.diag([1.0, 1.0, 0, 0]).astype(complex)
    fam = PhysicalFamily((proj, proj))
    for x in (np.diag([1.0 + 3e-9, 1.0, 0, 0]), np.diag([0.5, 2.0, 0, 0])):
        assert is_physically_possible(m, fam, x, 0)
        assert np.array_equal(physical_restrict(m, fam, x, 0), proj @ x)
    assert not is_physically_possible(m, fam, np.diag([0, 0, 0.5, 2.0]), 0)


def test_family_index_out_of_range_is_refused():
    # a negative index used to wrap to a later projector, and k = n raised
    # a bare tuple IndexError
    ref = build_reference_experiment()
    x = dense_lift(ref.model, ref.predicate("I"), ref.T0)
    for k in (-1, -3, 3, 5):
        with pytest.raises(IndexError, match=rf"family index {k} out of range \[0, 2\]"):
            ref.fam.at(k)
        with pytest.raises(IndexError, match=rf"family index {k} out of range"):
            is_physically_possible(ref.model, ref.fam, x, k)
    assert is_physically_possible(ref.model, ref.fam, x, ref.T0)


def test_check_self_consistency_identity_family():
    rng = np.random.default_rng(36)
    m = random_model(rng, 2, 2)
    fam = identity_family(4, m.n_indices)
    p = np.diag([1.0, 1.0, 0, 0]).astype(complex)
    assert check_self_consistency(m, fam, p, 0)


def test_explicit_and_basis_families_answer_alike():
    # the reference family as range bases and as explicit projectors: the
    # operations callers use agree, a support (of a predicate held by its
    # range or by its complement's) has the same P X P and range, and the
    # norms match the dense formulas
    ref = build_reference_experiment()
    explicit = PhysicalFamily(ref.fam.projectors)
    eye = np.eye(ref.model.d1, dtype=complex)
    rng = np.random.default_rng(48)
    for k in range(ref.model.n_indices):
        p = ref.fam.at(k)
        for name in ("I", "Fup", "ready"):
            w = lift_system1(ref.model, ref.predicate(name), k)
            b = w @ random_unitary(rng, w.shape[1])[:, :2]
            y = w @ w.conj().T
            assert np.allclose(ref.fam.apply(k, b), explicit.apply(k, b), atol=1e-12)
            assert np.allclose(ref.fam.sandwich(k, b), explicit.sandwich(k, b), atol=1e-12)
            pred = ref.predicate(name)
            for x1, x in ((pred, y), (eye - pred, np.eye(len(y)) - y)):
                lifted = lift_predicate(ref.model, x1, k)
                assert lifted._complement == (x is not y)
                pxp = p @ x @ p
                (t1, q1), (t2, q2) = (lifted.support(f, k) for f in (ref.fam, explicit))
                for t in (t1, t2):
                    assert np.allclose(t @ t.conj().T, pxp, atol=1e-12)
                assert (q1 is None) == (q2 is None) == (linalg.max_abs(pxp) <= 1e-9)
                if q1 is None:
                    continue
                assert q1.shape == q2.shape
                assert np.allclose(q1 @ q1.conj().T, q2 @ q2.conj().T, atol=1e-12)
                assert np.allclose(q1.conj().T @ q1, np.eye(q1.shape[1]), atol=1e-12)
            for fam in (ref.fam, explicit):
                assert abs(fam.commutator_norm(k, w) - linalg.commutator_norm(y, p)) < 1e-12
                assert abs(fam.overlap_norm(k, w) - linalg.max_abs(p @ y)) < 1e-12


def test_only_the_family_reads_its_storage_form():
    # whether P(k) is given as a matrix, held by its labels or as a range
    # basis is read by PhysicalFamily alone: no other library module
    # touches its storage, its restriction, or branches on a restriction's
    # frame, and nothing in model.py outside the class body reads its
    # storage or branches on a frame; other code asks for a run only
    # through run_start
    storage = {"_projectors", "_frames", "_runs", "_bases", "_labels"}
    sites = []
    for path in sorted(Path(physborn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        private = storage | {"_restrict", "restrict"}
        if path.name == "model.py":
            tree.body = [node for node in tree.body
                         if not (isinstance(node, ast.ClassDef) and node.name == "PhysicalFamily")]
            private = storage
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in private:
                sites.append(f"{path.name}:{getattr(node, 'lineno', '?')} reads {name}")
            if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
                    and node.left.id == "frame"):
                sites.append(f"{path.name}:{node.lineno} branches on a restriction frame")
    # inside the class one method reads the storage to apply P(k),
    # _restrict; the rest of the application reads only the frame it
    # returns, and no application multiplies by the dense P(k) of at
    family = next(node for node in ast.parse(Path(model.__file__).read_text()).body
                  if isinstance(node, ast.ClassDef) and node.name == "PhysicalFamily")
    readers = {"__init__", "from_bases", "__len__", "run_start", "at", "_restrict",
               "_index_checks", "_nests"}
    appliers = {"_restrict", "_restrict_complement", "_join", "_commutator_frobenius",
                "apply", "sandwich"}
    for method in family.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        attrs = {node.attr for node in ast.walk(method) if isinstance(node, ast.Attribute)}
        if method.name not in readers and attrs & storage:
            sites.append(f"PhysicalFamily.{method.name} reads {sorted(attrs & storage)}")
        if method.name in appliers and attrs & {"at", "projectors"}:
            sites.append(f"PhysicalFamily.{method.name} applies the dense P(k)")
    assert not sites
