"""Steps given to ``Model`` as their pairs (S, U[S, S]).

A model built from pairs must equal the model built from their dense
matrices, the pairs scattered onto the identity: the same ``steps`` and
V(k), bit for bit, the same held pairs and the same ``serialize`` bytes.
The pairs cover an empty S, a minimal S, an S padded with indices the
block leaves alone, and an S covering every index, minimal or padded up
to it.  ``conftest.dense_propagators`` is the oracle for V(k).  A
malformed pair is refused with a ``ValidationError`` naming its step.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from physborn.errors import ValidationError
from physborn.model import Model, StepBlock, TimeGrid, cumulative_propagator
from physborn.scenario_io import loads, serialize

from conftest import dense_propagators, identity_family, random_unitary

KINDS = ("empty", "minimal", "padded", "full", "padded-full")


def _pair(rng, kind: str, d: int) -> StepBlock:
    """A unitary step of the kind as a pair; every row and column of its
    block on the minimal S differs from the identity's."""
    if kind == "empty":
        return StepBlock([], np.zeros((0, 0), dtype=complex))
    if kind == "full":
        return StepBlock(list(range(d)), random_unitary(rng, d))
    m = int(rng.integers(1, d)) if d > 1 else 1
    moved = np.sort(rng.choice(d, size=m, replace=False))
    block = random_unitary(rng, m)
    if kind == "minimal":
        return StepBlock(moved.tolist(), block)
    # padded: some or all of the indices the block leaves alone join S
    free = np.setdiff1d(np.arange(d), moved)
    extra = free if kind == "padded-full" else \
        rng.choice(free, size=int(rng.integers(1, len(free) + 1)), replace=False)
    s = np.sort(np.concatenate([moved, extra]))
    padded = np.eye(len(s), dtype=complex)
    at = np.searchsorted(s, moved)
    padded[np.ix_(at, at)] = block
    return StepBlock(s.tolist(), padded)


def _scatter(pair: StepBlock, d: int) -> np.ndarray:
    """The dense step, by one assignment per entry of the block."""
    u = np.eye(d, dtype=complex)
    for a, i in enumerate(pair.indices):
        for b, j in enumerate(pair.indices):
            u[i, j] = pair.block[a][b]
    return u


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(d1=st.integers(1, 3), d2=st.integers(1, 3),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d1=2, d2=3, kinds=["empty", "minimal", "padded", "full", "padded-full"], seed=1)
@example(d1=1, d2=1, kinds=["padded", "full"], seed=2)
def test_a_model_from_pairs_equals_the_model_from_their_matrices(d1, d2, kinds, seed):
    d = d1 * d2
    if d == 1:
        kinds = ["empty" if k != "full" else k for k in kinds]
    rng = np.random.default_rng(seed)
    pairs = [_pair(rng, kind, d) for kind in kinds]
    dense = [_scatter(p, d) for p in pairs]
    grid = TimeGrid(tuple(float(t) for t in range(len(pairs) + 1)))
    from_pairs, from_dense = Model(d1, d2, grid, pairs), Model(d1, d2, grid, dense)

    assert all(map(_same, from_pairs.steps, dense))
    for (s, block), (t, other) in zip(from_pairs.blocks, from_dense.blocks):
        assert _same(s, t) and _same(block, other)
    for k, v in enumerate(dense_propagators(dense, d)):
        pv = cumulative_propagator(from_pairs, k)
        assert _same(pv, cumulative_propagator(from_dense, k))
        assert np.max(np.abs(pv - v)) <= 1e-12
    fam = identity_family(d, len(grid))
    text = serialize("pairs", from_pairs, fam, {})
    assert text == serialize("pairs", from_dense, fam, {})
    assert serialize("pairs", loads(text).model, fam, {}) == text

    for kind, given_pair, (s, block) in zip(kinds, pairs, from_pairs.blocks):
        if kind.startswith("padded"):
            assert len(s) < len(given_pair.indices)
        if kind == "full":
            assert block is given_pair.block     # held as given, uncopied


def test_a_haar_step_given_densely_is_held_uncopied():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 6)
    m = Model(2, 3, TimeGrid((0.0, 1.0)), (u,))
    assert m.blocks[0].block is u and m.steps[0] is u


MALFORMED = ("shape", "rows", "unitary", "negative", "beyond", "unsorted", "repeated",
             "float", "scalar", "nan")


def _malformed(kind: str, d: int, rng) -> tuple:
    """A pair of the kind on a d-dimensional model, and the text its
    refusal must hold."""
    s, block = [0, 2, 3], random_unitary(rng, 3)
    if kind == "shape":
        return StepBlock(s, block[:, :2]), "block: expected a 3x3 matrix"
    if kind == "rows":
        return StepBlock(s[:2], block), "block: expected a 2x2 matrix"
    if kind == "unitary":
        return StepBlock(s, 1.5 * block), "is not unitary within eps_zero"
    if kind == "negative":
        return StepBlock([-1, 2, 3], block), "indices: -1 is not an integer in 0.."
    if kind == "beyond":
        return StepBlock([0, 2, d], block), f"indices: {d} is not an integer in 0..{d - 1}"
    if kind == "unsorted":
        return StepBlock([0, 3, 2], block), "indices: 2 follows 3"
    if kind == "repeated":
        return StepBlock([0, 2, 2], block), "indices: 2 follows 2"
    if kind == "float":
        return StepBlock([0.0, 2.0, 3.0], block), "indices: 0.0 is not an integer in 0..5"
    if kind == "scalar":
        return StepBlock(5, block), "indices: expected a list of integers"
    bad = block.copy()
    bad[1, 1] = np.nan
    return StepBlock(s, bad), ": non-finite entry"


@pytest.mark.parametrize("kind", MALFORMED)
@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(k=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_a_malformed_pair_is_refused_naming_its_step(kind, k, seed):
    rng = np.random.default_rng(seed)
    steps = [StepBlock([1, 4], random_unitary(rng, 2)) for _ in range(3)]
    steps[k], text = _malformed(kind, 6, rng)
    with pytest.raises(ValidationError) as info:
        Model(2, 3, TimeGrid((0.0, 1.0, 2.0, 3.0)), steps)
    assert str(info.value).startswith(f"step {k}") and text in str(info.value), info.value


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(kind=st.sampled_from(["minimal", "padded", "full"]), k=st.integers(0, 2),
       bad=st.sampled_from([complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
                            complex(0.0, -np.inf), complex(np.nan, np.inf)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_non_finite_entry_is_refused_alike_in_a_dense_step_and_a_pair(kind, k, bad, seed):
    # a NaN or infinity differs from 0 and 1, so it lies in S x S of the
    # dense step and is found in its block, as in the pair's
    rng = np.random.default_rng(seed)
    d = 6
    steps = [_pair(rng, "minimal", d) for _ in range(3)]
    s, block = _pair(rng, kind, d)
    block = block.copy()
    a, b = rng.integers(0, len(s), size=2)
    block[a, b] = bad
    grid = TimeGrid((0.0, 1.0, 2.0, 3.0))
    for form in (StepBlock(s, block), _scatter(StepBlock(s, block), d)):
        steps[k] = form
        with pytest.raises(ValidationError) as info:
            Model(2, 3, grid, steps)
        assert str(info.value) == f"step {k}: non-finite entry (NaN or infinity)"


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
@example(kinds=["full", "minimal", "empty"], seed=3)
def test_a_dense_built_model_returns_its_steps(kinds, seed):
    # steps are scattered from the held pairs: equal to the given matrices,
    # a -0.0 outside S read as +0.0, and a step moving every index (a Haar
    # step) returned as the given object
    rng = np.random.default_rng(seed)
    d = 6
    dense = [_scatter(_pair(rng, kind, d), d) for kind in kinds]
    for u in dense:
        u[u == 0] = complex(-0.0, -0.0)
    model = Model(2, 3, TimeGrid(tuple(float(t) for t in range(len(dense) + 1))), dense)
    with pytest.raises(AttributeError, match=r"^'Model' object has no attribute 'nonexistent'$"):
        model.nonexistent
    assert len(model.steps) == len(dense)
    for kind, u, given_u, (s, _) in zip(kinds, model.steps, dense, model.blocks):
        assert np.array_equal(u, given_u)
        assert (u is given_u) == (len(s) == d)
        if kind == "full":
            assert u is given_u
