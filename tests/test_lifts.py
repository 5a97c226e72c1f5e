"""The range-basis lifts against the dense Heisenberg lift of conftest."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physborn.condition import ConditionSpec, observable_rep
from physborn.errors import DomainError, NotPhysicallyPossibleError, ShapeError
from physborn.model import (
    PhysicalFamily,
    heisenberg,
    lift_predicate,
    lift_system1,
    lift_system2,
)
from physborn.scenarios import build_reference_experiment

from conftest import dense_lift, random_model, random_projector, random_record_projector


def _dense_lift2(model, p2, k):
    """V(k)^dagger (I (x) p2) V(k)."""
    return heisenberg(model, np.kron(np.eye(model.d1, dtype=complex), p2), k)


def _gap(w, dense):
    """Largest deviation of W from orthonormal columns and of W W^dagger
    from the dense projector."""
    ortho = np.max(np.abs(w.conj().T @ w - np.eye(w.shape[1])), initial=0.0)
    return max(ortho, np.max(np.abs(w @ w.conj().T - dense)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(d1=st.integers(2, 4), d2=st.integers(1, 4), n=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_lifts_are_orthonormal_bases_of_the_dense_lift(d1, d2, n, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, d1, d2, n_indices=n)
    p1 = random_projector(rng, d1, int(rng.integers(0, d1 + 1)))
    record = random_record_projector(rng, d1)
    p2 = random_projector(rng, d2, int(rng.integers(0, d2 + 1)))
    generic = random_projector(rng, model.dim, int(rng.integers(1, model.dim + 1)))
    for k in range(n):
        lifted_record = dense_lift(model, record, k)
        for w, dense in (
            (lift_system1(model, p1, k), dense_lift(model, p1, k)),
            (lift_system1(model, record, k), lifted_record),
            (lift_system2(model, p2, k), _dense_lift2(model, p2, k)),
        ):
            assert _gap(w, dense) <= 1e-12
        for p in (generic, lifted_record):
            # the held form, whichever it is, against the dense lift
            held, dense = lift_predicate(model, p, k), dense_lift(model, p, k)
            b = held.block
            assert np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1])), initial=0.0) <= 1e-12
            assert np.max(np.abs(held.inside(np.eye(model.dim)) - dense)) <= 1e-12
    # index 0 is the reference frame: the lift is kron(B, I) exactly, for
    # the range basis B = W[::d2, ::d2] of p1
    for p in (p1, record):
        w = lift_system1(model, p, 0)
        b = w[::d2, ::d2]
        assert np.array_equal(w, np.kron(b, np.eye(d2)))
        assert _gap(b, p) <= 1e-12


def test_lift_refusals_keep_their_types_and_messages():
    rng = np.random.default_rng(90)
    model = random_model(rng, 3, 2, n_indices=3)
    p1, p2 = random_projector(rng, 3, 1), random_projector(rng, 2, 1)
    fam = PhysicalFamily((np.eye(6, dtype=complex),) * 3)
    cases = [
        # a trace too large for a float reaches the projector check, unwarned
        (lambda: ConditionSpec(model, fam, 1e308 * np.eye(3), 1), DomainError,
         "lift_system1 requires a projector"),
        (lambda: lift_system1(model, p2, 0), ShapeError,
         "system1 operator shape (2, 2), expected (3, 3)"),
        (lambda: lift_system1(model, 0.3 * p1, 0), DomainError,
         "lift_system1 requires a projector"),
        (lambda: lift_system2(model, p1, 0), ShapeError,
         "system2 operator shape (3, 3), expected (2, 2)"),
        (lambda: lift_system2(model, 0.3 * p2, 0), DomainError,
         "lift_system2 requires a projector"),
        (lambda: lift_system1(model, p1, 3), IndexError, "grid index 3 out of range [0, 2]"),
        (lambda: lift_system2(model, p2, -1), IndexError, "grid index -1 out of range [0, 2]"),
        (lambda: lift_predicate(model, np.eye(4), 0), ShapeError,
         "predicate shape (4, 4) matches neither system1 nor the full space"),
        (lambda: lift_predicate(model, 0.5 * np.eye(6), 0), DomainError,
         "a full-space predicate must be a projector"),
        (lambda: lift_predicate(model, 0.3 * p1, 0), DomainError,
         "lift_system1 requires a projector"),
        # diagonal matrices that are not records, and records of the wrong shape
        (lambda: lift_system1(model, np.diag([1.0, 0.5, 0.0]), 0), DomainError,
         "lift_system1 requires a projector"),
        (lambda: lift_system2(model, np.diag([0.5, 1.0]), 0), DomainError,
         "lift_system2 requires a projector"),
        (lambda: lift_predicate(model, np.diag([1.0, 0.5, 1.0]), 0), DomainError,
         "lift_system1 requires a projector"),
        (lambda: lift_system1(model, np.diag([1.0, 0.0]), 0), ShapeError,
         "system1 operator shape (2, 2), expected (3, 3)"),
        (lambda: lift_system2(model, np.diag([1.0, 0.0, 0.0]), 0), ShapeError,
         "system2 operator shape (3, 3), expected (2, 2)"),
        (lambda: ConditionSpec(model, fam, np.eye(6), 0), ShapeError,
         "system1 operator shape (6, 6), expected (3, 3)"),
    ]
    for call, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


def test_dense_projectors_handed_out_match_the_dense_lift():
    ref = build_reference_experiment()
    built = reps = 0
    for x1, k_c in itertools.product(ref.predicates.values(), range(ref.model.n_indices)):
        try:
            cond = ConditionSpec(ref.model, ref.fam, x1, k_c)
        except NotPhysicallyPossibleError:
            continue
        built += 1
        w = lift_system1(ref.model, x1, k_c)
        assert np.max(np.abs(w @ w.conj().T - dense_lift(ref.model, x1, k_c))) <= 1e-12
        x = cond.lifted.inside(np.eye(ref.model.dim))   # X from the held form
        assert np.max(np.abs(x - dense_lift(ref.model, x1, k_c))) <= 1e-12
        try:
            rep = observable_rep(cond)
        except DomainError:     # the standard basis cannot represent it
            continue
        reps += 1
        for k in range(k_c + 1):
            p1 = rep.system1_projector(k)
            w = lift_system1(ref.model, p1, k)
            assert np.max(np.abs(w @ w.conj().T - dense_lift(ref.model, p1, k))) <= 1e-12
    assert built >= 5 and reps >= 3
