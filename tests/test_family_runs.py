"""Runs of equal P(k) in a physical family.

A family knows, for each index, the first index of its run: the
consecutive indices whose P(k) are exactly one matrix, that is records
of one size and label set, one range-basis object (what
``forward_closure`` shares at an index without extras), or given
matrices that are one object or equal entry for entry.  The start-index
scan decides each run once and validation checks each run once.  These
tests compare both with their definitions, the quadratic start-index scan
and the dense validation, on families whose runs are exact and on
families perturbed by 2e-9, which look like runs but are not.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from physborn.condition import ConditionSpec, observable_rep, start_time
from physborn.model import (
    Model,
    PhysicalFamily,
    TimeGrid,
    cumulative_propagator,
    forward_closure,
    lift_predicate,
    validate_family,
)
from physborn.scenario_io import builtin_scenario

from conftest import (
    dense_validate_family,
    outcome_of,
    quadratic_start_time,
    random_projector,
    random_unitary,
    schrodinger,
)


def _record(labels, d: int) -> np.ndarray:
    return np.diag(np.isin(np.arange(d), labels)).astype(complex)


def _noise(rng, d: int) -> tuple:
    """(N, exp(i N)) for a Hermitian d x d matrix N whose largest entry is
    2e-9."""
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h += h.conj().T
    w, v = np.linalg.eigh(2e-9 * h / np.max(np.abs(h)))
    return (v * w) @ v.conj().T, (v * np.exp(1j * w)) @ v.conj().T


def _starts(ids) -> list:
    """The first index of each index's run of equal ids."""
    return [next(j for j in range(k, -1, -1) if j == 0 or ids[j - 1] != ids[k])
            for k in range(len(ids))]


def _family(rng, model: Model, kind: str, share: bool, perturb: str) -> tuple:
    """A nested family P(k) = R(k) (x) Q(k), with R(k) a system1 record
    and Q(k) the first r_k columns of one system2 basis, whose sizes repeat
    at consecutive indices; and the run start each index should have.

    ``kind`` holds P(k) as records (Q(k) a record too), as given
    non-record matrices, a repeat being one object with ``share`` and an
    equal copy without, or as the bases ``forward_closure`` builds, an
    index without extras sharing the basis before it.  ``perturb`` turns
    one repeated P(k) by exp(i N), for a Hermitian N whose largest entry
    is 2e-9 ("index"), which leaves a projector but splits the run, or
    adds N to every P(k) of that run, one noisy matrix or basis held at
    each of its indices ("run"), which keeps the run but makes its P(k) a
    near miss of a projector.
    """
    d1, d2, n = model.d1, model.d2, model.n_indices
    order = rng.permutation(d1)
    sizes = np.sort(rng.integers(1, d1 + 1, size=n))
    ranks = np.sort(rng.integers(1, d2 + 1, size=n))
    q = np.eye(d2, dtype=complex)[:, rng.permutation(d2)] if kind == "records" \
        else random_unitary(rng, d2)
    ids = list(zip(sizes.tolist(), ranks.tolist()))
    # the orthonormal basis of each distinct P(k): e_a (x) q_j for a in R(k), j < r_k
    bases = {}
    for s, r in ids:
        bases.setdefault((s, r), np.column_stack(
            [np.kron(np.eye(d1)[:, a], q[:, j]) for a in sorted(order[:s]) for j in range(r)]))
    repeated = [k for k in range(1, n) if ids[k] == ids[k - 1]]
    target = int(rng.choice(repeated)) if repeated and perturb != "none" else None
    noise, turn = _noise(rng, d1 * d2)
    if kind == "closure" and target is None:
        vk = [cumulative_propagator(model, k) for k in range(n)]
        extras = {k: [vk[k] @ v for v in bases[ids[k]].T if
                      np.linalg.norm(v - bases[ids[k - 1]] @ (bases[ids[k - 1]].conj().T @ v))
                      > 0.5]
                  for k in range(1, n) if ids[k] != ids[k - 1]}
        return forward_closure(model, list(bases[ids[0]].T), extras), _starts(ids)
    if kind == "closure":
        frames = [bases[i] for i in ids]
        if perturb == "run":
            noisy = frames[target] + noise[:, :frames[target].shape[1]]
            frames = [noisy if i == ids[target] else f for i, f in zip(ids, frames)]
        else:
            frames[target], ids[target] = turn @ frames[target], "perturbed"
        return PhysicalFamily.from_bases(frames), _starts(ids)
    values = {i: b @ b.conj().T for i, b in bases.items()}
    if kind == "records":        # exact records, each built afresh
        projectors = [_record(np.flatnonzero(np.diagonal(values[i]).real > 0.5), d1 * d2)
                      for i in ids]
    else:
        projectors = [values[i] if share else values[i].copy() for i in ids]
    if perturb == "run" and target is not None:
        noisy = projectors[target] + noise
        projectors = [(noisy if share else noisy.copy()) if i == ids[target] else p
                      for i, p in zip(ids, projectors)]
    elif target is not None:
        projectors[target] = turn @ projectors[target] @ turn.conj().T
        ids[target] = "perturbed"
    return PhysicalFamily(projectors), _starts(ids)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(d1=st.integers(2, 4), d2=st.integers(1, 3), n=st.integers(2, 6),
       kind=st.sampled_from(("records", "given", "closure")), share=st.booleans(),
       perturb=st.sampled_from(("none", "index", "run")), seed=st.integers(0, 2**32 - 1))
@example(d1=3, d2=2, n=6, kind="records", share=False, perturb="none", seed=0)
@example(d1=3, d2=2, n=6, kind="closure", share=True, perturb="none", seed=1)
@example(d1=2, d2=3, n=6, kind="given", share=True, perturb="index", seed=2)
@example(d1=2, d2=3, n=6, kind="given", share=False, perturb="run", seed=3)
@example(d1=3, d2=2, n=5, kind="closure", share=True, perturb="index", seed=4)
def test_runs_match_the_quadratic_scan_and_the_dense_validation(d1, d2, n, kind, share,
                                                                perturb, seed):
    # Steps u1 (x) u2 with u1 a permutation keep every lifted system1
    # record a record (x) I, which commutes with R(k) (x) Q(k), so the
    # conditions reach the scan; demand (1) then holds across two runs
    # whenever R(k) keeps the condition's labels, which the scan must
    # find by comparing the runs.
    rng = np.random.default_rng(seed)
    us = [np.kron(np.eye(d1)[rng.permutation(d1)], random_unitary(rng, d2))
          for _ in range(n - 1)]
    model = Model(d1, d2, TimeGrid(tuple(float(t) for t in range(n))), tuple(us))
    fam, starts = _family(rng, model, kind, share, perturb)
    assert [fam.run_start(k) for k in range(n)] == starts
    assert validate_family(model, fam) == dense_validate_family(model, fam)
    # by its range, by its complement's, and a random rank; a record or a Haar projector
    for rank in (1, d1 // 2 + 1, int(rng.integers(1, d1 + 1))):
        labels = rng.choice(d1, size=rank, replace=False)
        x1 = _record(labels, d1) if rng.random() < 0.7 else random_projector(rng, d1, rank)
        assert lift_predicate(model, x1, 0)._complement == (2 * rank > d1 + 0.5)
        k_c = int(rng.integers(n))
        made, cond = outcome_of(lambda: ConditionSpec(model, fam, x1, k_c))
        if not made:
            continue
        assert start_time(cond) == quadratic_start_time(cond)
        # A near miss held as given is applied through the projector onto
        # its range, where the oracle's demand (2) multiplies by the matrix
        # itself, so the two may part by its 2e-9 defect: there only
        # demand (1), which both read from the same trimmed factors, is
        # compared.
        found, rep = outcome_of(lambda: observable_rep(cond))
        if found and perturb != "run":
            fresh = ConditionSpec(model, fam, x1, k_c)    # the demand-(1) scan inside
            assert start_time(fresh, rep) == quadratic_start_time(fresh, rep)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(n=st.integers(3, 9), share=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=9, share=True, seed=0)
def test_runs_of_a_drifting_family_match_the_quadratic_scan(n, share, seed):
    # conftest.drifting_instance with runs: the family turns by a random
    # walk of tiny rotations (steps of 1e-10 to 3e-9, either sign, or none,
    # which repeats P(k) exactly) and sometimes gains a rank, so trimmed
    # operators of different runs differ by amounts on both sides of
    # eps_zero, and a run that matches index 0 may still miss a run
    # between them.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 7))
    u = random_unitary(rng, d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w, v = np.linalg.eigh(a + a.conj().T)
    w = w / np.max(np.abs(w))
    turns = rng.choice((-1.0, 0.0, 0.0, 1.0), n) * rng.uniform(1e-10, 3e-9, n)
    theta = np.cumsum(turns)

    def rotated(cols, k):
        b = (v * np.exp(-1j * theta[k] * w)) @ v.conj().T @ u[:, cols]
        return b @ b.conj().T

    rank, ids, projectors = int(rng.integers(1, d)), [], []
    for k in range(n):
        ids.append((theta[k], rank))
        if k and ids[k] == ids[k - 1]:
            projectors.append(projectors[-1] if share else projectors[-1].copy())
        else:
            projectors.append(rotated(list(range(rank)), k))
        if rank < d and rng.random() < 0.3:
            rank += 1
    model = Model(d, 1, TimeGrid(tuple(float(t) for t in range(n))),
                  tuple(random_unitary(rng, d) for _ in range(n - 1)))
    fam = PhysicalFamily(projectors)
    assert [fam.run_start(k) for k in range(n)] == _starts(ids)
    assert validate_family(model, fam) == dense_validate_family(model, fam)
    for k_c in (n - 1, int(rng.integers(1, n))):
        cols = [0] + [i for i in range(1, d) if rng.random() < 0.5]
        x1 = schrodinger(model, rotated(cols, k_c), k_c)
        made, cond = outcome_of(lambda: ConditionSpec(model, fam, (x1 + x1.conj().T) / 2, k_c))
        if made:
            assert start_time(cond) == quadratic_start_time(cond)


def test_runs_are_decided_exactly():
    # records by size and labels, given matrices by object or by every
    # entry, bases by object alone; a 2e-9 near miss is not a run
    d = 4
    a, b = _record([0, 1], d), _record([0, 2], d)
    near = a.copy()
    near[0, 1] = near[1, 0] = 2e-9
    half = random_projector(np.random.default_rng(27), d, 2)
    basis = np.eye(d, dtype=complex)[:, :2]
    for fam, given, starts in (
            (PhysicalFamily([a, a.copy(), b, b]), [a, a, b, b], [0, 0, 2, 2]),
            (PhysicalFamily([a, near, near, a]), [a, near, near, a], [0, 1, 1, 3]),
            (PhysicalFamily([half, half.copy(), half + 2e-9, half]), None, [0, 0, 2, 3]),
            (PhysicalFamily.from_bases([basis, basis, basis.copy()]), None, [0, 0, 2])):
        assert [fam.run_start(k) for k in range(len(fam))] == starts
        if given is not None:
            assert all(map(np.array_equal, fam.projectors, given))


def test_a_run_of_one_given_projector_is_framed_once(monkeypatch):
    # sg-observers holds one non-record projector at both indices: one run
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(a) or eigh(*a, **kw))
    sc = builtin_scenario("sg-observers")
    assert [sc.fam.run_start(k) for k in range(2)] == [0, 0]
    for k in (0, 1):
        assert lift_predicate(sc.model, sc.predicate("O+z"), k).is_possible(sc.fam, k)
    assert len(calls) == 1
