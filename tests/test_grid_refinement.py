"""Grid refinement: inserting an identity step after index k, with P(k)
repeated at the new index, changes no probability and no verdict.

This is the discrete form of the paper's claim about measurements that
run continuously in time: refining the grid where nothing happens leaves
every rule value where it was, and with it the verifiability verdicts,
the trace identity, the dimension of Z and the measurement's kappa paths.  Indices after k shift by
one, and the start index T_s moves to the later copy when T_s = k lies
before the condition.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from physborn.born import OutcomeSet, prob_approx, prob_before, prob_forward
from physborn.condition import ConditionSpec, start_time
from physborn.errors import PhysbornError
from physborn.measurement import MeasurementProcess, kappa_path, outcome_probability
from physborn.model import Model, PhysicalFamily, TimeGrid
from physborn.scenarios import build_reference_experiment
from physborn.verify import verifiability, verify_trace_identity, z_subspace

from conftest import random_projector

REF = build_reference_experiment()
N = REF.model.n_indices
NAMES = sorted(REF.predicates)
RULES = {"forward": prob_forward, "before": prob_before, "approx": prob_approx}
# Outcomes for the verdicts: the records, and two seeded rank-one system1
# projectors off the record basis, which the records do not verify.
OUTCOMES = {**REF.predicates,
            **{f"mixed{i}": random_projector(np.random.default_rng(i), REF.model.d1, 1)
               for i in range(2)}}


def refine(model: Model, fam: PhysicalFamily, k: int) -> tuple:
    """The model and family with an identity step inserted after index k
    and P(k) repeated at the new index k + 1."""
    times = model.grid.times
    new = (times[k] + times[k + 1]) / 2 if k + 1 < len(times) else times[k] + 1.0
    grid = TimeGrid(times[:k + 1] + (new,) + times[k + 1:])
    steps = model.steps[:k] + (np.eye(model.dim, dtype=complex),) + model.steps[k:]
    projectors = fam.projectors[:k + 1] + (fam.at(k),) + fam.projectors[k + 1:]
    return Model(model.d1, model.d2, grid, steps, model.tol), PhysicalFamily(projectors)


REFINED = [refine(REF.model, REF.fam, k) for k in range(N)]


def _shift(j: int, k: int) -> int:
    """Where index j of the original grid sits after refining after k."""
    return j if j <= k else j + 1


def _evaluate(rule, model, fam, x, k_c, y, k_y, k0):
    """(result or None, refusal type or None, the condition's demand-(1)
    start index or None when the condition itself is refused)."""
    try:
        cond = ConditionSpec(model, fam, x, k_c)
    except PhysbornError as exc:
        return None, type(exc), None
    args = (cond, y, k_y) if rule == "approx" else (cond, y, k_y, k0)
    ts = start_time(cond).condition1_index
    try:
        return RULES[rule](*args), None, ts
    except PhysbornError as exc:
        return None, type(exc), ts


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    k=st.integers(0, N - 1),
    rule=st.sampled_from(sorted(RULES)),
    x=st.sampled_from(NAMES),
    k_c=st.integers(0, N - 1),
    y=st.sampled_from(NAMES),
    k_y=st.integers(0, N - 1),
    k0=st.integers(0, N - 1),
)
def test_refining_the_grid_leaves_rule_values_unchanged(k, rule, x, k_c, y, k_y, k0):
    px, py = REF.predicate(x), REF.predicate(y)
    before, refused, ts = _evaluate(rule, REF.model, REF.fam, px, k_c, py, k_y, k0)
    model, fam = REFINED[k]
    after, refused_after, ts_after = _evaluate(
        rule, model, fam, px, _shift(k_c, k), py, _shift(k_y, k), _shift(k0, k))
    assert refused_after is refused
    if ts is not None:
        later_copy = ts == k and k < k_c
        assert ts_after == _shift(ts, k) + later_copy
    if before is not None:
        for field in ("value", "numerator", "denominator"):
            assert abs(getattr(after, field) - getattr(before, field)) <= 1e-15


def _refusal_or(call):
    """(True, value), or (False, refusal type): refusal messages name
    indices, which refinement shifts."""
    try:
        return True, call()
    except PhysbornError as exc:
        return False, type(exc)


def _verdicts(model, fam, x, k_c, y, k_y):
    """The verifiability verdicts of {Y, I - Y} at k_y, the trace-identity
    residuals and the rank of Z for Y; the refusal type when the
    condition is refused."""
    ok, cond = _refusal_or(lambda: ConditionSpec(model, fam, x, k_c))
    if not ok:
        return cond
    outcomes = OutcomeSet((y, np.eye(model.d1) - y), k_y)
    report = _refusal_or(lambda: [v.verdict for v in verifiability(cond, outcomes).outcomes])
    residuals = _refusal_or(lambda: verify_trace_identity(cond, outcomes))
    z_rank = _refusal_or(lambda: round(np.trace(z_subspace(cond, y, k_y)).real))
    return report, residuals, z_rank


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    k=st.integers(0, N - 1),
    x=st.sampled_from(NAMES),
    k_c=st.integers(0, N - 1),
    y=st.sampled_from(sorted(OUTCOMES)),
    k_y=st.integers(0, N - 1),
)
def test_refining_the_grid_leaves_verdicts_and_z_unchanged(k, x, k_c, y, k_y):
    px, py = REF.predicate(x), OUTCOMES[y]
    before = _verdicts(REF.model, REF.fam, px, k_c, py, k_y)
    model, fam = REFINED[k]
    after = _verdicts(model, fam, px, _shift(k_c, k), py, _shift(k_y, k))
    if not isinstance(before, tuple):   # the condition itself is refused
        assert after is before
        return
    (report, residuals, z_rank), (report2, residuals2, z_rank2) = before, after
    assert report2 == report
    assert z_rank2 == z_rank
    assert residuals2[0] == residuals[0]
    if residuals[0]:
        assert max(residuals[1] + residuals2[1]) <= 1e-9
    else:
        assert residuals2[1] is residuals[1]


def _measurement(model, fam, k: int | None = None) -> MeasurementProcess:
    """I at t0 measured by Fup, Fdown at t1, on the grid refined after k
    (the reference grid when k is None)."""
    shift = (lambda j: j) if k is None else (lambda j: _shift(j, k))
    outcomes = OutcomeSet((REF.predicate("Fup"), REF.predicate("Fdown")), shift(REF.T1))
    return MeasurementProcess(model, fam, REF.predicate("I"), shift(REF.T0), outcomes)


def test_refining_the_grid_leaves_kappa_paths_unchanged():
    proc = _measurement(REF.model, REF.fam)
    for k in range(N):
        refined = _measurement(*REFINED[k], k)
        for i in range(len(proc.outcomes)):
            for rep in ("support", "observable"):
                path, path2 = kappa_path(proc, i, rep), kappa_path(refined, i, rep)
                for j in range(proc.k1, proc.k2 + 1):
                    assert np.max(np.abs(path2.at(_shift(j, k)) - path.at(j))) <= 1e-12
                assert abs(outcome_probability(refined, i, rep)
                           - outcome_probability(proc, i, rep)) <= 1e-12
