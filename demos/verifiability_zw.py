"""When is a conditional probability statement checkable in principle?

A statement is verifiable when the outcome observable commutes with the
physical projector and with the condition operator at the relevant
index. For verifiable pairs the physical outcome space splits into a Z
part (certainly consistent with the condition) and a W part (certainly
not), and a trace identity ties the probabilities to the Z part alone.
"""

from physborn import linalg
from physborn.born import OutcomeSet
from physborn.scenarios import build_reference_experiment
from physborn.verify import (
    verifiable_backward,
    verifiable_forward,
    verify_trace_identity,
    w_subspace,
    z_subspace,
)

exp = build_reference_experiment()

cond_i = exp.condition("I", exp.T0)
fwd = OutcomeSet(
    (exp.predicate("Fup"), exp.predicate("Fdown"), exp.predicate("blocked")),
    exp.T1,
)
report = verifiable_forward(cond_i, fwd)
print("forward verdict (I at t0 vs final records):", report.verdict)
for name in ("Fup", "Fdown", "blocked"):
    y = exp.predicate(name)
    rz = linalg.rank_of(z_subspace(cond_i, y, exp.T1), exp.model.tol)
    rw = linalg.rank_of(w_subspace(cond_i, y, exp.T1), exp.model.tol)
    print(f"  {name:8s} dim Z = {rz}  dim W = {rw}")
print("  trace identity residuals:",
      [f"{r:.2e}" for r in verify_trace_identity(cond_i, fwd)])
print()

cond_f = exp.condition("Fup", exp.T1)
bwd = OutcomeSet((exp.predicate("I"), exp.predicate("notI")), exp.T0)
report = verifiable_backward(cond_f, bwd)
print("backward verdict (F_up at t1 vs records at t0):", report.verdict)
for i, name in enumerate(("I", "notI")):
    y = bwd.projectors[i]
    rz = linalg.rank_of(z_subspace(cond_f, y, exp.T0), exp.model.tol)
    rw = linalg.rank_of(w_subspace(cond_f, y, exp.T0), exp.model.tol)
    print(f"  {name:8s} dim Z = {rz}  dim W = {rw}")
print("  trace identity residuals:",
      [f"{r:.2e}" for r in verify_trace_identity(cond_f, bwd)])
