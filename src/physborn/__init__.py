"""Finite-dimensional simulator for the physical-subspace-amended Born
rule: nested projector families over a time grid, trimmed conditioning,
five probability regimes, measurement kappa-paths, and verifiability
analysis."""

from __future__ import annotations

from .born import (
    OutcomeSet,
    ProbabilityResult,
    prob_approx,
    prob_before,
    prob_forward,
    prob_intermediate_full,
    prob_intermediate_known,
    prob_sequence,
)
from .condition import (
    ConditionSpec,
    ObservableRep,
    StartTime,
    condition_operator,
    observable_rep,
    start_time,
    support_at,
    trimmed,
)
from .errors import (
    DomainError,
    NotPhysicallyPossibleError,
    PhysbornError,
    ShapeError,
    UnreachableConditionError,
    UnverifiableSequenceError,
    ValidationError,
)
from .linalg import DEFAULT_TOL, Tolerance
from .measurement import (
    KappaPath,
    MeasurementProcess,
    kappa_path,
    outcome_probability,
    position_distribution,
    refine_outcomes,
    rho_path,
)
from .model import (
    Model,
    PhysicalFamily,
    StepBlock,
    TimeGrid,
    forward_closure,
    heisenberg,
    is_physically_possible,
    lift_system1,
    lift_system2,
    validate_family,
)
from .verify import (
    VerifiabilityReport,
    conditionally_realizable,
    observer_restriction_check,
    verifiability,
    verify_trace_identity,
    w_subspace,
    z_subspace,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
