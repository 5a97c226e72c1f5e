"""One tolerance per model: every decision below model construction uses
the model's ``Tolerance``, and no public function can fall back to the
library default."""

import ast
import inspect

import numpy as np
import pytest

from physborn import (
    born,
    cli,
    condition,
    linalg,
    measurement,
    model,
    scenario_io,
    scenarios,
    verify,
)
from physborn.born import OutcomeSet, prob_intermediate_full
from physborn.errors import DomainError
from physborn.linalg import DEFAULT_TOL, Tolerance
from physborn.measurement import MeasurementProcess
from physborn.scenarios import build_reference_experiment
from physborn.verify import verifiable_forward

MODULES = (linalg, model, condition, born, measurement, verify, scenarios, scenario_io, cli)

# Entry points that build a Model: the one place a caller picks a tolerance.
ENTRY_POINTS = {
    "model.Model",
    "scenarios.build_reference_experiment",
    "scenarios.build_redundant_record_experiment",
    "scenarios.build_sg_observer_space",
    "scenarios.intro_inconsistency_demo",
    "scenario_io.loads",
    "scenario_io.load_scenario",
    "scenario_io.builtin_scenario",
    "scenario_io.dump_builtin",
}
# The linalg predicates and checks, and the kappa path the library stamps
# with its model's tolerance: ``tol`` is required there.
REQUIRED = {
    *(f"linalg.{name}" for name in (
        "approx_equal", "is_hermitian", "is_unitary", "is_projector", "commutes",
        "support_projector", "rank_of", "projector_from_span", "orthogonal_projectors",
    )),
    "measurement.KappaPath",
}


def _public_callables():
    """(qualified name, object) for every public function, class
    (exceptions aside) and method defined in the package's modules."""
    for mod in MODULES:
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{name}", obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                yield f"{short}.{name}", obj
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        yield f"{short}.{name}.{attr}", member


def test_tol_is_a_parameter_only_of_entry_points_and_linalg_predicates():
    found = {}
    for qualname, obj in _public_callables():
        params = inspect.signature(obj).parameters
        if "tol" in params:
            found[qualname] = params["tol"].default
    assert set(found) == ENTRY_POINTS | REQUIRED
    for qualname in ENTRY_POINTS:
        assert found[qualname] is DEFAULT_TOL, qualname
    for qualname in REQUIRED:
        assert found[qualname] is inspect.Parameter.empty, qualname


def test_default_tolerance_is_read_only_as_an_entry_point_default():
    for mod in MODULES:
        tree = ast.parse(inspect.getsource(mod))
        short = mod.__name__.rpartition(".")[2]
        allowed = set()
        for node in ast.walk(tree):
            if f"{short}.{getattr(node, 'name', '')}" not in ENTRY_POINTS:
                continue
            if isinstance(node, ast.FunctionDef):
                defaults = node.args.defaults + node.args.kw_defaults
            else:   # a dataclass: its field defaults
                defaults = [s.value for s in node.body if isinstance(s, ast.AnnAssign)]
            allowed |= {id(n) for d in defaults if d is not None for n in ast.walk(d)}
        reads = [
            node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "DEFAULT_TOL"
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == "DEFAULT_TOL")
            and id(node) not in allowed
        ]
        assert not reads, f"{mod.__name__} reads DEFAULT_TOL at lines {reads}"


# ---------------------------------------------------------------------------
# The outcome-set check follows the model's tolerance in both directions.


def _consumers(ref):
    """The three consumers of an outcome set, each given a set at the index
    it needs: a measurement from I at t0, the intermediate rule under
    Fup at t1, and the forward verdict under I at t0."""
    return {
        "measurement": (ref.T1, lambda outcomes: MeasurementProcess(
            ref.model, ref.fam, ref.predicate("I"), ref.T0, outcomes)),
        "intermediate_full": (ref.T0, lambda outcomes: prob_intermediate_full(
            ref.condition("Fup", ref.T1), outcomes, 0)),
        "verifiable_forward": (ref.T1, lambda outcomes: verifiable_forward(
            ref.condition("I", ref.T0), outcomes)),
    }


def _labels(k, ref):
    """The two record labels at index k and their complement."""
    a, b = ("I", "blocked") if k == ref.T0 else ("Fup", "Fdown")
    ya, yb = ref.predicate(a), ref.predicate(b)
    return ya, yb, np.eye(ref.model.d1) - ya - yb


def test_a_near_projector_set_is_accepted_within_a_loose_model_tolerance():
    ref = build_reference_experiment(Tolerance(1e-6, 1e-5))
    strict = _consumers(build_reference_experiment())
    e00 = np.zeros((ref.model.d1, ref.model.d1))
    e00[0, 0] = 1e-8        # off by 1e-8: a projector within eps_zero = 1e-6 only
    for name, (k, consume) in _consumers(ref).items():
        ya, yb, rest = _labels(k, ref)
        outcomes = OutcomeSet((ya + e00, yb, rest), k, complete=True)
        consume(outcomes)
        # the same set is refused under the default tolerance
        with pytest.raises(DomainError, match="must be projectors"):
            strict[name][1](outcomes)


def test_an_overlap_above_a_tight_model_tolerance_is_refused():
    ref = build_reference_experiment(Tolerance(1e-12, 1e-10))
    default = _consumers(build_reference_experiment())
    theta = 1e-10          # overlap of about 1e-10: above eps_zero = 1e-12
    for name, (k, consume) in _consumers(ref).items():
        ya, yb, rest = _labels(k, ref)
        # ya turned by theta towards yb: a projector, but not orthogonal to yb
        i, j = np.flatnonzero(np.diag(ya)).item(), np.flatnonzero(np.diag(yb)).item()
        v = np.zeros(ref.model.d1)
        v[i], v[j] = np.cos(theta), np.sin(theta)
        tilted = np.outer(v, v)
        assert linalg.is_projector(tilted, ref.model.tol)
        outcomes = OutcomeSet((tilted, yb, rest), k, complete=True)
        with pytest.raises(DomainError, match="pairwise orthogonal"):
            consume(outcomes)
        # the same set passes under the default tolerance
        default[name][1](outcomes)
