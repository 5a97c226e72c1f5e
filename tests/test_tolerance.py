"""One tolerance per model: every decision below model construction uses
the model's ``Tolerance``, and no public function can fall back to the
library default."""

import ast
import dataclasses
import inspect
from functools import partial
from types import SimpleNamespace

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
from physborn.model import forward_closure, validate_family
from physborn.scenario_io import builtin_scenario
from physborn.scenarios import build_redundant_record_experiment, build_reference_experiment
from physborn.verify import verifiability

from conftest import bench_chain

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
        "within_zero", "support_projector", "range_basis", "rank_cut",
        "check_eps_eig", "orthogonal_projectors", "near_record_labels",
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


def _attribute_reads(tree, attr: str) -> list:
    """(enclosing name, node) for every ``.attr`` in a module's tree, the
    name being the dotted path of the innermost enclosing def or class."""
    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}"
            elif isinstance(child, ast.Attribute) and child.attr == attr:
                found.append((name, child))
            visit(child, inner)

    visit(tree, "")
    return found


def test_eps_eig_is_read_by_the_cut_the_range_check_and_the_floor_alone():
    readers = set()
    for mod in MODULES:
        tree = ast.parse(inspect.getsource(mod))
        short = mod.__name__.rpartition(".")[2]
        # the CLI hands eps_eig to a Tolerance: the parser default, and the
        # parsed value given to the constructor
        handed = {id(n) for call in ast.walk(tree) if isinstance(call, ast.Call)
                  and (getattr(call.func, "attr", None) == "add_argument"
                       or getattr(call.func, "id", None) == "Tolerance")
                  for n in ast.walk(call)} if mod is cli else set()
        readers |= {short + name for name, node in _attribute_reads(tree, "eps_eig")
                    if id(node) not in handed}
    assert readers == {"linalg.Tolerance.__post_init__", "linalg.rank_cut",
                       "linalg.check_eps_eig"}


# ---------------------------------------------------------------------------
# One rank cut above the rounding floor: ranks and nesting do not move.

# eps_eig from the default down to 1e-27, every value above the floor of
# each model below (5.1e-28 at the chain's d = 102)
EPS_EIG_GRID = [10.0 ** -e for e in range(7, 28)]


def _ranks(fam) -> list:
    return [round(np.trace(fam.at(k)).real) for k in range(len(fam))]


def _chain_8(tol):
    c, m, _ = bench_chain(8)
    m = dataclasses.replace(m, tol=tol)
    return SimpleNamespace(model=m, fam=forward_closure(m, c.initial, c.extras))


@pytest.mark.parametrize("build", [
    _chain_8, partial(builtin_scenario, "reference"), partial(builtin_scenario, "sg-observers"),
    build_redundant_record_experiment,
], ids=["chain-8", "reference", "sg-observers", "redundant-record"])
def test_ranks_and_nesting_hold_down_to_the_rounding_floor(build):
    default = build(DEFAULT_TOL)
    floor = (default.model.dim * np.finfo(float).eps) ** 2
    for eps_eig in EPS_EIG_GRID + [np.nextafter(floor, 1)]:
        ex = build(Tolerance(DEFAULT_TOL.eps_zero, eps_eig))
        assert _ranks(ex.fam) == _ranks(default.fam), eps_eig
        assert validate_family(ex.model, ex.fam).passed, eps_eig


def test_an_eps_eig_at_or_below_the_rounding_floor_is_refused():
    ref = build_reference_experiment()
    floor = (50 * np.finfo(float).eps) ** 2            # 1.23e-28 at d = 50
    assert ref.model.dim == 50
    above = dataclasses.replace(ref.model, tol=Tolerance(1e-9, np.nextafter(floor, 1)))
    assert above.tol.eps_eig > floor
    for eps_eig in (floor, np.nextafter(floor, 0), 1e-32, 5e-324):
        with pytest.raises(DomainError, match=r"eps_eig = .* lies at or below the rounding "
                           r"floor \(d eps\)\^2 = 1.23e-28 of dimension d = 50"):
            dataclasses.replace(ref.model, tol=Tolerance(1e-9, eps_eig))
    # the floor grows as d^2: 4.9e-26 at d = 1000
    with pytest.raises(DomainError, match="4.93e-26 of dimension d = 1000"):
        linalg.check_eps_eig(Tolerance(1e-9, 4.9e-26), 1000)
    linalg.check_eps_eig(Tolerance(1e-9, 5e-26), 1000)


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
        "verifiability": (ref.T1, lambda outcomes: verifiability(
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
