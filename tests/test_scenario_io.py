"""Scenario file format: serialization, loading, and validation
messages."""

import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from physborn.born import prob_approx, prob_forward
from physborn.cli import main
from physborn.condition import ConditionSpec
from physborn.errors import ValidationError
from physborn.linalg import Tolerance
from physborn.model import Model, PhysicalFamily, TimeGrid
from physborn.scenario_io import (
    BUILTIN_SCENARIOS,
    builtin_scenario,
    dump_builtin,
    load_scenario,
    loads,
    serialize,
)

from conftest import random_model, random_nested_family, random_projector


def _pairs(v) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(v).reshape(-1)]


def test_builtin_names():
    assert "reference" in BUILTIN_SCENARIOS
    assert "sg-observers" in BUILTIN_SCENARIOS
    with pytest.raises(KeyError):
        builtin_scenario("no-such-scenario")


def test_reference_round_trip_preserves_probabilities():
    sc = loads(dump_builtin("reference"), "roundtrip")
    cond_i = ConditionSpec(sc.model, sc.fam, sc.predicate("I"), 1)
    assert abs(prob_forward(cond_i, sc.predicate("Fup"), 2).value - 0.5) <= 1e-9
    cond_f = ConditionSpec(sc.model, sc.fam, sc.predicate("Fup"), 2)
    assert abs(prob_approx(cond_f, sc.predicate("I"), 1).value - 1.0) <= 1e-9


def test_dump_is_deterministic():
    assert dump_builtin("reference") == dump_builtin("reference")
    assert dump_builtin("sg-observers") == dump_builtin("sg-observers")


def test_double_round_trip_is_stable():
    text = dump_builtin("reference")
    sc = loads(text, "rt")
    again = serialize(sc.name, sc.model, sc.fam, sc.predicates, sc.grid_names)
    assert text == again


def test_grid_name_resolution():
    sc = builtin_scenario("reference")
    assert sc.grid_index("ts") == 0
    assert sc.grid_index("t1") == 2
    assert sc.grid_index("2") == 2
    with pytest.raises(KeyError):
        sc.grid_index("t7")
    with pytest.raises(KeyError):
        sc.predicate("nope")


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(dump_builtin("reference"))
    sc = load_scenario(path)
    assert sc.model.d1 == 5 and sc.model.d2 == 10


def test_non_unitary_step_is_named():
    doc = json.loads(dump_builtin("reference"))
    doc["steps"][1][0][0] = [3.0, 0.0]
    with pytest.raises(ValidationError, match="step 1"):
        loads(json.dumps(doc), "broken")


def test_nesting_violation_cites_index_pair():
    doc = json.loads(dump_builtin("reference"))
    # swap the first and last family projectors: earlier range no longer
    # sits inside the later one
    projs = doc["family"]["projectors"]
    projs[0], projs[2] = projs[2], projs[0]
    with pytest.raises(ValidationError, match=r"\(0, 1\)|\(0, 2\)|\(1, 2\)"):
        loads(json.dumps(doc), "broken")


def test_bad_predicate_is_named():
    doc = json.loads(dump_builtin("reference"))
    doc["predicates"]["I"] = {"labels": [99]}
    with pytest.raises(ValidationError, match="'I'"):
        loads(json.dumps(doc), "broken")
    doc["predicates"]["I"] = {"matrix": [[[0.5, 0.0]] * 5] * 5}
    with pytest.raises(ValidationError, match="'I'"):
        loads(json.dumps(doc), "broken")


def _huge_entries(where: str) -> dict:
    """The reference document with entries too large to square: all of
    step 0 or of family projector 0 at 1e308 + 1e308j, predicate I all
    1e200, or I Hermitian with a 1e200 (1 + 1j) pair, whose square has
    NaN entries where P - P^dagger is exactly zero."""
    doc = json.loads(dump_builtin("reference"))
    if where == "step":
        doc["steps"][0] = [[[1e308, 1e308]] * 50] * 50
    elif where == "family":
        doc["family"]["projectors"][0] = [[[1e308, 1e308]] * 50] * 50
    elif where == "predicate":
        doc["predicates"]["I"] = {"matrix": [[[1e200, 0]] * 5] * 5}
    else:
        rows = [[[0.0, 0.0]] * 5 for _ in range(5)]
        rows[0][0] = rows[1][1] = [1e200, 0.0]
        rows[0][1], rows[1][0] = [1e200, 1e200], [1e200, -1e200]
        doc["predicates"]["I"] = {"matrix": rows}
    return doc


@pytest.mark.parametrize("where, message", [
    ("step", "{name}: step 0 is not unitary within eps_zero"),
    ("family", "family projector 0 is not a 50x50 projector"),
    ("predicate", "predicate 'I' is not a projector"),
    ("hermitian", "predicate 'I' is not a projector"),
])
def test_huge_finite_entries_fail_their_check_without_warnings(where, message, tmp_path):
    # a warning is an error under this suite's settings, and exit 2
    # carries the same message
    text = json.dumps(_huge_entries(where))
    with pytest.raises(ValidationError, match=f"^{re.escape(message.format(name='huge'))}$"):
        loads(text, "huge")
    path = tmp_path / "huge.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    assert main(["validate", str(path)], out, err) == 2
    assert err.getvalue() == f"validation error: {message.format(name=path)}\n"


@pytest.mark.parametrize("step, row, col, value", [
    (0, 5, 0, 1e200),   # inside the indices step 0 moves, too large to square
    (1, 1, 2, 1e-6),    # an entry of step 1 off the indices it moves
])
def test_a_broken_step_is_named_through_the_cli(step, row, col, value, tmp_path):
    # checked on the block of the indices the step moves, widened by an
    # entry off them: the dense check's exit code and message, no warning
    doc = json.loads(dump_builtin("reference"))
    doc["steps"][step][row][col] = [value, 0.0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    message = f"validation error: {path}: step {step} is not unitary within eps_zero\n"
    for args in (["validate", str(path)],
                 ["prob", "--scenario", str(path), "--rule", "forward",
                  "--cond", "I@t0", "--outcome", "Fup@t1"]):
        out, err = io.StringIO(), io.StringIO()
        assert main(args, out, err) == 2
        assert (out.getvalue(), err.getvalue()) == ("", message)


def test_parse_and_structure_errors():
    with pytest.raises(ValidationError, match="line"):
        loads("{not json", "broken")
    with pytest.raises(ValidationError, match="top level"):
        loads("[1, 2]", "broken")
    with pytest.raises(ValidationError, match="dimensions"):
        loads("{}", "broken")
    doc = json.loads(dump_builtin("reference"))
    del doc["family"]
    with pytest.raises(ValidationError, match="family"):
        loads(json.dumps(doc), "broken")
    doc = json.loads(dump_builtin("reference"))
    doc["family"] = {"type": "mystery"}
    with pytest.raises(ValidationError, match="mystery"):
        loads(json.dumps(doc), "broken")


def test_forward_closure_family_spec():
    sc = builtin_scenario("reference")
    doc = json.loads(dump_builtin("reference"))
    # re-express the family through generators instead of projectors
    from physborn.scenarios import (
        KET_X_DOWN,
        KET_X_UP,
        KET_Z_DOWN,
        KET_Z_UP,
        REC_F_DOWN,
        REC_F_UP,
        REC_READY,
        CELL_DET2,
        CELL_SOURCE,
        _basis_state,
    )

    doc["family"] = {
        "type": "forward-closure",
        "initial": [
            _pairs(_basis_state(REC_READY, KET_Z_UP, CELL_SOURCE)),
            _pairs(_basis_state(REC_READY, KET_Z_DOWN, CELL_SOURCE)),
        ],
        "extras": {
            "2": [
                _pairs(_basis_state(REC_F_UP, KET_X_UP, CELL_DET2)),
                _pairs(_basis_state(REC_F_DOWN, KET_X_DOWN, CELL_DET2)),
            ]
        },
    }
    loaded = loads(json.dumps(doc), "closure")
    for k in range(3):
        assert np.max(np.abs(loaded.fam.at(k) - sc.fam.at(k))) <= 1e-9


def _forward_closure_doc(index="x"):
    doc = json.loads(dump_builtin("reference"))
    projector = doc["family"]["projectors"][0]
    column = [row[0] for row in projector]   # a state in the index-0 range
    doc["family"] = {"type": "forward-closure", "initial": [column],
                     "extras": {index: [column]}}
    return doc


def _set(path, value, doc=None):
    """A dumped reference scenario with the entry at ``path`` replaced."""
    doc = doc or json.loads(dump_builtin("reference"))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _step_entry_with_a_third_number():
    doc = json.loads(dump_builtin("reference"))
    doc["steps"][0][0][0].append(99.0)
    return doc


@pytest.mark.parametrize("doc, field", [
    (lambda: _set(["grid"], ["a", "b"]), "grid"),
    (lambda: _set(["family"], []), "family"),
    (lambda: _set(["grid_names"], 5), "grid_names"),
    (lambda: _set(["predicates", "I", "labels"], ["x"]), "labels"),
    (lambda: _set(["predicates"], []), "predicates"),
    (lambda: _set(["steps"], 3), "steps"),
    (_forward_closure_doc, "extras"),
    (lambda: _set(["predicates", "I", "labels"], [0.5]), "labels"),
    (lambda: _set(["steps", 0, 0, 0], [float("nan"), 0.0]), "non-finite"),
    (lambda: _forward_closure_doc("0"), "extras"),
    (lambda: _forward_closure_doc("99"), "extras"),
    (lambda: _forward_closure_doc("-3"), "extras"),
    (_step_entry_with_a_third_number, "step 0: entries"),
    (lambda: _set(["family", "projectors"],
                  json.loads(dump_builtin("reference"))["family"]["projectors"][:-1]),
     "family has 2 projectors"),
    (lambda: _set(["grid", 2], 10 ** 400), "grid"),
], ids=["grid-strings", "family-list", "grid_names-int", "label-string",
        "predicates-list", "steps-int", "extras-key", "label-float", "step-nan",
        "extras-0", "extras-99", "extras-negative", "step-triple", "family-count",
        "grid-huge-int"])
def test_malformed_scenario_exits_two_naming_the_field(doc, field, tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc()))
    out, err = io.StringIO(), io.StringIO()
    code = main(["validate", str(path)], out, err)
    assert code == 2
    assert err.getvalue().startswith("validation error:")
    assert field in err.getvalue()
    assert "Traceback" not in err.getvalue()


def _huge_integer(where: str) -> dict:
    """The reference document with one entry an integer of 401 digits:
    in step 0, family projector 1, a predicate matrix, or, in the
    forward-closure form of :func:`_forward_closure_doc`, the initial
    state or the extra state at index 1."""
    huge = 10 ** 400
    if where == "step":
        return _set(["steps", 0, 0, 0], [huge, 0])
    if where == "family":
        return _set(["family", "projectors", 1, 0, 0], [0, huge])
    if where == "predicate":
        return _set(["predicates", "I"], {"matrix": [[[huge, 0]] * 5] * 5})
    doc = json.loads(json.dumps(_forward_closure_doc("1")))   # unshare the states
    vector = doc["family"]["initial" if where == "initial" else "extras"]
    vector = vector[0] if where == "initial" else vector["1"][0]
    vector[0] = [-huge, 0]
    return doc


@pytest.mark.parametrize("where, field", [
    ("step", "step 0"),
    ("family", "family projector 1"),
    ("predicate", "predicate 'I'"),
    ("initial", "family initial state 0"),
    ("extra", "family extra at index 1"),
])
def test_an_integer_beyond_the_float_range_is_a_non_finite_entry(where, field, tmp_path):
    # complex() of such an integer overflows; the entry is refused as
    # TimeGrid refuses such a time, with exit 2 and no traceback
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_huge_integer(where)))
    out, err = io.StringIO(), io.StringIO()
    assert main(["validate", str(path)], out, err) == 2
    assert (out.getvalue(), err.getvalue()) == (
        "", f"validation error: {field}: non-finite entry (NaN or infinity)\n")


def _boolean_entry(where: str) -> dict:
    """The reference document with one entry the pair [true, false]: in
    step 0, family projector 1, a predicate matrix, or the initial state
    of the forward-closure form of :func:`_forward_closure_doc`."""
    if where == "step":
        return _set(["steps", 0, 0, 0], [True, False])
    if where == "family":
        return _set(["family", "projectors", 1, 0, 0], [True, False])
    if where == "predicate":
        return _set(["predicates", "I"], {"matrix": [[[True, False]] * 5] * 5})
    doc = json.loads(json.dumps(_forward_closure_doc("1")))   # unshare the states
    doc["family"]["initial"][0][0] = [True, False]
    return doc


@pytest.mark.parametrize("where, field", [
    ("step", "step 0"),
    ("family", "family projector 1"),
    ("predicate", "predicate 'I'"),
    ("initial", "family initial state 0"),
])
def test_a_boolean_entry_is_refused_naming_its_field(where, field, tmp_path):
    # complex() reads true and false as 1 and 0; grid and labels already
    # refuse booleans, and so does every matrix and vector entry
    path = tmp_path / "boolean.json"
    path.write_text(json.dumps(_boolean_entry(where)))
    out, err = io.StringIO(), io.StringIO()
    assert main(["validate", str(path)], out, err) == 2
    assert (out.getvalue(), err.getvalue()) == (
        "", f"validation error: {field}: entries must be numbers\n")


def _vector_entry_with_a_third_number():
    doc = _forward_closure_doc("1")
    doc["family"]["initial"][0][0].append(9.0)
    return doc


@pytest.mark.parametrize("doc, message", [
    (lambda: _set(["dimensions", "d1"], "5"),
     "{path}: dimensions must carry integer d1 and d2"),
    (lambda: _set(["steps", 0], []),
     "step 0: expected a non-empty matrix of [re, im] pairs"),
    (_vector_entry_with_a_third_number,
     "family initial state 0: entries must be [re, im] pairs"),
    (lambda: _set(["family", "projectors", 0], [[[0.0, 0.0]] * 50] * 50),
     "family projector 0 is zero"),
    (lambda: _set(["predicates", "I"], {}),
     "predicate 'I' needs 'labels' or 'matrix'"),
    (lambda: _set(["predicates", "I"], {"matrix": [[[1.0, 0.0]]]}),
     "predicate 'I' has shape (1, 1), expected (5, 5)"),
    (lambda: _set(["grid_names"], ["ts", "t0"]),
     "{path}: grid_names length does not match the grid"),
    (lambda: _set(["grid_names"], ["a", "a", "a"]), "grid_names: repeated label 'a'"),
    (lambda: _set(["family", "extras", "02"], [], _forward_closure_doc("2")),
     "family extras: repeated index 2"),
], ids=["dimensions", "empty-matrix", "vector-pairs", "zero-projector",
        "predicate-form", "predicate-shape", "grid_names-length", "grid_names-repeated",
        "extras-repeated"])
def test_each_loads_refusal_exits_two_naming_its_field(doc, message, tmp_path):
    # one mutation of the reference dump per refusal of loads
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc()))
    out, err = io.StringIO(), io.StringIO()
    assert main(["validate", str(path)], out, err) == 2
    assert (out.getvalue(), err.getvalue()) == (
        "", f"validation error: {message.format(path=path)}\n")


# ---------------------------------------------------------------------------
# Dump bytes

DUMP_PINS = Path(__file__).parent / "golden" / "dumps.json"


def _seeded_scenario() -> tuple:
    """A d = 6 scenario built with elementwise arithmetic only, so that its
    dump is the same bytes wherever numpy runs: steps a phased permutation
    and a rotation block, a last grid time of 1e300, a dense non-diagonal
    predicate holding -0.0, 5e-324 and 1e300, and names with quotes,
    non-ASCII text and NUL characters.

    Returns ``(name, model, fam, predicates, grid_names, closure_spec)``.
    """
    rng = np.random.default_rng(20261018)
    d1, d2 = 3, 2
    d = d1 * d2
    a, b = rng.random(d) - 0.5, rng.random(d) - 0.5
    phased = np.eye(d)[rng.permutation(d)] * ((a + 1j * b) / np.sqrt(a * a + b * b))
    rotation = np.eye(d, dtype=complex)
    rotation[:2, :2] = [[0.6, -0.8j], [-0.8j, 0.6]]
    model = Model(d1, d2, TimeGrid((0.0, 0.5, 1e300)), (phased, rotation))
    plus = np.zeros((d, d), dtype=complex)
    plus[:2, :2] = 0.5
    fam = PhysicalFamily((plus, np.diag([1.0, 1, 0, 0, 0, 0]), np.diag([1.0, 1, 1, 1, 0, 0])))
    dense = rng.random((d1, d1)) + 1j * (rng.random((d1, d1)) - 0.5)
    dense[0, 1], dense[1, 0], dense[2, 2] = complex(-0.0, 5e-324), complex(1e300, -0.0), -5e-324
    predicates = {
        "labels": np.diag([1.0, 0.0, 1.0]),
        "dense": dense,
        "\x00": np.diag([0.0, 1.0, 0.0]),
        'qu"ote \\u0000 \x00': dense.conj().T,
        "d\u00e9j\u00e0 \u2205": np.eye(d1),
    }
    closure_spec = {
        "type": "forward-closure",
        "initial": [_pairs(np.eye(d)[0])],
        "extras": {"2": [_pairs((np.eye(d)[2] + np.eye(d)[3]) / np.sqrt(2))]},
        "note": ["\x00", "\\u0000", '"\x00"'],
    }
    return ("seeded \x00 scenario", model, fam, predicates, ("\x00", "t\u00bd", 't"2'),
            closure_spec)


def _dumps() -> dict:
    name, model, fam, predicates, grid_names, closure_spec = _seeded_scenario()
    return {
        "reference": dump_builtin("reference"),
        "sg-observers": dump_builtin("sg-observers"),
        "seeded-explicit": serialize(name, model, fam, predicates, grid_names),
        "seeded-closure": serialize(name, model, fam, predicates, grid_names,
                                    family_spec=closure_spec),
    }


def test_dumps_match_their_pinned_sha256():
    pins = json.loads(DUMP_PINS.read_text())
    got = {key: hashlib.sha256(text.encode()).hexdigest() for key, text in _dumps().items()}
    assert got == pins


def _matrix_to_pairs(m) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in np.asarray(m)]


def _legacy_dump(name, model, fam, predicates, grid_names=None, family_spec=None) -> str:
    """What ``serialize`` writes, rendered by ``json`` alone: every matrix
    as nested [re, im] lists, and a predicate as labels when its
    off-diagonal entries are zero and its diagonal entries 0 or 1."""
    eps = model.tol.eps_zero
    doc = {
        "format": 1,
        "name": name,
        "dimensions": {"d1": model.d1, "d2": model.d2},
        "grid": list(model.grid.times),
        "grid_names": list(grid_names or [str(k) for k in range(model.n_indices)]),
        "steps": [_matrix_to_pairs(u) for u in model.steps],
        "family": family_spec if family_spec is not None else {
            "type": "explicit", "projectors": [_matrix_to_pairs(p) for p in fam.projectors]},
        "predicates": {},
    }
    for pname, p in predicates.items():
        p = np.asarray(p, dtype=complex)
        diag = np.diag(p)
        if (np.max(np.abs(p - np.diag(diag))) <= eps
                and all(min(abs(x), abs(x - 1)) <= eps for x in diag)):
            doc["predicates"][pname] = {"labels": [i for i, x in enumerate(diag) if abs(x) > eps]}
        else:
            doc["predicates"][pname] = {"matrix": _matrix_to_pairs(p)}
    return json.dumps(doc, indent=2, sort_keys=True)


def _random_scenario(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    d1, d2, n = int(rng.integers(1, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 5))
    model = random_model(rng, d1, d2, n)
    fam = random_nested_family(rng, d1 * d2, n)
    predicates = {
        "projector": random_projector(rng, d1, int(rng.integers(1, d1 + 1))),
        "dense": rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1)),
        "transposed": np.asfortranarray(rng.standard_normal((d1, d1))).T,
        "labels": np.diag(rng.random(d1) < 0.5).astype(float),
    }
    closure = {"type": "forward-closure", "initial": [_pairs(rng.standard_normal(d1 * d2))],
               "extras": {}, "note": "\x00" * int(rng.integers(1, 4))}
    grid_names = ["\x00" * (k + 1) for k in range(n)]
    return f"random {seed}", model, fam, predicates, grid_names, closure


def test_dumps_equal_the_json_rendering_of_the_legacy_document():
    cases = [_seeded_scenario(), *(_random_scenario(seed) for seed in range(12))]
    for builtin in BUILTIN_SCENARIOS:
        sc = builtin_scenario(builtin)
        cases.append((sc.name, sc.model, sc.fam, sc.predicates, sc.grid_names, None))
    for name, model, fam, predicates, grid_names, closure in cases:
        for spec in (None, closure):
            want = _legacy_dump(name, model, fam, predicates, grid_names, spec)
            assert serialize(name, model, fam, predicates, grid_names, spec) == want, name


def test_unserializable_family_spec_raises_jsons_type_error():
    name, model, fam, predicates, grid_names, _ = _seeded_scenario()
    for bad in (object(), np.eye(2), {1j}):
        spec = {"type": "forward-closure", "initial": [bad]}
        with pytest.raises(TypeError) as want:
            _legacy_dump(name, model, fam, predicates, grid_names, spec)
        with pytest.raises(TypeError) as got:
            serialize(name, model, fam, predicates, grid_names, spec)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("diag", [[2.0, 0, 0, 0, 0], [-1.0, 1, 0, 0, 0]], ids=["two", "minus-one"])
def test_diagonal_non_projector_is_written_as_a_matrix_and_refused(diag):
    ref = builtin_scenario("reference")
    text = serialize("bad", ref.model, ref.fam, {"bad": np.diag(diag)}, ref.grid_names)
    assert "matrix" in json.loads(text)["predicates"]["bad"]
    with pytest.raises(ValidationError, match="predicate 'bad' is not a projector"):
        loads(text, "bad")


def test_labels_are_decided_within_the_model_tolerance():
    ref = builtin_scenario("reference")
    loose = Model(ref.model.d1, ref.model.d2, ref.model.grid, ref.model.steps,
                  Tolerance(1e-6, 1e-5))
    near = np.diag([1.0 + 1e-7, 0.0, 0.0, 0.0, 0.0])
    for model, kind in ((ref.model, "matrix"), (loose, "labels")):
        text = serialize("near", model, ref.fam, {"near": near})
        assert list(json.loads(text)["predicates"]["near"]) == [kind]
