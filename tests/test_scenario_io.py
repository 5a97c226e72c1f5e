"""Scenario file format: serialization, loading, and validation
messages."""

import hashlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physborn.born import prob_approx, prob_forward
from physborn.cli import main
from physborn.condition import ConditionSpec
from physborn.errors import ValidationError
from physborn.linalg import Tolerance, is_projector
from physborn.model import Model, PhysicalFamily, TimeGrid
from physborn.scenario_io import (
    BUILTIN_SCENARIOS,
    DENSE_BUDGET,
    builtin_scenario,
    dump_builtin,
    load_scenario,
    loads,
    serialize,
)

from conftest import (
    bench_chain,
    format_1_document,
    random_model,
    random_nested_family,
    random_projector,
)


def _pairs(v) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(v).reshape(-1)]


def _reference_1() -> dict:
    """The dumped reference scenario as a format-1 document: every step
    and family projector a dense matrix of [re, im] pairs."""
    return format_1_document(dump_builtin("reference"))


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


@pytest.mark.parametrize("version", [1, 2])
def test_non_unitary_step_is_named(version):
    if version == 1:
        doc = _reference_1()
        doc["steps"][1][0][0] = [3.0, 0.0]
    else:
        doc = json.loads(dump_builtin("reference"))
        doc["steps"][1]["block"][0][0] = [3.0, 0.0]
    with pytest.raises(ValidationError, match="^broken: step 1 is not unitary"):
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
    doc = _reference_1()
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
    doc = _reference_1()
    projector = doc["family"]["projectors"][0]
    column = [row[0] for row in projector]   # a state in the index-0 range
    doc["family"] = {"type": "forward-closure", "initial": [column],
                     "extras": {index: [column]}}
    return doc


def _set(path, value, doc=None):
    """A dumped reference scenario, as a format-1 document, with the entry
    at ``path`` replaced."""
    doc = doc or _reference_1()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _step_entry_with_a_third_number():
    doc = _reference_1()
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
    (lambda: _forward_closure_doc("0_1"), "family extras: index '0_1' is not an integer"),
    (_step_entry_with_a_third_number, "step 0: entries"),
    (lambda: _set(["family", "projectors"],
                  _reference_1()["family"]["projectors"][:-1]),
     "family has 2 projectors"),
    (lambda: _set(["grid", 2], 10 ** 400), "grid"),
], ids=["grid-strings", "family-list", "grid_names-int", "label-string",
        "predicates-list", "steps-int", "extras-key", "label-float", "step-nan",
        "extras-0", "extras-99", "extras-negative", "extras-underscore", "step-triple",
        "family-count", "grid-huge-int"])
def test_malformed_scenario_exits_two_naming_the_field(doc, field, tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc()))
    out, err = io.StringIO(), io.StringIO()
    code = main(["validate", str(path)], out, err)
    assert code == 2
    assert err.getvalue().startswith("validation error:")
    assert field in err.getvalue()
    assert "Traceback" not in err.getvalue()


def _set_matrix_entry(where: str, value) -> dict | None:
    """The reference document with the first written entry of step 0 or
    of family projector 1 replaced: in the format-1 document (``where``
    "step" or "family") or in that matrix's block in the dump ("step
    block" or "family block"); None for any other ``where``."""
    kind, _, block = where.partition(" ")
    if kind not in ("step", "family"):
        return None
    path = ["steps", 0] if kind == "step" else ["family", "projectors", 1]
    if block:
        return _set(path + ["block", 0, 0], value, json.loads(dump_builtin("reference")))
    return _set(path + [0, 0], value)


def _huge_integer(where: str) -> dict:
    """The reference document with one entry an integer of 401 digits:
    in step 0 or family projector 1 (:func:`_set_matrix_entry`), a
    predicate matrix, or, in the forward-closure form of
    :func:`_forward_closure_doc`, the initial state or the extra state at
    index 1."""
    huge = 10 ** 400
    doc = _set_matrix_entry(where, [huge, 0] if where.startswith("step") else [0, huge])
    if doc is not None:
        return doc
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
    ("step block", "step 0"),
    ("family block", "family projector 1"),
])
def test_an_integer_beyond_the_float_range_is_a_non_finite_entry(where, field, tmp_path):
    # complex() of such an integer overflows; the entry is refused as
    # TimeGrid refuses such a time, with exit 2 and no traceback, and with
    # one message whether the matrix is written dense or as a block
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_huge_integer(where)))
    out, err = io.StringIO(), io.StringIO()
    assert main(["validate", str(path)], out, err) == 2
    assert (out.getvalue(), err.getvalue()) == (
        "", f"validation error: {field}: non-finite entry (NaN or infinity)\n")


def _boolean_entry(where: str) -> dict:
    """The reference document with one entry the pair [true, false]: in
    step 0 or family projector 1 (:func:`_set_matrix_entry`), a predicate
    matrix, or the initial state of the forward-closure form of
    :func:`_forward_closure_doc`."""
    doc = _set_matrix_entry(where, [True, False])
    if doc is not None:
        return doc
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
    ("step block", "step 0"),
    ("family block", "family projector 1"),
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


def _set_2(path, value):
    """The reference dump, a format-2 document, with the entry at
    ``path`` replaced."""
    return _set(path, value, json.loads(dump_builtin("reference")))


# a label that is not an integer in 0..d1-1, its text in the refusal
# (braces doubled for str.format) and its test id
LABELS = [(0.5, "0.5", "half"), (True, "True", "true"), (False, "False", "false"),
          ("0", "'0'", "string"), (None, "None", "null"), (5, "5", "d1"), (-1, "-1", "negative"),
          (10 ** 400, str(10 ** 400), "huge"), ([0], "[0]", "list"), (float("nan"), "nan", "nan"),
          (1.0, "1.0", "float"), ({"a": 1}, "{{'a': 1}}", "object")]


def _block_without_its_last_row():
    doc = json.loads(dump_builtin("reference"))
    del doc["steps"][0]["block"][-1]
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
    (lambda: _set_2(["steps", 1, "indices", 0], 28),
     "{path}: step 1 indices: 28 follows 28; indices must be strictly increasing"),
    (lambda: _set_2(["family", "projectors", 2, "indices", 1], 0),
     "family projector 2 indices: 0 follows 0; indices must be strictly increasing"),
    (lambda: _set_2(["steps", 1, "indices", 1], 3),
     "{path}: step 1 indices: 3 follows 23; indices must be strictly increasing"),
    (lambda: _set_2(["steps", 0, "indices", 0], -1),
     "{path}: step 0 indices: -1 is not an integer in 0..49"),
    (lambda: _set_2(["steps", 0, "indices", 5], 50),
     "{path}: step 0 indices: 50 is not an integer in 0..49"),
    (lambda: _set_2(["steps", 0, "indices", 1], 5.0),
     "{path}: step 0 indices: 5.0 is not an integer in 0..49"),
    (lambda: _set_2(["family", "projectors", 0, "indices", 0], True),
     "family projector 0 indices: True is not an integer in 0..49"),
    (lambda: _set_2(["family", "projectors", 0, "indices"], [0, 5, 6]),
     "family projector 0 block: expected a 3x3 matrix of [re, im] pairs, "
     "one row and column per index"),
    (lambda: _set_2(["steps", 0, "indices"], 3), "step 0 indices must be a list"),
    (_block_without_its_last_row,
     "step 0 block: expected a 6x6 matrix of [re, im] pairs, one row and column per index"),
    (lambda: _set_2(["steps", 0], {"indices": [0]}), "step 0 block must be a list"),
    (lambda: _set_2(["family", "projectors", 0], {"indices": [], "block": [[]]}),
     "family projector 0 block: expected a 0x0 matrix of [re, im] pairs, "
     "one row and column per index"),
    (lambda: _set_2(["family", "projectors", 0], {"indices": [], "block": []}),
     "family projector 0 is zero"),
    (lambda: _set_2(["dimensions", "d1"], 10 ** 400),
     f"{{path}}: dimensions d1 = {10 ** 400}, d2 = 10 need more than the 1073741824 bytes of "
     "dense complex matrices a scenario may use"),
    (lambda: _set_2(["dimensions", "d2"], 10 ** 5),
     "{path}: dimensions d1 = 5, d2 = 100000 need more than the 1073741824 bytes of "
     "dense complex matrices a scenario may use"),
    (lambda: _set_2(["dimensions", "d2"], 0), "{path}: subsystem dimensions must be positive"),
    (lambda: _set_2(["format"], 3), "{path}: format must be 1 or 2, got 3"),
    (lambda: _set_2(["format"], True), "{path}: format must be 1 or 2, got True"),
    (lambda: _set_2(["format"], 2.0), "{path}: format must be 1 or 2, got 2.0"),
    (lambda: _set_2(["format"], "2"), "{path}: format must be 1 or 2, got '2'"),
    (lambda: _set_2(["grid_names"], ["ts", None, "t1"]), "grid_names: entries must be strings"),
    *[(lambda label=label: _set_2(["predicates", "I", "labels"], [2, label]),
       f"predicate 'I' labels: {text} is not an integer in 0..4")
      for label, text, _ in LABELS],
    (lambda: _set_2(["predicates", "I", "labels"], 2), "predicate 'I' labels must be a list"),
], ids=["dimensions", "empty-matrix", "vector-pairs", "zero-projector",
        "predicate-form", "predicate-shape", "grid_names-length", "grid_names-repeated",
        "extras-repeated", "indices-repeated-step", "indices-repeated-projector",
        "indices-unsorted", "indices-negative", "indices-beyond", "indices-float",
        "indices-boolean", "indices-longer", "indices-int", "block-shape", "block-missing",
        "block-empty-row", "support-empty", "dimensions-huge", "dimensions-beyond-budget",
        "dimensions-zero", "format-3",
        "format-boolean", "format-float", "format-string", "grid_names-null",
        *[f"label-{name}" for _, _, name in LABELS], "labels-int"])
def test_each_loads_refusal_exits_two_naming_its_field(doc, message, tmp_path):
    # one mutation of the reference dump, as format 1 or 2, per refusal
    # of loads
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc()))
    out, err = io.StringIO(), io.StringIO()
    assert main(["validate", str(path)], out, err) == 2
    assert (out.getvalue(), err.getvalue()) == (
        "", f"validation error: {message.format(path=path)}\n")


@pytest.mark.parametrize("d1, d2, projectors, predicates, admitted", [
    # the n = 40 chain: 40 steps, 41 grid indices and 41 projectors at
    # d = 486, about 0.46 GB of dense matrices
    (81, 6, 41, 0, True),
    # d = 4096: 16 d^2 bytes times 4 d x d matrices is the budget exactly,
    # with no room for one more projector or one d1 x d1 predicate
    (4096, 1, 1, 0, True),
    (4096, 1, 2, 0, False),
    (4096, 1, 1, 1, False),
    # d1 = 2048: 4 d x d matrices and 12 predicates are the budget exactly
    (2048, 1, 1, 12, True),
    (2048, 1, 1, 13, False),
], ids=["chain-40", "at-budget", "one-projector-more", "one-predicate-more",
        "predicates-at-budget", "one-predicate-beyond"])
def test_the_dense_budget_admits_the_chain_and_refuses_one_matrix_more(d1, d2, projectors,
                                                                       predicates, admitted):
    # an admitted document is refused by its 2 x 2 steps, whose shapes are
    # checked before any d x d matrix is built; the chain has 40 steps,
    # the others one
    steps = 40 if d1 == 81 else 1
    doc = {"format": 2, "dimensions": {"d1": d1, "d2": d2},
           "grid": [float(k) for k in range(steps + 1)],
           "steps": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]] * steps,
           "family": {"type": "explicit", "projectors": [[]] * projectors},
           "predicates": {f"p{i}": {"labels": []} for i in range(predicates)}}
    d = d1 * d2
    message = (f"step 0 has shape (2, 2), expected ({d}, {d})" if admitted else
               f"dimensions d1 = {d1}, d2 = {d2} need more than the 1073741824 bytes of "
               "dense complex matrices a scenario may use")
    assert DENSE_BUDGET == 2 ** 30
    with pytest.raises(ValidationError, match=f"^budget: {re.escape(message)}$"):
        loads(json.dumps(doc), "budget")


@pytest.mark.parametrize("before, after, key", [
    ('"predicates": {', '"predicates": {"I": {"labels": [0]}, ', "I"),
    ('"family": {', '"family": {"type": "forward-closure", ', "type"),
    ('"indices": [', '"block": [], "indices": [', "block"),
], ids=["predicate-name", "family-type", "block"])
def test_a_repeated_key_exits_two_naming_it(before, after, key, tmp_path):
    # json keeps the later of two entries with one name; loads refuses both
    text = dump_builtin("reference").replace(before, after, 1)
    path = tmp_path / "repeated.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    assert main(["validate", str(path)], out, err) == 2
    assert (out.getvalue(), err.getvalue()) == (
        "", f"validation error: {path}: repeated key {key!r} in one object\n")


def test_a_document_without_format_is_format_1_and_both_forms_load_in_either():
    ref = builtin_scenario("reference")
    doc = _reference_1()
    del doc["format"]
    mixed = json.loads(dump_builtin("reference"))
    mixed["format"], mixed["steps"][0] = 1, doc["steps"][0]
    for d in (doc, mixed, dict(doc, format=2)):
        sc = loads(json.dumps(d), "any")
        assert all(map(np.array_equal, sc.model.steps, ref.model.steps))
        assert all(map(np.array_equal, sc.fam.projectors, ref.fam.projectors))


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


def _support(m, base: int) -> list:
    """The indices of the rows and columns of m - base I holding a
    nonzero entry, found by comparing Python complex numbers."""
    rows = np.asarray(m).tolist()
    off = lambda i, j: rows[i][j] != (base if i == j else 0)      # noqa: E731
    return [i for i in range(len(rows)) if any(off(i, j) or off(j, i) for j in range(len(rows)))]


def _block_entry(m, base: int):
    """A step (base 1) or family projector (base 0) as format 2 writes it:
    ``{"indices": S, "block": m[S, S]}``, or the dense matrix when S is
    every index."""
    s = _support(m, base)
    if len(s) == len(m):
        return _matrix_to_pairs(m)
    return {"indices": s, "block": _matrix_to_pairs(np.asarray(m)[np.ix_(s, s)])}


def _json_dump(version, name, model, fam, predicates, grid_names=None, family_spec=None) -> str:
    """A scenario rendered by ``json`` alone, in format 1 (every matrix as
    nested [re, im] lists) or format 2 (steps and family projectors as
    :func:`_block_entry` writes them); a predicate is written as labels
    when its off-diagonal entries are zero and its diagonal entries 0 or
    1."""
    eps = model.tol.eps_zero
    entry = _block_entry if version == 2 else lambda m, base: _matrix_to_pairs(m)
    doc = {
        "format": version,
        "name": name,
        "dimensions": {"d1": model.d1, "d2": model.d2},
        "grid": list(model.grid.times),
        "grid_names": list(grid_names or [str(k) for k in range(model.n_indices)]),
        "steps": [entry(u, 1) for u in model.steps],
        "family": family_spec if family_spec is not None else {
            "type": "explicit", "projectors": [entry(p, 0) for p in fam.projectors]},
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


def _builtin_cases() -> list:
    cases = []
    for builtin in BUILTIN_SCENARIOS:
        sc = builtin_scenario(builtin)
        cases.append((sc.name, sc.model, sc.fam, sc.predicates, sc.grid_names, None))
    return cases


def test_dumps_equal_the_json_rendering_of_the_format_2_document():
    cases = [_seeded_scenario(), *(_random_scenario(seed) for seed in range(12)),
             *_builtin_cases()]
    for name, model, fam, predicates, grid_names, closure in cases:
        for spec in (None, closure):
            want = _json_dump(2, name, model, fam, predicates, grid_names, spec)
            assert serialize(name, model, fam, predicates, grid_names, spec) == want, name


def test_a_dump_writes_each_matrix_by_its_support():
    # the reference moves 6 of its 50 indices per step; sg-observers has a
    # step that moves nothing, written with the empty block
    ref = json.loads(dump_builtin("reference"))
    assert [len(u["indices"]) for u in ref["steps"]] == [6, 6]
    assert all(isinstance(p, dict) for p in ref["family"]["projectors"])
    sg = json.loads(dump_builtin("sg-observers"))
    assert {"indices": [], "block": []} in sg["steps"]
    # a Haar step and the identity family stay dense
    rng = np.random.default_rng(5)
    haar = Model(2, 2, TimeGrid((0.0, 1.0)), (np.linalg.qr(rng.standard_normal((4, 4)))[0],))
    doc = json.loads(serialize("haar", haar, PhysicalFamily((np.eye(4),) * 2), {}))
    assert [len(m) for m in doc["steps"] + doc["family"]["projectors"]] == [4] * 3


def _loaded(text: str):
    sc = loads(text, "lossless")
    return sc.model.steps, sc.fam.projectors, sc.predicates


def _same_matrices(a, b) -> bool:
    return len(a) == len(b) and all(map(np.array_equal, a, b))


def test_format_1_and_format_2_files_load_to_equal_objects():
    # lossless: the format-1 text and the dump load to steps and projectors
    # equal to the scenario's, and to equal predicates; only projector
    # predicates, which loads accepts, are written
    cases = [_seeded_scenario(), *(_random_scenario(seed) for seed in range(30)),
             *_builtin_cases()]
    for name, model, fam, predicates, grid_names, closure in cases:
        predicates = {k: v for k, v in predicates.items() if is_projector(v, model.tol)}
        for spec in (None, closure):
            old_steps, old_projs, old_preds = _loaded(
                _json_dump(1, name, model, fam, predicates, grid_names, spec))
            steps, projs, preds = _loaded(serialize(name, model, fam, predicates,
                                                    grid_names, spec))
            assert _same_matrices(steps, model.steps) and _same_matrices(old_steps, steps)
            assert _same_matrices(old_projs, projs)
            if spec is None:
                assert _same_matrices(projs, fam.projectors)
            assert sorted(old_preds) == sorted(preds) == sorted(predicates)
            assert all(np.array_equal(old_preds[k], preds[k]) for k in preds)


def test_unserializable_family_spec_raises_jsons_type_error():
    name, model, fam, predicates, grid_names, _ = _seeded_scenario()
    for bad in (object(), np.eye(2), {1j}):
        spec = {"type": "forward-closure", "initial": [bad]}
        with pytest.raises(TypeError) as want:
            _json_dump(2, name, model, fam, predicates, grid_names, spec)
        with pytest.raises(TypeError) as got:
            serialize(name, model, fam, predicates, grid_names, spec)
        assert str(got.value) == str(want.value)


class _Float(float):
    """A float subclass whose repr is not the text json writes for it."""

    def __repr__(self):
        return "not json's text"

    __str__ = __repr__


_NAN, _INF = float("nan"), float("inf")
# lists of [re, im] pairs that a dump may write by template, and lists
# next to them that json must lay out itself
HOLD_CASES = {
    "floats": [[0.5, -0.25], [1e300, 5e-324], [-0.0, 0.0]],
    "ints": [[1, 0], [0.5, 0]],
    "bools": [[True, 0.0], [0.5, False]],
    "nan": [[_NAN, 0.0], [0.5, 0.5]],
    "inf": [[0.5, _INF]],
    "minus-inf": [[-_INF, 0.0]],
    "overflowing-sum": [[1e308, 1e308], [1e308, 0.0]],
    "float64": [[np.float64(0.1), 0.2], [0.3, 0.4]],
    "subclass": [[_Float(0.5), 0.0]],
    "tuples": [(0.5, 0.0), [0.25, 0.0]],
    "tuple-of-pairs": ([0.5, 0.0], [0.25, 0.0]),
    "three-entries": [[0.5, 0.0, 1.0], [0.5, 0.0]],
    "one-entry": [[0.5], [0.5, 0.0]],
    "empty": [],
    "empty-pair": [[]],
    "matrix": [[[0.5, 0.0], [0.25, -0.0]], [[1.0, 2.0], [3.0, 4.0]]],
    "mixed": [[[0.5, 0.0]], [[1, 0]], [], "\x00", None, [[0.1, 0.2], [0.3, 0.4]]],
    "int-keys": {2: [[0.5, 0.0]], 1: [[1.0, 0.0]], True: [[0.25, 0.0]]},
    "none-key": {None: [[0.5, 0.0]]},
    "nul": {"\x00": [[0.5, 0.0]], "\x00\x00": ["\x00", [[0.25, 0.0]]], "x": "\x00"},
}


def _closure_spec(value) -> dict:
    _, _, _, _, _, spec = _seeded_scenario()
    return dict(spec, extra=value)


def _same_dump(spec) -> None:
    """serialize writes the spec as json alone does, or raises json's
    exception, and leaves the caller's spec as it was."""
    name, model, fam, predicates, grid_names, _ = _seeded_scenario()
    before = repr(spec)
    try:
        want = _json_dump(2, name, model, fam, predicates, grid_names, spec)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            serialize(name, model, fam, predicates, grid_names, spec)
        assert str(got.value) == str(exc)
    else:
        assert serialize(name, model, fam, predicates, grid_names, spec) == want
    assert repr(spec) == before


@pytest.mark.parametrize("case", HOLD_CASES)
def test_a_closure_spec_is_written_as_json_writes_it(case):
    _same_dump(_closure_spec(HOLD_CASES[case]))


def test_a_spec_that_json_refuses_raises_jsons_exception():
    cyclic_dict = _closure_spec([[0.5, 0.0]])
    cyclic_dict["extras"]["2"].append(cyclic_dict)
    cyclic_list = [[0.5, 0.0]]
    cyclic_list.append([[0.25, 0.0], cyclic_list])
    for spec in (cyclic_dict, _closure_spec(cyclic_list),
                 _closure_spec([[[0.5, 0.0]], object()]),
                 _closure_spec({1: [[0.5, 0.0]], "1": [[0.5, 0.0]]}),
                 _closure_spec({(1, 2): [[0.5, 0.0]]})):
        name, model, fam, predicates, grid_names, _ = _seeded_scenario()
        with pytest.raises((TypeError, ValueError)) as want:
            _json_dump(2, name, model, fam, predicates, grid_names, spec)
        assert type(want.value) in (TypeError, ValueError)
        _same_dump(spec)


def test_a_deeply_nested_spec_is_written_as_json_writes_it():
    # json's encoder takes one frame per level; the walk that holds the
    # pair lists must reach as deep, or it raises RecursionError where
    # json alone lays the spec out
    deep = [[0.5, 0.0]]
    for level in range(sys.getrecursionlimit() * 3 // 4):
        deep = [deep] if level % 2 else {"a": deep}
    _same_dump(_closure_spec(deep))


def _json_trees():
    floats = st.floats(allow_nan=True, allow_infinity=True)
    pair = st.lists(st.one_of(floats, floats, st.integers(-3, 3), st.booleans(),
                              floats.map(np.float64)), min_size=2, max_size=2)
    leaves = st.one_of(floats, st.integers(), st.booleans(), st.none(),
                       st.text(alphabet="a\x00\"\\", max_size=3),
                       st.lists(pair, min_size=1, max_size=4),
                       st.lists(st.lists(floats, min_size=2, max_size=2), max_size=4))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.tuples(inner, inner),
        st.dictionaries(st.text(alphabet="ab\x00", max_size=2), inner, max_size=3)),
        max_leaves=12)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(tree=_json_trees())
def test_any_json_like_spec_is_written_as_json_writes_it(tree):
    _same_dump(_closure_spec(tree))


def test_every_dump_is_a_fixed_point_of_jsons_layout():
    texts = list(_dumps().values())
    c, model, fam = bench_chain(4)
    spec = {"type": "forward-closure", "initial": [_pairs(v) for v in c.initial],
            "extras": {str(k): [_pairs(v) for v in vs] for k, vs in c.extras.items()}}
    texts.append(serialize("chain", model, fam, c.predicates(), family_spec=spec))
    for text in texts:
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


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
