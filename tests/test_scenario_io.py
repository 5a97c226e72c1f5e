"""Scenario file format: serialization, loading, and validation
messages."""

import io
import json

import numpy as np
import pytest

from physborn.born import prob_approx, prob_forward
from physborn.cli import main
from physborn.condition import ConditionSpec
from physborn.errors import ValidationError
from physborn.scenario_io import (
    BUILTIN_SCENARIOS,
    builtin_scenario,
    dump_builtin,
    load_scenario,
    loads,
    serialize,
)


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

    def pairs(v):
        return [[float(c.real), float(c.imag)] for c in v]

    doc["family"] = {
        "type": "forward-closure",
        "initial": [
            pairs(_basis_state(REC_READY, KET_Z_UP, CELL_SOURCE)),
            pairs(_basis_state(REC_READY, KET_Z_DOWN, CELL_SOURCE)),
        ],
        "extras": {
            "2": [
                pairs(_basis_state(REC_F_UP, KET_X_UP, CELL_DET2)),
                pairs(_basis_state(REC_F_DOWN, KET_X_DOWN, CELL_DET2)),
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
], ids=["grid-strings", "family-list", "grid_names-int", "label-string",
        "predicates-list", "steps-int", "extras-key", "label-float", "step-nan",
        "extras-0", "extras-99", "extras-negative"])
def test_malformed_scenario_exits_two_naming_the_field(doc, field, tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc()))
    out, err = io.StringIO(), io.StringIO()
    code = main(["validate", str(path)], out, err)
    assert code == 2
    assert err.getvalue().startswith("validation error:")
    assert field in err.getvalue()
    assert "Traceback" not in err.getvalue()
