"""Mutations of the reference dump through the command line.

Each example mutates one entry of the dumped ``reference`` scenario's
``family.projectors`` or ``steps`` in its format-1 document, where each
is a dense matrix: it drops an index, swaps two (which breaks the
family's nesting), transposes a matrix, makes it non-square, scales it
by 1 + 1e-6, or puts NaN, 1e308, an integer beyond the float range or a
boolean into one entry.  ``physborn validate`` and one
``prob --rule forward`` must then exit 0, 2 or 3 with no traceback, and a
refused file must be refused by a message that names the mutated field.
A given family is validated before any rule decomposes one of its
matrices, so a matrix that fails validation never reaches a rule.

A second property mutates one block entry, ``{"indices": S, "block":
B}``, of the dump itself (format 2): S unsorted, with an index repeated,
negative, beyond the last, a float or ``true``, or longer than B; B of
the wrong shape, or holding NaN, 1e308, an integer beyond the float range
or ``true``.  Each such file must be refused with exit 2 by a message
that names the entry and the field.

A third property mutates the other fields of the dump, or of the same
dump with a forward-closure family: it drops, retypes or resizes
``dimensions``, ``grid``, ``grid_names``, ``predicates`` or the closure's
``initial`` and ``extras``, or repeats a name (a grid label, a predicate
name, an extras index), with the same demands on the exit and the
message.  A predicate name written twice in one JSON object is refused,
naming it.

A fourth raises the declared ``d1`` or ``d2`` of the dump, of its
format-1 document or of its forward-closure form far above what the
file writes.  Each such file must be refused with exit 2 by a message
that names ``dimensions``, before any d x d matrix is built.

A fifth pads one block entry of the dump with indices its matrix leaves
alone, some of them or all, giving each the identity's row and column
(a step) or zero ones (a family projector).  Such a file must load, and
``serialize`` must write it back as the dump, its minimal form.
"""

import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from physborn.cli import main
from physborn.scenario_io import dump_builtin, loads, serialize

from conftest import format_1_document

REFERENCE = dump_builtin("reference")
REFERENCE_1 = json.dumps(format_1_document(REFERENCE))
ENTRIES = (float("nan"), 1e308, 10**400, True)


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    return main(argv, out, err), err.getvalue()


def _validate_and_prob(text: str) -> list:
    """(exit code, stderr) of ``validate`` and of one ``prob`` on the text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(text)
        return [_run(argv) for argv in (
            ["validate", str(path)],
            ["prob", "--scenario", str(path), "--rule", "forward",
             "--cond", "I@t0", "--outcome", "notI@t1"])]


def _mutate(doc: dict, field: str, kind: str, i: int, j: int, entry) -> tuple:
    """Apply one mutation to matrix i of the field (and j for a swap) in
    place; return the texts an exit-2 message may name."""
    mats = doc["family"]["projectors"] if field == "projectors" else doc["steps"]
    name = "family projector" if field == "projectors" else "step"
    if kind == "drop":
        del mats[i]
        return ("family has", "family violates nesting") if field == "projectors" \
            else ("step unitaries",)
    if kind == "swap":
        mats[i], mats[j] = mats[j], mats[i]
        return (f"{name} {i}", f"{name} {j}", "family violates nesting")
    m = mats[i]
    if kind == "transpose":
        mats[i] = [list(row) for row in zip(*m)]
    elif kind == "non-square":
        del m[-1]
    elif kind == "scale":
        mats[i] = [[[re * (1 + 1e-6), im * (1 + 1e-6)] for re, im in row] for row in m]
    else:
        m[j % len(m)][(i + j) % len(m)][0] = entry
    return (f"{name} {i}", "family violates nesting")


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(field=st.sampled_from(("projectors", "steps")),
       kind=st.sampled_from(("drop", "swap", "transpose", "non-square", "scale", "entry")),
       i=st.integers(0, 2), j=st.integers(0, 49), entry=st.sampled_from(ENTRIES))
@example(field="projectors", kind="entry", i=2, j=7, entry=1e308)
@example(field="projectors", kind="swap", i=0, j=2, entry=True)
@example(field="steps", kind="entry", i=1, j=3, entry=1e308)
@example(field="steps", kind="entry", i=0, j=0, entry=10**400)
def test_a_mutated_reference_dump_exits_cleanly(field, kind, i, j, entry):
    doc = json.loads(REFERENCE_1)
    count = len(doc["family"]["projectors"] if field == "projectors" else doc["steps"])
    i, j = i % count, j % count if kind == "swap" else j
    if kind == "swap" and i == j:
        j = (i + 1) % count
    names = _mutate(doc, field, kind, i, j, entry)
    for code, err in _validate_and_prob(json.dumps(doc)):
        assert code in (0, 2, 3), (code, err)
        assert "Traceback" not in err
        if code == 2:
            assert any(name in err for name in names), (names, err)


BLOCK_KINDS = ("unsorted", "repeated", "negative", "beyond", "float", "true", "longer",
               "shape", "nan", "1e308", "huge", "boolean")


def _mutate_block(doc: dict, field: str, kind: str, i: int, j: int) -> tuple:
    """Apply one mutation to block entry i of the field in place; return
    the texts one of which the exit-2 message must hold."""
    entries = doc["family"]["projectors"] if field == "projectors" else doc["steps"]
    name = f"{'family projector' if field == 'projectors' else 'step'} {i}"
    indices, block = entries[i]["indices"], entries[i]["block"]
    d = doc["dimensions"]["d1"] * doc["dimensions"]["d2"]
    a = 1 + j % (len(indices) - 1)     # an index with one before it
    if kind == "unsorted":
        indices[a - 1], indices[a] = indices[a], indices[a - 1]
    elif kind == "repeated":
        indices[a] = indices[a - 1]
    elif kind == "negative":
        indices[a] = -1 - j
    elif kind == "beyond":
        indices[a] = d + j
    elif kind == "float":
        indices[a] = float(indices[a])
    elif kind == "true":
        indices[a] = True
    elif kind == "longer":
        free = sorted(set(range(d)) - set(indices))
        indices[:] = sorted(indices + [free[j % len(free)]])
        return (f"{name} block: ",)
    elif kind == "shape":
        (block if j % 2 else block[a]).pop()     # a row, or an entry of one
        return (f"{name} block: ",)
    elif kind == "1e308":
        block[a][j % len(block)][0] = 1e308
        return (f"{name} is not", "family violates nesting")
    else:
        block[a][j % len(block)][0] = {"nan": float("nan"), "huge": 10**400,
                                       "boolean": True}[kind]
        return (f"{name}: non-finite entry", f"{name}: entries must be numbers")
    return (f"{name} indices: ",)


@pytest.mark.parametrize("kind", BLOCK_KINDS)
@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(field=st.sampled_from(("projectors", "steps")), i=st.integers(0, 2),
       j=st.integers(0, 60))
def test_a_mutated_block_entry_exits_two_naming_its_field(kind, field, i, j):
    doc = json.loads(REFERENCE)
    i %= len(doc["family"]["projectors"] if field == "projectors" else doc["steps"])
    names = _mutate_block(doc, field, kind, i, j)
    for code, err in _validate_and_prob(json.dumps(doc)):
        assert code == 2 and "Traceback" not in err, (code, err)
        assert any(name in err for name in names), (names, err)


def _pad_block(doc: dict, field: str, i: int, j: int, every: bool) -> None:
    """Pad block entry i of the field in place with indices its matrix
    leaves alone: every one, or one to three of them picked by j."""
    entries = doc["family"]["projectors"] if field == "projectors" else doc["steps"]
    base = 0.0 if field == "projectors" else 1.0
    d = doc["dimensions"]["d1"] * doc["dimensions"]["d2"]
    indices, block = entries[i]["indices"], entries[i]["block"]
    free = sorted(set(range(d)) - set(indices))
    extra = free if every else {free[(j * m) % len(free)] for m in (1, 7, 13)[:1 + j % 3]}
    s = sorted(set(indices) | set(extra))
    at = {index: a for a, index in enumerate(indices)}
    entries[i] = {"indices": s, "block": [
        [block[at[a]][at[b]] if a in at and b in at else [base if a == b else 0.0, 0.0]
         for b in s] for a in s]}


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(field=st.sampled_from(("projectors", "steps")), every=st.booleans(),
       i=st.integers(0, 2), j=st.integers(0, 60))
@example(field="steps", every=True, i=0, j=0)
@example(field="projectors", every=True, i=2, j=0)
def test_a_padded_block_entry_loads_to_its_minimal_form(field, every, i, j):
    doc = json.loads(REFERENCE)
    i %= len(doc["family"]["projectors"] if field == "projectors" else doc["steps"])
    _pad_block(doc, field, i, j, every)
    text = json.dumps(doc)
    assert text != json.dumps(json.loads(REFERENCE))
    for code, err in _validate_and_prob(text):
        assert code == 0, err
    sc = loads(text)
    assert serialize(sc.name, sc.model, sc.fam, sc.predicates, sc.grid_names) == REFERENCE


VALUES = (None, True, "3", 3.5, [], {}, -1, 0, 10**400, float("nan"))
PREDICATES = sorted(json.loads(REFERENCE)["predicates"])


def _closure_doc() -> dict:
    """The reference dump with a forward-closure family: a column of P(0)
    as the initial state and a column of P(2) as the extra at index 2."""
    doc = json.loads(REFERENCE)
    projectors = json.loads(REFERENCE_1)["family"]["projectors"]
    p0, p2 = projectors[0], projectors[2]
    column = lambda p, j: [row[j] for row in p]      # noqa: E731
    nonzero = [j for j in range(len(p0)) if any(e != [0.0, 0.0] for e in column(p2, j))]
    start = next(j for j in nonzero if any(e != [0.0, 0.0] for e in column(p0, j)))
    extra = next(j for j in nonzero if j != start)
    doc["family"] = {"type": "forward-closure", "initial": [column(p0, start)],
                     "extras": {"2": [column(p2, extra)]}}
    return doc


def _mutate_field(doc: dict, field: str, kind: str, i: int, value) -> tuple:
    """Apply one mutation to the field in place; return the texts an
    exit-2 message may name."""
    if field == "dimensions":
        dims, key = doc["dimensions"], ("d1", "d2")[i % 2]
        if kind == "drop":
            del (doc if i % 3 == 2 else dims)["dimensions" if i % 3 == 2 else key]
        elif kind == "retype":
            doc["dimensions"] = value if i % 3 == 2 else dict(dims, **{key: value})
        elif kind == "resize":
            dims[key] += 1 + i
        else:
            dims["d2"] = dims["d1"]
        return ("dimensions", "step 0")         # a step no longer fits
    if field == "grid":
        grid = doc["grid"]
        if kind == "drop":
            del doc["grid"]
        elif kind == "retype":
            if i % 2:
                doc["grid"] = value
            else:
                grid[i % len(grid)] = value
        elif kind == "resize":
            if i % 2:
                grid.append(grid[-1] + 1)
            else:
                del grid[-1]
        else:
            grid[1 + i % 2] = grid[i % 2]
        return ("grid", "step unitaries")       # a step more or less than the grid
    if field == "grid_names":
        names = doc["grid_names"]
        if kind == "drop":
            del doc["grid_names"]
        elif kind == "retype":
            if i % 2:
                doc["grid_names"] = value
            else:
                names[i % len(names)] = value
        elif kind == "resize":
            if i % 2:
                names.append("extra")
            else:
                del names[-1]
        else:
            names[1 + i % 2] = names[i % 2]
        return ("grid_names",)
    if field == "predicates":
        preds, name = doc["predicates"], PREDICATES[i % len(PREDICATES)]
        if kind == "drop":
            del (preds if i % 2 else doc)[name if i % 2 else "predicates"]
        elif kind == "retype":
            target = (doc, "predicates") if i % 3 == 0 else (preds, name) if i % 3 == 1 \
                else (preds[name], "labels")
            target[0][target[1]] = value
        elif kind == "resize":
            preds[name] = {"labels": list(range(6))} if i % 2 else {"matrix": [[[1.0, 0.0]]]}
        else:
            preds[name]["labels"] *= 2          # every label twice
        return ("predicates", f"predicate {name!r}")
    spec = doc["family"]
    if kind == "drop":
        del spec["initial" if i % 2 else "extras"]
    elif kind == "retype":
        target = ((spec, "initial"), (spec, "extras"), (spec["extras"], "2"),
                  (spec["initial"], 0))[i % 4]
        target[0][target[1]] = value
    elif kind == "resize":
        vector = spec["initial"][0] if i % 2 else spec["extras"]["2"][0]
        if i % 4 < 2:
            vector.append([0.0, 0.0])
        else:
            vector.pop()
    else:
        spec["extras"][("02", "+2", " 2")[i % 3]] = spec["extras"]["2"]
    return ("family", "initial state", "extra state", "extras index")


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(field=st.sampled_from(("dimensions", "grid", "grid_names", "predicates", "closure")),
       kind=st.sampled_from(("drop", "retype", "resize", "repeat")),
       i=st.integers(0, 11), value=st.sampled_from(VALUES))
@example(field="dimensions", kind="retype", i=0, value=10**400)
@example(field="grid_names", kind="retype", i=0, value=None)
@example(field="predicates", kind="repeat", i=2, value=None)
@example(field="predicates", kind="repeat", i=1, value=None)
@example(field="closure", kind="repeat", i=0, value=None)
@example(field="closure", kind="drop", i=1, value=None)
def test_a_mutated_scenario_field_exits_cleanly(field, kind, i, value):
    doc = _closure_doc() if field == "closure" else json.loads(REFERENCE)
    names = _mutate_field(doc, field, kind, i, value)
    text = json.dumps(doc)
    repeated = field == "predicates" and kind == "repeat" and i % 2
    if repeated:
        # a name given twice in one object, which JSON alone would read
        # as the later entry
        text = text.replace('"predicates": {', '"predicates": {"I": {"labels": [0]}, ', 1)
        names = ("repeated key 'I'",)
    for code, err in _validate_and_prob(text):
        assert code in ((2,) if repeated else (0, 1, 2, 3)), (code, err)
        assert "Traceback" not in err
        if code == 2:
            assert any(name in err for name in names), (names, err)


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(form=st.sampled_from(("format-2", "format-1", "closure")),
       key=st.sampled_from(("d1", "d2")), exponent=st.integers(3, 400))
@example(form="format-2", key="d2", exponent=5)
@example(form="closure", key="d1", exponent=400)
def test_declared_dimensions_far_beyond_the_file_exit_two_naming_them(form, key, exponent):
    # every d here needs more than 2**30 bytes of dense matrices, so the
    # refusal comes before any of them is allocated
    doc = {"format-2": lambda: json.loads(REFERENCE), "format-1": lambda: json.loads(REFERENCE_1),
           "closure": _closure_doc}[form]()
    doc["dimensions"][key] *= 10 ** exponent
    for code, err in _validate_and_prob(json.dumps(doc)):
        assert code == 2 and "Traceback" not in err, (code, err)
        assert ": dimensions d1 = " in err, err
