"""Mutations of the reference dump through the command line.

Each example mutates one entry of the dumped ``reference`` scenario's
``family.projectors`` or ``steps``: it drops an index, swaps two (which
breaks the family's nesting), transposes a matrix, makes it non-square,
scales it by 1 + 1e-6, or puts NaN, 1e308, an integer beyond the float
range or a boolean into one entry.  ``physborn validate`` and one
``prob --rule forward`` must then exit 0, 2 or 3 with no traceback, and a
refused file must be refused by a message that names the mutated field.
A given family is validated before any rule decomposes one of its
matrices, so a matrix that fails validation never reaches a rule.
"""

import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from physborn.cli import main
from physborn.scenario_io import dump_builtin

REFERENCE = dump_builtin("reference")
ENTRIES = (float("nan"), 1e308, 10**400, True)


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    return main(argv, out, err), err.getvalue()


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
    doc = json.loads(REFERENCE)
    count = len(doc["family"]["projectors"] if field == "projectors" else doc["steps"])
    i, j = i % count, j % count if kind == "swap" else j
    if kind == "swap" and i == j:
        j = (i + 1) % count
    names = _mutate(doc, field, kind, i, j, entry)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)],
                     ["prob", "--scenario", str(path), "--rule", "forward",
                      "--cond", "I@t0", "--outcome", "notI@t1"]):
            code, err = _run(argv)
            assert code in (0, 2, 3), (argv[0], code, err)
            assert "Traceback" not in err
            if code == 2:
                assert any(name in err for name in names), (names, err)
