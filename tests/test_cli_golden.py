"""Replay recorded command-line runs and compare with their golden output.

``tests/golden/cli.json`` holds, per command, the exit code, stdout and
stderr.  Exit codes, stderr and every non-float ``--json`` field must
match exactly; floats match within 1e-12 absolute, because values such
as commutator norms of about 1e-16 depend on the BLAS library.  Other
stdout is compared byte for byte.

Add the entry of a newly listed command with::

    PYTHONPATH=src python tests/test_cli_golden.py

which runs only the commands the file lacks and keeps every existing
entry byte for byte, so that a host whose BLAS rounds differently does
not rewrite them.  To re-record an entry after an intended output
change, delete it from the file first.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from physborn.cli import main
from physborn.model import Model, PhysicalFamily, TimeGrid
from physborn.scenario_io import dump_builtin, serialize

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
FLOAT_TOL = 1e-12

# Placeholders replaced by scenario files written for the run.
REFERENCE_FILE = "<reference.json>"
NO_RECORD_FILE = "<norecord.json>"


def _prob(rule, cond, outcome, *extra):
    return ["--json", "prob", "--scenario", "reference", "--rule", rule,
            "--cond", cond, "--outcome", outcome, *extra]


def _measure(start, outcomes, *extra):
    return ["--json", "measure", "--scenario", "reference", "--start", start,
            "--outcomes", outcomes, *extra]


def _verify(cond, outcomes):
    return ["--json", "verify", "--scenario", "reference", "--cond", cond,
            "--outcomes", outcomes]


COMMANDS = (
    # The benchmark's cli-reference commands, without `scenario dump`.
    _prob("forward", "I@t0", "Fup@t1"),
    _prob("approx", "Fup@t1", "I@t0"),
    _prob("before", "Fup@t1", "ready@ts"),
    _prob("intermediate-known", "Fup@t1", "I@t0"),
    _prob("sequence", "ready@ts", "I@t0", "--outcome2", "Fup@t1"),
    _measure("I@t0", "Fup,Fdown@t1"),
    _verify("I@t0", "Fup,Fdown@t1"),
    ["--json", "demo", "intro"],
    ["--json", "validate", REFERENCE_FILE],
    ["prob", "--scenario", "reference", "--rule", "forward",
     "--cond", "blocked@ts", "--outcome", "Fup@t1"],
    # Other rules, representations and directions.
    _prob("intermediate-known", "Fup@t1", "I@t0", "--variant", "observable"),
    ["--json", "prob", "--scenario", "reference", "--rule", "intermediate-full",
     "--cond", "Fup@t1", "--outcomes", "I,notI@t0", "--outcome", "I@t0"],
    _measure("I@t0", "Fup,Fdown@t1", "--rep", "observable"),
    _measure("I@t0", "Fup,Fdown,ready@t1"),
    _verify("Fup@t1", "I,notI@t0"),
    # Refusals and validation errors.
    _prob("forward", "I@t0", "Fup@t1", "--k0", "t1"),
    _prob("before", "Fup@t1", "ready@ts", "--k0", "t1"),
    _prob("sequence", "ready@ts", "I@t0", "--outcome2", "Fup@t1", "--k0", "t1"),
    _measure("blocked@ts", "Fup,Fdown@t1"),
    _measure("I@t0", "Fup,Fdown@t1", "--k0", "t1"),
    _verify("Fup@t1", "I,I@t0"),
    _measure("I@t0", "Fup@t1", "--complete"),
    ["--json", "prob", "--scenario", NO_RECORD_FILE, "--rule", "sequence",
     "--cond", "A@t0", "--outcome", "B@t1", "--outcome2", "A@t2"],
    # Tolerances other than the default.
    ["--eps-zero", "1e-6", "--eps-eig", "1e-5", *_prob("forward", "I@t0", "Fup@t1")],
    ["--eps-eig", "1e-5", "measure", "--scenario", "reference", "--start", "I@t0",
     "--outcomes", "Fup,Fdown@t1"],
    ["--eps-zero", "1e-6", "--json", "verify", "--scenario", "reference", "--cond", "Fup@t1",
     "--outcomes", "I,notI@t0"],
    # Complement outcomes ("not this record") through the rules and verify.
    _prob("forward", "I@t0", "notI@t1"),
    _prob("approx", "Fup@t1", "notI@t0"),
    _prob("before", "Fup@t1", "notI@ts"),
    _prob("sequence", "ready@ts", "notI@t0", "--outcome2", "Fup@t1"),
    _prob("sequence", "ready@ts", "I@t0", "--outcome2", "notI@t1"),
    _verify("I@t0", "I,notI@t1"),
    # Complement conditions: states, the start-index scan and Z/W of a
    # condition held by its complement.
    _prob("forward", "notI@t1", "notI@t1"),
    _prob("forward", "notI@t1", "notI@t1", "--k0", "t0"),
    _prob("approx", "notI@t1", "I@t0"),
    _prob("before", "notI@t0", "ready@ts"),
    _prob("before", "notI@t1", "ready@ts", "--k0", "t0"),
    _prob("before", "notI@t1", "ready@ts", "--k0", "t1"),
    _prob("intermediate-known", "notI@t1", "blocked@t0"),
    _prob("intermediate-known", "notI@t1", "blocked@t0", "--variant", "observable"),
    ["--json", "prob", "--scenario", "reference", "--rule", "intermediate-full",
     "--cond", "notI@t1", "--outcomes", "I,notI@t0", "--outcome", "notI@t0"],
    _prob("sequence", "notI@ts", "I@t0", "--outcome2", "Fup@t1"),
    _verify("notI@t1", "I,notI@t0"),
    _measure("notI@ts", "I,notI@t0", "--complete"),
    # Observable representations: the intermediate-known anchor and the
    # measurement kappas read the lifted X(k) label sets.
    _prob("intermediate-known", "Fdown@t1", "I@t0", "--variant", "observable"),
    _prob("intermediate-known", "Fup@t1", "notI@t0", "--variant", "observable"),
    _measure("ready@ts", "I,blocked@t0", "--rep", "observable"),
    _measure("ready@ts", "I,notI@t0", "--complete", "--rep", "observable"),
    _measure("I@t0", "Fup,Fdown@t1", "--rep", "observable", "--k0", "t0"),
    ["--json", "measure", "--scenario", "sg-observers", "--start", "O+z@t0",
     "--outcomes", "O+z,O-z@t1", "--rep", "observable"],
    # An unknown --k0 label is a usage error, as for --cond.
    ["prob", "--scenario", "reference", "--rule", "forward", "--cond", "I@t0",
     "--outcome", "Fup@t1", "--k0", "t9"],
    ["measure", "--scenario", "reference", "--start", "I@t0", "--outcomes", "Fup,Fdown@t1",
     "--k0", "t9"],
    # A bare index is ASCII digits after an optional minus sign; any other
    # text that int() would read is an unknown label.
    ["prob", "--scenario", "reference", "--rule", "forward", "--cond", "I@t0",
     "--outcome", "Fup@0_2"],
    ["prob", "--scenario", "reference", "--rule", "forward", "--cond", "I@t0",
     "--outcome", "Fup@t1", "--k0", "+1"],
    # Usage refusals: malformed or unknown arguments, missing outcomes.
    ["prob", "--scenario", "reference", "--rule", "forward", "--cond", "I",
     "--outcome", "Fup@t1"],
    ["measure", "--scenario", "reference", "--start", "I@t0", "--outcomes", "Fup,Fdown"],
    ["measure", "--scenario", "reference", "--start", "I@t0", "--outcomes", "Fup,nosuch@t1"],
    ["prob", "--scenario", "reference", "--rule", "forward", "--cond", "I@t0"],
    ["prob", "--scenario", "reference", "--rule", "intermediate-full", "--cond", "Fup@t1",
     "--outcome", "I@t0"],
    ["prob", "--scenario", "reference", "--rule", "intermediate-full", "--cond", "Fup@t1",
     "--outcomes", "I,notI@t0", "--outcome", "ready@t0"],
    ["prob", "--scenario", "reference", "--rule", "sequence", "--cond", "ready@ts",
     "--outcome", "I@t0"],
    ["verify", "--scenario", "reference", "--cond", "I@t0", "--outcomes", "Fup,Fdown@t0"],
    ["scenario", "dump", "nosuch"],
)


def _write_scenarios(directory: Path) -> dict:
    """Write the scenario files the commands name; placeholder -> path."""
    reference = directory / "reference.json"
    reference.write_text(dump_builtin("reference"))
    # Hadamard dynamics on a bare qubit: nothing records the condition, so
    # the sequence rule must refuse.
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    model = Model(2, 1, TimeGrid((0.0, 1.0, 2.0)), (h, h))
    fam = PhysicalFamily((np.eye(2, dtype=complex),) * 3)
    preds = {"A": np.diag([1.0, 0.0]).astype(complex),
             "B": np.diag([0.0, 1.0]).astype(complex)}
    no_record = directory / "norecord.json"
    no_record.write_text(serialize("no-record", model, fam, preds, ("t0", "t1", "t2")))
    return {REFERENCE_FILE: str(reference), NO_RECORD_FILE: str(no_record)}


def _run(argv, files: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = main([files.get(a, a) for a in argv], out, err)
    return {"argv": list(argv), "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _same_json(got, want, where: str) -> None:
    if isinstance(want, float) and not isinstance(want, bool):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert abs(got - want) <= FLOAT_TOL, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _same_json(got[key], want[key], f"{where}[{key}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _golden() -> list:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_command_list():
    assert [entry["argv"] for entry in _golden()] == [list(c) for c in COMMANDS]


def _test_id(argv) -> str:
    return " ".join(a for a in argv if a not in ("--json", "--scenario", "reference"))


@pytest.mark.parametrize("i", range(len(COMMANDS)), ids=[_test_id(c) for c in COMMANDS])
def test_cli_matches_golden(i, tmp_path):
    entry = _golden()[i]
    got = _run(COMMANDS[i], _write_scenarios(tmp_path))
    assert got["exit"] == entry["exit"]
    assert got["stderr"] == entry["stderr"]
    if "--json" in entry["argv"] and entry["stdout"]:
        _same_json(json.loads(got["stdout"]), json.loads(entry["stdout"]), "stdout")
    else:
        assert got["stdout"] == entry["stdout"]


def _record(directory: Path, golden: Path = GOLDEN) -> None:
    """Write the golden file in the order of COMMANDS: an existing entry
    as it is, a command without one run and recorded.  Entries of
    commands no longer listed are dropped."""
    kept = {}
    if golden.exists():
        kept = {tuple(entry["argv"]): entry for entry in json.loads(golden.read_text())}
    files = _write_scenarios(directory)
    entries = [kept.get(tuple(argv)) or _run(argv, files) for argv in COMMANDS]
    golden.parent.mkdir(exist_ok=True)
    golden.write_text(json.dumps(entries, indent=1) + "\n")


def test_recording_adds_only_missing_entries(tmp_path, monkeypatch):
    text = GOLDEN.read_text()
    assert json.dumps(json.loads(text), indent=1) + "\n" == text   # kept byte for byte
    entries = json.loads(text)
    entries[0]["stdout"] = "kept as recorded\n"    # what no fresh run prints
    golden = tmp_path / "cli.json"
    golden.write_text(json.dumps(entries[:-1], indent=1) + "\n")
    ran, real = [], _run
    monkeypatch.setitem(globals(), "_run",
                        lambda argv, files: ran.append(list(argv)) or real(argv, files))
    _record(tmp_path, golden)
    assert ran == [list(COMMANDS[-1])]      # the one missing command, a usage error
    assert golden.read_text() == json.dumps(entries, indent=1) + "\n"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))
    sys.exit(0)
