"""Replay recorded command-line runs and compare with their golden output.

``tests/golden/cli.json`` holds, per command, the exit code, stdout and
stderr.  Exit codes, stderr and every non-float ``--json`` field must
match exactly; floats match within 1e-12 absolute, because values such
as commutator norms of about 1e-16 depend on the BLAS library.  Other
stdout is compared byte for byte.

Regenerate the file after an intended output change with::

    PYTHONPATH=src python tests/test_cli_golden.py
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


def _record(directory: Path) -> None:
    files = _write_scenarios(directory)
    entries = [_run(argv, files) for argv in COMMANDS]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))
    sys.exit(0)
