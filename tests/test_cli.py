"""Command-line behavior: determinism, formats, and exit codes."""

import io
import json

import numpy as np
import pytest

from physborn.cli import main
from physborn.scenario_io import dump_builtin

from conftest import format_1_document


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_prob_forward_value():
    code, out, err = run([
        "prob", "--scenario", "reference", "--rule", "forward",
        "--cond", "I@t0", "--outcome", "Fup@t1",
    ])
    assert code == 0 and err == ""
    assert "value" in out and "0.5" in out


def test_prob_approx_retrodiction():
    code, out, _ = run([
        "prob", "--scenario", "reference", "--rule", "approx",
        "--cond", "Fup@t1", "--outcome", "I@t0",
    ])
    assert code == 0
    assert any(line.split()[-1] == "1" for line in out.splitlines()
               if line.startswith("value"))


def test_verify_verdict():
    code, out, _ = run([
        "verify", "--scenario", "reference",
        "--cond", "Fup@t1", "--outcomes", "I,notI@t0",
    ])
    assert code == 0
    assert "verdict" in out and "true" in out


def test_byte_determinism_across_runs():
    commands = [
        ["demo", "intro"],
        ["prob", "--scenario", "reference", "--rule", "forward",
         "--cond", "I@t0", "--outcome", "Fup@t1"],
        ["verify", "--scenario", "reference",
         "--cond", "I@t0", "--outcomes", "Fup,Fdown,blocked@t1"],
    ]
    for argv in commands:
        first = run(argv)
        second = run(argv)
        assert first == second
        assert first[0] == 0


def test_json_and_csv_formats():
    base = ["prob", "--scenario", "reference", "--rule", "forward",
            "--cond", "I@t0", "--outcome", "Fup@t1"]
    code, out, _ = run(["--json"] + base)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - 0.5) <= 1e-9
    code, out, _ = run(["--csv"] + base)
    assert code == 0
    assert "value,0.5" in out


def test_scenario_list_and_dump(tmp_path):
    code, out, _ = run(["scenario", "list"])
    assert code == 0 and out.splitlines() == ["reference", "sg-observers"]
    code, out, _ = run(["scenario", "dump", "reference"])
    assert code == 0 and out.strip() == dump_builtin("reference")


def test_validate_round_trip(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(dump_builtin("reference"))
    code, out, _ = run(["validate", str(path)])
    assert code == 0 and "passed" in out


def test_a_builtin_scenario_is_validated_as_its_dump_is(tmp_path):
    # at eps_zero = 5e-324 the rounding in sg-observers' family projectors
    # fails the projector test, for the built-in as for its dump
    path = tmp_path / "sg.json"
    path.write_text(dump_builtin("sg-observers"))
    prob = ["prob", "--scenario", "sg-observers", "--rule", "forward", "--cond", "O+z@t0",
            "--outcome", "O+z@t1"]
    assert run(prob)[0] == run(["validate", str(path)])[0] == 0
    refused = (2, "", "validation error: family projector 0 is not a 8x8 projector\n")
    assert run(["--eps-zero", "5e-324", *prob]) == refused
    assert run(["--eps-zero", "5e-324", "validate", str(path)]) == refused


def test_exit_code_usage_errors(tmp_path):
    code, _, err = run(["prob", "--scenario", "no-such", "--rule", "forward",
                        "--cond", "I@t0", "--outcome", "Fup@t1"])
    assert code == 1 and "usage error" in err
    code, _, err = run(["prob", "--scenario", "reference", "--rule", "forward",
                        "--cond", "mystery@t0", "--outcome", "Fup@t1"])
    assert code == 1
    code, _, err = run(["prob", "--scenario", "reference", "--rule", "forward",
                        "--cond", "I@t9", "--outcome", "Fup@t1"])
    assert code == 1
    code, _, err = run(["scenario", "dump"])
    assert code == 1
    code, _, err = run(["demo", "outro"])
    assert code == 1
    # argparse-level failure (missing required option)
    code, _, err = run(["prob", "--rule", "forward"])
    assert code == 1
    # a file that cannot be read: an OSError
    code, out, err = run(["validate", str(tmp_path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


def test_exit_code_validation_errors(tmp_path):
    doc = format_1_document(dump_builtin("reference"))
    doc["steps"][0][0][0] = [9.0, 0.0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["validate", str(path)])
    assert code == 2 and "step 0" in err
    # wrong regime for the indices is also a validation failure
    code, _, err = run(["prob", "--scenario", "reference", "--rule", "forward",
                        "--cond", "I@t0", "--outcome", "Fup@ts"])
    assert code == 2


def test_step_shapes_are_refused_before_the_propagators_are_built(tmp_path):
    # a 2 x 2 step at d = 900 is refused before V(0) is allocated; at
    # d = 9000000, where numpy refuses an identity that size at once, the
    # declared dimensions are refused first, by the dense-matrix budget
    path = tmp_path / "mismatch.json"
    for d1, message in ((30, "step 0 has shape (2, 2), expected (900, 900)"),
                        (3000, "dimensions d1 = 3000, d2 = 3000 need more than the 1073741824 "
                               "bytes of dense complex matrices a scenario may use")):
        doc = {"dimensions": {"d1": d1, "d2": d1}, "grid": [0.0, 1.0],
               "steps": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
               "family": {"type": "explicit", "projectors": []}, "predicates": {}}
        path.write_text(json.dumps(doc))
        code, out, err = run(["validate", str(path)])
        assert code == 2 and out == ""
        assert err == f"validation error: {path}: {message}\n"


def test_exit_code_mathematical_refusal(tmp_path):
    # blocked at the source time has no overlap with the physical family
    code, _, err = run(["prob", "--scenario", "reference", "--rule", "forward",
                        "--cond", "blocked@ts", "--outcome", "Fup@t1"])
    assert code == 3 and "refused" in err


def _no_record_scenario(tmp_path):
    import numpy as np

    from physborn.model import Model, PhysicalFamily, TimeGrid
    from physborn.scenario_io import serialize

    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    m = Model(2, 1, TimeGrid((0.0, 1.0, 2.0)), (h, h))
    fam = PhysicalFamily((np.eye(2, dtype=complex),) * 3)
    preds = {"A": np.diag([1.0, 0]).astype(complex),
             "B": np.diag([0, 1.0]).astype(complex)}
    path = tmp_path / "norecord.json"
    path.write_text(serialize("no-record", m, fam, preds, ("t0", "t1", "t2")))
    return path


def test_sequence_refusal_exits_three(tmp_path):
    path = _no_record_scenario(tmp_path)
    code, _, err = run(["prob", "--scenario", str(path), "--rule", "sequence",
                        "--cond", "A@t0", "--outcome", "B@t1",
                        "--outcome2", "A@t2"])
    assert code == 3 and "refused" in err


def test_measure_table(tmp_path):
    code, out, _ = run(["measure", "--scenario", "reference",
                        "--start", "I@t0", "--outcomes", "Fup,Fdown@t1"])
    assert code == 0
    assert "P[Fup]" in out and "is_measurement" in out
    assert "total" in out


def _forward_at(token):
    return run(["prob", "--scenario", "reference", "--rule", "forward",
                "--cond", "I@t0", "--outcome", f"Fup@{token}"])


@pytest.mark.parametrize("token", ["0_2", " 2", "+2", "２", "2\n", "2.0"])
def test_a_bare_time_index_is_ascii_digits(token):
    # int() reads every one of these tokens as 2
    assert _forward_at(token) == (
        1, "", f"usage error: --outcome: unknown grid label {token!r}; available: ts, t0, t1\n")


def test_a_bare_time_index_answers_as_its_label():
    assert _forward_at("2") == _forward_at("t1")
    assert _forward_at("2")[0] == 0


MEASURE_OBSERVABLE = ["measure", "--scenario", "reference", "--start", "I@t0",
                      "--outcomes", "Fup,Fdown@t1", "--rep", "observable"]
# the rounding floor (d eps)^2 of eps_eig on the d = 50 reference model
REFERENCE_FLOOR = (50 * np.finfo(float).eps) ** 2


def test_an_eps_eig_below_rounding_answers_or_exits_two():
    # at 1e-18 the measurement answers as at the default eps_eig
    code, out, err = run(["--eps-eig", "1e-18", *MEASURE_OBSERVABLE])
    assert (code, err) == (0, "")
    assert out == run(MEASURE_OBSERVABLE)[1]
    assert "total                    1" in out.splitlines()
    # at 1e-32, below the floor, every squared cut keeps rounding: the
    # model is refused rather than answering P[Fup] = P[Fdown] = 1
    code, out, err = run(["--eps-eig", "1e-32", *MEASURE_OBSERVABLE])
    assert (code, out) == (2, "")
    assert err == ("validation error: eps_eig = 1e-32 lies at or below the rounding "
                   "floor (d eps)^2 = 1.23e-28 of dimension d = 50\n")


@pytest.mark.parametrize("value", [
    "5e-324", "1e-40", repr(np.nextafter(REFERENCE_FLOOR, 0)), repr(REFERENCE_FLOOR),
    repr(np.nextafter(REFERENCE_FLOOR, 1)), "0.9999999", "1", "0", "-1e-9", "nan", "inf",
    "1e-7x",
])
@pytest.mark.parametrize("flag", ["--eps-eig", "--eps-zero"])
@pytest.mark.parametrize("command", [
    MEASURE_OBSERVABLE,
    ["prob", "--scenario", "reference", "--rule", "forward", "--cond", "I@t0",
     "--outcome", "Fup@t1"],
], ids=["measure", "prob"])
def test_any_tolerance_value_exits_with_a_code_and_no_traceback(command, flag, value):
    code, out, err = run([f"{flag}={value}", *command])
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    if code == 2:
        assert flag.lstrip("-").replace("-", "_") in err
    if code == 1:
        assert flag in err
