"""The benchmark's traced function names exist in the library.

``bench/harness.py`` lists functions in ``FUNCTION_METRICS`` and reads
each one's row from the tracer's summary, which has a row only for a
public function defined in its ``physborn`` module (``bench/tracer.py``
wraps exactly those).  A listed name the library no longer defines makes
every traced benchmark run fail with a KeyError.  The list is read with
``ast``, so the benchmark is neither imported nor changed.
"""

import ast
import importlib
import inspect
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1] / "bench" / "harness.py"


def _function_metrics() -> tuple:
    for node in ast.parse(HARNESS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FUNCTION_METRICS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{HARNESS.name} defines no FUNCTION_METRICS")


def test_traced_function_names_are_public_library_functions():
    metrics = _function_metrics()
    assert metrics
    for name, _ in metrics:
        layer, attr = name.split(".")
        module = importlib.import_module(f"physborn.{layer}")
        fn = vars(module).get(attr)
        assert not attr.startswith("_") and inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name
