"""Every program function the benchmark tracer wraps still exists.

``perfbench/tracing.py`` looks each name of its ``LAYER_FUNCTIONS`` up with
``getattr`` and no default, so renaming or removing one of them breaks only a
traced benchmark run.  This test reads the table from the tracer's source
(without importing the benchmark) and resolves every name in the package.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def layer_functions() -> dict:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS in {TRACING}")


def test_traced_names_resolve():
    table = layer_functions()
    assert table
    missing = []
    for module, names in table.items():
        home = importlib.import_module(f"umbralcalc.{module}")
        missing += [f"{module}.{name}" for name in names if not callable(getattr(home, name, None))]
    assert not missing, f"tracer names missing from the package: {missing}"
