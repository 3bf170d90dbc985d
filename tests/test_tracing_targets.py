"""The benchmark's tracer wraps the package's functions by name, from
outside: a renamed function would break only traced bench runs, so every
name it wraps is checked here against the package."""

import ast
import importlib
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _targets() -> list[tuple[str, str, str]]:
    """TARGETS of bench/tracing.py, read as a literal without running it."""
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


@pytest.mark.parametrize("stem,module,attr", _targets(), ids=lambda v: str(v))
def test_tracing_target_resolves(stem, module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), f"{module}.{attr} ({stem}) is not callable"
