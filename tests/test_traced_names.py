"""The benchmark's span tracer wraps library functions by name; each name
must still resolve, or the tracer would fail or record nothing."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced_names():
    """The TRACED tuple of bench/spans.py, read without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED tuple")


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    module, _, attr = name.partition(".")
    target = importlib.import_module(f"rootposets.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target), name
