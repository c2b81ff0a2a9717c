"""The benchmark's tracer wraps package functions by name, and a name it
cannot find breaks only traced benchmark runs. Check every name here."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _constants():
    """TRACED and MEMORY as literals, read from the source without importing it."""
    values = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TRACED", "MEMORY"):
                values[name] = ast.literal_eval(node.value)
    return values["TRACED"], values["MEMORY"]


def test_every_traced_name_resolves_in_the_package():
    traced, memory = _constants()
    assert traced
    for _, module, attr in traced:
        owner = importlib.import_module(f"chebgcn.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
    assert set(memory) <= {span for span, _, _ in traced}
