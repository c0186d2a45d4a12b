import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_constant(name: str) -> tuple:
    """A literal table of the benchmark tracer, read from its source."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/spans.py defines no {name}")


def test_benchmark_span_targets_resolve():
    for module in _spans_constant("MODULES"):  # Tracer.install imports every one
        importlib.import_module(module)
    missing = []
    for _, module, attribute in _spans_constant("TARGETS"):
        obj = importlib.import_module(module)
        for part in attribute.split("."):  # a dotted name is an attribute of a class
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attribute}")
    assert missing == []
