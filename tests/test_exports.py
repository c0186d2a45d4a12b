import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def _unused_imports(path: Path) -> list[str]:
    """The names path imports and never reads; `import a.b` must be read as a.b."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = set()
    for node in ast.walk(tree):  # a.b.c visits a.b.c, a.b and a
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            read.add(".".join([node.id, *reversed(parts)]))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
            unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in read]
    return unused


def test_every_import_is_read():
    modules = sorted([*ROOT.glob("src/ap3/*.py"), *ROOT.glob("tests/*.py")])
    assert len(modules) > 20
    assert [entry for path in modules for entry in _unused_imports(path)] == []
