import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "xlner"


def unused_imports(source: str) -> list[str]:
    """Names a module imports (bar __future__ features) but never uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_no_unused_imports():
    sample = "from typing import Optional, Sequence\nimport numpy as np\nx: Sequence = np.zeros(1)\n"
    assert unused_imports(sample) == ["Optional"]
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


ROOT = PACKAGE.parent.parent


def definitions(source: str) -> list[str]:
    """A module's top-level functions and classes, and its classes'
    methods but dunders, as `name` or `Class.method`."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return names


def referenced_names(source: str) -> set[str]:
    """Every name a module reads, every attribute it names and every name
    it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_definition_has_a_caller_outside_tests():
    # Callers are the package, its scripts and the benchmark, not the tests:
    # code that only tests call belongs in the tests.
    sample = "def used():\n    pass\n\nclass Box:\n    def __len__(self):\n        return 0\n    def spare(self):\n        used()\n"
    assert definitions(sample) == ["used", "Box", "Box.spare"]
    assert {"used"} <= referenced_names(sample)
    callers = [
        *PACKAGE.glob("*.py"),
        *(ROOT / "scripts").glob("*.py"),
        *(path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_")),
    ]
    referenced = set().union(*(referenced_names(path.read_text(encoding="utf-8")) for path in callers))
    uncalled = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = definitions(path.read_text(encoding="utf-8"))
        uncalled[path.name] = [name for name in names if name.rsplit(".", 1)[-1] not in referenced]
    assert {name: names for name, names in uncalled.items() if names} == {}
