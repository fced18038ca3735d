import ast
from collections import Counter
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


def qualified_references(source: str, module: str) -> set[tuple[str, str]]:
    """(module, name) for every name a module reads through its module:
    `tnt.name`, `from .tnt import name`, and a bare name in the module
    itself."""
    pairs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            pairs.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            pairs.update((node.module.rsplit(".", 1)[-1], alias.name) for alias in node.names)
        elif isinstance(node, ast.Name):
            pairs.add((module, node.id))
    return pairs


def test_every_definition_has_a_caller_outside_tests():
    # Callers are the package, its scripts and the benchmark, not the tests:
    # code that only tests call belongs in the tests. A top-level function
    # that two modules define (tagger.load_model, tnt.load_model) counts as
    # called only where the caller names its module.
    sample = "def used():\n    pass\n\nclass Box:\n    def __len__(self):\n        return 0\n    def spare(self):\n        used()\n"
    assert definitions(sample) == ["used", "Box", "Box.spare"]
    assert {"used"} <= referenced_names(sample)
    pairs = qualified_references("from .tnt import save_model\ntagger.load_model()\nestimate()\n", "cli")
    assert {("tnt", "save_model"), ("tagger", "load_model"), ("cli", "estimate")} <= pairs
    assert ("tnt", "load_model") not in pairs
    callers = [
        *PACKAGE.glob("*.py"),
        *(ROOT / "scripts").glob("*.py"),
        *(path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_")),
    ]
    sources = {path: path.read_text(encoding="utf-8") for path in callers}
    referenced = set().union(*map(referenced_names, sources.values()))
    qualified = set().union(*(qualified_references(source, path.stem) for path, source in sources.items()))
    package = sorted(PACKAGE.glob("*.py"))
    functions = [node.name for path in package for node in ast.parse(sources[path]).body if isinstance(node, ast.FunctionDef)]
    shared = {name for name, count in Counter(functions).items() if count > 1}

    def called(module: str, name: str) -> bool:
        return (module, name) in qualified if name in shared else name.rsplit(".", 1)[-1] in referenced

    uncalled = {path.name: [name for name in definitions(sources[path]) if not called(path.stem, name)] for path in package}
    assert {name: names for name, names in uncalled.items() if names} == {}
