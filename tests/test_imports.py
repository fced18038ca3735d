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
