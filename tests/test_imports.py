"""Every name a library module imports is used, and the package exports what it imports."""

import ast
from pathlib import Path

import immobilize2d

SRC = Path(immobilize2d.__file__).parent


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, ``__future__`` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_library_modules_use_every_import():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree).items() if name not in used]
    assert not unused, unused


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert sorted(immobilize2d.__all__) == sorted(_imported(tree))
