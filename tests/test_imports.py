"""Every name a library module imports is used, every private module-level
name is referenced, and the package exports what it imports."""

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


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """``_name`` -> line of every module-level def, class or assignment, dunders aside."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        names.update((name, node.lineno) for name in targets if name.startswith("_") and not name.startswith("__"))
    return names


def test_library_private_names_are_referenced():
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.name, line, name) for name, line in _private_definitions(tree).items()]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert len(defined) > 50, defined
    dead = [f"{name}:{line} {private}" for name, line, private in defined if private not in referenced]
    assert not dead, dead
