"""Every name a module of the package, a test or a demo imports is used in that file.

The package's ``__init__.py`` re-exports what it imports and ``from __future__``
imports are directives, so both are left out; ``__all__`` must list exactly
the names ``__init__.py`` imports.
"""

import ast
from pathlib import Path

import detthick

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "detthick"


def _unused(tree: ast.Module) -> list[tuple[str, int]]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # an attribute chain a.b.c reaches ast.Name "a" through ast.walk
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in imported.items() if name not in used)


def test_package_has_no_unused_imports():
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert files, f"no modules found under {PACKAGE}"
    for folder in ("tests", "demos"):
        found_here = sorted((ROOT / folder).glob("*.py"))
        assert found_here, f"no files found under {ROOT / folder}"
        files += found_here
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in files
        for name, line in _unused(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported, "no imports found in __init__.py"
    assert detthick.__all__ == sorted(set(detthick.__all__))
    assert set(detthick.__all__) == set(imported)
