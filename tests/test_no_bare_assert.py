"""The package raises real exceptions for its correctness checks.

A bare ``assert`` is skipped under ``python -O``, so none may appear in
``src/detthick``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "detthick"


def test_package_has_no_bare_assert():
    files = sorted(PACKAGE.glob("*.py"))
    assert files, f"no modules found under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
