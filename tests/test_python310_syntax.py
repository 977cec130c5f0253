"""Every Python file of the project parses as Python 3.10, its least supported version.

``ast.parse`` with ``feature_version=(3, 10)`` rejects grammar added later, such
as ``except*``, on a newer interpreter.  It checks syntax only, and on a
best-effort basis: a standard-library name or behaviour added after 3.10 still
passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = ("src", "tests", "demos", "bench")


def test_every_file_parses_as_python_310():
    files = []
    for folder in FOLDERS:
        found_here = sorted((ROOT / folder).rglob("*.py"))
        assert found_here, f"no files found under {ROOT / folder}"
        files += found_here
    failed = []
    for path in files:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as err:
            failed.append(f"{path.relative_to(ROOT)}:{err.lineno} {err.msg}")
    assert failed == []
