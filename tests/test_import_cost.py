"""Importing the package and its CLI loads no module that a run does not use.

Every CLI call starts a fresh interpreter, so what ``import detthick,
detthick.cli`` loads is paid on every call.  One ``python -S`` subprocess
(``-S`` keeps ``site`` from loading modules of its own) imports both, lists
which of ``dataclasses``, ``inspect``, ``json``, ``argparse`` and ``gettext``
got loaded, then renders two ``--json`` documents with ``cli.run``; those must
equal the golden corpus byte for byte, and loading ``json`` for them must not
have loaded ``argparse`` or ``gettext``: the CLI parses its flags itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src"
CORPUS = TESTS / "golden" / "cli_corpus.json"

ARGVS = [
    ["ext-map", "--m", "3", "--n", "3", "--sub", "power:2:7", "--super", "power:2:6",
     "--cohdeg", "9", "--json"],
    ["kodaira", "--m", "3", "--n", "3", "--ideal", "power:2:3", "--jmax", "15", "--json"],
]

SCRIPT = r"""
import sys
import detthick, detthick.cli
loaded = [m for m in ("dataclasses", "inspect", "json", "argparse", "gettext") if m in sys.modules]
docs = [detthick.cli.run(argv) for argv in ARGVS]
after = [m for m in ("argparse", "gettext") if m in sys.modules]
import json
print(json.dumps({"loaded": loaded, "after": after, "docs": docs}))
"""


def test_import_loads_no_dataclasses_inspect_json_or_argparse():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"ARGVS = {ARGVS!r}\n{SCRIPT}"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["loaded"] == [] and got["after"] == []
    golden = {tuple(c["argv"]): c["stdout"] for c in json.loads(CORPUS.read_text())["cases"]}
    assert got["docs"] == [golden[tuple(argv)] for argv in ARGVS]
