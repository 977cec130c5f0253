"""The CLI's output, compared byte for byte with a committed corpus.

``tests/golden/cli_corpus.json`` records, for every argv in ``CASES``, the
return code of ``main`` and what it wrote to stdout and stderr, plus the
Macaulay2 script that ``--emit-m2`` wrote (or null when it wrote none).  It
also records the flags each subcommand accepts, without their help text, as
argparse reads the command table (``oracles.reference_parser``).
Any change to these is a change of behaviour.  When one is intended,
regenerate the corpus and review its diff:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from detthick.cli import main
from oracles import reference_parser

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.json"
M2 = "@M2"  # stands for the path given to --emit-m2

_FORMATS = ([], ["--json"], ["--latex"])

_RENDERED = [
    ["zset", "--n", "3", "--ideal", "power:2:7"],
    ["zset", "--m", "4", "--n", "3", "--ideal", "gens:3,1;2,2,2"],
    ["ext", "--m", "3", "--n", "3", "--ideal", "power:2:7", "--cohdeg", "9", "--deg", "-22"],
    ["ext", "--m", "4", "--n", "3", "--ideal", "power:2:3", "--cohdeg", "9"],
    ["ext", "--n", "3", "--ideal", "minors:2", "--cohdeg", "4", "--window", "-6", "-3"],
    ["ext", "--n", "3", "--ideal", "power:2:7", "--cohdeg", "8"],  # empty window
    ["ext-map", "--m", "3", "--n", "3", "--sub", "power:2:7", "--super", "power:2:6",
     "--cohdeg", "9"],
    ["ext-map", "--n", "3", "--sub", "symbolic:2:3", "--super", "minors:2", "--cohdeg", "4",
     "--deg", "-6"],
    ["reg", "--n", "3", "--ideal", "power:2:7"],
    ["reg", "--m", "4", "--n", "3", "--ideal", "symbolic:2:3"],
    ["reg", "--n", "3", "--ideal", "gens:0"],  # the unit ideal
    ["reg-powers", "--n", "3", "--p", "2", "--dmax", "5", "--kind", "power"],
    ["reg-powers", "--m", "4", "--n", "3", "--p", "2", "--dmax", "4", "--kind", "satpower"],
    ["reg-powers", "--n", "3", "--p", "3", "--dmax", "3", "--kind", "symbolic"],
    ["hilbert", "--m", "3", "--n", "3", "--ideal", "power:2:2", "--rmax", "4"],
    ["hilbert", "--m", "4", "--n", "2", "--ideal", "minors:1", "--rmax", "2"],
    ["kodaira", "--m", "3", "--n", "3", "--ideal", "power:2:3", "--jmax", "15"],
    ["kodaira", "--m", "4", "--n", "3", "--ideal", "minors:1", "--jmax", "5"],
    ["linear-res", "--n", "4", "--p", "2", "--dmax", "5"],
    ["linear-res", "--m", "5", "--n", "4", "--p", "2", "--dmax", "3"],
    ["bblsz-table", "--dmax", "7"],
]

_EMIT_M2 = [
    ["reg", "--n", "3", "--ideal", "power:2:3", "--emit-m2", M2],
    ["reg", "--n", "3", "--ideal", "symbolic:1:2", "--emit-m2", M2],
    ["reg", "--n", "3", "--ideal", "symbolic:2:3", "--emit-m2", M2],
    ["reg", "--n", "3", "--ideal", "satpower:2:3", "--emit-m2", M2],
    ["reg", "--n", "3", "--ideal", "satpower:1:2", "--emit-m2", M2],
    ["reg", "--m", "4", "--n", "3", "--ideal", "minors:2", "--emit-m2", M2],
    ["ext", "--n", "3", "--ideal", "power:2:7", "--cohdeg", "9", "--emit-m2", M2],
    ["ext", "--m", "4", "--n", "3", "--ideal", "minors:2", "--cohdeg", "6", "--deg", "-8",
     "--emit-m2", M2, "--json"],
]

_ERRORS = [
    ["reg", "--m", "2", "--n", "3", "--ideal", "power:2:2"],  # m < n
    ["linear-res", "--m", "3", "--n", "4", "--p", "2", "--dmax", "2"],  # m < n
    ["zset", "--n", "0", "--ideal", "minors:1"],  # n < 1
    ["zset", "--n", "3", "--ideal", "bogus:1:1"],
    ["zset", "--n", "3", "--ideal", "minors"],
    ["zset", "--n", "3", "--ideal", "power:2"],
    ["zset", "--n", "3", "--ideal", "power:x:2"],
    ["zset", "--n", "3", "--ideal", "power:4:2"],
    ["zset", "--n", "3", "--ideal", "power:2:0"],
    ["zset", "--n", "3", "--ideal", "gens:2,3"],
    ["zset", "--n", "3", "--ideal", "gens:0"],  # no labels for the unit ideal
    ["ext", "--n", "3", "--ideal", "power:2:7", "--cohdeg", "9", "--deg", "-22",
     "--window", "-22", "-20"],
    ["ext", "--n", "3", "--ideal", "power:2:7", "--cohdeg", "9", "--window", "-20", "-22"],
    ["ext-map", "--n", "3", "--sub", "power:2:6", "--super", "power:2:7", "--cohdeg", "9"],
    ["reg", "--n", "3", "--ideal", "gens:2,2", "--emit-m2", M2],
    ["ext", "--n", "3", "--ideal", "power:2:7", "--cohdeg", "8", "--emit-m2", M2],
    ["reg-powers", "--n", "3", "--p", "1", "--dmax", "2", "--kind", "satpower"],
    ["reg", "--n", "3", "--ideal", "power:2:2", "--json", "--latex"],
    # usage errors: the command line itself is malformed
    [],
    ["bogus", "--n", "3"],
    ["zset", "--n", "3", "--ideal", "minors:1", "--bogus"],
    ["zset", "--ideal", "minors:1", "--n"],
    ["zset", "--n", "x", "--ideal", "minors:1"],
    ["reg-powers", "--n", "3", "--p", "2", "--dmax", "2", "--kind", "bogus"],
    ["zset", "--n", "3"],
    ["zset", "--n", "3", "--ideal", "minors:1", "--json=1"],
    ["zset", "--n", "3", "--id", "minors:1"],  # flags are not abbreviated
]

CASES = [argv + fmt for argv in _RENDERED for fmt in _FORMATS] + _EMIT_M2 + _ERRORS


def run_case(argv, tmp_path: Path) -> dict:
    """main's return code, stdout and stderr, and the script --emit-m2 wrote."""
    path = tmp_path / "out.m2"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(path) if a == M2 else a for a in argv])
    return {
        "argv": argv,
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "m2": path.read_text() if path.exists() else None,
    }


def parser_flags() -> dict:
    """Each subcommand's flags with everything argparse uses to parse them."""
    top = reference_parser()
    [sub] = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    out = {}
    for name, sp in sub.choices.items():
        flags = [
            {
                "flags": a.option_strings,
                "dest": a.dest,
                "action": type(a).__name__,
                "nargs": a.nargs,
                "type": getattr(a.type, "__name__", None),
                "default": a.default,
                "required": a.required,
                "choices": list(a.choices) if a.choices else None,
                "metavar": list(a.metavar) if isinstance(a.metavar, tuple) else a.metavar,
            }
            for a in sp._actions
        ]
        out[name] = sorted(flags, key=lambda f: f["dest"])
    return out


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_covers_the_cases(corpus):
    assert [c["argv"] for c in corpus["cases"]] == CASES


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_corpus(argv, corpus, tmp_path):
    expected = next(c for c in corpus["cases"] if c["argv"] == argv)
    assert run_case(argv, tmp_path) == expected


def test_errors_are_one_line(corpus):
    # every error ends the run with status 1, nothing on stdout and one error: line
    cases = [c for c in corpus["cases"] if c["argv"] in _ERRORS]
    assert len(cases) == len(_ERRORS)
    for c in cases:
        lines = c["stderr"].splitlines(keepends=True)
        assert (c["rc"], c["stdout"], len(lines)) == (1, "", 1), c["argv"]
        assert lines[0].startswith("error: ") and lines[0].endswith("\n"), c["argv"]


def test_parser_flags_match_corpus(corpus):
    assert parser_flags() == corpus["parser"]


def _write_corpus() -> None:
    cases = []
    for argv in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cases.append(run_case(argv, Path(tmp)))
    doc = {"cases": cases, "parser": parser_flags()}
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    _write_corpus()
