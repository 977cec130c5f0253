import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from detthick import cli
from detthick.cli import IdealSpecSyntaxError, main, parse_ideal_spec, run
from detthick.ideals import power_gens, saturate, symbolic_gens
from detthick.partitions import Partition
from oracles import reference_parser
from test_cli_golden import _RENDERED

ROOT = Path(__file__).resolve().parent.parent


def run_json(argv):
    out = run(argv + ["--json"])
    doc = json.loads(out)
    assert doc["schema"] == "detthick/1"
    return doc


def test_parse_ideal_spec_families():
    p = parse_ideal_spec("power:2:3", 3)
    assert p.kind == "power" and p.ideal.gens == power_gens(2, 3, 3).gens
    s = parse_ideal_spec("symbolic:2:3", 3)
    assert s.ideal.gens == symbolic_gens(2, 3, 3).gens
    sp = parse_ideal_spec("satpower:2:3", 3)
    assert sp.ideal.gens == saturate(power_gens(2, 3, 3), 1).gens
    mi = parse_ideal_spec("minors:2", 3)
    assert mi.ideal.gens == frozenset({Partition([1, 1])})


def test_parse_ideal_spec_explicit_gens():
    g = parse_ideal_spec("gens:2,2;2,1,1", 3)
    assert g.ideal.gens == frozenset({Partition([2, 2]), Partition([2, 1, 1])})
    assert g.kind == "gens"


def test_parse_ideal_spec_errors_carry_position():
    with pytest.raises(IdealSpecSyntaxError):
        parse_ideal_spec("bogus:1:1", 3)
    with pytest.raises(ValueError):
        parse_ideal_spec("power:4:2", 3)  # p > n
    with pytest.raises(ValueError):
        parse_ideal_spec("gens:2,3", 3)  # not weakly decreasing
    with pytest.raises(ValueError):
        parse_ideal_spec("power:2", 3)  # missing d


def test_zset_command_json():
    doc = run_json(["zset", "--n", "3", "--ideal", "power:2:7"])
    assert doc["command"] == "zset"
    assert len(doc["result"]["pairs"]) == 25
    level0 = [p for p in doc["result"]["pairs"] if p["l"] == 0]
    assert len(level0) == 9


def test_ext_command_worked_example():
    doc = run_json(
        ["ext", "--m", "3", "--n", "3", "--ideal", "power:2:7",
         "--cohdeg", "9", "--deg", "-22"]
    )
    table = doc["result"]["table"]
    assert table == {"-22": "1287"}
    assert len(doc["result"]["components"]) == 5


def _replay_argv(command, request, flags):
    """The argv that asks ``command`` for ``request`` again."""
    argv = [command]
    for dest, value in request.items():
        if dest == "window":
            if value is not None:
                argv += ["--window", str(value[0]), str(value[1])]
        elif dest in flags:  # bblsz-table's fixed m, n and p are not flags
            if isinstance(value, dict):  # an ideal, by its normalized generators
                value = "gens:" + ";".join(",".join(map(str, g)) for g in value["gens"])
            argv += [flags[dest], str(value)]
    return argv


@pytest.mark.parametrize("argv", _RENDERED, ids=" ".join)
def test_json_request_replays_byte_identical(argv):
    # the request names every flag but the output-only ones and --deg, which
    # it records as the window used; rerunning it gives the same document
    flags = {cli._dest(flag): flag for (flag,), _ in cli._all_flags(cli._COMMANDS[argv[0]])}
    first = run(argv + ["--json"])
    request = json.loads(first)["request"]
    assert set(flags) - {"json", "latex", "emit_m2", "deg"} <= set(request)
    replay = _replay_argv(argv[0], request, flags)
    assert run(replay + ["--json"]) == first


def test_ext_map_command():
    doc = run_json(
        ["ext-map", "--m", "3", "--n", "3", "--sub", "power:2:7",
         "--super", "power:2:6", "--cohdeg", "9"]
    )
    img = doc["result"]["image"]
    assert img["table"] == {"-20": "9"}
    assert doc["result"]["kernel"]["pairs"]
    assert doc["result"]["cokernel"]["table"]["-22"] == "1287"


def test_reg_command_text_and_json():
    text = run(["reg", "--n", "3", "--ideal", "power:2:7"])
    assert "13" in text and "14" in text
    doc = run_json(["reg", "--n", "3", "--ideal", "power:2:7"])
    assert doc["result"]["reg_quotient"] == 13
    assert doc["result"]["reg_ideal"] == 14


def test_reg_powers_sweep():
    doc = run_json(
        ["reg-powers", "--n", "3", "--p", "2", "--dmax", "7", "--kind", "power"]
    )
    rows = doc["result"]["rows"]
    assert [r["reg"] for r in rows] == [3, 4, 6, 8, 10, 12, 14]


def test_hilbert_command():
    doc = run_json(
        ["hilbert", "--m", "3", "--n", "3", "--ideal", "power:2:2", "--rmax", "4"]
    )
    assert doc["result"]["table"] == {
        "0": "1", "1": "9", "2": "45", "3": "165", "4": "450"
    }


def test_kodaira_command():
    doc = run_json(
        ["kodaira", "--m", "3", "--n", "3", "--ideal", "power:2:3", "--jmax", "15"]
    )
    assert doc["result"]["passed"] is True
    assert doc["result"]["sing_codim"] == 4


def test_linear_res_command():
    doc = run_json(["linear-res", "--n", "4", "--p", "2", "--dmax", "5"])
    rows = doc["result"]["rows"]
    assert [r["linear"] for r in rows] == [False, False, True, True, True]


def test_bblsz_table_matches_worked_example():
    text = run(["bblsz-table", "--dmax", "7"])
    lines = [ln.strip() for ln in text.splitlines() if ln.strip().startswith("d=")]
    assert lines[0] == "d=1: (none)"
    assert lines[1] == "d=2: (1,1,1)"
    assert lines[2] == "d=3: (2,2,1)"
    assert lines[3] == "d=4: (2,2,2) || (3,3,1) (3,2,2)"
    assert lines[6] == (
        "d=7: (4,4,3) || (4,4,4) (5,5,2) (5,4,3) || "
        "(5,5,3) (5,4,4) (6,6,1) (6,5,2) (6,4,3)"
    )


def test_latex_output():
    out = run(["reg", "--n", "3", "--ideal", "power:2:2", "--latex"])
    assert out.startswith("\\begin{tabular}")
    assert "\\end{tabular}" in out


def test_emit_m2(tmp_path):
    path = tmp_path / "check.m2"
    run(
        ["reg", "--n", "3", "--ideal", "symbolic:2:3", "--emit-m2", str(path)]
    )
    body = path.read_text()
    assert "genericMatrix" in body
    assert "saturate(I^3" in body
    assert "regularity" in body


def test_emit_m2_rejects_raw_gens(tmp_path, monkeypatch):
    def compute(*args):
        raise AssertionError("computed before the ideal kind was checked")

    monkeypatch.setattr(cli, "reg_quotient", compute)
    monkeypatch.setattr(cli, "ext_graded", compute)
    path = tmp_path / "x.m2"
    for argv in (["reg"], ["ext", "--cohdeg", "4"]):
        with pytest.raises(ValueError, match="emit-m2 supports"):
            run(argv + ["--n", "3", "--ideal", "gens:2,2", "--emit-m2", str(path)])
    assert not path.exists()


@pytest.mark.parametrize("where", ["missing/x.m2", "."])
def test_emit_m2_unwritable_path_is_one_error_line(capsys, tmp_path, where):
    # a path in a directory that does not exist, and a path that is a directory
    path = tmp_path / where
    assert main(["reg", "--n", "3", "--ideal", "power:2:2", "--emit-m2", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_main_exit_codes(capsys):
    assert main(["reg", "--n", "3", "--ideal", "power:2:2"]) == 0
    capsys.readouterr()
    assert main(["reg", "--m", "2", "--n", "3", "--ideal", "power:2:2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["reg-powers", "--n", "4", "--p", "2", "--dmax", "0"],
        ["reg-powers", "--n", "4", "--p", "2", "--dmax", "-2", "--kind", "symbolic"],
        ["linear-res", "--n", "4", "--p", "2", "--dmax", "0"],
        ["bblsz-table", "--dmax", "0"],
        ["bblsz-table", "--dmax", "-1", "--json"],
        ["hilbert", "--n", "3", "--ideal", "power:2:2", "--rmax", "-1"],
    ],
)
def test_empty_ranges_are_errors(capsys, argv):
    # an empty d or r range is an input error, not an empty table
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: need --") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, target, message",
    [
        (["ext", "--n", "3", "--ideal", "power:2:2", "--cohdeg", "4", "--window", "0", "1000000"],
         "ext_graded", "computing ext in the window [0, 1000000]; try a narrower --window"),
        (["ext", "--n", "3", "--ideal", "power:2:2", "--cohdeg", "4", "--deg", "7"],
         "ext_graded", "computing ext in the window [7, 7]; try a narrower --window"),
        (["ext-map", "--n", "3", "--sub", "power:2:3", "--super", "power:2:2", "--cohdeg", "4"],
         "ext_map_parts", "computing ext-map in its default window; try a narrower --window"),
        (["zset", "--n", "3", "--ideal", "power:2:2"], "zset_general", "computing zset"),
    ],
)
def test_out_of_memory_is_one_error_line(capsys, monkeypatch, argv, target, message):
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(cli, target, exhaust)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: out of memory {message}\n"


def test_json_latex_conflict_rejected_before_computing(tmp_path):
    path = tmp_path / "check.m2"
    with pytest.raises(ValueError, match="at most one of --json and --latex"):
        run(["reg", "--n", "3", "--ideal", "power:2:2", "--emit-m2", str(path),
             "--json", "--latex"])
    assert not path.exists()


def test_console_script_installed():
    # pyproject.toml points the detthick script at cli.main, and the module runs
    # as a program against the package in src
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)", pyproject, re.M)
    assert scripts is not None
    assert re.search(r'^detthick\s*=\s*"detthick\.cli:main"\s*$', scripts.group(1), re.M)
    argv = ["zset", "--n", "2", "--ideal", "minors:2"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "detthick.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == run(argv)


def test_m_defaults_to_n():
    doc = run_json(["ext", "--n", "3", "--ideal", "power:2:7", "--cohdeg", "9"])
    assert doc["request"]["m"] == 3


def test_help_lists_every_command_and_flag(capsys):
    top = run(["--help"])
    assert run(["-h"]) == top
    for name, cmd in cli._COMMANDS.items():
        assert f"  {name} " in top and cmd.help in top
        text = run([name, "--json", "--help"])
        assert text.startswith(f"usage: detthick {name} ") and cmd.help in text
        for (flag,), kw in cli._all_flags(cmd):
            assert f"  {flag}" in text and kw.get("help", "") in text
    assert main(["reg-powers", "-h"]) == 0
    out, err = capsys.readouterr()
    assert "{power,satpower,symbolic}" in out and "(default: power)" in out and err == ""


# ---------------------------------------------------------------- the parser against argparse

_REFERENCE = reference_parser()
_STRINGS = st.sampled_from(["", "-", "-3", "power:2:2", "a=b"]) | st.text("abc019:,;.", max_size=6)


def _flag_args(draw, flag, kw):
    # one occurrence of a flag with values it accepts
    if kw.get("action") == "store_true":
        return [flag]
    if "choices" in kw:
        return [flag, draw(st.sampled_from(kw["choices"]))]
    if kw.get("type") is int:
        return [flag, *(str(draw(st.integers(-30, 30))) for _ in range(kw.get("nargs", 1)))]
    return [flag, draw(_STRINGS)]


@st.composite
def _command_lines(draw):
    """A command and its flag groups: each required flag, optional ones on or
    off, some given twice, in any order."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    groups = []
    for (flag,), kw in cli._all_flags(cli._COMMANDS[name]):
        if kw.get("required") or draw(st.booleans()):
            groups += [_flag_args(draw, flag, kw) for _ in range(draw(st.sampled_from([1, 1, 2])))]
    return name, draw(st.permutations(groups))


def _argv(name, groups):
    return [name] + [token for group in groups for token in group]


def _reference_parse(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        return _REFERENCE.parse_args(argv)


@settings(max_examples=300, deadline=None)
@given(_command_lines())
def test_parse_equals_argparse(line):
    argv = _argv(*line)
    assert vars(cli._parse(argv)) == vars(_reference_parse(argv))


def _malformed(data, name, groups):
    # one way to break a valid command line; argparse refuses each as well
    flags = {names[0]: kw for names, kw in cli._all_flags(cli._COMMANDS[name])}
    groups = [list(g) for g in groups]
    ints = [i for i, g in enumerate(groups) if flags[g[0]].get("type") is int]
    chosen = [i for i, g in enumerate(groups) if "choices" in flags[g[0]]]
    required = [f for f, kw in flags.items() if kw.get("required")]
    valued = [f for f, kw in flags.items() if kw.get("action") != "store_true"]
    prefixes = [  # (group, a prefix of its flag that names no flag)
        (i, g[0][:k]) for i, g in enumerate(groups) for k in range(3, len(g[0]))
        if g[0][:k] not in flags
    ]
    ways = ["empty", "command", "missing", "integer", "stray", "switch=", "no value"]
    ways += ["choice"] * bool(chosen) + ["abbreviation"] * bool(prefixes)
    way = data.draw(st.sampled_from(ways))
    at = data.draw(st.integers(0, len(groups)))
    if way == "empty":
        return []
    if way == "command":
        name = data.draw(st.sampled_from(["bogus", "Zset", "--n", "-3"]))
    elif way == "missing":
        gone = data.draw(st.sampled_from(required))
        groups = [g for g in groups if g[0] != gone]
    elif way == "integer":
        g = groups[data.draw(st.sampled_from(ints))]
        g[data.draw(st.integers(1, len(g) - 1))] = data.draw(st.sampled_from(["x", "1.5", "", "--"]))
    elif way == "choice":
        groups[data.draw(st.sampled_from(chosen))][1] = "bogus"
    elif way == "stray":
        groups.insert(at, [data.draw(st.sampled_from(["--bogus", "stray", "-x", "-3", "--"]))])
    elif way == "switch=":
        groups.insert(at, [data.draw(st.sampled_from(["--json=1", "--latex="]))])
    elif way == "no value":
        groups.append([data.draw(st.sampled_from(valued))])
    else:
        i, prefix = data.draw(st.sampled_from(prefixes))
        groups[i][0] = prefix
    return _argv(name, groups)


@settings(max_examples=300, deadline=None)
@given(_command_lines(), st.data())
def test_parse_refuses_what_argparse_refuses(line, data):
    argv = _malformed(data, *line)
    with pytest.raises(SystemExit) as exc:
        _reference_parse(argv)
    assert exc.value.code == 2
    with pytest.raises(ValueError):
        cli._parse(argv)


# ---------------------------------------------------------------- the JSON writer

# quotes, backslashes, control characters, DEL, non-ASCII, a line separator
# and an astral character (written as a surrogate pair)
_AWKWARD = st.text(st.sampled_from('a "\\/\x00\x08\x1f\x7f\u00e9\u2028\U0001f600'))
_INTS = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
_SCALARS = st.none() | st.booleans() | _INTS | st.text() | _AWKWARD
# lists of ints, and lists that mix ints and bools
_INT_LISTS = st.lists(_INTS) | st.lists(_INTS | st.booleans(), min_size=1)
_DOCS = st.recursive(
    _SCALARS | _INT_LISTS,
    lambda inner: st.lists(inner) | st.dictionaries(st.text() | _AWKWARD, inner),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_DOCS)
def test_json_text_equals_json_dumps(doc):
    assert cli._json_text(doc, "\n") == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "doc",
    [
        1.5,
        {"a": [1, 2, 0.5]},
        (1, 2),
        {"a": {"b": (1,)}},
        [Partition([2, 1])],  # a tuple subclass
        {1: "a"},
        {"a": {None: 1}},
        {"a": 1, 2: 3},
    ],
)
def test_json_text_refuses_other_types(doc):
    with pytest.raises(TypeError):
        cli._json_text(doc, "\n")
