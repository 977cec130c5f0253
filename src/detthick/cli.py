"""Command line front end.

Every command computes one result dictionary and renders it as text, JSON
or LaTeX.  JSON is the source of truth: the text and LaTeX views are derived
from the same dictionary.  The emitted JSON also embeds the request: every
flag as resolved, with ideals normalized to their generators, ``--m``
defaulted to ``--n`` and ``--deg``/``--window`` replaced by the window used,
so the exact invocation can be replayed.  ``run`` builds the request in one
place for every command.  Each command is one entry of ``_COMMANDS``, which
holds its flags, its computation and its two renderers; ``_parse`` reads the
command line from that table and builds the help text from it.  It takes
flags in any order, keeps a repeated flag's last value and reads negative
integers as values, as argparse did, but refuses abbreviated flags and the
``--flag=value`` form.  A malformed command line, like any bad input, ends in
one ``error:`` line and exit status 1.  JSON documents are
written by ``_json_text``, whose output is byte-identical to ``json.dumps(doc,
indent=2, sort_keys=True)``; with ``indent`` set that call never takes the C
encoder, and on a wide Ext window it would cost more than the computation.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence

from .ext import ext_graded, ext_map_parts
from .ideals import (
    IdealSpec,
    normalize,
    power_gens,
    radical_index,
    saturate,
    symbolic_gens,
)
from .kodaira import kodaira_check, sing_codim
from .partitions import Partition
from .regularity import KINDS, NEG_INF, reg_power_details, reg_quotient
from .schur import graded_table_to_json, quotient_hilbert_table
from .zset import zset_general

SCHEMA = "detthick/1"


class IdealSpecSyntaxError(ValueError):
    """Bad ideal grammar; carries the offending position in the input string."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ParsedIdeal(NamedTuple):
    """An ideal together with how it was named on the command line."""

    ideal: IdealSpec
    kind: str
    p: Optional[int]
    d: Optional[int]


def _int_at(token: str, pos: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise IdealSpecSyntaxError(f"expected an integer {what}, got {token!r}", pos) from None


def parse_ideal_spec(text: str, n: int) -> ParsedIdeal:
    """Parse the ideal grammar.

    power:p:d | symbolic:p:d | satpower:p:d | minors:p | gens:z1;z2;...
    where each z is a comma form like 2,1,1 and the empty partition is ""
    or "0".
    """
    head, sep, rest = text.partition(":")
    if not sep:
        raise IdealSpecSyntaxError(f"missing ':' after ideal kind {text!r}", len(text))
    base = len(head) + 1
    if head in ("power", "symbolic", "satpower"):
        tokens = rest.split(":")
        if len(tokens) != 2:
            raise IdealSpecSyntaxError(f"{head} needs p:d", base)
        p = _int_at(tokens[0], base, "p")
        d = _int_at(tokens[1], base + len(tokens[0]) + 1, "d")
        if not 1 <= p <= n:
            raise IdealSpecSyntaxError(f"need 1 <= p <= n={n}, got p={p}", base)
        if d < 1:
            raise IdealSpecSyntaxError(f"need d >= 1, got d={d}", base + len(tokens[0]) + 1)
        if head == "power":
            return ParsedIdeal(power_gens(p, d, n), head, p, d)
        if head == "symbolic":
            return ParsedIdeal(symbolic_gens(p, d, n), head, p, d)
        return ParsedIdeal(saturate(power_gens(p, d, n), 1), head, p, d)
    if head == "minors":
        p = _int_at(rest, base, "p")
        if not 1 <= p <= n:
            raise IdealSpecSyntaxError(f"need 1 <= p <= n={n}, got p={p}", base)
        return ParsedIdeal(IdealSpec(n, frozenset([Partition([1] * p)])), head, p, 1)
    if head == "gens":
        gens = []
        pos = base
        for tok in rest.split(";"):
            try:
                gens.append(Partition.from_text(tok))
            except ValueError as exc:
                raise IdealSpecSyntaxError(str(exc), pos) from None
            pos += len(tok) + 1
        return ParsedIdeal(normalize(n, gens), head, None, None)
    raise IdealSpecSyntaxError(f"unknown ideal kind {head!r}", 0)


def _reg_json(v) -> Optional[int]:
    return None if v == NEG_INF else int(v)


# ---------------------------------------------------------------- rendering


def _json_text(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for what a CLI document holds.

    ``pad`` is a newline and the indent of the line ``obj`` starts on ("\\n" at
    the top).  Dicts with str keys, lists, str, int, bool and None are written
    byte for byte as ``json.dumps`` writes them, strings through the escaper it
    uses; a list of exact ints is one join.  Anything else raises TypeError.
    """
    from json.encoder import encode_basestring_ascii as quote  # only JSON runs load json

    def text(obj, pad: str) -> str:
        kind = type(obj)
        if kind is str:
            return quote(obj)
        if kind is int:
            return repr(obj)
        if obj is None:
            return "null"
        if kind is bool:
            return "true" if obj else "false"
        inner = pad + "  "
        if kind is list:
            if not obj:
                return "[]"
            ints = set(map(type, obj)) == {int}
            items = map(repr, obj) if ints else [text(v, inner) for v in obj]
            return "[" + inner + ("," + inner).join(items) + pad + "]"
        if kind is dict:
            if not obj:
                return "{}"
            # quote raises TypeError on a key that is not a str
            items = [quote(k) + ": " + text(obj[k], inner) for k in sorted(obj)]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        raise TypeError(f"no JSON form for {kind.__name__} in a CLI document")

    return text(obj, pad)


def _fmt_partition(parts: Sequence[int]) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")" if parts else "(0)"


def _fmt_reg(v: Optional[int]) -> str:
    return "-inf" if v is None else str(v)


def _latex_table(header: list[str], rows: list[list[str]]) -> str:
    cols = "l" * len(header)
    lines = ["\\begin{tabular}{" + cols + "}", " & ".join(header) + " \\\\ \\hline"]
    for row in rows:
        lines.append(" & ".join(row) + " \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


def _text_zset(req, res) -> str:
    lines = [f"factor labels for {req['ideal']['gens']} (n={req['n']}): {res['count']}"]
    for pair in res["pairs"]:
        lines.append(f"  z={_fmt_partition(pair['z'])}  l={pair['l']}")
    return "\n".join(lines) + "\n"


def _latex_zset(req, res) -> str:
    rows = [[f"${_fmt_partition(p['z'])}$", str(p["l"])] for p in res["pairs"]]
    return _latex_table(["$z$", "$l$"], rows)


def _text_table_block(table: dict) -> list[str]:
    return [f"  degree {r}: dim {v}" for r, v in table.items()]


def _text_ext(req, res) -> str:
    win = res["window"]
    lines = [
        f"Ext^{req['cohdeg']} of the quotient, m={req['m']} n={req['n']}, "
        f"window {win if win else 'empty'}"
    ]
    for c in res["components"]:
        lines.append(
            f"  z={_fmt_partition(c['z'])} l={c['l']} s={c['s']} t={tuple(c['t'])}"
            f" lambda={tuple(c['lambda'])} degree={c['degree']} dim={c['dim']}"
        )
    lines.extend(_text_table_block(res["table"]))
    lines.append(f"  total dim in window: {res['total']}")
    return "\n".join(lines) + "\n"


def _latex_ext(req, res) -> str:
    rows = [
        [
            f"${_fmt_partition(c['z'])}$",
            str(c["l"]),
            str(c["s"]),
            f"${tuple(c['t'])}$",
            f"${tuple(c['lambda'])}$",
            str(c["degree"]),
            c["dim"],
        ]
        for c in res["components"]
    ]
    return _latex_table(["$z$", "$l$", "$s$", "$t$", "$\\lambda$", "deg", "dim"], rows)


def _text_ext_map(req, res) -> str:
    lines = [
        f"Ext^{req['cohdeg']} map parts for the inclusion, m={req['m']} n={req['n']}, "
        f"window {res['window'] if res['window'] else 'empty'}"
    ]
    for name in ("kernel", "image", "cokernel"):
        part = res[name]
        labels = " ".join(
            f"({_fmt_partition(p['z'])},{p['l']})" for p in part["pairs"]
        )
        lines.append(f"{name}: labels [{labels}]")
        lines.extend(_text_table_block(part["table"]))
    return "\n".join(lines) + "\n"


def _latex_ext_map(req, res) -> str:
    rows = [
        [name, r, v]
        for name in ("kernel", "image", "cokernel")
        for r, v in res[name]["table"].items()
    ]
    return _latex_table(["part", "deg", "dim"], rows)


def _text_reg(req, res) -> str:
    return (
        f"reg(S/I) = {_fmt_reg(res['reg_quotient'])}\n"
        f"reg(I)   = {_fmt_reg(res['reg_ideal'])}\n"
    )


def _latex_reg(req, res) -> str:
    return _latex_table(
        ["$\\operatorname{reg}(S/I)$", "$\\operatorname{reg}(I)$"],
        [[_fmt_reg(res["reg_quotient"]), _fmt_reg(res["reg_ideal"])]],
    )


def _text_reg_powers(req, res) -> str:
    lines = [f"regularity of {req['kind']} of {req['p']}x{req['p']} minors, n={req['n']}"]
    for row in res["rows"]:
        per = " ".join(f"R[{l}]={_fmt_reg(v)}" for l, v in row["per_level"].items())
        lines.append(f"  d={row['d']}: reg={_fmt_reg(row['reg'])}  ({per})")
    return "\n".join(lines) + "\n"


def _latex_reg_powers(req, res) -> str:
    rows = [[str(r["d"]), _fmt_reg(r["reg"])] for r in res["rows"]]
    return _latex_table(["$d$", "$\\operatorname{reg}$"], rows)


def _text_hilbert(req, res) -> str:
    lines = [f"graded dimensions of the quotient, m={req['m']} n={req['n']}"]
    lines.extend(_text_table_block(res["table"]))
    return "\n".join(lines) + "\n"


def _latex_hilbert(req, res) -> str:
    return _latex_table(["deg", "dim"], [[r, v] for r, v in res["table"].items()])


def _text_kodaira(req, res) -> str:
    lines = [
        f"vanishing scan m={req['m']} n={req['n']} twists 1..{req['jmax']}"
        f" at k in {res['k_checked']}: {'PASS' if res['passed'] else 'FAIL'}"
    ]
    if res["sing_codim"] is not None:
        lines.append(f"  singular locus codimension: {res['sing_codim']}")
    lines.append(f"  mechanism (s=0 throughout the range): {res['mechanism_ok']}")
    lines.append(f"  violations: {len(res['violations'])}")
    return "\n".join(lines) + "\n"


def _latex_kodaira(req, res) -> str:
    return _latex_table(
        ["$k$ range", "violations", "passed"],
        [[str(tuple(res["k_checked"])), str(len(res["violations"])), str(res["passed"])]],
    )


def _text_linear_res(req, res) -> str:
    lines = [f"linear resolution scan for {req['p']}x{req['p']} minors, n={req['n']}"]
    for row in res["rows"]:
        lines.append(
            f"  d={row['d']}: reg={_fmt_reg(row['reg'])}  linear={'yes' if row['linear'] else 'no'}"
        )
    return "\n".join(lines) + "\n"


def _latex_linear_res(req, res) -> str:
    rows = [[str(r["d"]), _fmt_reg(r["reg"]), "yes" if r["linear"] else "no"] for r in res["rows"]]
    return _latex_table(["$d$", "$\\operatorname{reg}$", "linear"], rows)


def _text_bblsz(req, res) -> str:
    lines = [f"level-0 factor labels of powers of 2x2 minors, m=n=3, d=1..{req['dmax']}"]
    for row in res["rows"]:
        groups = " || ".join(
            " ".join(_fmt_partition(z) for z in grp) for grp in row["groups"]
        )
        lines.append(f"  d={row['d']}: {groups if groups else '(none)'}")
    return "\n".join(lines) + "\n"


def _latex_bblsz(req, res) -> str:
    rows = []
    for row in res["rows"]:
        groups = " \\;\\|\\;\\; ".join(
            ", ".join(f"${_fmt_partition(z)}$" for z in grp) for grp in row["groups"]
        )
        rows.append([str(row["d"]), groups])
    return _latex_table(["$d$", "$z$ by size"], rows)


# ---------------------------------------------------------------- macaulay2


_M2_KINDS = ("power", "symbolic", "satpower", "minors")


def emit_m2(parsed: ParsedIdeal, m: int, n: int, what: str, path: str, **kw) -> None:
    """Write a Macaulay2 cross-check script for a named determinantal family.

    ``run`` refuses other kinds than ``_M2_KINDS`` before computing: the polynomial
    generators of a gens ideal are out of scope here.  The engine never runs the script.
    """
    p, d = parsed.p, parsed.d
    lines = [
        "-- cross-check script, written by detthick; run with Macaulay2",
        f"R = QQ[x_(1,1)..x_({m},{n})];",
        f"M = genericMatrix(R, x_(1,1), {m}, {n});",
        f"I = minors({p}, M);",
    ]
    if parsed.kind == "minors":
        lines.append("J = I;")
    elif parsed.kind == "satpower":
        lines.append(f"J = saturate(I^{d});")
    elif parsed.kind == "power" or p == 1:  # symbolic powers of the maximal ideal are powers
        lines.append(f"J = I^{d};")
    else:
        lines.append(f"J = saturate(I^{d}, minors({p - 1}, M));")
    if what == "reg":
        lines += [
            "r = regularity(R^1/J);",
            '<< "reg(S/I) = " << r << endl;',
            '<< "reg(I)   = " << r + 1 << endl;',
        ]
    else:
        j, lo, hi = kw["cohdeg"], kw["lo"], kw["hi"]
        lines += [
            f"E = Ext^{j}(R^1/J, R^1);",
            f"for r from {lo} to {hi} do << r << \" \" << hilbertFunction(r, E) << endl;",
        ]
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------- commands


def _window_from_args(args) -> Optional[tuple[int, int]]:
    if args.deg is not None and args.window is not None:
        raise ValueError("give either --deg or --window, not both")
    if args.deg is not None:
        return (args.deg, args.deg)
    if args.window is not None:
        return tuple(args.window)
    return None


def _cmd_zset(args) -> dict:
    zs = zset_general(args.ideal.ideal)
    return {"count": len(zs.pairs), "pairs": [p.to_json() for p in zs.sorted_pairs()]}


def _cmd_ext(args) -> dict:
    window = _window_from_args(args)
    res = ext_graded(args.ideal.ideal, args.cohdeg, args.m, args.n, window)
    if args.emit_m2:
        if res.window is None:
            raise ValueError("no contributing chain at this cohomological degree; nothing to emit")
        emit_m2(args.ideal, args.m, args.n, "ext", args.emit_m2,
                cohdeg=args.cohdeg, lo=res.window[0], hi=res.window[1])
    return {
        "window": list(res.window) if res.window else None,
        "components": [c.to_json() for c in res.components],
        "table": graded_table_to_json(res.graded()),
        "total": str(sum(c.dim for c in res.components)),
    }


def _cmd_ext_map(args) -> dict:
    window = _window_from_args(args)
    res = ext_map_parts(args.sub.ideal, args.super.ideal, args.cohdeg, args.m, args.n, window)
    parts = {}
    for name, part in (("kernel", res.kernel), ("image", res.image), ("cokernel", res.cokernel)):
        parts[name] = {
            "pairs": [p.to_json() for p in part.pairs],
            "components": [c.to_json() for c in part.components],
            "table": graded_table_to_json(part.graded()),
        }
    return {"window": list(res.window) if res.window else None, **parts}


def _cmd_reg(args) -> dict:
    rq = reg_quotient(args.ideal.ideal, args.m, args.n)
    if args.emit_m2:
        emit_m2(args.ideal, args.m, args.n, "reg", args.emit_m2)
    return {"reg_quotient": _reg_json(rq), "reg_ideal": _reg_json(rq + 1)}


def _cmd_reg_powers(args) -> dict:
    rows = []
    for d in range(1, args.dmax + 1):
        reg, per = reg_power_details(args.p, d, args.m, args.n, args.kind)
        rows.append(
            {
                "d": d,
                "reg": _reg_json(reg),
                "per_level": {str(l): _reg_json(v) for l, v in sorted(per.items())},
            }
        )
    return {"rows": rows}


def _cmd_hilbert(args) -> dict:
    table = quotient_hilbert_table(args.ideal.ideal, 0, args.rmax, args.m, args.n)
    return {"table": graded_table_to_json(table)}


def _cmd_kodaira(args) -> dict:
    report = kodaira_check(args.ideal.ideal, args.m, args.n, args.jmax)
    # kodaira_check has refused the zero and unit ideals, so the radical index exists
    p = radical_index(args.ideal.ideal)
    return {**report.to_json(), "sing_codim": sing_codim(p, args.m, args.n) if p >= 2 else None}


def _cmd_linear_res(args) -> dict:
    rows = []
    for d in range(1, args.dmax + 1):
        reg, _ = reg_power_details(args.p, d, args.m, args.n, "power")
        rows.append({"d": d, "reg": _reg_json(reg), "linear": reg == args.p * d})
    return {"rows": rows}


def _bblsz_key(z: Partition) -> tuple:
    return (z.size, z.part(1), tuple(-q for q in z.parts))


def _cmd_bblsz(args) -> dict:
    # the table is fixed to powers of 2x2 minors on 3x3 matrices; recording
    # them on args puts them in the request
    args.m, args.n, args.p = 3, 3, 2
    rows = []
    for d in range(1, args.dmax + 1):
        labels = zset_general(power_gens(args.p, d, args.n)).pairs
        zs = sorted((pair.z for pair in labels if pair.l == 0), key=_bblsz_key)
        groups: list[list[list[int]]] = []
        for z in zs:
            if not groups or sum(groups[-1][-1]) != z.size:
                groups.append([])
            groups[-1].append(z.to_json())
        rows.append({"d": d, "z": [z.to_json() for z in zs], "groups": groups})
    return {"rows": rows}


# ---------------------------------------------------------------- command table


def _flag(*names: str, **kw) -> tuple[tuple[str, ...], dict]:
    """One flag of a command: its name and the argparse keywords ``_parse`` reads
    (type, required, nargs, choices, default, action, metavar and help)."""
    return names, kw


_M = _flag("--m", type=int, help="matrix rows (default: n)")
_N = _flag("--n", type=int, required=True, help="matrix columns")
_JSON = _flag("--json", action="store_true", help="emit JSON")
_LATEX = _flag("--latex", action="store_true", help="emit a LaTeX table")
_IDEAL = _flag("--ideal", required=True)
_COHDEG = _flag("--cohdeg", type=int, required=True)
_DEG = _flag("--deg", type=int, help="single internal degree")
_WINDOW = _flag("--window", type=int, nargs=2, metavar=("LO", "HI"))
_EMIT_M2 = _flag("--emit-m2", metavar="PATH")
_P = _flag("--p", type=int, required=True)
_DMAX = _flag("--dmax", type=int, required=True)


class _Command(NamedTuple):
    help: str
    takes_mn: bool  # --m/--n, validated before compute runs
    flags: tuple[tuple[tuple[str, ...], dict], ...]
    compute: Callable[[SimpleNamespace], dict]  # the result; ideal flags arrive parsed
    text: Callable[[dict, dict], str]
    latex: Callable[[dict, dict], str]


_COMMANDS = {
    "zset": _Command("factor labels of the quotient", True, (_IDEAL,),
                     _cmd_zset, _text_zset, _latex_zset),
    "ext": _Command("one Ext module in a degree window", True,
                    (_IDEAL, _COHDEG, _DEG, _WINDOW, _EMIT_M2),
                    _cmd_ext, _text_ext, _latex_ext),
    "ext-map": _Command("kernel/image/cokernel of an induced Ext map", True,
                        (_flag("--sub", required=True, help="the smaller ideal"),
                         _flag("--super", required=True, help="the bigger ideal"),
                         _COHDEG, _DEG, _WINDOW),
                        _cmd_ext_map, _text_ext_map, _latex_ext_map),
    "reg": _Command("regularity of the quotient and the ideal", True, (_IDEAL, _EMIT_M2),
                    _cmd_reg, _text_reg, _latex_reg),
    "reg-powers": _Command("regularity along a power family", True,
                           (_P, _DMAX, _flag("--kind", choices=KINDS, default="power")),
                           _cmd_reg_powers, _text_reg_powers, _latex_reg_powers),
    "hilbert": _Command("graded dimensions of the quotient", True,
                        (_IDEAL, _flag("--rmax", type=int, required=True)),
                        _cmd_hilbert, _text_hilbert, _latex_hilbert),
    "kodaira": _Command("vanishing scan in the smooth range", True,
                        (_IDEAL, _flag("--jmax", type=int, default=15)),
                        _cmd_kodaira, _text_kodaira, _latex_kodaira),
    "linear-res": _Command("linear resolution scan for powers of minors", True, (_P, _DMAX),
                           _cmd_linear_res, _text_linear_res, _latex_linear_res),
    "bblsz-table": _Command("level-0 labels of powers of 2x2 minors, m=n=3", False, (_DMAX,),
                            _cmd_bblsz, _text_bblsz, _latex_bblsz),
}


_HELP = ("-h", "--help")
_DESCRIPTION = (
    "Exact Ext, regularity and vanishing computations for invariant determinantal thickenings."
)


def _all_flags(cmd: _Command) -> tuple[tuple[tuple[str, ...], dict], ...]:
    """Every flag ``cmd`` takes, in the order of its help."""
    mn = (_M, _N) if cmd.takes_mn else ()
    return (*mn, *cmd.flags, _JSON, _LATEX)


def _dest(flag: str) -> str:
    # the attribute a flag sets: --emit-m2 sets emit_m2
    return flag[2:].replace("-", "_")


def _is_value(token: str) -> bool:
    # as argparse reads a token: "-" alone and negative ints are values, any
    # other token starting with "-" is a flag
    return token[:1] != "-" or token == "-" or token[1:].isdecimal()


def _help(name: Optional[str]) -> str:
    """The help text of one command, or of the program when ``name`` is None."""
    if name is None:
        rows = [(cmd_name, cmd.help) for cmd_name, cmd in _COMMANDS.items()]
        head = ["usage: detthick COMMAND [FLAGS]", "", _DESCRIPTION, "", "commands:"]
        foot = ["", "detthick COMMAND --help lists the flags of one command."]
    else:
        rows = [("-h, --help", "show this help")]
        for (flag,), kw in _all_flags(_COMMANDS[name]):
            if kw.get("action") == "store_true":
                metavar: tuple = ()
            elif "choices" in kw:
                metavar = ("{" + ",".join(kw["choices"]) + "}",)
            else:
                metavar = kw.get("metavar", _dest(flag).upper())
                metavar = metavar if isinstance(metavar, tuple) else (metavar,)
            notes = [kw["help"]] if "help" in kw else []
            if kw.get("required"):
                notes.append("(required)")
            elif "default" in kw:
                notes.append(f"(default: {kw['default']})")
            rows.append((" ".join((flag, *metavar)), " ".join(notes)))
        head = [f"usage: detthick {name} [FLAGS]", "", _COMMANDS[name].help, "", "flags:"]
        foot = []
    width = max(len(left) for left, _ in rows) + 2
    lines = [f"  {left:<{width}}{right}".rstrip() for left, right in rows]
    return "\n".join(head + lines + foot) + "\n"


def _parse(argv: Sequence[str]) -> SimpleNamespace | str:
    """The flags of a command line, or the help text it asks for.

    ``argv[0]`` names the command; then come ``--flag value`` pairs
    (``--window LO HI`` takes two values) and switches such as ``--json``, in
    any order, the last of a repeated flag winning.  The result has what
    argparse's namespace had: ``command``, each flag's value under its dest,
    and each flag not given at its default (None, or False for a switch).
    Any other command line raises ValueError; unlike argparse, a flag is
    never abbreviated and never written ``--flag=value``.
    """
    if not argv:
        raise ValueError(f"no command given; choose from {', '.join(_COMMANDS)}")
    name = argv[0]
    if name in _HELP:
        return _help(None)
    if name not in _COMMANDS:
        raise ValueError(f"unknown command {name!r}; choose from {', '.join(_COMMANDS)}")
    flags = {names[0]: kw for names, kw in _all_flags(_COMMANDS[name])}
    args = SimpleNamespace(command=name)
    for flag, kw in flags.items():
        switch = kw.get("action") == "store_true"
        setattr(args, _dest(flag), kw.get("default", False if switch else None))
    given = set()
    i = 1
    while i < len(argv):
        flag = argv[i]
        if flag in _HELP:
            return _help(name)
        if flag not in flags:
            raise ValueError(_not_a_flag(name, flag, flags))
        kw = flags[flag]
        i += 1
        given.add(flag)
        if kw.get("action") == "store_true":
            setattr(args, _dest(flag), True)
            continue
        count = kw.get("nargs", 1)
        values = argv[i:i + count]
        if len(values) < count or not all(map(_is_value, values)):
            raise ValueError(f"{flag} needs {'a value' if count == 1 else f'{count} values'}")
        i += count
        if kw.get("type") is int:
            values = [_int_value(flag, value) for value in values]
        for value in values:
            if "choices" in kw and value not in kw["choices"]:
                raise ValueError(f"{flag} must be one of {', '.join(kw['choices'])}, got {value!r}")
        setattr(args, _dest(flag), values if "nargs" in kw else values[0])
    missing = [flag for flag, kw in flags.items() if kw.get("required") and flag not in given]
    if missing:
        raise ValueError(f"{name} needs {', '.join(missing)}")
    return args


def _int_value(flag: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag} needs an integer, got {text!r}") from None


def _not_a_flag(name: str, token: str, flags: dict) -> str:
    # the error for a token where a flag of command ``name`` should stand
    if not token.startswith("-"):
        return f"{name}: unexpected argument {token!r}"
    head, eq, _ = token.partition("=")
    if eq and head in flags:
        if flags[head].get("action") == "store_true":
            return f"{head} takes no value, got {token!r}"
        return f"give {head} and its value as two arguments, not {token!r}"
    near = [flag for flag in flags if len(token) > 2 and flag.startswith(token)]
    hint = f"; flags are not abbreviated: did you mean {' or '.join(near)}?" if near else ""
    return f"{name} takes no flag {token!r}{hint}"


_IDEAL_FLAGS = ("ideal", "sub", "super")
# flags that shape the output only, and the window inputs, which the request
# replaces by the window the result used
_NOT_REQUESTED = frozenset({"command", "json", "latex", "emit_m2", "deg", "window"})


def run(argv: Sequence[str]) -> str:
    """Parse argv, compute, build the request, and return the rendered output
    (or the help text that ``-h``/``--help`` asks for)."""
    args = _parse(argv)
    if isinstance(args, str):
        return args  # the help text
    cmd = _COMMANDS[args.command]
    if cmd.takes_mn:
        if args.m is None:
            args.m = args.n
        if args.n < 1:
            raise ValueError(f"need n >= 1, got n={args.n}")
        if args.m < args.n:
            raise ValueError(f"need m >= n, got m={args.m}, n={args.n}")
    if getattr(args, "dmax", 1) < 1:
        raise ValueError(f"need --dmax >= 1, got {args.dmax}")
    if getattr(args, "rmax", 0) < 0:
        raise ValueError(f"need --rmax >= 0, got {args.rmax}")
    if args.json and args.latex:
        raise ValueError("give at most one of --json and --latex")
    for name in _IDEAL_FLAGS:
        if hasattr(args, name):
            setattr(args, name, parse_ideal_spec(getattr(args, name), args.n))
    if getattr(args, "emit_m2", None) and args.ideal.kind not in _M2_KINDS:
        raise ValueError("emit-m2 supports power/symbolic/satpower/minors ideals only")
    result = cmd.compute(args)
    request = {
        k: v.ideal.to_json() if k in _IDEAL_FLAGS else v
        for k, v in vars(args).items()
        if k not in _NOT_REQUESTED
    }
    if "window" in result:
        request["window"] = result["window"]
    if args.json:
        doc = {"schema": SCHEMA, "command": args.command, "request": request, "result": result}
        return _json_text(doc, "\n") + "\n"
    render = cmd.latex if args.latex else cmd.text
    return render(request, result)


def _out_of_memory(argv: Sequence[str]) -> str:
    # the error for a run that exhausted memory; a wide degree window is the
    # usual cause, since a chain can have weights in every degree of it
    args = _parse(argv)
    if not hasattr(args, "window"):
        return f"out of memory computing {args.command}"
    window = _window_from_args(args)
    where = "its default window" if window is None else f"the window [{window[0]}, {window[1]}]"
    return f"out of memory computing {args.command} in {where}; try a narrower --window"


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        out = run(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, OverflowError) as exc:  # the row walk's depth, padding to n entries
        why = "recursion depth" if isinstance(exc, RecursionError) else "index range"
        print(f"error: input too large for {argv[0]}: past Python's {why}", file=sys.stderr)
        return 1
    except MemoryError:
        out = None  # reported below, once the traceback and the work it holds are freed
    if out is None:
        print(f"error: {_out_of_memory(argv)}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
