"""Output checks for benchmark ops.

Two kinds, both outside the timed region:

* ``inline_check`` uses only this file's own arithmetic (a hook-content
  dimension formula, closed-form membership and closed-form regularity) and
  runs right after each op, so that a pass need not keep every result.
* ``deferred_checks`` calls detthick's own independent oracles (closed-form
  labels, the filtration sum, the power-family regularity, Ext/regularity
  duality).  It runs after the whole timed op list with tracing removed, so
  its calls neither warm anything the ops use nor show up in the trace.

``canonical`` turns each result into plain sorted data; its digest is what
two passes, two runs and the pinned default-seed digests compare.
"""

from __future__ import annotations

import hashlib
import json
from math import comb, prod
from operator import sub

from workloads import contains, partitions


class CheckFailure(Exception):
    """An op's output disagrees with an oracle."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


# ---------------------------------------------------------------- arithmetic


def hook_content_dim(weight, k: int) -> int:
    """dim of the GL_k irreducible of a dominant weight, by the hook-content formula.

    The weight is shifted by its last entry to a partition (the dimension is
    translation invariant); a weight shorter than k is padded with zeros.
    """
    if k == 0:
        return 1
    w = list(weight) + [0] * (k - len(weight))
    base = w[-1]
    lam = [x - base for x in w]
    if not lam[0]:
        return 1
    # conj[c] counts the rows longer than c; cell (i, c) has hook length
    # (v_i - i - 1) + (conj[c] - c)
    conj: list[int] = []
    for rows in range(k, 0, -1):
        if lam[rows - 1] > len(conj):
            conj.extend([rows] * (lam[rows - 1] - len(conj)))
    shifted = list(map(sub, conj, range(len(conj))))
    num = den = 1
    for i, v in enumerate(lam):
        if not v:
            break
        num *= prod(range(k - i, k - i + v))  # contents k + c - i
        den *= prod(map((v - i - 1).__add__, shifted[:v]))  # hook lengths
    q, r = divmod(num, den)
    require(r == 0, f"hook-content quotient not integral for {weight}, k={k}")
    return q


def _own_generators(ideal: list) -> list:
    """Generators of a satpower or gens ideal, derived from the definition."""
    if ideal[0] == "gens":
        return [tuple(g) for g in ideal[2]]
    _, p, d, n = ideal  # satpower: strip the height-1 columns of each power generator
    gens = []
    for g in partitions(p * d, n, d):
        keep = sum(1 for c in range(g[0]) if sum(1 for v in g if v > c) > 1)
        gens.append(tuple(v for v in (min(v, keep) for v in g) if v))
    return [g for g in set(gens) if not any(h != g and contains(g, h) for h in gens)]


def member_test(ideal: list):
    """A membership predicate for one ideal spec, derived from its definition."""
    kind = ideal[0]
    if kind == "power":  # x contains a partition of size pd with first part <= d
        _, p, d, _n = ideal
        return lambda x: sum(min(v, d) for v in x) >= p * d
    if kind == "symbolic":  # x_1 = .. = x_p >= c and x_p + ... + x_n >= d
        _, p, d, _n = ideal
        return lambda x: len(x) >= p and sum(x[p - 1:]) >= d
    if kind == "minors":
        return lambda x: len(x) >= ideal[1]
    gens = _own_generators(ideal)
    return lambda x: any(contains(x, g) for g in gens)


def least_generator_size(ideal: list) -> int:
    kind = ideal[0]
    if kind == "power":
        return ideal[1] * ideal[2]
    if kind == "symbolic":
        return ideal[1] + ideal[2] - 1
    if kind == "minors":
        return ideal[1]
    return min(sum(g) for g in _own_generators(ideal))


class Arith:
    """Memoised benchmark-side arithmetic shared by the checks of one pass."""

    def __init__(self) -> None:
        self._dims: dict = {}

    def dim(self, weight, k: int) -> int:
        key = (tuple(weight), k)
        got = self._dims.get(key)
        if got is None:
            got = self._dims[key] = hook_content_dim(key[0], k)
        return got

    def quotient_dim(self, ideal: list, r: int, m: int, n: int) -> int:
        """Degree-r dimension of S/I: Cauchy's sum over partitions outside I."""
        inside = member_test(ideal)
        return sum(
            self.dim(x, m) * self.dim(x, n) for x in partitions(r, n, r) if not inside(x)
        )


def closed_regularity(p: int, d: int, n: int, kind: str):
    """reg(I) for the family where every level's closed form is proven, else None.

    Level bounds: p d - 1 + l (p - 1 - l) for p < n and d >= n - 1; for
    p = n, n d - 1 at the top level and -inf below it.  Levels are 0..p-1
    (power), 1..p-1 (satpower) and p-1 (symbolic); reg(I) is 1 + the best.
    """
    if p < n and d < n - 1:
        return None
    levels = {"power": range(p), "satpower": range(1, p), "symbolic": range(p - 1, p)}[kind]
    if p == n:
        return n * d if p - 1 in levels else None
    return 1 + max(p * d - 1 + l * (p - 1 - l) for l in levels)


# ---------------------------------------------------------------- canonical


def _pair(pair) -> tuple:
    doc = pair.to_json()
    return (tuple(doc["z"]), doc["l"])


def _comp(c) -> tuple:
    doc = c.to_json()
    return (
        tuple(doc["z"]), doc["l"], doc["s"], tuple(doc["t"]), tuple(doc["lambda"]),
        tuple(doc["lambda_expanded"]), doc["degree"], int(doc["dim"]),
    )


def _reg(v):
    return "-inf" if v == float("-inf") else int(v)


def canonical(kind: str, result):
    """Plain, sorted data for one op's result."""
    if kind == "zset":
        return sorted(_pair(p) for p in result.pairs)
    if kind == "ext":
        return {
            "window": None if result.window is None else tuple(result.window),
            "table": tuple(sorted(result.table)),
            "components": sorted(_comp(c) for c in result.components),
        }
    if kind == "ext_map":
        out = {"window": None if result.window is None else tuple(result.window)}
        for name in ("kernel", "image", "cokernel"):
            part = getattr(result, name)
            out[name] = {
                "pairs": sorted(_pair(p) for p in part.pairs),
                "components": sorted(_comp(c) for c in part.components),
                "table": tuple(sorted(part.table)),
            }
        return out
    if kind in ("reg", "reg_family"):
        return _reg(result)
    if kind == "kodaira":
        return {
            "passed": result.passed,
            "mechanism_ok": result.mechanism_ok,
            "k_checked": tuple(result.k_checked),
            "violations": sorted(_comp(c) for c in result.violations),
        }
    if kind == "cli":
        return json.loads(result)
    if kind == "hilbert_dim":
        return int(result)
    raise ValueError(f"unknown op kind {kind!r}")


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------- inline


def _check_components(ar: Arith, comps, table, window, m: int, n: int) -> None:
    totals: dict[int, int] = {}
    for z, l, s, t, lam, lam_exp, degree, dim in comps:
        require(degree == sum(lam) == sum(lam_exp), f"degree {degree} of {lam} is not its total")
        require(
            dim == ar.dim(lam_exp, m) * ar.dim(lam, n),
            f"dim {dim} of {lam} / {lam_exp} disagrees with the hook-content formula",
        )
        if window is not None:
            require(window[0] <= degree <= window[1], f"degree {degree} outside {window}")
        totals[degree] = totals.get(degree, 0) + dim
    require(tuple(sorted(totals.items())) == tuple(table), "table is not the sum of the components")


def inline_check(ar: Arith, op: list, canon) -> dict:
    """Check one result with the benchmark's own arithmetic; return facts for later."""
    kind = op[0]
    if kind == "ext":
        _, X, j, m, n, window = op
        _check_components(ar, canon["components"], canon["table"], canon["window"], m, n)
        if window is not None:
            require(canon["window"] == tuple(window), "explicit window not honoured")
        return {"window": canon["window"], "labels": sorted({c[:2] for c in canon["components"]})}
    if kind == "ext_map":
        m, n = op[4], op[5]
        for name in ("kernel", "image", "cokernel"):
            part = canon[name]
            _check_components(ar, part["components"], part["table"], canon["window"], m, n)
        return {name: canon[name]["pairs"] for name in ("kernel", "image", "cokernel")}
    if kind == "kodaira":
        require(canon["passed"] and canon["mechanism_ok"], "vanishing scan did not pass")
        return {}
    if kind == "reg_family":
        _, p, d, m, n, k = op
        closed = closed_regularity(p, d, n, k)
        if closed is not None:
            require(canon == closed, f"reg {canon} is not the closed form {closed}")
        return {"value": canon}
    if kind == "hilbert_dim":
        _, X, r, m, n = op
        require(canon == ar.quotient_dim(X, r, m, n), f"dim S/I in degree {r} is {canon}")
        if r < least_generator_size(X):
            require(canon == comb(m * n + r - 1, r), "Cauchy identity fails below the generators")
        return {}
    if kind == "cli":
        return _inline_cli(ar, op[1], canon)
    if kind in ("zset", "reg"):
        return {"value": canon}
    raise ValueError(f"unknown op kind {kind!r}")


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _cli_ideal(text: str, n: int) -> list:
    head, _, rest = text.partition(":")
    if head == "gens":
        return ["gens", n, [[int(v) for v in tok.split(",")] for tok in rest.split(";")]]
    if head == "minors":
        return ["minors", int(rest), n]
    p, d = rest.split(":")
    return [head, int(p), int(d), n]


def _inline_cli(ar: Arith, argv: list, doc) -> dict:
    cmd = argv[0]
    res = doc["result"]
    require(doc["schema"] == "detthick/1" and doc["command"] == cmd, "bad JSON envelope")
    if cmd in ("reg-powers", "linear-res"):
        n, p = int(_arg(argv, "--n")), int(_arg(argv, "--p"))
        kind = _arg(argv, "--kind", "power")
        for row in res["rows"]:
            d, reg = row["d"], row["reg"]
            if cmd == "reg-powers":
                best = max((v for v in row["per_level"].values() if v is not None), default=None)
                require(best is not None and reg == best + 1, f"d={d}: reg is not 1 + the best level")
            else:
                require(row["linear"] == (reg == p * d), f"d={d}: linear flag wrong")
            closed = closed_regularity(p, d, n, kind)
            if closed is not None:
                require(reg == closed, f"d={d}: reg {reg} is not the closed form {closed}")
        return {"rows": [(row["d"], row["reg"]) for row in res["rows"]]}
    if cmd == "hilbert":
        m, n = int(_arg(argv, "--m")), int(_arg(argv, "--n"))
        X = _cli_ideal(_arg(argv, "--ideal"), n)
        least = least_generator_size(X)
        for r, v in res["table"].items():
            r, v = int(r), int(v)
            require(v == ar.quotient_dim(X, r, m, n), f"hilbert degree {r}: {v}")
            if r < least:
                require(v == comb(m * n + r - 1, r), "Cauchy identity fails below the generators")
        return {}
    if cmd == "kodaira":
        require(res["passed"] and res["mechanism_ok"], "vanishing scan did not pass")
        return {}
    if cmd == "reg":
        rq, ri = res["reg_quotient"], res["reg_ideal"]
        require(rq is not None and ri == rq + 1, "reg(I) is not reg(S/I) + 1")
        return {"value": rq}
    if cmd == "zset":
        require(res["count"] == len(res["pairs"]), "count disagrees with the pairs")
        return {"value": sorted((tuple(p["z"]), p["l"]) for p in res["pairs"])}
    if cmd == "bblsz-table":
        for row in res["rows"]:
            flat = [z for grp in row["groups"] for z in grp]
            require(flat == row["z"], f"d={row['d']}: groups do not partition the labels")
            for grp in row["groups"]:
                require(len({sum(z) for z in grp}) == 1, "a group mixes sizes")
        return {"rows": [(row["d"], [tuple(z) for z in row["z"]]) for row in res["rows"]]}
    raise ValueError(f"unknown CLI command {cmd!r}")


# ---------------------------------------------------------------- deferred


def _family(ideal: list):
    return (ideal[1], ideal[2], ideal[0]) if ideal[0] in ("power", "symbolic", "satpower") else None


class Oracles:
    """detthick's independent oracles, memoised over one pass's checks."""

    def __init__(self, dt, build) -> None:
        self.dt = dt
        self.build = build  # ideal spec -> IdealSpec
        self._memo: dict = {}

    def _cached(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def labels(self, ideal: list, general: bool = False) -> list:
        """Labels from a closed form where one exists (unless general), else zset_general."""
        dt, kind = self.dt, ideal[0]
        if kind == "power" and not general:
            fn = lambda: dt.zset_power(*ideal[1:])
        elif kind == "symbolic" and not general:
            fn = lambda: dt.zset_symbolic(*ideal[1:])
        else:
            fn = lambda: dt.zset_general(self.build(ideal))
        return self._cached(("labels", json.dumps(ideal), general), lambda: canonical("zset", fn()))

    def reg_family(self, p, d, m, n, kind):
        key = ("reg_family", p, d, m, n, kind)
        return self._cached(key, lambda: _reg(self.dt.reg_power_family(p, d, m, n, kind)))

    def reg_by_quotient(self, p, d, m, n, kind):
        """reg(I) = reg(S/I) + 1 from the labels of the ideal itself."""
        X = self.build([kind, p, d, n])
        key = ("reg_quotient", p, d, m, n, kind)
        return self._cached(key, lambda: _reg(self.dt.reg_quotient(X, m, n)) + 1)

    def reg_by_duality(self, ideal: list, m: int, n: int):
        """reg(S/I) = max over j of -e - j at the least Ext^j degree e."""
        def fn():
            ext = self.dt.ext
            pairs = self.dt.zset_general(self.build(ideal)).sorted_pairs()
            best = None
            for j in range(m * n + 1):
                w = ext.default_window(pairs, j, m, n)
                if w is not None:
                    best = -w[0] - j if best is None else max(best, -w[0] - j)
            return best
        return self._cached(("duality", json.dumps(ideal), m, n), fn)

    def filtration_sum(self, ideal: list, labels, m: int, n: int) -> None:
        """sum over labels of j_graded_dim == quotient_graded_dim, in a few degrees."""
        dt = self.dt
        X = self.build(ideal)
        sizes = sorted(sum(g.parts) for g in X.gens)
        for r in sorted({sizes[0] - 1, sizes[0], sizes[-1], sizes[-1] + 1}):
            lhs = sum(dt.j_graded_dim(dt.Partition(z), l, r, m, n) for z, l in labels)
            require(lhs == dt.quotient_graded_dim(X, r, m, n), f"filtration sum fails in degree {r}")


SMALL_D = 5  # reg_quotient on I_p^d is cheap enough to run as an oracle up to here


def deferred_checks(orc: Oracles, ops: list, facts: list) -> dict[int, str]:
    """Cross-op and program-oracle checks; returns {op index: failure message}."""
    failed: dict[int, str] = {}
    windows: dict = {}  # (ideal, m, n) -> {j: default window}
    for op, fact in zip(ops, facts):
        if fact is not None and op[0] == "ext" and op[5] is None:
            windows.setdefault((json.dumps(op[1]), op[3], op[4]), {})[op[2]] = fact["window"]
    for i, (op, fact) in enumerate(zip(ops, facts)):
        if fact is None:
            continue
        try:
            _deferred_one(orc, op, fact, windows)
        except CheckFailure as exc:
            failed[i] = str(exc)
        except Exception as exc:  # an oracle that raises fails the op it checks
            failed[i] = f"oracle raised {type(exc).__name__}: {exc}"
    return failed


def _deferred_one(orc: Oracles, op: list, fact: dict, windows: dict) -> None:
    kind = op[0]
    if kind == "zset":
        X = op[1]
        if X[0] in ("power", "symbolic"):
            require(fact["value"] == orc.labels(X), "labels differ from the closed form")
        n = X[1] if X[0] == "gens" else X[-1]
        orc.filtration_sum(X, fact["value"], n + 1, n)
    elif kind == "reg":
        X, m, n = op[1], op[2], op[3]
        fam = _family(X)
        if fam is not None:
            p, d, k = fam
            require(fact["value"] + 1 == orc.reg_family(p, d, m, n, k),
                    "reg(S/I) + 1 differs from reg_power_family")
        sweep = windows.get((json.dumps(X), m, n))
        if sweep:
            best = max(-w[0] - j for j, w in sweep.items() if w is not None)
            require(fact["value"] == best, f"reg(S/I) {fact['value']} differs from Ext duality {best}")
    elif kind == "ext":
        X = op[1]
        require(set(fact["labels"]) <= set(orc.labels(X)), "a component carries no label of the ideal")
    elif kind == "ext_map":
        sub, sup = op[1], op[2]
        require(sorted(fact["kernel"] + fact["image"]) == orc.labels(sup),
                "kernel and image labels are not the labels of the bigger ideal")
        require(sorted(fact["image"] + fact["cokernel"]) == orc.labels(sub),
                "image and cokernel labels are not the labels of the smaller ideal")
    elif kind == "reg_family":
        _, p, d, m, n, k = op
        if d <= SMALL_D:
            require(fact["value"] == orc.reg_by_quotient(p, d, m, n, k),
                    "reg(I) differs from reg(S/I) + 1")
    elif kind == "cli":
        _deferred_cli(orc, op[1], fact)


def _deferred_cli(orc: Oracles, argv: list, fact: dict) -> None:
    cmd = argv[0]
    if cmd == "zset":
        X = _cli_ideal(_arg(argv, "--ideal"), int(_arg(argv, "--n")))
        require(fact["value"] == orc.labels(X), "labels differ from the closed form")
    elif cmd == "reg":
        n = int(_arg(argv, "--n"))
        m = int(_arg(argv, "--m", n))
        X = _cli_ideal(_arg(argv, "--ideal"), n)
        fam = _family(X)
        if fam is not None:
            require(fact["value"] + 1 == orc.reg_family(fam[0], fam[1], m, n, fam[2]),
                    "reg(S/I) + 1 differs from reg_power_family")
        require(fact["value"] == orc.reg_by_duality(X, m, n), "reg(S/I) differs from Ext duality")
    elif cmd == "bblsz-table":
        for d, zs in fact["rows"]:
            level0 = sorted(z for z, l in orc.labels(["power", 2, d, 3], general=True) if l == 0)
            require(sorted(zs) == level0, f"d={d}: level-0 labels differ from zset_general")
    elif cmd in ("reg-powers", "linear-res"):
        n, p = int(_arg(argv, "--n")), int(_arg(argv, "--p"))
        kind = _arg(argv, "--kind", "power")
        m = n if cmd == "linear-res" else int(_arg(argv, "--m", n))
        for d, reg in fact["rows"]:
            if d <= SMALL_D:
                require(reg == orc.reg_by_quotient(p, d, m, n, kind),
                        f"d={d}: reg(I) differs from reg(S/I) + 1")
