"""Independent definitions the engine is checked against, shared by several test modules.

Each is written the plain way, from the definitions, with none of the engine's
indexes, runs or memos: a weight's expansion across m >= n, a chain's weights
in a degree window, the components of Ext at one j, the graded dimensions
of a quotient by membership, a factor's regularity as the sum over its chains,
the level-l regularity bound by the partition-pair search over ``Partition``
objects, and the ideal builders as first written: partitions of a box by nested
generators, minimal elements by testing every pair, saturation through the
conjugate, and the keyed sort of generators; and the CLI's parser as argparse
builds it from the command table.
"""

import argparse
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from detthick import cli
from detthick.ext import ExtComponent, _check_label, index_tuples
from detthick.ideals import IdealSpec, _check_pdn, member
from detthick.partitions import Partition, enumerate_partitions
from detthick.regularity import NEG_INF, RegValue, f_value, reg_tuples
from detthick.schur import Weight, schur_dim
from detthick.zset import ZPair


def weight_expand(lam: Sequence[int], s: int, m: int, n: int) -> Weight:
    """Expand a GL_n weight to a GL_m weight by the degree-preserving rule.

    Keeps the first s entries, inserts m-n copies of s-n, and shifts the
    remaining n-s entries up by m-n.  Requires lam_s >= s-n and
    lam_{s+1} <= s-m so the result stays dominant; the total is preserved.
    """
    if not n <= m:
        raise ValueError(f"need n <= m, got m={m}, n={n}")
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= {n}, got s={s}")
    if len(lam) > n:
        raise ValueError(f"weight {lam} has more than {n} entries")
    w = tuple(lam) + (0,) * (n - len(lam))
    if any(w[i] < w[i + 1] for i in range(n - 1)):
        raise ValueError(f"weight {w} is not dominant")
    if s >= 1 and w[s - 1] < s - n:
        raise ValueError(f"entry {s} of {w} is below {s - n}; expansion not dominant")
    if s <= n - 1 and w[s] > s - m:
        raise ValueError(f"entry {s + 1} of {w} is above {s - m}; expansion not dominant")
    out = w[:s] + (s - n,) * (m - n) + tuple(e + (m - n) for e in w[s:])
    if sum(out) != sum(w):
        raise RuntimeError(f"expanding {w} at s={s} to GL_{m} changed its total")
    return out


def enumerate_weights_reference(
    z: Partition,
    l: int,
    t: Sequence[int],
    s: int,
    m: int,
    n: int,
    lo: int,
    hi: int,
) -> list[Weight]:
    """The weight enumeration as first written, with a list accumulator and
    the caps scanned anew at every step.  The reference the engine must
    reproduce."""
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got m={m}, n={n}")
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= {n}, got l={l}")
    _check_label(z, l, m, n)
    if lo > hi:
        raise ValueError(f"empty degree window [{lo}, {hi}]")
    t = tuple(t)
    k = n - l
    if len(t) != k:
        raise ValueError(f"chain {t} should have {k} entries")
    if not (0 <= s <= (t[0] if k else l)):
        return []
    if any(t[i] > t[i + 1] for i in range(k - 1)) or (k and t[-1] > l):
        return []

    floor = l - z.part(max(l, 1)) - m  # z_0 reads as z_1
    fixed: dict[int, int] = {}
    for i in range(1, k + 1):
        pos = t[i - 1] + i - 1  # 0-based
        fixed[pos] = t[i - 1] - z.part(n + 1 - i) - m

    lower = [floor] * n
    for j in range(n):
        for pos, val in fixed.items():
            if pos >= j:
                lower[j] = max(lower[j], val)
        if j <= s - 1:
            lower[j] = max(lower[j], s - n)
    upper_cap = [None] * n  # type: list[Optional[int]]
    run: Optional[int] = None
    for j in range(n):
        if j in fixed:
            run = fixed[j] if run is None else min(run, fixed[j])
        cap = run
        if j >= s and s <= n - 1:
            cap = s - m if cap is None else min(cap, s - m)
        upper_cap[j] = cap

    min_rest = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        min_rest[j] = min_rest[j + 1] + lower[j]

    out: list[Weight] = []

    def rec(j: int, prev: Optional[int], partial: int, acc: list[int]) -> None:
        if j == n:
            if lo <= partial <= hi:
                out.append(tuple(acc))
            return
        vmax_budget = hi - partial - min_rest[j + 1]
        caps = [vmax_budget]
        if prev is not None:
            caps.append(prev)
        if upper_cap[j] is not None:
            caps.append(upper_cap[j])
        vmax = min(caps)
        vmin = lower[j]
        if j in fixed:
            v = fixed[j]
            if vmin <= v <= vmax:
                rec(j + 1, v, partial + v, acc + [v])
            return
        for v in range(vmax, vmin - 1, -1):
            best_rest = partial + v
            for kk in range(j + 1, n):
                c = v if upper_cap[kk] is None else min(v, upper_cap[kk])
                best_rest += c
            if best_rest < lo:
                break
            rec(j + 1, v, partial + v, acc + [v])

    rec(0, None, 0, [])
    out.sort()
    return out


def components_order_reference(
    pairs: Sequence[ZPair], j: int, m: int, n: int, window: Optional[tuple[int, int]]
) -> tuple[ExtComponent, ...]:
    """The components at j as first computed: every weight of every chain from
    the enumeration reference, the expansion and the two Weyl dimensions from
    weight_expand and schur_dim, and one sort by (degree, pair, s, t, lam).
    The content and order the engine must reproduce."""
    if window is None:
        return ()
    comps = []
    for pair in pairs:
        for tup in index_tuples(pair.z, pair.l, m, n):
            if tup.j != j:
                continue
            for lam in enumerate_weights_reference(pair.z, pair.l, tup.t, tup.s, m, n, *window):
                big = weight_expand(lam, tup.s, m, n)
                dim = schur_dim(big, m) * schur_dim(lam, n)
                comp = ExtComponent(pair, tup.s, tup.t, lam, m, sum(lam), dim)
                if comp.lam_expanded != big:
                    raise RuntimeError(f"{comp} expands to {comp.lam_expanded}, not {big}")
                comps.append(comp)
    return tuple(sorted(comps, key=lambda c: (c.degree, c.pair.sort_key(), c.s, c.t, c.lam)))


def quotient_graded_dim_reference(X, r, m, n):
    """Degree-r dimension of S/I_X: sum of dim(x, m) * dim(x, n) over x outside the ideal."""
    if X.n != n:
        raise ValueError(f"ideal lives in P_{X.n}, not P_{n}")
    if not n <= m:
        raise ValueError(f"need n <= m, got m={m}, n={n}")
    if r < 0:
        return 0
    outside = [x.parts for x in enumerate_partitions(n, r, size=r) if not member(X, x)]
    return sum(schur_dim(x, m) * schur_dim(x, n) for x in outside)


def reg_j_by_chains(z: Partition, l: int, n: int) -> int:
    """Regularity of the factor labeled (z, l) as the general chain sum: the
    maximum of |z| + |t| - l - f over its chains t, each closed by l."""
    return max(z.size + sum(t) - l - f_value(z, l, t) for t in reg_tuples(z, l, n))


def _u_candidates(l: int, k: int) -> list[Partition]:
    # u in P_k with u_1 = l (u empty when l = 0)
    if l == 0:
        return [Partition()]
    return [Partition((l,) + tail.parts) for tail in enumerate_partitions(k - 1, l)]


def _yu_values(l: int, p: int, n: int, d: int) -> Iterator[int]:
    k = n - l
    us = _u_candidates(l, k)
    for y in enumerate_partitions(k, d - 1):
        if y.size > d * (p - l) - 1:
            continue
        if y.size - y.part(1) < d * (p - 1 - l):
            continue
        for u in us:
            if any(
                y.part(i) - y.part(i + 1) < u.part(i) - u.part(i + 1)
                for i in range(1, k)
            ):
                continue
            corr = sum(
                u.part(i + 1) * ((y.part(i) - y.part(i + 1)) - (u.part(i) - u.part(i + 1)))
                for i in range(1, k)
            )
            yield l * y.part(1) + y.size + u.size - corr


def r_bruteforce_reference(l: int, p: int, n: int, d: int) -> RegValue:
    """Level-l regularity bound by direct search over the partition-pair region.

    The search as first written, over ``Partition`` objects from
    ``enumerate_partitions``.  Enumeration uses the proven caps y_1 <= d-1
    and u inside the l-column box; returns -inf when the region is empty.
    """
    if not 0 <= l < p <= n:
        raise ValueError(f"need 0 <= l < p <= n, got l={l}, p={p}, n={n}")
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    return max(_yu_values(l, p, n, d), default=NEG_INF)


def _desc_lex_reference(size: int, maxpart: int, slots: int) -> Iterator[tuple[int, ...]]:
    # partitions of `size` with at most `slots` parts each <= maxpart, in descending
    # lexicographic order, each yielded again through every level above it
    if size == 0:
        yield ()
        return
    if slots == 0 or maxpart == 0:
        return
    top = min(maxpart, size)
    lo = -(-size // slots)  # ceil: the first part of any such partition
    for first in range(top, lo - 1, -1):
        for rest in _desc_lex_reference(size - first, first, slots - 1):
            yield (first,) + rest


def enumerate_partitions_reference(
    rows: int, cols: int, size: Optional[int] = None
) -> list[Partition]:
    """The partitions of the rows x cols box as first enumerated, by nested
    generators: ascending size, descending lexicographic within a size.  The
    list, in its order, the engine must reproduce."""
    if rows < 0 or cols < 0:
        raise ValueError(f"negative box bound {rows}x{cols}")
    if size is not None:
        if size < 0:
            return []
        return [Partition(t) for t in _desc_lex_reference(size, cols, rows)]
    out: list[Partition] = []
    for r in range(rows * cols + 1):
        out.extend(Partition(t) for t in _desc_lex_reference(r, cols, rows))
    if len(out) != comb(rows + cols, rows):
        raise RuntimeError(f"found {len(out)} partitions in the {rows}x{cols} box")
    return out


def minimal_reference(pool: Iterable[Partition]) -> frozenset[Partition]:
    """The minimal elements of a set of partitions, each tested against every other."""
    pool = set(pool)
    return frozenset(
        g for g in pool
        if not any(h != g and len(h) <= len(g) and all(a <= b for a, b in zip(h, g))
                   for h in pool)
    )


def saturate_reference(X: IdealSpec, p: int) -> IdealSpec:
    """Saturation as first written: each generator keeps the columns its
    conjugate shows to have height > p, then the minimal elements."""
    if not 0 <= p <= X.n:
        raise ValueError(f"need 0 <= p <= {X.n}, got p={p}")
    stripped = [g.truncate(sum(1 for h in g.conjugate() if h > p)) for g in X.gens]
    return IdealSpec(X.n, minimal_reference(stripped))


def sorted_gens_reference(X: IdealSpec) -> list[Partition]:
    """The generators in (size, parts) order by a key per generator."""
    return sorted(X.gens, key=lambda g: (g.size, g.parts))


def power_gens_reference(p: int, d: int, n: int) -> IdealSpec:
    """The d-th power of the p x p minors from the reference enumeration."""
    _check_pdn(p, d, n)
    return IdealSpec(n, frozenset(enumerate_partitions_reference(n, d, size=p * d)))


def symbolic_gens_reference(p: int, d: int, n: int) -> IdealSpec:
    """The d-th symbolic power of the p x p minors from the reference enumeration."""
    _check_pdn(p, d, n)
    return IdealSpec(n, frozenset(
        Partition((c0,) * p + tail)
        for c0 in range(1, d + 1)
        for tail in enumerate_partitions_reference(n - p, c0, size=d - c0)
    ))


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``cli._COMMANDS``: one subparser per command, its
    flags added as the table gives them, abbreviations refused."""
    top = argparse.ArgumentParser(prog="detthick", description=cli._DESCRIPTION, allow_abbrev=False)
    sub = top.add_subparsers(dest="command", required=True)
    for name, cmd in cli._COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help, allow_abbrev=False)
        for names, kw in cli._all_flags(cmd):
            sp.add_argument(*names, **kw)
    return top
