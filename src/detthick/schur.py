"""Dimensions of irreducible GL representations and graded Hilbert data.

Everything reduces to the Weyl dimension product, evaluated exactly on
dominant integer weights (negative entries included); translation of a
weight by a constant vector never changes the dimension.

A piece of Ext and the Hilbert function of a factor are both Weyl-weighted
counts of the dominant weights of a region (``_Region``) in a degree window,
so one recursion (``_priced``) serves both, pricing each weight as its walk reaches it.  What
does not depend on the window, a region's plan (``_plan``: its fixed entries' factors and checks
and each column's per-value factors), is built once per region, s, m and n and serves every later
walk, and a walk sets each free entry in place on one mutable weight.  One pricer serves a factor
in one degree and a Hilbert table: an l = 0 factor is S_z C^m (x) S_z C^n, the one weight z at
s = n; any other walks its region, built once per ideal in its label memo (``_labels_by_size``).
A region with no free entry, such as an l = 0 label's one Ext chain, is a single weight too; one
function, ``_point_dim``, prices every single weight by the plan's own product and checks, with
no plan and no walk.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, inf, perm, prod
from typing import NamedTuple, Optional, Sequence

from .ideals import _IDEAL_MEMO_SIZE, _LABEL_MEMO_SIZE, IdealSpec, _check_shape
from .partitions import Partition
from .zset import zset_general

Weight = tuple[int, ...]
GradedTable = dict[int, int]


def schur_dim(lam: Sequence[int], k: int) -> int:
    """Dimension of the irreducible GL_k representation of highest weight lam.

    Weyl's product over pairs i < j of (lam_i - lam_j + j - i) / (j - i), exactly,
    skipping the pairs of equal entries (each a factor 1); partitions shorter than k
    are padded with zeros, which is only valid when the last given entry is >= 0.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    w = list(lam)
    if len(w) > k:
        raise ValueError(f"weight {w} has more than {k} entries")
    w += [0] * (k - len(w))
    if any(w[i] < w[i + 1] for i in range(k - 1)):
        raise ValueError(f"weight {w} is not dominant")
    num = 1
    den = 1
    for i in range(k):
        for j in range(i + 1, k):
            if w[i] != w[j]:
                num *= w[i] - w[j] + j - i
                den *= j - i
    if num % den:
        raise RuntimeError(f"Weyl product for {lam} over GL_{k} is not an integer")
    return num // den


# saves the factorials of each plan's and each point's denominator: 4.2% of label_sweep's wall_s
@lru_cache(maxsize=_IDEAL_MEMO_SIZE)
def _denominator(m: int, n: int) -> int:
    # D(m, n) = prod over j < n of j! (m - n + j)! / (m - n)!, what pricing divides by
    return prod([factorial(j) * perm(m - n + j, j) for j in range(n)])


class _Region(NamedTuple):
    """The dominant weights of one chain or one factor, as bounds on each 0-based entry."""

    fixed_at: tuple[Optional[int], ...]  # the value fixed at each position, or None
    lower: Weight  # least value of each entry (a fixed one's value); the size-minimal weight
    cap_at: tuple[Optional[int], ...]  # greatest value of each entry, or None
    min_rest: tuple[int, ...]  # min_rest[j]: the least total of entries j onwards
    caps_after: tuple[tuple[int, ...], ...]  # the caps after each entry
    width: tuple[int, ...]  # the uncapped entries from each entry on


def _bounded(
    fixed_at: tuple[Optional[int], ...], lower: Weight, cap_at: tuple[Optional[int], ...]
) -> _Region:
    # the region with these bounds, with the sums and caps its walk prunes by
    n = len(lower)
    min_rest = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        min_rest[j] = min_rest[j + 1] + lower[j]
    # an entry v at position j bounds the total from above by partial + v * width[j]
    # + the sum of min(v, c) over caps_after[j]: later entries are at most v and their caps
    caps_after: list[tuple[int, ...]] = [()] * n
    for j in range(n - 2, -1, -1):
        cap = cap_at[j + 1]
        caps_after[j] = caps_after[j + 1] if cap is None else (cap,) + caps_after[j + 1]
    width = tuple(n - j - len(caps_after[j]) for j in range(n))
    return _Region(fixed_at, lower, cap_at, tuple(min_rest), tuple(caps_after), width)


def _expanded(lam: Sequence[int], s: int, m: int, n: int) -> Weight:
    # lam's expansion at s: lam_1..lam_s, m - n entries s - n, then the rest plus m - n
    d = m - n
    return (*lam[:s], *(s - n,) * d, *[x + d for x in lam[s:]])


def _check_expands(lam: Sequence, s: int, m: int, n: int) -> None:
    # the expansion bounds lam_s >= s - n and lam_{s+1} <= s - m, on the entries lam holds
    if 0 < s <= len(lam) and lam[s - 1] is not None and lam[s - 1] < s - n:
        raise RuntimeError(f"entry {s} of {lam} is below {s - n}; expansion not dominant")
    if s < len(lam) and lam[s] is not None and lam[s] > s - m:
        raise RuntimeError(f"entry {s + 1} of {lam} is above {s - m}; expansion not dominant")


def _fixed_product(fixed_at: tuple, fixed: Sequence[int], s: int, m: int, n: int) -> int:
    # the squared pairs of the entries `fixed` and their binomials C(a_j, m - n) (see _priced);
    # checks that they are dominant and that fixed_at expands to a dominant weight
    pairs = [fixed_at[e] - fixed_at[f] + f - e for e, f in combinations(fixed, 2)]
    if pairs and min(pairs) <= 0:
        raise RuntimeError(f"fixed entries {fixed_at} are not dominant")
    _check_expands(fixed_at, s, m, n)
    block = [comb(fixed_at[j] - j + m - 1 if j < s else j - n - fixed_at[j], m - n) for j in fixed]
    return prod(pairs) ** 2 * prod(block)


def _point_dim(lam: Weight, s: int, m: int, n: int) -> int:
    # dim_m(lam expanded at s) * dim_n(lam) by the plan's product and checks: every single weight
    num = _fixed_product(lam, range(n), s, m, n)
    dim, r = divmod(num, _denominator(m, n))
    if r:
        raise RuntimeError(f"Weyl product for {lam} at s={s}, m={m} is not an integer")
    return dim


# saves each region's fixed factors, checks and column memos for every later walk and window
@lru_cache(maxsize=_LABEL_MEMO_SIZE)
def _plan(region: _Region, s: int, m: int, n: int) -> tuple:
    """What pricing a region's weights at s needs in any window, built once per key.

    The number of free entries (a region has at least one here), the fixed entries' factors,
    den = D(m, n) (see ``_priced``), the per-value pricer, and per free entry its position,
    value -> factor memo and the total of the fixed entries after it; nothing of one call.
    The fixed entries are checked once per plan and a column's value when first met; a failed
    check raises RuntimeError and is never memoised, so it raises on every later call.
    """
    fixed_at = region.fixed_at
    size, d = len(fixed_at), m - n
    free = [j for j, x in enumerate(fixed_at) if x is None]
    fixed = [j for j, x in enumerate(fixed_at) if x is not None]
    num = _fixed_product(fixed_at, fixed, s, m, n)
    den = _denominator(m, n)

    def weigh(j: int, memo: dict, v: int, cur: list) -> int:
        # column j's factor at a new value v: its pairs with the fixed entries and block binomial
        fx = [fixed_at[f] - v + j - f if f < j else v - fixed_at[f] + f - j for f in fixed]
        if fx and min(fx) <= 0:
            raise RuntimeError(f"entry {j + 1} = {v} after {cur[:j]} is not dominant: {fixed_at}")
        if s - 1 <= j <= s:
            _check_expands((*cur[:j], v), s, m, n)
        w = memo[v] = prod(fx) ** 2 * comb(v - j + m - 1 if j < s else j - n - v, d)
        return w

    ends = [*free, size]
    cols = [(j, {}, sum(fixed_at[j + 1 : b])) for j, b in zip(ends, ends[1:])]
    return len(free), num, den, weigh, cols


def _priced(
    region: _Region, lo: int, hi: int, s: int, m: int, n: int,
    into: defaultdict[int, list], cls: type = tuple, fields: tuple = (),
) -> None:
    """Walk the weights of a region with lo <= total <= hi, pricing each as the walk reaches it.

    Each weight lam goes into into[total] as tuple.__new__(cls, fields + (lam, m, total, dim)),
    ascending within one call, with dim = dim_m(lam expanded at s) * dim_n(lam).  The expansion
    of lam at s (``_expanded``), its GL_m weight of the same total, keeps lam_1..lam_s, inserts
    m - n entries s - n and adds m - n to the rest (lam itself when m = n); it is dominant when
    lam_s >= s - n and lam_{s+1} <= s - m.  With l_i = lam_i - i (0-based), k = m - n, it keeps
    each l_i and inserts -n, ..., -m+1: the product is V(l)^2 sf(k) prod_i B_i / (sf(m) sf(n)), V =
    prod_{i<j} (l_i - l_j), sf(k) = prod_{0<=i<j<k} (j - i), B_i = prod_{n<=q<m} (l_i + q) (i < s)
    or (-q - l_i) = k! C(a_i, k), a_i = l_i + m - 1 or -n - l_i (>= k when dominant).  As sf(m) =
    sf(k) prod_{j<n} (k + j)!, it is V(l)^2 prod_i C(a_i, k) / D(m, n), D = prod_{j<n} j! (k+j)!/k!.

    A region with no free entry is its one weight: when the window holds it, it is priced
    (``_point_dim``) straight away, with the plan's checks, and no plan is built.  The walk
    branches on the free entries left to right, values ascending, and carries down the partial
    product and the l_i of the free entries chosen.  The plan (``_plan``) holds the fixed
    entries' factors and checks and each free entry's factors per value, over all calls; each
    call bounds the first column, takes the plan and sets each free entry in place in one list
    of its own, the weight.  Each node multiplies in its pairs with the free entries already
    chosen (the parent of the last free entry bounds that entry inline), and each weight its
    last free entry's pairs, one lookup, one division and one tuple().
    Nothing, not even the plan, is set up before the walk knows the window holds a weight.
    RuntimeError is raised when a division is inexact and by the plan's checks.
    """
    fixed_at, lower, cap_at, min_rest, caps_after, width = region
    if None not in fixed_at:  # nothing is free: the one weight
        total = min_rest[0]
        if lo <= total <= hi:
            dim = _point_dim(fixed_at, s, m, n)
            into[total].append(tuple.__new__(cls, fields + (fixed_at, m, total, dim)))
        return

    def span(j: int, prev: int, partial: int) -> tuple[int, int]:
        # the values of free entry j, not the last, after entries of this total ending in prev:
        # at most prev, the cap and what leaves room for the least completion under hi; at least
        # the lower bound and what lets the greatest completion reach lo, where each later entry
        # is at most the value and its cap: a concave bound in the value, climbed by its slope
        top, cap, v = min(prev, hi - partial - min_rest[j + 1]), cap_at[j], lower[j]
        if cap is not None and cap < top:
            top = cap
        need, wj, caps = lo - partial, width[j], caps_after[j]
        while v <= top:
            short = need - v * wj - sum([c if c < v else v for c in caps])
            if short <= 0:
                break
            v -= short // -(wj + sum([c > v for c in caps]))
        return v, top

    # the walked columns run from first to last; the last one's bounds need no climb
    first, size = fixed_at.index(None), len(fixed_at)
    last = size - 1 - fixed_at[::-1].index(None)
    high, low = hi - min_rest[last + 1], lo - min_rest[last + 1]
    least, cap = lower[last], inf if cap_at[last] is None else cap_at[last]
    partial, prev = sum(fixed_at[:first]), fixed_at[first - 1] if first else hi - min_rest[1]
    if first == last:
        a, b = max(least, low - partial), min(prev, high - partial, cap)
    else:
        a, b = span(first, prev, partial)
    if a > b:
        return
    k, num, den, weigh, cols = _plan(region, s, m, n)
    cur, new = list(fixed_at), tuple.__new__  # the weight, set in place

    def rec(i: int, a: int, b: int, partial: int, num: int, ls: tuple) -> None:
        # column i takes each value a..b after the entries set in cur, of this total; they are
        # dominant and at least b, so the pairs of a value v with the free entries before it,
        # c - (v - j) for c in ls (their l_i), are positive
        j, memo, segsum = cols[i]
        partial += segsum
        if i + 1 == k:  # one weight per value
            for v in range(a, b + 1):
                w = memo.get(v) or weigh(j, memo, v, cur)  # a product of 0 is recomputed: exact
                g, lv = 1, v - j
                for c in ls:
                    g *= c - lv
                q, r = divmod(num * g * g * w, den)
                cur[j], total = v, partial + v
                lam = tuple(cur)
                if r:
                    raise RuntimeError(f"Weyl product for {lam} at s={s}, m={m} is not an integer")
                into[total].append(new(cls, fields + (lam, m, total, q)))
            return
        nxt, tail = cols[i + 1][0], i + 2 == k
        for v in range(a, b + 1):
            w = memo.get(v) or weigh(j, memo, v, cur)
            g, lv = 1, v - j
            for c in ls:
                g *= c - lv
            cur[j], total = v, partial + v
            if tail:  # the span of the last free entry, inline
                bottom, top = max(least, low - total), min(cur[nxt - 1], high - total, cap)
            else:
                bottom, top = span(nxt, cur[nxt - 1], total)
            if bottom <= top:
                rec(i + 1, bottom, top, total, num * g * g * w, ls + (lv,))

    rec(0, a, b, partial, num, ())
    del rec  # the closure holds its own cell: break the cycle


def _factor_region(zs: Weight, l: int) -> _Region:
    # the partitions x >= zs with x_i = zs_i for i >= l (0-based): the factor labeled (zs, l)
    fixed = (None,) * l + zs[l:]
    return _bounded(fixed, zs, fixed)


def _add_factor(
    table: GradedTable, zs: Weight, region: Optional[_Region], lo: int, hi: int, m: int, n: int
) -> None:
    # add dim(x, m) * dim(x, n) into table[|x|] for each weight x of the factor labeled (zs, l),
    # zs padded to n entries, with lo <= |x| <= hi: an l = 0 factor (region None) is zs alone,
    # priced by _point_dim at s = n (its expansion is zs and m - n zeros); any other is the walk
    # of its region, _factor_region(zs, l)
    if region is None:
        size = sum(zs)
        if lo <= size <= hi:
            table[size] += _point_dim(zs, n, m, n)
        return
    priced: list = []  # the list of every total
    _priced(region, lo, hi, n, m, n, defaultdict(lambda: priced))
    for _, _, total, dim in priced:
        table[total] += dim


def j_graded_dim(z: Partition, l: int, r: int, m: int, n: int) -> int:
    """Degree-r dimension of the factor module labeled (z, l) over an m x n matrix.

    Sums dim(x, m) * dim(x, n) over the partitions x >= z that agree with z
    beyond row l, in the single degree |x| = r.
    """
    if not z.nparts <= n <= m:
        raise ValueError(f"need nparts(z) <= n <= m for {z}, n={n}, m={m}")
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= {n}, got l={l}")
    table = {r: 0}
    zs = z.parts + (0,) * (n - z.nparts)
    _add_factor(table, zs, _factor_region(zs, l) if l else None, r, r, m, n)
    return table[r]


# saves a generator scan per Hilbert call: family_tables' op_p50_ms 0.052 -> 0.011 ms
@lru_cache(maxsize=_IDEAL_MEMO_SIZE)
def _least_size(X: IdealSpec) -> int:
    # the least generator size of a nonzero ideal: below it S/I_X is the whole ring
    return min([g.size for g in X.gens])


# saves the label sort (family_tables' op_p90_ms 4.7%) and l >= 1 regions (wall_s 3.4%) per call
@lru_cache(maxsize=_IDEAL_MEMO_SIZE)
def _labels_by_size(X: IdealSpec) -> tuple[tuple[int, Weight, Optional[_Region]], ...]:
    # (|z|, z padded to n entries, its factor's region or None if l = 0) per label of X, by |z|
    pairs = zset_general(X).pairs
    labels = sorted([(p.z.size, p.z.parts + (0,) * (X.n - p.z.nparts), p.l) for p in pairs])
    return tuple([(size, zs, _factor_region(zs, l) if l else None) for size, zs, l in labels])


def quotient_hilbert_table(X: IdealSpec, lo: int, hi: int, m: int, n: int) -> GradedTable:
    """Dimensions of S/I_X in the degrees lo..hi, one walk per label of its filtration.

    S/I_X has a GL-equivariant filtration whose factors are the modules labeled by the
    pairs (z, l) of ``zset_general(X)``, so its degree-r dimension is the sum of
    ``j_graded_dim(z, l, r, m, n)`` over the labels with |z| <= r (|z| = r when l = 0);
    each label's region is walked once, from degree |z| to hi.  Below the least generator
    size nothing of degree r lies in I_X, and the dimension is that of the ring (Cauchy's
    identity); those degrees, like the zero and unit ideals, never compute the labels.
    """
    _check_shape(X, m, n)
    if lo > hi:
        raise ValueError(f"need lo <= hi, got lo={lo}, hi={hi}")
    least = hi + 1 if X.is_zero else _least_size(X)  # 0 for the unit ideal
    table = {r: ring_graded_dim(r, m, n) if r < least else 0 for r in range(lo, hi + 1)}
    if hi < least or X.is_unit:
        return table
    start = max(lo, least)
    for size, zs, region in _labels_by_size(X):
        if size > hi:
            break
        _add_factor(table, zs, region, start, hi, m, n)
    return table


def quotient_graded_dim(X: IdealSpec, r: int, m: int, n: int) -> int:
    """Degree-r dimension of S/I_X: the one-degree case of ``quotient_hilbert_table``."""
    return quotient_hilbert_table(X, r, r, m, n)[r]


def ring_graded_dim(r: int, m: int, n: int) -> int:
    """Degree-r dimension of the full polynomial ring in m*n variables."""
    if r < 0:
        return 0
    return comb(m * n + r - 1, r)


def graded_table_to_json(table: GradedTable) -> dict[str, str]:
    """Serialize degrees to keys and dimensions to strings (exact big ints)."""
    return {str(r): str(v) for r, v in sorted(table.items())}
