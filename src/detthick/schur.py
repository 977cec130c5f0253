"""Dimensions of irreducible GL representations and graded Hilbert data.

Everything reduces to the Weyl dimension product, evaluated exactly on
dominant integer weights (negative entries included); translation of a
weight by a constant vector never changes the dimension.

A piece of Ext and the Hilbert function of a factor are both Weyl-weighted
counts of the dominant weights of a region (``_Region``) in a degree window,
so one recursion (``_priced``) serves both, pricing each weight as its walk reaches it.  One
pricer serves a factor in one degree and a Hilbert table: an l = 0 factor is S_z C^m (x) S_z C^n,
two Weyl products; any other walks its region once, and only those regions are memoised per label.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, prod
from typing import NamedTuple, Optional, Sequence

from .ideals import IdealSpec, _check_shape
from .partitions import Partition
from .zset import _LABEL_CACHE_SIZE, zset_general

Weight = tuple[int, ...]
GradedTable = dict[int, int]


def schur_dim(lam: Sequence[int], k: int) -> int:
    """Dimension of the irreducible GL_k representation of highest weight lam.

    Weyl's product over pairs i < j of (lam_i - lam_j + j - i) / (j - i),
    computed exactly; partitions shorter than k are padded with zeros,
    which is only valid when the last given entry is >= 0.
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
            num *= w[i] - w[j] + j - i
            den *= j - i
    if num % den:
        raise RuntimeError(f"Weyl product for {lam} over GL_{k} is not an integer")
    return num // den


@lru_cache(maxsize=64)
def _superfactorial(k: int) -> int:
    # prod over 0 <= i < j < k of (j - i), the denominator of Weyl's product over GL_k
    return prod(map(factorial, range(k)))


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


def _priced(
    region: _Region, lo: int, hi: int, s: int, m: int, n: int,
    into: defaultdict[int, list], cls: type = tuple, fields: tuple = (),
) -> None:
    """Walk the weights of a region with lo <= total <= hi, pricing each as the walk reaches it.

    Each weight lam goes into into[total] as tuple.__new__(cls, fields + (lam, lam_expanded,
    total, dim)), ascending within one call, with dim = dim_m(lam_expanded) * dim_n(lam).
    The expansion of lam at s, its GL_m weight of the same total, keeps lam_1..lam_s, inserts
    m - n entries s - n and adds m - n to the rest (lam itself when m = n); it is dominant when
    lam_s >= s - n and lam_{s+1} <= s - m.  With l_i = lam_i - i it keeps every l_i and inserts
    -n, ..., -m+1: the product is V(l)^2 prod_{i<s, n<=q<m} (l_i + q) prod_{i>=s, n<=q<m}
    (-q - l_i) sf(m-n) / (sf(m) sf(n)), V = prod_{i<j} (l_i - l_j), sf(k) = prod_{0<=i<j<k} (j - i).

    The walk branches on the free entries left to right (on the last entry alone when none is
    free), values ascending, and carries the weight prefix, its expansion and the partial product
    down: the fixed entries' factors come once per call, a free entry's against them and the block
    once per value it takes, and each node multiplies in its pairs with the free entries already
    chosen.  Nothing is set up before the walk knows the window holds a weight.  RuntimeError is
    raised when the fixed entries, or a new value against them, are not dominant, when an
    expansion bound fails at a fixed entry or a value first met, and when a division is inexact.
    """
    fixed_at, lower, cap_at, min_rest, caps_after, width = region
    size, d = len(fixed_at), m - n
    # the walked columns: the free entries, or the last entry when none is free
    free = [j for j, x in enumerate(fixed_at) if x is None] or [size - 1]
    k, first, last = len(free), free[0], free[-1]

    def span(i: int, prev: int, partial: int) -> tuple[int, int]:
        # the values of column i after entries of this total ending in prev: at most prev, the
        # cap and what leaves room for the least completion under hi; at least the lower bound
        # and what lets the greatest completion reach lo, where each later entry is at most
        # the value and its cap: a concave bound in the value, climbed by its slope
        j = free[i]
        top, cap, v = min(prev, hi - partial - min_rest[j + 1]), cap_at[j], lower[j]
        if cap is not None and cap < top:
            top = cap
        if j == last:
            return max(v, lo - partial - min_rest[j + 1]), top
        need, wj, caps = lo - partial, width[j], caps_after[j]
        while v <= top:
            short = need - v * wj - sum([c if c < v else v for c in caps])
            if short <= 0:
                break
            v -= short // -(wj + sum([c > v for c in caps]))
        return v, top

    head = fixed_at[:first]
    partial = sum(head)
    if fixed_at[first] is None:
        a, b = span(0, head[-1] if head else hi - min_rest[1], partial)
    elif lo <= min_rest[0] <= hi:  # nothing is free: the one weight
        a = b = fixed_at[first]
    else:
        return
    if a > b:
        return

    def bound(lam: tuple) -> None:
        # the expansion bounds lam_s >= s - n and lam_{s+1} <= s - m, on the entries lam holds
        if 0 < s <= len(lam) and lam[s - 1] is not None and lam[s - 1] < s - n:
            raise RuntimeError(f"entry {s} of {lam} is below {s - n}; expansion not dominant")
        if s < len(lam) and lam[s] is not None and lam[s] > s - m:
            raise RuntimeError(f"entry {s + 1} of {lam} is above {s - m}; expansion not dominant")

    fixed = [j for j, x in enumerate(fixed_at) if x is not None and j != last]
    fixed_pairs = [fixed_at[e] - fixed_at[f] + f - e for e, f in combinations(fixed, 2)]
    if fixed_pairs and min(fixed_pairs) <= 0:
        raise RuntimeError(f"fixed entries {fixed_at} are not dominant")
    bound(fixed_at)
    qs = range(n, m)
    den = _superfactorial(m) * _superfactorial(n)
    num = _superfactorial(d) * prod(fixed_pairs) ** 2
    # against the block the expansion inserts: l_i + q before it (i < s), -q - l_i after, n <= q < m
    num *= prod([fixed_at[j] - j + q if j < s else j - q - fixed_at[j] for j in fixed for q in qs])

    def weigh(j: int, memo: dict, v: int, acc: Weight) -> int:
        # column j's factor at a new value v: its pairs with the fixed entries and its block factors
        fx = [fixed_at[f] - v + j - f if f < j else v - fixed_at[f] + f - j for f in fixed]
        if fx and min(fx) <= 0:
            raise RuntimeError(f"entry {j + 1} = {v} after {acc} is not dominant against {fixed_at}")
        if s - 1 <= j <= s:
            bound(acc + (v,))
        w = memo[v] = prod(fx) ** 2 * prod([v - j + q if j < s else j - q - v for q in qs])
        return w

    # the expansion of the fixed entries, None where free, and each column's memo by value, free
    # columns before it, shift in the expansion and fixed entries after it, their total and expansion
    grown = (*fixed_at[:s], *(s - n,) * d, *[x if x is None else x + d for x in fixed_at[s:]])
    ends = [*free, size]
    cols = [
        (j, {}, [(f, j - f) for f in free[:i]], d if j >= s else 0, fixed_at[j + 1 : b],
         sum(fixed_at[j + 1 : b]), grown[j + 1 if j < s else j + 1 + d : b if b < s else b + d])
        for i, (j, b) in enumerate(zip(ends, ends[1:]))
    ]
    ehead = grown[: first if first < s else first + d]
    new = tuple.__new__

    def rec(
        i: int, a: int, b: int, partial: int, acc: Weight, eacc: Weight, num: int, lcs: tuple
    ) -> None:
        # column i takes each value a..b after the entries acc (expanded: eacc) of this total;
        # acc is dominant and at least b, so the pairs of a value with the free entries before
        # it are positive; lcs holds the last column's, c - v for c in lcs
        j, memo, before, shift, seg, segsum, eseg = cols[i]
        if i + 1 == k:  # one weight per value
            partial += segsum
            for v in range(a, b + 1):
                w = memo.get(v) or weigh(j, memo, v, acc)  # a product of 0 is recomputed: exact
                g = 1
                for c in lcs:
                    g *= c - v
                q, r = divmod(num * g * g * w, den)
                lam = acc + (v,) + seg
                if r:
                    raise RuntimeError(f"Weyl product for {lam} at s={s}, m={m} is not an integer")
                total, big = partial + v, eacc + (v + shift,) + eseg if d else lam
                into[total].append(new(cls, fields + (lam, big, total, q)))
            return
        cs = [acc[f] + c for f, c in before]
        for v in range(a, b + 1):
            w = memo.get(v) or weigh(j, memo, v, acc)
            g = 1
            for c in cs:
                g *= c - v
            total = partial + v + segsum
            bottom, top = span(i + 1, seg[-1] if seg else v, total)
            if bottom <= top:
                nxt = acc + (v,) + seg
                enxt = eacc + (v + shift,) + eseg if d else nxt
                rec(i + 1, bottom, top, total, nxt, enxt, num * g * g * w, lcs + (v + last - j,))

    rec(0, a, b, partial, head, ehead, num, ())
    del rec  # the closure holds its own cell: break the cycle


@lru_cache(maxsize=4096)
def _factor_region(zs: Weight, l: int) -> _Region:
    # the partitions x >= zs with x_i = zs_i for i >= l (0-based): the factor labeled (zs, l)
    fixed = (None,) * l + zs[l:]
    return _bounded(fixed, zs, fixed)


def _add_factor(table: GradedTable, zs: Weight, l: int, lo: int, hi: int, m: int, n: int) -> None:
    # add dim(x, m) * dim(x, n) into table[|x|] for each weight x of the factor labeled (zs, l),
    # zs padded to n entries, with lo <= |x| <= hi: an l = 0 factor is zs alone, any other
    # is its region's walk, priced as it goes
    if not l:
        size = sum(zs)
        if lo <= size <= hi:
            table[size] += schur_dim(zs, m) * schur_dim(zs, n)
        return
    priced: list = []  # the list of every total
    _priced(_factor_region(zs, l), lo, hi, n, m, n, defaultdict(lambda: priced))
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
    _add_factor(table, z.parts + (0,) * (n - z.nparts), l, r, r, m, n)
    return table[r]


@lru_cache(maxsize=_LABEL_CACHE_SIZE)
def _least_size(X: IdealSpec) -> int:
    # the least generator size of a nonzero ideal: below it S/I_X is the whole ring
    return min([g.size for g in X.gens])


@lru_cache(maxsize=_LABEL_CACHE_SIZE)
def _labels_by_size(X: IdealSpec) -> tuple[tuple[int, Weight, int], ...]:
    # (|z|, z padded to n entries, l) for each label of X, in order of |z|
    pairs = zset_general(X).pairs
    return tuple(sorted([(p.z.size, p.z.parts + (0,) * (X.n - p.z.nparts), p.l) for p in pairs]))


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
    for size, zs, l in _labels_by_size(X):
        if size > hi:
            break
        _add_factor(table, zs, l, start, hi, m, n)
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
