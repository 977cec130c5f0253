"""Dimensions of irreducible GL representations and graded Hilbert data.

Everything reduces to the Weyl dimension product, evaluated exactly on
dominant integer weights (negative entries included); translation of a
weight by a constant vector never changes the dimension.

A piece of Ext and the Hilbert function of a factor are both Weyl-weighted
counts of the dominant weights of a region (``_Region``) in a degree window,
so one walk (``_walk``) and one kernel (``_run_dims``) serve both.  One pricer serves a
factor in one degree and a Hilbert table: an l = 0 factor is S_z C^m (x) S_z C^n, two Weyl
products; any other walks its region once, and only those regions are memoised per label.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, factorial, prod
from typing import NamedTuple, Optional, Sequence

from .ideals import IdealSpec, _check_shape
from .partitions import Partition
from .zset import _LABEL_CACHE_SIZE, zset_general

Weight = tuple[int, ...]
GradedTable = dict[int, int]
Run = tuple[Weight, int, int, int]  # head, head total, bottom, top: see _run_dims


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


def _superfactorial(k: int) -> int:
    # prod over 0 <= i < j < k of (j - i), the denominator of Weyl's product over GL_k
    return prod(map(factorial, range(k)))


def _run_dims(
    runs: Sequence[Run], fixed_at: Sequence[Optional[int]], s: int, m: int, n: int
) -> list[tuple[Weight, Weight, int, int]]:
    """Each weight of the runs, its expansion at s, its total and dim_m(expansion) * dim_n(weight).

    A run (head, head_total, bottom, top) holds head + (v,) + fixed_at[len(head) + 1:] for
    bottom <= v <= top; all heads have one length and agree where fixed_at is not None.
    The expansion of lam at s, its GL_m weight of the same total, keeps lam_1..lam_s, inserts
    m - n entries s - n and adds m - n to the rest; it is dominant when lam_s >= s - n and
    lam_{s+1} <= s - m.  With l_i = lam_i - i it keeps every l_i and inserts -n, ..., -m+1: the
    product is V(l)^2 prod_{i<s, n<=q<m} (l_i + q) prod_{i>=s, n<=q<m} (-q - l_i) sf(m-n) /
    (sf(m) sf(n)), V = prod_{i<j} (l_i - l_j), sf(k) = prod_{0<=i<j<k} (j - i).  Factors among
    fixed columns come once per call, a free or varying column's against them and the block once
    per value met, those among a head's free columns once per run.  Every weight is checked for
    dominance, the two expansion bounds and the division (RuntimeError).
    """
    if not runs:
        return []
    d, last = m - n, len(runs[0][0])
    den = _superfactorial(m) * _superfactorial(n)
    tail = tuple(fixed_at[last + 1 :])
    first = runs[0][0] + (runs[0][2],) + tail
    fixed = [i for i, x in enumerate(fixed_at) if x is not None and i != last]
    free = [i for i in range(last) if fixed_at[i] is None]
    fixed_pairs = [first[a] - first[b] + b - a for a, b in combinations(fixed, 2)]
    if fixed_pairs and min(fixed_pairs) <= 0:
        raise RuntimeError(f"weight {first} is not dominant")
    const = _superfactorial(d) * prod(fixed_pairs) ** 2
    # against the block the expansion inserts: l_i + q before it (i < s), -q - l_i after, n <= q < m
    const *= prod([first[i] - i + q if i < s else i - q - first[i] for i in fixed for q in range(n, m)])
    # each free column, then the varying one: a memo by value and the factors
    # g * x + c against the fixed columns and against the block
    *cols, vcol = [
        (i, {}, [(1, f - i - first[f]) if i < f else (-1, first[f] + i - f) for f in fixed],
         [(1, q - i) if i < s else (-1, i - q) for q in range(n, m)]) for i in (*free, last)
    ]

    def weigh(col: tuple, x: int, lam: Weight) -> int:
        # a column's product at a value x the call has not met, checked on lam, a
        # weight with x in that column; the expansion bounds lam_s >= s - n and
        # lam_{s+1} <= s - m are read on all of lam, so the call's first miss
        # covers the fixed columns' bounds too
        _, memo, against, block = col
        fx = [g * x + c for g, c in against]
        if fx and min(fx) <= 0:
            raise RuntimeError(f"weight {lam} is not dominant")
        if s and lam[s - 1] < s - n:
            raise RuntimeError(f"entry {s} of {lam} is below {s - n}; expansion not dominant")
        if s < n and lam[s] > s - m:
            raise RuntimeError(f"entry {s + 1} of {lam} is above {s - m}; expansion not dominant")
        w = memo[x] = prod(fx) ** 2 * prod([g * x + c for g, c in block])
        return w

    vmemo = vcol[1]
    pairs = [(a, b, b - a) for a, b in combinations(free, 2)]
    offsets = [(i, last - i) for i in free]  # v against head column i: head[i] + last - i - v
    pad = (s - n,) * d
    if s <= last:  # the block goes into the head, before v
        dv, etail = d, tuple([e + d for e in tail])
    else:
        dv, etail = 0, (*tail[: s - last - 1], *pad, *[e + d for e in tail[s - last - 1 :]])
    tail_total = sum(tail)
    out = []
    for head, head_total, bottom, top in runs:
        fh = [head[a] - head[b] + c for a, b, c in pairs]
        if fh and min(fh) <= 0:
            raise RuntimeError(f"weight {head + (bottom,) + tail} is not dominant")
        p = prod(fh)
        num = const * p * p
        for col in cols:  # a product of 0 is recomputed, so `or` is exact
            num *= col[1].get(head[col[0]]) or weigh(col, head[col[0]], head + (bottom,) + tail)
        cs = [head[i] + c for i, c in offsets]
        # v against the entry before it: with the head dominant, against all of it
        vmax = head[-1] if head else top
        ehead = (*head[:s], *pad, *[e + d for e in head[s:]]) if d and s <= last else head
        base = head_total + tail_total
        for v in range(bottom, top + 1):
            lam = head + (v,) + tail
            if v > vmax:
                raise RuntimeError(f"weight {lam} is not dominant")
            w = vmemo.get(v) or weigh(vcol, v, lam)
            g = 1
            for c in cs:
                g *= c - v
            q, r = divmod(num * g * g * w, den)
            if r:
                raise RuntimeError(
                    f"Weyl product for {lam} expanded at s={s} to GL_{m} is not an integer"
                )
            out.append((lam, ehead + (v + dv,) + etail if d else lam, base + v, q))
    return out


class _Region(NamedTuple):
    """The dominant weights of one chain or one factor, as bounds on each 0-based entry."""

    fixed_at: tuple[Optional[int], ...]  # the value fixed at each position, or None
    lower: Weight  # least value of each entry; itself the size-minimal weight
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


def _walk(region: _Region, lo: int, hi: int) -> list[Run]:
    # the weights of a region with lo <= total <= hi as ascending runs (head, head total, bottom,
    # top): head + (v,) + tail, bottom <= v <= top, v at the last free position (else the last one)
    fixed_at, lower, cap_at, min_rest, caps_after, width = region
    if None not in fixed_at:
        head, v = lower[:-1], lower[-1]
        return [(head, min_rest[0] - v, v, v)] if lo <= min_rest[0] <= hi else []
    last = len(fixed_at) - 1 - fixed_at[::-1].index(None)
    tailsum = min_rest[last + 1]
    out: list[Run] = []

    # entries left to right: a fixed entry is taken in place, a free one branches
    # from its cap down until the total can no longer reach lo; the runs come
    # out in descending order
    def rec(j: int, prev: int, partial: int, acc: Weight) -> None:
        while True:
            vmax = min(hi - partial - min_rest[j + 1], prev)
            cap = cap_at[j]
            if cap is not None and cap < vmax:
                vmax = cap
            v = fixed_at[j]
            if v is None:
                break
            if not lower[j] <= v <= vmax:
                return
            j, prev, partial, acc = j + 1, v, partial + v, acc + (v,)
        vmin = lower[j]
        if j == last:
            bottom = max(vmin, lo - partial - tailsum)
            if bottom <= vmax:
                out.append((acc, partial, bottom, vmax))
            return
        caps, wj = caps_after[j], width[j]
        for v in range(vmax, vmin - 1, -1):
            if partial + v * wj + sum([c if c < v else v for c in caps]) < lo:
                break
            rec(j + 1, v, partial + v, acc + (v,))

    rec(0, hi - min_rest[1], 0, ())
    del rec  # the closure holds its own cell: break the cycle
    out.reverse()
    return out


@lru_cache(maxsize=4096)
def _factor_region(zs: Weight, l: int) -> _Region:
    # the partitions x >= zs with x_i = zs_i for i >= l (0-based): the factor labeled (zs, l)
    fixed = (None,) * l + zs[l:]
    return _bounded(fixed, zs, fixed)


def _add_factor(table: GradedTable, zs: Weight, l: int, lo: int, hi: int, m: int, n: int) -> None:
    # add dim(x, m) * dim(x, n) into table[|x|] for each weight x of the factor labeled (zs, l),
    # zs padded to n entries, with lo <= |x| <= hi: an l = 0 factor is zs alone, any other
    # is its region's walk priced in one kernel call
    if not l:
        size = sum(zs)
        if lo <= size <= hi:
            table[size] += schur_dim(zs, m) * schur_dim(zs, n)
        return
    region = _factor_region(zs, l)
    for *_, total, dim in _run_dims(_walk(region, lo, hi), region.fixed_at, n, m, n):
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
