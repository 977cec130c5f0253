"""Index pairs (z, l) labeling the graded factors of an invariant quotient.

The quotient by any proper nonzero invariant ideal carries a finite
filtration whose composition factors are indexed by pairs (z, l); the set
of pairs determines Ext modules, regularity and the vanishing behaviour.
For powers and symbolic powers of minors the set has a closed form, kept
separate from the general algorithm so the two can be checked against each
other.

A label is a named tuple, ``ZPair(z, l) == (z, l)``.  The labels of one
ideal form a ``ZSet``, an immutable record that is not a tuple, so a label
set never iterates as its fields; it equals another ``ZSet`` of the same
n and pairs, and never the plain pair (n, pairs).
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .ideals import _IDEAL_MEMO_SIZE, IdealSpec, _check_pdn, _Frozen
from .partitions import Partition, enumerate_partitions


class ZPair(NamedTuple):
    """One factor label: a partition z with z_1 = ... = z_{l+1}, 0 <= l <= n-1."""

    z: Partition
    l: int

    def sort_key(self) -> tuple:
        return (self.l, self.z.size, self.z.parts)

    def to_json(self) -> dict:
        return {"z": self.z.to_json(), "l": self.l}

    def __str__(self) -> str:
        return f"({self.z}; l={self.l})"


def _chain_tails(z: Partition, l: int, n: int) -> list[tuple[int, ...]]:
    """The t of a label's feasible chains 0 <= s <= t_1 <= ... <= t_(n-l) <= l, ascending.

    With k = n - l, r_i = z_(n-i) - z_(n+1-i) for i < k and r_k = z_l - z_(l+1)
    (z_0 reads as z_1), a chain is feasible, its weight region
    (``ext._region``) nonempty, exactly when
        t_(i+1) - t_i <= r_i for i < k,   l - t_k <= r_k,   t_1 - z_n <= s.
    Proof: the region fixes entry t_i + i at e_i = t_i - z_(n+1-i) - m and
    bounds every entry below by f = l - z_l - m and by each fixed value
    after it, entries 1..s below by s - n, and entries s+1..n above by s - m
    and by each fixed value before it.  It is nonempty iff each entry's
    lower bounds lie below its upper ones.  An entry up to s <= t_1 has no
    upper bound, and every fixed entry lies past s, so this says
    s - m >= e_1 >= ... >= e_k >= f: the three conditions above.

    So every feasible t has the chains with s in [max(0, t_1 - z_n), t_1].
    A label has r_k = 0, so t_k = l.  Where r_i = 0, t_(i+1) = t_i, so t is
    a run of equal values between each two rows i < k with r_i > 0.  The
    walk sets the runs from t_1 on, keeping t_i >= l - (r_i + ... + r_k),
    the least value from which t_k can still reach l; every prefix then
    completes, so it builds only the t it returns.  Each prefix extends in
    ascending order, so the list comes out ascending with no sort.
    """
    if not l:  # t_i <= l = 0
        return [(0,) * n]
    k = n - l
    parts = z + (0,) * (n - len(z))  # parts[i - 1] is z_i
    # walking down from row k: each run above the first as (its length, its
    # least value, the rise r_i > 0 into it from row i); a label has
    # z_l = z_(l+1), so r_k = 0 and t_k = l
    top, need = k, l
    runs = []
    for i in range(k - 1, 0, -1):
        r = parts[n - i - 1] - parts[n - i]
        if r:
            runs.append((top - i, need, r))
            top, need = i, need - r
    tails = [(v,) * top for v in range(max(need, 0), l + 1)]  # rows 1..top
    for c, lo, r in reversed(runs):
        tails = [t + (v,) * c for t in tails for v in range(max(t[-1], lo), min(t[-1] + r, l) + 1)]
    return tails


class ZSet(_Frozen):
    """The full set of factor labels for one ideal."""

    __slots__ = ("n", "pairs")
    n: int
    pairs: frozenset[ZPair]

    def __init__(self, n: int, pairs: frozenset[ZPair]) -> None:
        _Frozen.__init__(self, n, pairs)

    def sorted_pairs(self) -> list[ZPair]:
        return sorted(self.pairs, key=ZPair.sort_key)

    def to_json(self) -> dict:
        return {"n": self.n, "pairs": [p.to_json() for p in self.sorted_pairs()]}


def _check_pair(pair: ZPair, n: int) -> ZPair:
    z, l = pair
    # z is weakly decreasing: z_1 = ... = z_(l+1) iff z is empty or z_1 occurs l+1 times
    if not 0 <= l <= n - 1 or (z and z.count(z[0]) <= l):
        raise RuntimeError(f"label {pair} breaks 0 <= l < {n} or z_1 = ... = z_(l+1)")
    return pair


# saves recomputing an ideal's labels for each Ext, regularity, Hilbert and Kodaira call on it
@lru_cache(maxsize=_IDEAL_MEMO_SIZE)
def zset_general(X: IdealSpec) -> ZSet:
    """Factor labels of S/I_X for a proper nonzero invariant ideal.

    A label of width c is a z with z_1 = c and l = H(z) - 1, where
    H(z) = min{h_g : trunc_c(g) <= z}, h_g is the height of column c+1 of
    the generator g, and 0 < H(z) < infinity (H(z) = 0 puts z in I_X).
    H(z) is the least h such that z_1 = ... = z_h = c and some generator g
    has g_i <= z_i for every i > h:
    "=>" because g_i <= z_i <= c for i > h forces h_g <= h and trunc_c(g) <= z;
    "<=" because trunc_c(g) <= z gives z_1 = ... = z_(h_g) = c and g_i <= z_i
    for i > h_g, by the definition of trunc.

    So one walk sets z_n, z_(n-1), ... and carries C_k, the generators
    with g_i <= z_i for every i >= k (C_(n+1) is all of them).  At row k:
    * emit: each v below every g_k with g in C_(k+1) empties C_k and gives
      the one label (v^k, z_(k+1), ..., z_n) with l = k-1; no other z with
      rows k..n equal to (v, z_(k+1), ..., z_n) is a label;
    * prune: once some g in C_k has g_1 <= z_k, every completion lies in
      I_X, so the values stop below the least g_1 over C_(k+1).
    The work scales with the tails that can still end outside I_X, not
    with every candidate z.  Results are memoised per ideal in a bounded
    LRU cache; ``zset_general.cache_clear()`` empties it.
    """
    if X.is_zero or X.is_unit:
        raise ValueError("factor labels need a proper nonzero ideal")
    n = X.n
    found = []

    def walk(k: int, tail: tuple[int, ...], low: int, gens: list[tuple[int, ...]]) -> None:
        # rows k+1..n read tail (low = z_(k+1)); gens is C_(k+1), not empty
        least = min(map(itemgetter(k - 1), gens))  # least g_k over C_(k+1)
        for v in range(low, least):
            found.append(_check_pair(ZPair(Partition((v,) * k + tail), k - 1), n))
        if k > 1:
            for v in range(max(low, least), min(map(itemgetter(0), gens))):
                walk(k - 1, (v,) + tail, v, [g for g in gens if g[k - 1] <= v])

    walk(n, (), 0, [g.parts + (0,) * (n - g.nparts) for g in X.gens])
    del walk  # the closure holds its own cell: break the cycle
    return ZSet(n, frozenset(found))


def zset_power(p: int, d: int, n: int) -> ZSet:
    """Closed form of the factor labels for the d-th power of p x p minors.

    Pairs (z, l) with 0 <= l <= p-1, z_1 = ... = z_{l+1} <= d-1 and
    |z| + (d - z_1) l + 1 <= p d <= |z| + (d - z_1)(l + 1).
    """
    _check_pdn(p, d, n)
    found = []
    for l in range(p):
        for c0 in range(d):
            for tail in enumerate_partitions(n - l - 1, c0):
                z = Partition((c0,) * (l + 1) + tail.parts)
                lowest = z.size + (d - c0) * l + 1
                highest = z.size + (d - c0) * (l + 1)
                if lowest <= p * d <= highest:
                    found.append(_check_pair(ZPair(z, l), n))
    return ZSet(n, frozenset(found))


def zset_symbolic(p: int, d: int, n: int) -> ZSet:
    """Closed form for the d-th symbolic power of p x p minors.

    Pairs (z, p-1) with z_1 = ... = z_p and z_p + ... + z_n <= d - 1.
    """
    _check_pdn(p, d, n)
    found = []
    for c0 in range(d):
        for tail in enumerate_partitions(n - p, c0):
            if c0 + tail.size <= d - 1:
                z = Partition((c0,) * p + tail.parts)
                found.append(_check_pair(ZPair(z, p - 1), n))
    return ZSet(n, frozenset(found))
