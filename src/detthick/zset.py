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
from itertools import combinations_with_replacement
from typing import NamedTuple

from .ideals import IdealSpec, _check_pdn, _Frozen
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
    z, l = pair.z, pair.l
    if not 0 <= l <= n - 1 or any(z.part(i) != z.part(1) for i in range(2, l + 2)):
        raise RuntimeError(f"label {pair} breaks 0 <= l < {n} or z_1 = ... = z_(l+1)")
    return pair


_LABEL_CACHE_SIZE = 64


@lru_cache(maxsize=_LABEL_CACHE_SIZE)
def zset_general(X: IdealSpec) -> ZSet:
    """Factor labels of S/I_X for a proper nonzero invariant ideal.

    For each candidate width c and each z of width exactly c, the
    generators whose c-column truncation sits inside z either all stick
    out past column c at a common minimal height l+1 (then (z, l) is a
    label) or the candidate is discarded.

    Results are memoised per ideal in a bounded LRU cache;
    ``zset_general.cache_clear()`` empties it.
    """
    if X.is_zero or X.is_unit:
        raise ValueError("factor labels need a proper nonzero ideal")
    n = X.n
    gens = [g.parts + (0,) * (n - g.nparts) for g in X.gens]
    none = n + 1  # no wider generator below z
    found = []
    for c in range(max(g[0] for g in gens)):
        # Keys are rows n, ..., 2 of a partition with first part c, bottom
        # row first, so that combinations_with_replacement lists every key
        # after the keys one box smaller.  A truncation t lies below such a
        # z iff its key does, so a walk in that order carries to each z the
        # least value of the truncations below it: 0 for a generator of
        # width <= c (z is in I_X), else the height of column c+1.
        least: dict[tuple[int, ...], int] = {}
        for g in gens:
            key = tuple(min(p, c) for p in reversed(g[1:]))
            h = 0 if g[0] <= c else sum(1 for p in g if p > c)
            least[key] = min(h, least.get(key, h))
        for key in combinations_with_replacement(range(c + 1), n - 1):
            h = least.get(key, none)
            for i, p in enumerate(key):
                if p > (key[i - 1] if i else 0):
                    h = min(h, least[key[:i] + (p - 1,) + key[i + 1 :]])
            least[key] = h
            if 0 < h < none:
                z = Partition((c,) + key[::-1])
                found.append(_check_pair(ZPair(z, h - 1), n))
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
