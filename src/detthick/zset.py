"""Index pairs (z, l) labeling the graded factors of an invariant quotient.

The quotient by any proper nonzero invariant ideal carries a finite
filtration whose composition factors are indexed by pairs (z, l); the set
of pairs determines Ext modules, regularity and the vanishing behaviour.
For powers and symbolic powers of minors the set has a closed form, kept
separate from the general algorithm so the two can be checked against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .ideals import IdealSpec, _check_pdn
from .partitions import Partition, enumerate_partitions, leq


@dataclass(frozen=True)
class ZPair:
    """One factor label: a partition z with z_1 = ... = z_{l+1}, 0 <= l <= n-1."""

    z: Partition
    l: int

    def sort_key(self) -> tuple:
        return (self.l, self.z.size, self.z.parts)

    def to_json(self) -> dict:
        return {"z": self.z.to_json(), "l": self.l}

    def __str__(self) -> str:
        return f"({self.z}; l={self.l})"


@dataclass(frozen=True)
class ZSet:
    """The full set of factor labels for one ideal."""

    n: int
    pairs: frozenset[ZPair]

    def sorted_pairs(self) -> list[ZPair]:
        return sorted(self.pairs, key=ZPair.sort_key)

    def to_json(self) -> dict:
        return {"n": self.n, "pairs": [p.to_json() for p in self.sorted_pairs()]}


def _check_pair(pair: ZPair, n: int) -> ZPair:
    z, l = pair.z, pair.l
    assert 0 <= l <= n - 1, (pair, n)
    assert all(z.part(i) == z.part(1) for i in range(2, l + 2)), (pair, n)
    return pair


def zset_general(X: IdealSpec) -> ZSet:
    """Factor labels of S/I_X for a proper nonzero invariant ideal.

    For each candidate width c and each z of width exactly c, the
    generators whose c-column truncation sits inside z either all stick
    out past column c at a common minimal height l+1 (then (z, l) is a
    label) or the candidate is discarded.
    """
    if X.is_zero or X.is_unit:
        raise ValueError("factor labels need a proper nonzero ideal")
    n = X.n
    gens = list(X.gens)
    cmax = max(g.part(1) for g in gens)
    found = []
    for c in range(cmax):
        for z in _width_candidates(n, c):
            inside = [g for g in gens if leq(g.truncate(c), z)]
            if not inside:
                continue
            if any(g.part(1) <= c for g in inside):
                continue
            l = min(g.conjugate().part(c + 1) for g in inside) - 1
            found.append(_check_pair(ZPair(z, l), n))
    return ZSet(n, frozenset(found))


def _width_candidates(n: int, c: int) -> Iterator[Partition]:
    # partitions in the n x c box with first part exactly c
    if c == 0:
        yield Partition()
        return
    for tail in enumerate_partitions(n - 1, c):
        yield Partition((c,) + tail.parts)


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
