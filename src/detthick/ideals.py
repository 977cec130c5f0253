"""GL-invariant ideals of a generic m x n matrix, encoded combinatorially.

An invariant ideal of the coordinate ring is determined by the antichain of
minimal partitions indexing its irreducible summands; every operation here
(membership, intersection, saturation, powers, symbolic powers) is pure
partition combinatorics on that antichain.  The matrix never appears.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .partitions import EMPTY, Partition, enumerate_partitions, leq, sup

_IDEAL_MEMO_SIZE = 64  # each memo keyed by an ideal, ideal pair or int; a bench pass fills <= 54
_LABEL_MEMO_SIZE = 4096  # each memo keyed by a label, region or regularity level; fills <= 343


class _Frozen:
    """An immutable record of a rank n and one frozenset: the parts that
    ``IdealSpec`` and ``ZSet`` share.

    Not a tuple, so it never iterates as its fields.  Two records are equal
    when they have the same class and equal (n, set), and hash as that pair;
    both are memo keys, so these compare and hash one stored pair, not a
    loop over the fields.  Pickling and copying rebuild through the
    constructor, so a loaded record passes its class's checks again.
    """

    __slots__ = ("_key",)

    def __init__(self, n: int, items: frozenset) -> None:
        # a subclass's __slots__ is ("n", the name of its set field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, self.__slots__[1], items)
        object.__setattr__(self, "_key", (n, items))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self) -> tuple:
        return (self.__class__, self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._key))
        return f"{self.__class__.__name__}({fields})"


class IdealSpec(_Frozen):
    """An invariant ideal: the antichain of its minimal generators in P_n.

    ``gens`` is a frozenset, as ideals are memo keys: ``frozenset()`` is the zero ideal
    (flagged, not an error) and ``frozenset([EMPTY])``, the empty partition, the unit ideal.
    """

    __slots__ = ("n", "gens")
    n: int
    gens: frozenset[Partition]

    def __init__(self, n: int, gens: frozenset[Partition], *, _antichain: bool = False) -> None:
        # normalize passes _antichain=True: it kept exactly the minimal elements of
        # a set, an antichain, so the test below would only repeat its work
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not isinstance(gens, frozenset):
            raise TypeError(f"generators must be a frozenset, got {type(gens).__name__}")
        _check_rows(gens, n)
        if EMPTY in gens and len(gens) != 1:
            raise ValueError("the unit ideal must be generated by the empty partition alone")
        if not _antichain:
            for b, a in _below(gens):
                if a is not None:
                    raise ValueError(f"generators {a} and {b} are comparable; not an antichain")
        _Frozen.__init__(self, n, gens)

    @classmethod
    def zero(cls, n: int) -> "IdealSpec":
        return cls(n, frozenset())

    @classmethod
    def unit(cls, n: int) -> "IdealSpec":
        return cls(n, frozenset([EMPTY]))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return self.gens == frozenset([EMPTY])

    def sorted_gens(self) -> list[Partition]:
        # (size, parts) order: two sorts in C with no Python key, by the parts and then,
        # stably, by the size
        out = sorted(self.gens)
        out.sort(key=sum)
        return out

    def to_json(self) -> dict:
        return {"n": self.n, "gens": [g.to_json() for g in self.sorted_gens()]}

    def __str__(self) -> str:
        if self.is_zero:
            return f"<zero ideal, n={self.n}>"
        return "{" + "; ".join(str(g) for g in self.sorted_gens()) + "}" + f" in P_{self.n}"


def _below(gens: Iterable[Partition]) -> Iterator[tuple[Partition, Optional[Partition]]]:
    # each partition of a set in order of size, with one of the set strictly below it or None.
    # h < g needs |h| < |g|, and below any h lies a minimal one, so g is tested only against
    # the minimal ones of the size classes before its own; the least class, with nothing in
    # the set strictly below it, yields None untested
    pool = list(gens)
    lower: list[Partition] = []  # the minimal ones of the classes before g's
    last: list[Partition] = []  # the minimal ones of g's class so far
    size = None
    for s, g in sorted(zip(map(sum, pool), pool), key=itemgetter(0)):
        if s != size:
            lower += last
            last, size = [], s
        h = next((h for h in lower if leq(h, g)), None) if lower else None
        if h is None:
            last.append(g)
        yield g, h


def _check_rows(gens: frozenset | set, n: int) -> None:
    # every generator lies in P_n: at most n parts
    if gens and max(map(len, gens)) > n:
        g = next(g for g in gens if len(g) > n)
        raise ValueError(f"generator {g} has more than {n} parts")


def normalize(n: int, raw: Iterable[Partition]) -> IdealSpec:
    """Build an IdealSpec from any generator list, keeping minimal elements."""
    pool = set(raw)
    _check_rows(pool, n)
    return IdealSpec(n, frozenset(g for g, h in _below(pool) if h is None), _antichain=True)


def member(X: IdealSpec, y: Partition) -> bool:
    """Is the irreducible indexed by y contained in the ideal?

    True iff some generator g satisfies g <= y componentwise.
    """
    if y.nparts > X.n:
        raise ValueError(f"{y} has more than {X.n} parts")
    return any(leq(g, y) for g in X.gens)


# saves the generator scan of each Ext map's containment test: 2.9% of label_sweep's wall_s
@lru_cache(maxsize=_IDEAL_MEMO_SIZE)
def subideal(X: IdealSpec, Y: IdealSpec) -> bool:
    """Is I_X contained in I_Y?  True iff every generator of X lies in I_Y.

    Memoised per (X, Y) in a bounded LRU cache, which keeps no exception, so
    a mismatched n raises on every call; ``subideal.cache_clear()`` empties it.
    """
    if X.n != Y.n:
        raise ValueError(f"mismatched n: {X.n} vs {Y.n}")
    return all(member(Y, g) for g in X.gens)


def intersect(X: IdealSpec, Y: IdealSpec) -> IdealSpec:
    """Intersection: generated by the pointwise sups of generator pairs."""
    if X.n != Y.n:
        raise ValueError(f"mismatched n: {X.n} vs {Y.n}")
    return normalize(X.n, [sup(a, b) for a in X.gens for b in Y.gens])


def saturate(X: IdealSpec, p: int) -> IdealSpec:
    """Saturate with respect to the ideal of p x p minors.

    Each generator keeps exactly its columns of height > p; with p=0
    nothing is stripped from nonempty generators.  p=1 is saturation by
    the irrelevant maximal ideal.

    Column c of g has height #{i : g_i >= c}, which is > p exactly when
    g_(p+1) >= c, as the parts are weakly decreasing.  So the columns of
    height > p are the first g_(p+1) (none when g has at most p parts),
    and g is stripped to ``g.truncate(g.part(p + 1))``.
    """
    if not 0 <= p:
        raise ValueError(f"saturation index {p} is negative")
    if p > X.n:
        raise ValueError(f"saturation index {p} exceeds n={X.n}")
    return normalize(X.n, [g.truncate(g.part(p + 1)) for g in X.gens])


def power_gens(p: int, d: int, n: int) -> IdealSpec:
    """Generators of the d-th power of the ideal of p x p minors.

    All partitions of total size p*d with first part at most d.
    """
    _check_pdn(p, d, n)
    return IdealSpec(n, frozenset(enumerate_partitions(n, d, size=p * d)))


def symbolic_gens(p: int, d: int, n: int) -> IdealSpec:
    """Generators of the d-th symbolic power of the p x p minors.

    All x with x_1 = ... = x_p and x_p + ... + x_n = d.
    """
    _check_pdn(p, d, n)
    out = []
    for c0 in range(1, d + 1):
        for tail in enumerate_partitions(n - p, c0, size=d - c0):
            out.append(Partition((c0,) * p + tail.parts))
    return IdealSpec(n, frozenset(out))


def _check_pdn(p: int, d: int, n: int) -> None:
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")


def _check_shape(X: IdealSpec, m: int, n: int) -> None:
    # an ideal of P_n over an m x n matrix, m >= n: checked before any label is computed
    if X.n != n:
        raise ValueError(f"ideal lives in P_{X.n}, not P_{n}")
    if not n <= m:
        raise ValueError(f"need n <= m, got m={m}, n={n}")


def _check_zl(z: Partition, l: int, n: int) -> None:
    # a factor label (z, l): z in P_n, 0 <= l <= n-1 and z_1 = ... = z_{l+1}
    if z.nparts > n:
        raise ValueError(f"{z} has more than {n} parts")
    if not 0 <= l <= n - 1:
        raise ValueError(f"need 0 <= l <= {n - 1}, got l={l}")
    if any(z.part(i) != z.part(1) for i in range(2, l + 2)):
        raise ValueError(f"need z_1 = ... = z_{l + 1} in {z}")


def succ_gens(z: Partition, l: int, n: int) -> IdealSpec:
    """Minimal generators of the strict-successor ideal of (z, l).

    Its members are the x >= z with x_i > z_i for some row i > l.  For each
    row i the minimal such x bumps every row tied with row i, so a single
    added box does not always suffice.
    """
    if z.nparts > n:
        raise ValueError(f"{z} has more than {n} parts")
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= {n}, got l={l}")
    bumps = []
    for i in range(l + 1, n + 1):
        v = z.part(i)
        j0 = next(j for j in range(1, i + 1) if z.part(j) == v)
        parts = [z.part(j) for j in range(1, n + 1)]
        for j in range(j0, i + 1):
            parts[j - 1] = v + 1
        bumps.append(Partition(parts))
    return normalize(n, bumps)


def yset_gens(z: Partition, l: int, n: int) -> IdealSpec:
    """Rectangular companion generators for (z, l) with z_1 = ... = z_{l+1}.

    The rectangle ((z_1+1)^(l+1)) together with ((z_i+1)^i) for each i > l+1
    where z strictly drops entering row i.
    """
    _check_zl(z, l, n)
    rects = [Partition([z.part(1) + 1] * (l + 1))]
    for i in range(l + 2, n + 1):
        if z.part(i - 1) > z.part(i):
            rects.append(Partition([z.part(i) + 1] * i))
    return normalize(n, rects)


def radical_index(X: IdealSpec) -> int:
    """The radical is the ideal of p x p minors with p = min first-column height."""
    if X.is_zero or X.is_unit:
        raise ValueError("radical index needs a proper nonzero ideal")
    return min(g.nparts for g in X.gens)
