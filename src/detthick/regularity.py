"""Castelnuovo-Mumford regularity from the factor-label combinatorics.

The regularity of a single factor (z, l) is a maximum over lattice chains
bounded by the successive differences of z; the regularity of a quotient
is the maximum over its factor labels.  For powers, saturated powers and
symbolic powers of minors the per-level maxima reduce to an optimization
over pairs of partitions.  It has a closed form wherever that is proven
(p = n, or d >= n - 1), and the search runs only outside that range; the
tests cross-check the two.
Minus infinity (the regularity of the zero module) is float("-inf"); all
finite values are exact integers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from operator import ge, mul
from typing import Union

from .ideals import _LABEL_MEMO_SIZE, IdealSpec, _check_shape, _check_zl
from .partitions import Partition
from .zset import _chain_tails, zset_general

NEG_INF = float("-inf")
RegValue = Union[int, float]

KINDS = ("power", "satpower", "symbolic")


def reg_tuples(z: Partition, l: int, n: int) -> list[tuple[int, ...]]:
    """Chains (t_1, ..., t_{n-l}, l) with increments between 0 and the z-differences, sorted.

    Increment i is bounded by z_{n-i} - z_{n+1-i}; with l = 0 the only
    chain is all zeros.  These are the t of the label's feasible Ext chains
    (``zset._chain_tails``), each followed by l.
    """
    _check_zl(z, l, n)
    return [t + (l,) for t in _chain_tails(z, l, n)]


def f_value(z: Partition, l: int, t: tuple[int, ...]) -> int:
    """The correction sum t_i (z_{n-i} - z_{n+1-i} - t_{i+1} + t_i) over i <= n-l."""
    n = len(t) + l - 1
    _check_zl(z, l, n)
    if t[-1] != l:
        raise ValueError(f"chain {t} must end at l={l}")
    return _f_value(z, l, n, t)


def _f_value(z: Partition, l: int, n: int, t: tuple[int, ...]) -> int:
    # f_value on a label already checked and a chain that ends at l
    total = 0
    for i in range(1, n - l + 1):
        zdiff = z.part(max(n - i, 1)) - z.part(n + 1 - i)  # z_0 reads as z_1
        total += t[i - 1] * (zdiff - t[i] + t[i - 1])
    return total


def reg_j(z: Partition, l: int, n: int) -> int:
    """Regularity of the factor module labeled (z, l): max of |z| + |t| - l - f.

    With l = 0 the only chain is all zeros, with f = 0: the regularity is |z|.
    """
    _check_zl(z, l, n)
    if not l:
        return z.size
    # |z| + |t| - l over the chain closed by l is |z| plus the sum of the tail
    return max(z.size + sum(t) - _f_value(z, l, n, t + (l,)) for t in _chain_tails(z, l, n))


def reg_quotient(X: IdealSpec, m: int, n: int) -> RegValue:
    """Regularity of S/I_X: the maximum factor regularity over all labels.

    The unit ideal gives the zero module, regularity -inf.  The zero ideal
    is rejected (S itself has regularity 0 but no factor labels).
    """
    _check_shape(X, m, n)
    if X.is_zero:
        raise ValueError("zero ideal: S/0 = S has regularity 0 but no factor labels")
    if X.is_unit:
        return NEG_INF
    return max(reg_j(pair.z, pair.l, n) for pair in zset_general(X).pairs)


# saves the searches a family's kinds and tables repeat: 35 of 72 on a family_tables pass
@lru_cache(maxsize=_LABEL_MEMO_SIZE)
def r_bruteforce(l: int, p: int, n: int, d: int) -> RegValue:
    """Level-l regularity bound by direct search over the partition-pair region.

    With k = n - l, y runs over the k x (d-1) box with d(p-1-l) <= |y| - y_1
    and |y| <= d(p-l) - 1, and u = (l, tail) with the tail in the (k-1) x l
    box (both caps proven).  A pair counts when each step y_i - y_(i+1) is at
    least u_i - u_(i+1), and weighs l y_1 + |y| + |u| - sum u_(i+1) ((y_i -
    y_(i+1)) - (u_i - u_(i+1))); -inf when no pair counts.

    The boxes are plain int tuples: ``combinations_with_replacement(range(c,
    -1, -1), k)`` yields each k-multiset of {c, ..., 0} once, in input order,
    so weakly decreasing: exactly the partitions in the k x c box, zero-padded,
    C(k + c, k) of them.  Each u's steps, parts u_(i+1) and |u| are taken once
    per call, so a pair costs one elementwise test and one dot product.
    Results are memoised per (l, p, n, d) in a bounded LRU cache, since the
    kinds and tables of a family share levels; ``r_bruteforce.cache_clear()``
    empties it.
    """
    if not 0 <= l < p <= n:
        raise ValueError(f"need 0 <= l < p <= n, got l={l}, p={p}, n={n}")
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    k = n - l
    us = []
    for tail in combinations_with_replacement(range(l, -1, -1), k - 1):
        steps = [a - b for a, b in zip((l,) + tail, tail)]
        # |u| - corr = const - sum of u_(i+1) (y_i - y_(i+1))
        us.append((steps, tail, l + sum(tail) + sum(map(mul, tail, steps))))
    hi, lo = d * (p - l) - 1, d * (p - 1 - l)
    best: RegValue = NEG_INF
    for y in combinations_with_replacement(range(d - 1, -1, -1), k):
        size = sum(y)
        if size > hi or size - y[0] < lo:
            continue
        ysteps = [a - b for a, b in zip(y, y[1:])]
        base = l * y[0] + size
        for steps, parts, const in us:
            if all(map(ge, ysteps, steps)):
                best = max(best, base + const - sum(map(mul, parts, ysteps)))
    return best


def closed_form_valid(l: int, p: int, n: int, d: int) -> bool:
    """Where the closed form for the level-l bound is proven."""
    if not 0 <= l < p <= n or d < 1:
        return False
    if p == n:
        return True
    return d >= n - 1


def r_closed(l: int, p: int, n: int, d: int) -> RegValue:
    """Closed form: p d - 1 + l (p - 1 - l) for p < n and large d or for the
    top level of maximal minors; -inf below the top level when p = n."""
    if not closed_form_valid(l, p, n, d):
        raise ValueError(f"closed form not proven for l={l}, p={p}, n={n}, d={d}")
    if p == n:
        return n * d - 1 if l == n - 1 else NEG_INF
    return p * d - 1 + l * (p - 1 - l)


def reg_power_details(
    p: int, d: int, m: int, n: int, kind: str
) -> tuple[RegValue, dict[int, RegValue]]:
    """Regularity of the chosen thickening ideal plus its per-level bounds.

    Levels are 0..p-1 for powers, 1..p-1 for saturated powers and p-1 alone
    for symbolic powers; the ideal regularity is one more than the best
    level.  Each level uses the closed form where it is proven and the
    partition-pair search elsewhere.
    """
    if not 1 <= p <= n <= m:
        raise ValueError(f"need 1 <= p <= n <= m, got p={p}, n={n}, m={m}")
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "satpower" and p < 2:
        raise ValueError("saturated powers need p >= 2 (p = 1 saturates to the unit ideal)")
    levels = {
        "power": range(p),
        "satpower": range(1, p),
        "symbolic": range(p - 1, p),
    }[kind]
    per_level: dict[int, RegValue] = {
        l: r_closed(l, p, n, d) if closed_form_valid(l, p, n, d) else r_bruteforce(l, p, n, d)
        for l in levels
    }
    return max(per_level.values()) + 1, per_level


def reg_power_family(p: int, d: int, m: int, n: int, kind: str) -> RegValue:
    """Regularity of I_p^d, its saturation, or I_p^(d), as an ideal."""
    return reg_power_details(p, d, m, n, kind)[0]


def has_linear_resolution(p: int, d: int, n: int) -> bool:
    """A power of minors has a linear resolution iff its regularity equals p*d."""
    return reg_power_family(p, d, n, n, "power") == p * d
