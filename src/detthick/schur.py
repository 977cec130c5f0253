"""Dimensions of irreducible GL representations and graded Hilbert data.

Everything reduces to the Weyl dimension product, evaluated exactly on
dominant integer weights (negative entries included); translation of a
weight by a constant vector never changes the dimension.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial, prod
from typing import Sequence, Union

from .ideals import IdealSpec
from .partitions import Partition
from .zset import zset_general

Weight = tuple[int, ...]
GradedTable = dict[int, int]

WeightLike = Union[Partition, Sequence[int]]


def _as_weight(lam: WeightLike, k: int) -> Weight:
    entries = list(lam.parts if isinstance(lam, Partition) else lam)
    if len(entries) > k:
        raise ValueError(f"weight {entries} has more than {k} entries")
    entries += [0] * (k - len(entries))
    for i in range(k - 1):
        if entries[i] < entries[i + 1]:
            raise ValueError(f"weight {entries} is not dominant")
    return tuple(entries)


def schur_dim(lam: WeightLike, k: int) -> int:
    """Dimension of the irreducible GL_k representation of highest weight lam.

    Weyl's product over pairs i < j of (lam_i - lam_j + j - i) / (j - i),
    computed exactly; partitions shorter than k are padded with zeros,
    which is only valid when the last given entry is >= 0.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    w = _as_weight(lam, k)
    num = 1
    den = 1
    for i in range(k):
        for j in range(i + 1, k):
            num *= w[i] - w[j] + j - i
            den *= j - i
    if num % den:
        raise RuntimeError(f"Weyl product for {lam} over GL_{k} is not an integer")
    return num // den


def weight_expand(lam: WeightLike, s: int, m: int, n: int) -> Weight:
    """Expand a GL_n weight to a GL_m weight by the degree-preserving rule.

    Keeps the first s entries, inserts m-n copies of s-n, and shifts the
    remaining n-s entries up by m-n.  Requires lam_s >= s-n and
    lam_{s+1} <= s-m so the result stays dominant; the total is preserved.
    """
    if not n <= m:
        raise ValueError(f"need n <= m, got m={m}, n={n}")
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= {n}, got s={s}")
    w = _as_weight(lam, n)
    if s >= 1 and w[s - 1] < s - n:
        raise ValueError(f"entry {s} of {w} is below {s - n}; expansion not dominant")
    if s <= n - 1 and w[s] > s - m:
        raise ValueError(f"entry {s + 1} of {w} is above {s - m}; expansion not dominant")
    out = w[:s] + (s - n,) * (m - n) + tuple(e + (m - n) for e in w[s:])
    if sum(out) != sum(w):
        raise RuntimeError(f"expanding {w} at s={s} to GL_{m} changed its total")
    return out


def _superfactorial(k: int) -> int:
    # prod over 0 <= i < j < k of (j - i), the denominator of Weyl's product over GL_k
    return prod(map(factorial, range(k)))


def expanded_dims(weights: Sequence[Weight], s: int, m: int, n: int) -> list[tuple[Weight, int]]:
    """Each GL_n weight's expansion at s with dim_m(expansion) * dim_n(weight).

    One kernel for a batch of weights, in place of weight_expand followed by
    two schur_dim calls per weight.  With l_i = lam_i - i, the expansion
    keeps every l_i and inserts the block -n, ..., -m+1 at position s, so

        dim_m(expanded) * dim_n(lam) = V(l)^2 * prod_{i<s, n<=q<m} (l_i + q)
            * prod_{i>=s, n<=q<m} (-q - l_i) * sf(m-n) / (sf(m) sf(n))

    with V the product over i < j of l_i - l_j and sf(k) the product over
    0 <= i < j < k of j - i.  Factors among columns on which all weights
    agree (the fixed entries of an Ext chain) are multiplied once per call.
    A free column's factors against the fixed columns and the block depend
    only on its value; they are multiplied, and checked for dominance, the
    first time the call meets that value, and looked up after that.  Each
    weight then pays only the factors among its free columns, the bounds
    of weight_expand and the divisibility of its product.
    A weight that is not dominant, breaks the bounds of weight_expand or
    gives a Weyl product that does not divide raises RuntimeError.
    """
    if not 0 <= s <= n <= m:
        raise ValueError(f"need 0 <= s <= n <= m, got s={s}, n={n}, m={m}")
    if any([len(lam) != n for lam in weights]):
        raise ValueError(f"every weight needs {n} entries")
    if not weights:
        return []
    d = m - n
    den = _superfactorial(m) * _superfactorial(n)
    pad = (s - n,) * d
    # l_a - l_b = lam_a - lam_b + b - a; the factors among columns on which
    # all weights agree, and their signs, are taken once
    first = weights[0]
    free = [i for i, col in enumerate(zip(*weights)) if col.count(col[0]) != len(col)]
    fixed = [i for i in range(n) if i not in free]
    fixed_pairs = [first[a] - first[b] + b - a for a, b in combinations(fixed, 2)]
    if fixed_pairs and min(fixed_pairs) <= 0:
        raise RuntimeError(f"weight {first} is not dominant")
    const = _superfactorial(d) * prod(fixed_pairs) ** 2
    const *= prod([g * first[i] + c for i, g, c in _block_factors(fixed, s, m, n)])
    pairs = [(a, b, b - a) for a, b in combinations(free, 2)]
    # a free column's factors g * lam_i + c against the fixed columns (squared,
    # as in V^2) and against the block depend only on its value: a memo each
    columns = [
        (
            i,
            {},
            [(1, f - i - first[f]) if i < f else (-1, first[f] + i - f) for f in fixed],
            [(g, c) for _, g, c in _block_factors([i], s, m, n)],
        )
        for i in free
    ]

    out = []
    for lam in weights:
        if s >= 1 and lam[s - 1] < s - n:
            raise RuntimeError(f"entry {s} of {lam} is below {s - n}; expansion not dominant")
        if s < n and lam[s] > s - m:
            raise RuntimeError(f"entry {s + 1} of {lam} is above {s - m}; expansion not dominant")
        f = [lam[a] - lam[b] + c for a, b, c in pairs]
        if f and min(f) <= 0:
            raise RuntimeError(f"weight {lam} is not dominant")
        v = prod(f)
        num = const * v * v
        for i, memo, against, block in columns:
            x = lam[i]
            w = memo.get(x)
            if w is None:
                fx = [g * x + c for g, c in against]
                if fx and min(fx) <= 0:
                    raise RuntimeError(f"weight {lam} is not dominant")
                w = memo[x] = prod(fx) ** 2 * prod([g * x + c for g, c in block])
            num *= w
        if num % den:
            raise RuntimeError(f"Weyl product for {lam} expanded at s={s} to GL_{m} is not an integer")
        expanded = (*lam[:s], *pad, *[e + d for e in lam[s:]]) if d else lam
        out.append((expanded, num // den))
    return out


def _block_factors(at: Sequence[int], s: int, m: int, n: int) -> list[tuple[int, int, int]]:
    # the factors g * lam_i + c of the entries at the given positions against
    # the block the expansion inserts: l_i + q before it (i < s) and -q - l_i
    # after it, for n <= q < m
    return [((i, 1, q - i) if i < s else (i, -1, i - q)) for i in at for q in range(n, m)]


def j_graded_dim(z: Partition, l: int, r: int, m: int, n: int) -> int:
    """Degree-r dimension of the factor module labeled (z, l) over an m x n matrix.

    Sums dim(x, m) * dim(x, n) over the partitions x >= z that agree with z
    beyond row l, in the single degree |x| = r.
    """
    if not z.nparts <= n <= m:
        raise ValueError(f"need nparts(z) <= n <= m for {z}, n={n}, m={m}")
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= {n}, got l={l}")
    if r < 0:
        return 0
    return sum(dim for _, dim in expanded_dims(_factor_partitions(z, l, r, n), n, m, n))


def _factor_partitions(z: Partition, l: int, r: int, n: int) -> list[Weight]:
    # partitions x with x >= z, x_i = z_i for i > l and |x| = r, as n-tuples
    tail = [z.part(i) for i in range(l + 1, n + 1)]
    budget = r - sum(tail)
    out: list[Weight] = []

    def rec(i: int, prev: int, left: int, acc: list[int]) -> None:
        if i > l:
            if left == 0:
                out.append(tuple(acc + tail))
            return
        floor = z.part(i)
        rest_min = sum(z.part(j) for j in range(i + 1, l + 1))
        hi = min(prev, left - rest_min)
        for v in range(floor, hi + 1):
            rec(i + 1, v, left - v, acc + [v])

    if budget >= 0:
        rec(1, budget + z.part(1), budget, [])
    return out


def quotient_graded_dim(X: IdealSpec, r: int, m: int, n: int) -> int:
    """Degree-r dimension of S/I_X, summed over the label filtration of S/I_X.

    S/I_X has a GL-equivariant filtration whose factors are the modules
    labeled by the pairs (z, l) of ``zset_general(X)``, so its degree-r
    dimension is the sum of ``j_graded_dim(z, l, r, m, n)`` over the labels
    with |z| <= r.  Below the least generator size nothing of degree r lies
    in I_X, and the dimension is that of the ring (Cauchy's identity); that
    case, like the zero and unit ideals, never computes the labels.
    """
    if X.n != n:
        raise ValueError(f"ideal lives in P_{X.n}, not P_{n}")
    if not n <= m:
        raise ValueError(f"need n <= m, got m={m}, n={n}")
    if r < 0 or X.is_unit:
        return 0
    if X.is_zero or r < min(g.size for g in X.gens):
        return ring_graded_dim(r, m, n)
    return sum(j_graded_dim(p.z, p.l, r, m, n) for p in zset_general(X).pairs if p.z.size <= r)


def ring_graded_dim(r: int, m: int, n: int) -> int:
    """Degree-r dimension of the full polynomial ring in m*n variables."""
    if r < 0:
        return 0
    return comb(m * n + r - 1, r)


def graded_table_to_json(table: GradedTable) -> dict[str, str]:
    """Serialize degrees to keys and dimensions to strings (exact big ints)."""
    return {str(r): str(v) for r, v in sorted(table.items())}
