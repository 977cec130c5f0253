"""Ext modules of invariant thickenings, by direct weight enumeration.

Each factor label (z, l) contributes to Ext in the cohomological degrees
cut out by chains 0 <= s <= t_1 <= ... <= t_{n-l} <= l; for one chain the
contribution is a sum of irreducibles indexed by the dominant weights in
an explicit box-like region, and the internal degree of a weight is its
total size.  Degree windows keep the enumeration finite: a single chain
can contribute in infinitely many degrees.

A label's feasible chains are walked directly (``zset._chain_tails``, the
enumerator regularity shares), never found by testing each of the
C(n+1, n-l+1) candidates of ``index_tuples``, which stays as the oracle;
they come in the same (s, t) order.  Each ideal's feasible chains are
indexed by j once per (m, n), in a bounded memo (``_ext_index``): its
labels in sort order and, for each j, the least total of a minimal weight
there, which starts the default window, and the labels with a feasible
chain at j, each with its chains.  An Ext module or Ext map at j reads
only that j's entries, so a label with no chain there costs nothing, and a
j with no chain at all returns before any walk.

An l = 0 label is one point: its one chain (s = 0, t = 0, j = mn) fixes
every entry, at -z_(n-i) - m for entry i (0-based), so its table is built
straight from z.  The weights of every chain's region are walked and priced
in one recursion, ``schur._priced``, which builds each component as it
reaches its weight; a region with no free entry, the one weight of an
l = 0 label in degree -|z| - mn, is priced by ``schur._point_dim`` with no
plan and no walk.  The components come in (degree, label, s, t, weight)
order by grouping on degree, since labels, chains and each chain's weights
already come in that order.  Every record here (components, chains, Ext
results and Ext map parts) is a named tuple, the cheapest immutable record
to build: it equals the plain tuple of its fields, and ``_replace`` gives a
copy with some fields changed.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import defaultdict
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from .ideals import _IDEAL_MEMO_SIZE, _LABEL_MEMO_SIZE, IdealSpec, _check_shape, subideal
from .partitions import Partition
from .schur import GradedTable, Weight, _bounded, _expanded, _priced, _Region
from .zset import ZPair, ZSet, _chain_tails, zset_general


class IndexTuple(NamedTuple):
    """One chain (s, t_1 <= ... <= t_{n-l}) with its cohomological degree j."""

    s: int
    t: tuple[int, ...]
    j: int


class ExtComponent(NamedTuple):
    """One irreducible summand of an Ext module: S_mu C^m (x) S_lam C^n, mu = lam_expanded."""

    pair: ZPair
    s: int
    t: tuple[int, ...]
    lam: Weight
    m: int
    degree: int
    dim: int

    @property
    def lam_expanded(self) -> Weight:  # mu: lam expanded at s to m entries, built when read
        return _expanded(self.lam, self.s, self.m, len(self.lam))

    def to_json(self) -> dict:
        return {
            "z": self.pair.z.to_json(),
            "l": self.pair.l,
            "s": self.s,
            "t": list(self.t),
            "lambda": list(self.lam),
            "lambda_expanded": list(self.lam_expanded),
            "degree": self.degree,
            "dim": str(self.dim),
        }


class ExtResult(NamedTuple):
    """Components of one Ext module inside a degree window, plus totals."""

    j: int
    m: int
    n: int
    window: Optional[tuple[int, int]]
    components: tuple[ExtComponent, ...]
    table: tuple[tuple[int, int], ...]

    def graded(self) -> GradedTable:
        return dict(self.table)


def _check_label(z: Partition, l: int, m: int, n: int) -> None:
    # the argument checks of a label and a matrix shape, for index_tuples and enumerate_weights
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got m={m}, n={n}")
    if z.nparts > n:
        raise ValueError(f"{z} has more than {n} parts")
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= {n}, got l={l}")
    if any(z.part(i) != z.part(1) for i in range(2, l + 1)):
        raise ValueError(f"need z_1 = ... = z_{l} in {z}")


def index_tuples(z: Partition, l: int, m: int, n: int) -> list[IndexTuple]:
    """All chains for (z, l), each with j = mn - l^2 - s(m-n) - 2 sum(t)."""
    _check_label(z, l, m, n)
    out = []
    for chain in itertools.combinations_with_replacement(range(l + 1), n - l + 1):
        s, t = chain[0], chain[1:]
        j = m * n - l * l - s * (m - n) - 2 * sum(t)
        out.append(IndexTuple(s, t, j))
    return out


def _region(
    z: Partition, l: int, t: tuple[int, ...], s: int, m: int, n: int
) -> Optional[_Region]:
    # the region enumerate_weights describes, from the chain's own bounds; None when
    # the chain is misshapen or some entry's least value exceeds its cap
    k = n - l
    if len(t) != k:
        raise ValueError(f"chain {t} should have {k} entries")
    if not (0 <= s <= (t[0] if k else l)):
        return None
    if any(t[i] > t[i + 1] for i in range(k - 1)) or (k and t[-1] > l):
        return None

    floor = l - z.part(max(l, 1)) - m  # z_0 reads as z_1
    fixed_at: list[Optional[int]] = [None] * n
    for i in range(1, k + 1):
        fixed_at[t[i - 1] + i - 1] = t[i - 1] - z.part(n + 1 - i) - m

    # lower[j]: the floor, every fixed entry from j on, and s - n up to entry s
    lower = [floor] * n
    top = floor
    for j in range(n - 1, -1, -1):
        if fixed_at[j] is not None and fixed_at[j] > top:
            top = fixed_at[j]
        lower[j] = max(top, s - n) if j < s else top
    # cap_at[j]: every fixed entry up to j, and s - m from entry s + 1 on
    cap_at: list[Optional[int]] = [None] * n
    run: Optional[int] = None
    for j in range(n):
        if fixed_at[j] is not None:
            run = fixed_at[j] if run is None else min(run, fixed_at[j])
        cap = run
        if j >= s:
            cap = s - m if cap is None else min(cap, s - m)
        if cap is not None and cap < lower[j]:
            return None
        cap_at[j] = cap
    w = tuple(lower)
    if any(w[i] < w[i + 1] for i in range(n - 1)):
        raise RuntimeError(f"minimal weight {w} for {z}, l={l}, t={t}, s={s} is not dominant")
    return _bounded(tuple(fixed_at), w, tuple(cap_at))


def enumerate_weights(
    z: Partition,
    l: int,
    t: Sequence[int],
    s: int,
    m: int,
    n: int,
    lo: int,
    hi: int,
) -> list[Weight]:
    """All contributing dominant weights for one chain with lo <= total <= hi, ascending.

    The defining region fixes the entries at positions t_i + i, bounds the
    last entry below by l - z_l - m, and imposes entry_s >= s - n and
    entry_{s+1} <= s - m.  Contradictory constraints give an empty list.
    The region is walked by the recursion that prices Ext (``schur._priced``),
    so each weight's Weyl product is computed and checked on the way.
    """
    _check_label(z, l, m, n)
    if lo > hi:
        raise ValueError(f"empty degree window [{lo}, {hi}]")
    region = _region(z, l, tuple(t), s, m, n)
    weights: list = []
    if region is not None:  # one list for every total keeps the walk's order
        _priced(region, lo, hi, s, m, n, defaultdict(lambda: weights))
    return [lam for lam, *_ in weights]


_DEFAULT_WIDTH = 10  # degrees past the least one in a default window


# saves each label's chain walk and regions per (m, n): 16% of label_sweep's wall_s
@lru_cache(maxsize=_LABEL_MEMO_SIZE)
def _chains_by_j(
    pair: ZPair, m: int, n: int
) -> Mapping[int, tuple[tuple[IndexTuple, _Region], ...]]:
    # the feasible chains of one label with their weight regions, grouped by j in
    # (s, t) order, the order of index_tuples; memoised per (label, m, n) in a
    # bounded LRU cache.  zset._chain_tails walks the feasible t in ascending
    # order, each t holds s in [max(0, t_1 - z_n), t_1], so the t of one s are
    # those with t_1 in [s, s + z_n], a slice of that list.  An l = 0 label has
    # one chain, s = 0 and t = 0 at j = mn, whose region fixes entry i (0-based)
    # at -z_(n-i) - m: one weight, built straight from z
    z, l = pair
    if not l:
        j = m * n
        lam = tuple([-x - m for x in (z + (0,) * (n - len(z)))[::-1]])
        point = _bounded(lam, lam, lam)
        return MappingProxyType({j: ((IndexTuple(0, (0,) * n, j), point),)})
    tails = _chain_tails(z, l, n)
    zn, top = z.part(n), m * n - l * l
    table: dict[int, list[tuple[IndexTuple, _Region]]] = {}
    for s in range(tails[-1][0] + 1):
        for t in tails[bisect_left(tails, (s,)) : bisect_left(tails, (s + zn + 1,))]:
            region = _region(z, l, t, s, m, n)
            if region is None:
                raise RuntimeError(f"chain s={s}, t={t} of label {pair} has an empty region")
            j = top - s * (m - n) - 2 * sum(t)
            table.setdefault(j, []).append((IndexTuple(s, t, j), region))
    return MappingProxyType({j: tuple(chains) for j, chains in table.items()})


# saves sorting the labels and merging their chain tables per call: label_sweep 0.0841 -> 0.0383 s
@lru_cache(maxsize=_IDEAL_MEMO_SIZE)
def _ext_index(
    zs: ZSet, m: int, n: int
) -> tuple[list[ZPair], dict[int, int], dict[int, list]]:
    # an ideal's labels in sort_key order and, for each j with a feasible chain,
    # the least minimal-weight total there (the floor of the default window) and
    # the (label, chains) entries of the labels with a chain at j, in label order;
    # memoised per (labels, m, n) in a bounded LRU cache, so every Ext call still
    # gets its labels from zset_general
    labels = zs.sorted_pairs()
    floors: dict[int, int] = {}
    entries: dict[int, list] = {}
    for pair in labels:
        for j, chains in _chains_by_j(pair, m, n).items():
            least = min([region.min_rest[0] for _, region in chains])  # the total of lower
            floors[j] = min(floors.get(j, least), least)
            entries.setdefault(j, []).append((pair, chains))
    return labels, floors, entries


def _window_from(lo: Optional[int]) -> Optional[tuple[int, int]]:
    return None if lo is None else (lo, lo + _DEFAULT_WIDTH)


def default_window(
    pairs: Sequence[ZPair], j: int, m: int, n: int
) -> Optional[tuple[int, int]]:
    """[lo, lo + 10] with lo the least total of any feasible minimal weight at j."""
    return _window_from(_ext_index(ZSet(n, frozenset(pairs)), m, n)[1].get(j))


def _components_for_pairs(
    entries: Sequence[tuple[ZPair, Sequence[tuple[IndexTuple, _Region]]]],
    m: int,
    n: int,
    window: tuple[int, int],
) -> tuple[tuple[ExtComponent, ...], tuple[tuple[int, int], ...]]:
    # the components in (degree, pair, s, t, lam) order and their graded table,
    # from the (label, chains) entries of one j; labels come in sort_key order,
    # chains in (s, t) order and each chain's weights ascending, so grouping by
    # degree is the whole sort
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty degree window [{lo}, {hi}]")
    by_degree: defaultdict[int, list[ExtComponent]] = defaultdict(list)
    for pair, chains in entries:
        # a label has z_{l+1} = z_l, so every weight ends in l - z_l - m: each
        # feasible chain's region fixes its last entry there
        end = pair.l - pair.z.part(max(pair.l, 1)) - m  # z_0 reads as z_1
        for tup, region in chains:
            if region.fixed_at[-1] != end:
                raise RuntimeError(f"weights of {pair}, {tup} should end in {end}")
            _priced(region, lo, hi, tup.s, m, n, by_degree, ExtComponent, (pair, tup.s, tup.t))
    degrees = sorted(by_degree)
    comps = tuple([c for e in degrees for c in by_degree[e]])
    table = tuple([(e, sum([c.dim for c in by_degree[e]])) for e in degrees])
    return comps, table


def ext_graded(
    X: IdealSpec,
    j: int,
    m: int,
    n: int,
    window: Optional[tuple[int, int]] = None,
) -> ExtResult:
    """Ext^j of S/I_X against S inside a degree window.

    With no window given, the window starts at the least degree any chain
    at this j can reach and spans 10 further degrees.
    """
    _check_shape(X, m, n)
    _, floors, entries = _ext_index(zset_general(X), m, n)
    if window is None:
        window = _window_from(floors.get(j))
    if window is None:
        return ExtResult(j, m, n, None, (), ())
    return ExtResult(j, m, n, window, *_components_for_pairs(entries.get(j, ()), m, n, window))


class ExtMapPart(NamedTuple):
    """One side of an induced Ext map: its labels and their components at j."""

    pairs: tuple[ZPair, ...]
    components: tuple[ExtComponent, ...]
    table: tuple[tuple[int, int], ...]

    def graded(self) -> GradedTable:
        return dict(self.table)


class ExtMapResult(NamedTuple):
    """Kernel, image and cokernel data of Ext^j(S/I_super) -> Ext^j(S/I_sub)."""

    j: int
    m: int
    n: int
    window: Optional[tuple[int, int]]
    kernel: ExtMapPart
    image: ExtMapPart
    cokernel: ExtMapPart


def ext_map_parts(
    sub: IdealSpec,
    sup: IdealSpec,
    j: int,
    m: int,
    n: int,
    window: Optional[tuple[int, int]] = None,
) -> ExtMapResult:
    """Split the induced map on Ext for an inclusion I_sub inside I_sup.

    The label sets split the map: kernel labels are those of the bigger
    ideal missing from the smaller one, image labels are shared, cokernel
    labels belong to the smaller ideal only.
    """
    _check_shape(sub, m, n)
    if not subideal(sub, sup):  # refuses a sup of another P_n
        raise ValueError("first ideal is not contained in the second")
    sub_set, sup_set = zset_general(sub), zset_general(sup)
    sub_labels, sub_floors, sub_entries = _ext_index(sub_set, m, n)
    sup_labels, sup_floors, sup_entries = _ext_index(sup_set, m, n)
    zsub, zsup = sub_set.pairs, sup_set.pairs
    # each side keeps its labels' sort_key order, and so do the entries at j
    at_sub, at_sup = sub_entries.get(j, ()), sup_entries.get(j, ())
    split = {
        "kernel": (
            [p for p in sup_labels if p not in zsub], [e for e in at_sup if e[0] not in zsub]
        ),
        "image": ([p for p in sup_labels if p in zsub], [e for e in at_sup if e[0] in zsub]),
        "cokernel": (
            [p for p in sub_labels if p not in zsup], [e for e in at_sub if e[0] not in zsup]
        ),
    }
    if window is None:
        floors = [f[j] for f in (sub_floors, sup_floors) if j in f]
        window = _window_from(min(floors) if floors else None)
    parts = {}
    for name, (pairs, at_j) in split.items():
        comps, table = ((), ()) if window is None else _components_for_pairs(at_j, m, n, window)
        parts[name] = ExtMapPart(tuple(pairs), comps, table)
    return ExtMapResult(j, m, n, window, parts["kernel"], parts["image"], parts["cokernel"])
