"""Ext of invariant thickenings, one graded component at a time.

Each factor label (z, l) contributes chains 0 <= s <= t_1 <= ... <= t_{n-l} <= l,
every chain carries a convex set of dominant weights, and the dimension of a
component is a product of two Weyl dimensions.  All expected numbers below are
either produced by an in-test brute force or cross-checked against the graded
dimensions of the quotient.
"""

import copy
import gc
import pickle
import time
from collections import defaultdict
from math import comb
from typing import Optional, Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from detthick import ext, schur
from detthick.ext import (
    ExtComponent,
    IndexTuple,
    _check_label,
    default_window,
    enumerate_weights,
    ext_graded,
    ext_map_parts,
    index_tuples,
)
from detthick.ideals import IdealSpec, normalize, power_gens, saturate, symbolic_gens
from detthick.kodaira import kodaira_check
from detthick.partitions import Partition
from detthick.regularity import reg_j
from detthick.schur import Weight, schur_dim
from detthick.zset import ZPair, ZSet, zset_general, zset_power
from oracles import components_order_reference, enumerate_weights_reference, reg_j_by_chains


def test_index_tuples_shape_and_count():
    # chains with n - l + 1 distinguished nondecreasing entries capped by l
    z = Partition([3, 3, 1, 1])
    for (l, n, expect) in [(0, 3, 1), (2, 4, 10), (2, 5, 15)]:
        zz = Partition([3] * (l + 1))
        tuples = index_tuples(zz, l, n + 1, n)
        assert len(tuples) == expect
        for tup in tuples:
            assert 0 <= tup.s <= tup.t[0]
            assert all(a <= b for a, b in zip(tup.t, tup.t[1:]))
            assert tup.t[-1] <= l
            assert len(tup.t) == n - l


def test_index_tuple_count_formula():
    # the number of chains is a binomial coefficient
    for n in range(1, 6):
        for l in range(0, n):
            zz = Partition([2] * (l + 1))
            got = len(index_tuples(zz, l, n, n))
            assert got == comb(n + 1, l)


def test_cohomological_degree():
    z = Partition([2, 2])
    for tup in index_tuples(z, 1, 3, 3):
        ssum = sum(tup.t)
        assert tup.j == 9 - 1 - 0 * tup.s - 2 * ssum
    # rectangular case picks up s (m - n)
    for tup in index_tuples(z, 1, 5, 3):
        assert tup.j == 15 - 1 - 2 * tup.s - 2 * sum(tup.t)


def least_weight(
    z: Partition, l: int, t: Sequence[int], s: int, m: int, n: int
) -> Optional[Weight]:
    """The least weight of a chain's region, which the Ext engine reads, or None
    when the chain is infeasible."""
    region = ext._region(z, l, tuple(t), s, m, n)
    return None if region is None else region.lower


def test_minimal_weight_worked_cases():
    # top chain for the determinant hypersurface in P_2, m = n = 2
    lam = least_weight(Partition([]), 1, (1,), 1, 2, 2)
    assert lam == (-1, -1)
    assert least_weight(Partition([4, 4, 3]), 0, (0, 0, 0), 0, 3, 3) == (-6, -7, -7)
    # infeasible: last entry of the chain must reach l when z_l = z_{l+1}
    assert least_weight(Partition([2, 2]), 1, (0, 0), 0, 3, 3) is None
    # infeasible: s must cover t_1 - z_n
    assert least_weight(Partition([]), 1, (1,), 0, 2, 2) is None


def test_minimal_weight_is_least_total():
    cases = [
        (Partition([4, 4, 3]), 0, (0, 0, 0), 0, 3, 3),
        (Partition([2, 2]), 1, (0, 1), 0, 3, 3),
        (Partition([2, 2]), 1, (1, 1), 1, 4, 3),
        (Partition([1, 1, 1]), 2, (2,), 1, 4, 3),
    ]
    for z, l, t, s, m, n in cases:
        lam = least_weight(z, l, t, s, m, n)
        assert lam is not None
        total = sum(lam)
        got = enumerate_weights(z, l, t, s, m, n, total, total)
        assert lam in got
        # nothing lives strictly below the minimum
        assert enumerate_weights(z, l, t, s, m, n, total - 3, total - 1) == []


def test_enumerate_weights_are_valid_components():
    z = Partition([2, 2])
    for tup in index_tuples(z, 1, 3, 3):
        lam = least_weight(z, 1, tup.t, tup.s, 3, 3)
        if lam is None:
            continue
        lo = sum(lam)
        for w in enumerate_weights(z, 1, tup.t, tup.s, 3, 3, lo, lo + 4):
            assert all(a >= b for a, b in zip(w, w[1:]))
            assert lo <= sum(w) <= lo + 4
            # fixed positions forced by the chain
            for i in range(1, len(tup.t) + 1):
                pos = tup.t[i - 1] + i  # 1-based
                assert w[pos - 1] == tup.t[i - 1] - z.part(3 + 1 - i) - 3


def minimal_weight_reference(
    z: Partition, l: int, t: Sequence[int], s: int, m: int, n: int
) -> Optional[Weight]:
    """The minimal weight as first written, from hand-derived feasibility
    conditions and slice by slice.  The reference the region's least weight
    must reproduce.

    Feasible means: the chain shape 0 <= s <= t_1 <= ... <= t_{n-l} <= l holds,
    s >= t_1 - z_n, consecutive t-differences are bounded by the mirrored
    z-differences, and l - t_{n-l} <= z_l - z_{l+1}.
    """
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got m={m}, n={n}")
    if not 0 <= l <= n - 1:
        raise ValueError(f"need 0 <= l <= {n - 1}, got l={l}")
    _check_label(z, l, m, n)
    t = tuple(t)
    k = n - l
    if len(t) != k:
        raise ValueError(f"chain {t} should have {k} entries")
    if not (0 <= s <= t[0] and all(t[i] <= t[i + 1] for i in range(k - 1)) and t[-1] <= l):
        return None
    if s < t[0] - z.part(n):
        return None
    for i in range(1, k):
        if t[i] - t[i - 1] > z.part(n - i) - z.part(n + 1 - i):
            return None
    # here and below, z_l with l = 0 reads as z_1
    if l - t[-1] > z.part(max(l, 1)) - z.part(l + 1):
        return None

    lam = [0] * n
    lam[0:s] = [s - n] * s
    lam[s : t[0] + 1] = [t[0] - z.part(n) - m] * (t[0] + 1 - s)
    for i in range(1, k):
        lo, hi = t[i - 1] + i, t[i] + i + 1
        lam[lo:hi] = [t[i] - z.part(n - i) - m] * (hi - lo)
    tail_start = t[-1] + k
    lam[tail_start:n] = [l - z.part(max(l, 1)) - m] * (n - tail_start)
    w = tuple(lam)
    if any(w[i] < w[i + 1] for i in range(n - 1)):
        raise RuntimeError(f"minimal weight {w} for {z}, l={l}, t={t}, s={s} is not dominant")
    return w


@st.composite
def chains(draw):
    """A label (z, l) with l <= n - 1, a chain (t, s) of any shape and m >= n."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = n + draw(st.integers(min_value=0, max_value=3))
    l = draw(st.integers(min_value=0, max_value=n - 1))
    vals = sorted(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), reverse=True)
    vals[:l] = [vals[0]] * l
    t = draw(st.lists(st.integers(0, l), min_size=n - l, max_size=n - l))
    # mostly chains of the right shape, so that a fair share is feasible
    shaped = draw(st.integers(0, 4)) > 0
    if shaped:
        t.sort()
    s = draw(st.integers(min_value=0, max_value=t[0] if shaped else n))
    return Partition(vals), l, tuple(t), s, m, n


@settings(max_examples=500, deadline=None)
@given(chains())
@example((Partition([3, 2, 2]), 0, (0, 0, 0), 0, 3, 3))  # l = 0, m = n: feasible
@example((Partition([2, 2]), 1, (0, 0), 0, 3, 3))  # infeasible: t must reach l
@example((Partition([]), 1, (1,), 0, 2, 2))  # infeasible: s below t_1 - z_n
@example((Partition([2, 2, 2]), 1, (0, 1), 0, 3, 3))  # infeasible: t-step above the z-step
@example((Partition([1, 1, 1]), 2, (2,), 1, 4, 3))
def test_minimal_weight_matches_reference(args):
    assert least_weight(*args) == minimal_weight_reference(*args)


def check_chain_table(X: IdealSpec, m: int) -> int:
    # each label's table keeps exactly the chains with a minimal weight, in the
    # order of index_tuples, each with a region whose least weight is that
    # minimal weight and equal to the region _region builds for it; returns
    # how many chains the table leaves out
    n, infeasible = X.n, 0
    for pair in zset_general(X).sorted_pairs():
        z, l = pair.z, pair.l
        want: dict = {}
        for tup in index_tuples(z, l, m, n):
            w = minimal_weight_reference(z, l, tup.t, tup.s, m, n)
            if w is None:
                infeasible += 1
            else:
                want.setdefault(tup.j, []).append((tup, w))
        table = ext._chains_by_j(pair, m, n)
        assert list(table) == list(want), (pair, m)  # the j come in the same order
        assert {
            j: [(tup, region.lower) for tup, region in chains] for j, chains in table.items()
        } == want, (pair, m)
        for chains in table.values():
            for tup, region in chains:
                assert region == ext._region(z, l, tup.t, tup.s, m, n)
    return infeasible


def test_chain_table_holds_only_feasible_chains():
    ideals = [power_gens(2, 7, 3), symbolic_gens(2, 3, 3), saturate(power_gens(3, 2, 4), 1)]
    ideals += [power_gens(1, 3, 2), normalize(4, [Partition([3, 1]), Partition([2, 2, 2])])]
    infeasible = sum(check_chain_table(X, m) for X in ideals for m in (X.n, X.n + 2))
    assert infeasible  # the labels do have infeasible chains to leave out


# labels with l up to 5, where most candidate chains are infeasible
LARGE_L_SHAPES = [
    (symbolic_gens(5, 3, 7), 7),
    (symbolic_gens(5, 3, 7), 9),
    (power_gens(6, 2, 7), 8),
    (power_gens(4, 3, 6), 8),
]


@pytest.mark.parametrize("X, m", LARGE_L_SHAPES)
def test_chain_table_at_large_l(X, m):
    assert max(pair.l for pair in zset_general(X).pairs) >= 3
    assert check_chain_table(X, m) > 0


def chain_scan(pair: ZPair, m: int, n: int) -> list:
    # the table as the scan over every candidate chain builds it: each chain of
    # index_tuples whose region is nonempty, grouped by j in (s, t) order
    table: dict = {}
    for tup in index_tuples(pair.z, pair.l, m, n):
        region = ext._region(pair.z, pair.l, tup.t, tup.s, m, n)
        if region is not None:
            table.setdefault(tup.j, []).append((tup, region))
    return [(j, tuple(chains)) for j, chains in table.items()]


@st.composite
def wide_antichains(draw):
    """A proper nonzero antichain ideal with n = 5 or 6, and m >= n."""
    n = draw(st.integers(min_value=5, max_value=6))
    m = n + draw(st.integers(min_value=0, max_value=2))
    rows = st.lists(st.integers(1, 3), min_size=1, max_size=n)
    raw = draw(st.lists(rows, min_size=1, max_size=3))
    return normalize(n, [Partition(sorted(xs, reverse=True)) for xs in raw]), m


@settings(max_examples=25, deadline=None)
@given(wide_antichains())
@example((normalize(6, [Partition([1] * 6)]), 6))  # every label has l = 5
@example((normalize(5, [Partition([3, 3, 2]), Partition([2, 2, 2, 2])]), 7))
def test_chain_walk_matches_candidate_scan(args):
    # the walk yields exactly the candidate chains with a nonempty region, in
    # the same order, so each j's chains and the order of the j agree
    X, m = args
    for pair in zset_general(X).sorted_pairs():
        assert list(ext._chains_by_j(pair, m, X.n).items()) == chain_scan(pair, m, X.n)


def test_walked_chain_with_no_region_raises(monkeypatch):
    # the walk proves every chain it yields has a region; a _region that
    # disagrees is a RuntimeError naming the label and the chain
    pair = ZPair(Partition([2, 2]), 1)
    real = ext._region

    def region(z, l, t, s, m, n):
        return None if (s, t) == (1, (1, 1)) else real(z, l, t, s, m, n)

    monkeypatch.setattr(ext, "_region", region)
    ext._chains_by_j.cache_clear()
    with pytest.raises(RuntimeError, match=r"chain s=1, t=\(1, 1\) of label \(2,2; l=1\)"):
        ext._chains_by_j(pair, 3, 3)
    monkeypatch.undo()
    assert ext._chains_by_j(pair, 3, 3)  # nothing was memoised under the patch


def test_empty_window_rejected():
    X = power_gens(2, 3, 3)
    for j in (5, 9, 20):
        with pytest.raises(ValueError, match="empty degree window"):
            ext_graded(X, j, 3, 3, window=(0, -1))


@st.composite
def chain_windows(draw):
    """A label (z, l), a chain (t, s) of any shape, m >= n and a degree window."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = n + draw(st.integers(min_value=0, max_value=3))
    l = draw(st.integers(min_value=0, max_value=n))
    vals = sorted(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), reverse=True)
    vals[:l] = [vals[0]] * l
    z = Partition(vals)
    t = draw(st.lists(st.integers(0, l), min_size=n - l, max_size=n - l))
    # mostly chains of the right shape, so that most windows hold weights
    shaped = draw(st.integers(0, 4)) > 0
    if shaped:
        t.sort()
    s = draw(st.integers(min_value=0, max_value=t[0] if shaped and t else n))
    w = least_weight(z, l, t, s, m, n) if l < n else None
    if w is not None and draw(st.integers(0, 4)) > 0:
        lo = sum(w) + draw(st.integers(-2, 4))
    else:
        lo = draw(st.integers(-n * (m + 6), 0))
    return z, l, tuple(t), s, m, n, lo, lo + draw(st.integers(0, 8))


@settings(max_examples=300, deadline=None)
@given(chain_windows())
# l = 0 fixes every entry: the region has no free entry and holds one weight,
# inside the window and outside it
@example((Partition([3, 2, 2]), 0, (0, 0, 0), 0, 3, 3, -20, -10))
@example((Partition([3, 2, 2]), 0, (0, 0, 0), 0, 3, 3, -15, -10))
# t = (2, 2) fixes the last two entries, after the free ones; with (2, 2, 2)
# a fixed tail of three
@example((Partition([2, 2, 1, 1]), 2, (2, 2), 2, 4, 4, -10, -4))
@example((Partition([3, 3, 1]), 2, (2, 2, 2), 2, 5, 5, -16, -10))
def test_enumerate_weights_matches_reference(args):
    assert enumerate_weights(*args) == enumerate_weights_reference(*args)


@settings(max_examples=300, deadline=None)
@given(chain_windows())
@example((Partition([2, 2, 1, 1]), 2, (2, 2), 2, 4, 4, -10, -4))
def test_walk_is_strictly_ascending(args):
    # the pricing walk takes every entry's values in ascending order, so a chain's
    # weights come strictly ascending, each in the window with its own total
    z, l, t, s, m, n, lo, hi = args
    region = ext._region(z, l, t, s, m, n)
    if region is None:
        return
    got = []
    schur._priced(region, lo, hi, s, m, n, defaultdict(lambda: got))
    for lam, _, total, _ in got:
        assert total == sum(lam) and lo <= total <= hi
    weights = [lam for lam, *_ in got]
    assert all(a < b for a, b in zip(weights, weights[1:]))


def test_top_ext_of_determinant_hypersurface():
    # S/(det) for the generic 2x2 matrix; Ext^1 is the twisted hypersurface ring
    X = normalize(2, [Partition([1, 1])])
    res = ext_graded(X, 1, 2, 2, window=(-2, 1))
    table = dict(res.table)
    for comp in res.components:
        assert comp.dim == schur_dim(comp.lam, 2) ** 2
    # graded dims equal those of S/(det) shifted by deg det = 2
    from detthick.schur import quotient_graded_dim

    for deg, dim in table.items():
        assert dim == quotient_graded_dim(X, deg + 2, 2, 2)
    assert table[-2] == 1
    assert table[-1] == 4
    assert table[0] == 9


def test_worked_example_full_slice():
    # Ext^9 at the most negative degree for the 7th power of 2x2 minors, 3x3
    res = ext_graded(power_gens(2, 7, 3), 9, 3, 3, window=(-22, -22))
    by_z = {comp.pair.z.parts: comp.dim for comp in res.components}
    assert by_z == {
        (5, 5, 3): 36,
        (5, 4, 4): 9,
        (6, 6, 1): 441,
        (6, 5, 2): 576,
        (6, 4, 3): 225,
    }
    assert sum(by_z.values()) == 1287
    assert dict(res.table) == {-22: 1287}
    # every component at this j has the all-zero chain
    for comp in res.components:
        assert comp.s == 0 and tuple(comp.t) == (0, 0, 0)
        assert comp.degree == sum(comp.lam)


def test_ext_records_are_named_tuples():
    # the field order is the positional constructor's; records are immutable
    # values that compare, hash and pickle by their fields
    assert ExtComponent._fields == ("pair", "s", "t", "lam", "m", "degree", "dim")
    assert IndexTuple._fields == ("s", "t", "j")
    first = ext_graded(power_gens(2, 3, 3), 6, 4, 3).components
    again = ext_graded(power_gens(2, 3, 3), 6, 4, 3).components
    assert len(first) == 41
    assert first == again and hash(first) == hash(again)
    assert pickle.loads(pickle.dumps(first)) == first
    comp = first[-1]
    chain = index_tuples(comp.pair.z, comp.pair.l, 4, 3)[0]
    assert chain == IndexTuple(0, (0, 0), 11) == (0, (0, 0), 11)
    for rec in (comp, chain):
        with pytest.raises(AttributeError):
            rec.s = 2
        assert pickle.loads(pickle.dumps(rec)) == rec
        assert rec == tuple(rec) and rec._replace(s=2).s == 2
    assert comp.to_json() == {
        "z": [2, 2], "l": 1, "s": 1, "t": [1, 1], "lambda": [8, -3, -5],
        "lambda_expanded": [8, -2, -2, -4], "degree": 0, "dim": "534600",
    }


def test_every_record_survives_pickle_and_copy_and_refuses_assignment():
    X = power_gens(2, 3, 3)
    Z = zset_general(X)
    res = ext_graded(X, 6, 4, 3)
    maps = ext_map_parts(power_gens(2, 7, 3), power_gens(2, 6, 3), 9, 3, 3)
    report = kodaira_check(X, 3, 3)
    results = (res, maps, maps.image, report)
    for rec in (*results, X, Z):
        for back in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec), copy.copy(rec)):
            assert type(back) is type(rec) and back == rec and hash(back) == hash(rec)
    # the four result records are named tuples: a plain tuple of their fields
    for rec in results:
        first = rec._fields[0]
        with pytest.raises(AttributeError):
            setattr(rec, first, None)
        assert rec == tuple(rec) and getattr(rec._replace(**{first: None}), first) is None
    assert res._fields == ("j", "m", "n", "window", "components", "table")
    assert maps._fields == ("j", "m", "n", "window", "kernel", "image", "cokernel")
    assert maps.image._fields == ("pairs", "components", "table")
    assert report._fields == (
        "m", "n", "jmax", "ideal", "k_checked", "violations", "mechanism_ok"
    )
    assert report.passed and res.graded() == dict(res.table)
    # an ideal and a label set are not tuples: they neither iterate nor equal (n, set)
    for rec, field in ((X, "gens"), (Z, "pairs")):
        for name in ("n", field):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        with pytest.raises(TypeError):
            iter(rec)
        pair = (rec.n, getattr(rec, field))
        assert rec != pair and hash(rec) == hash(pair)
        # loading rebuilds through the constructor, which checks the fields again
        assert rec.__reduce__() == (type(rec), pair)
    det = IdealSpec(2, frozenset({Partition([1, 1])}))
    assert repr(det) == "IdealSpec(n=2, gens=frozenset({Partition([1, 1])}))"
    labels = zset_general(det)
    assert repr(labels) == "ZSet(n=2, pairs=frozenset({ZPair(z=Partition([]), l=1)}))"
    assert ZSet(n=2, pairs=labels.pairs) == labels


def test_default_window_starts_at_least_degree():
    pairs = zset_power(2, 7, 3).sorted_pairs()
    assert default_window(pairs, 9, 3, 3) == (-22, -12)
    # no feasible chain at this j: no window at all
    assert default_window(pairs, 7, 3, 3) is None


def test_ext_vanishes_outside_feasible_degrees():
    res = ext_graded(power_gens(2, 3, 3), 5, 3, 3)
    assert res.window is None and res.components == ()
    assert ext_graded(power_gens(2, 3, 3), 8, 3, 3).components == ()


def test_ext_zero_for_trivial_thickening():
    # Ext^9 of the quotient by the maximal ideal itself: top local cohomology
    X = power_gens(1, 1, 3)
    res = ext_graded(X, 9, 3, 3, window=(-12, -9))
    assert dict(res.table)[-9] == 1  # socle in degree -mn
    top = [c for c in res.components if c.degree == -9]
    assert len(top) == 1 and top[0].lam == (-3, -3, -3)


def test_ext_map_parts_label_split():
    sub, sup = power_gens(2, 7, 3), power_gens(2, 6, 3)
    parts = ext_map_parts(sub, sup, 9, 3, 3)
    Zsub = zset_general(sub).pairs
    Zsup = zset_general(sup).pairs
    assert set(parts.kernel.pairs) == set(Zsup - Zsub)
    assert set(parts.image.pairs) == set(Zsup & Zsub)
    assert set(parts.cokernel.pairs) == set(Zsub - Zsup)


def test_ext_map_image_slice_worked_example():
    parts = ext_map_parts(power_gens(2, 7, 3), power_gens(2, 6, 3), 9, 3, 3)
    img = parts.image.graded()
    assert img == {-20: 9}
    comps = parts.image.components
    assert len(comps) == 1
    assert comps[0].pair == ZPair(Partition([4, 4, 3]), 0)


def test_ext_map_rejects_non_inclusion():
    with pytest.raises(ValueError):
        ext_map_parts(power_gens(2, 2, 3), power_gens(2, 3, 3), 9, 3, 3)


def test_saturation_map_is_injective():
    # Z labels of the saturation form a subset, so the kernel part is empty
    X = power_gens(3, 2, 4)
    S = saturate(X, 1)
    for j in range(1, 17):
        parts = ext_map_parts(X, S, j, 4, 4)
        assert not parts.kernel.pairs


def test_symbolic_chain_maps_are_injective():
    for d in range(1, 4):
        sub, sup = symbolic_gens(2, d + 1, 3), symbolic_gens(2, d, 3)
        for j in range(1, 10):
            assert not ext_map_parts(sub, sup, j, 3, 3).kernel.pairs


def test_component_dims_square_for_square_matrix():
    res = ext_graded(power_gens(2, 4, 3), 9, 3, 3)
    assert res.components
    for comp in res.components:
        assert comp.dim == schur_dim(comp.lam, 3) ** 2


def test_component_dims_rectangular():
    res = ext_graded(power_gens(2, 2, 2), 3, 3, 2)
    assert res.components
    for comp in res.components:
        assert comp.dim == schur_dim(comp.lam_expanded, 3) * schur_dim(comp.lam, 2)
        assert sum(comp.lam_expanded) == sum(comp.lam)


def test_components_sort_by_degree_then_label():
    # at this j chains of different labels share degrees out of label order,
    # so the label's place in the key shows
    comps = ext_graded(power_gens(2, 7, 3), 4, 3, 3).components
    assert comps == tuple(sorted(comps, key=lambda c: (c.degree, c.pair.sort_key(), c.s, c.t, c.lam)))
    assert comps != tuple(sorted(comps, key=lambda c: (c.degree, c.s, c.t, c.lam)))


def table_reference(comps: Sequence[ExtComponent]) -> tuple[tuple[int, int], ...]:
    table: dict[int, int] = {}
    for c in comps:
        table[c.degree] = table.get(c.degree, 0) + c.dim
    return tuple(sorted(table.items()))


@st.composite
def ideal_pairs(draw):
    """A proper nonzero antichain ideal inside a bigger one, m and a window shift."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = n + draw(st.integers(min_value=0, max_value=2))
    rows = st.lists(st.integers(1, 3), min_size=1, max_size=n)
    raw = draw(st.lists(rows, min_size=1, max_size=3))
    extra = draw(st.lists(rows, min_size=0, max_size=2))
    gens = [Partition(sorted(xs, reverse=True)) for xs in raw]
    more = [Partition(sorted(xs, reverse=True)) for xs in extra]
    shift = draw(st.none() | st.tuples(st.integers(-3, 8), st.integers(0, 8)))
    return normalize(n, gens), normalize(n, gens + more), m, n, shift


@settings(max_examples=60, deadline=None)
@given(ideal_pairs())
@example((power_gens(2, 3, 3), power_gens(2, 2, 3), 3, 3, None))
@example((symbolic_gens(2, 3, 3), power_gens(2, 2, 3), 4, 3, (2, 5)))
@example((power_gens(1, 2, 2), power_gens(1, 1, 2), 4, 2, (0, 0)))
def test_components_match_order_reference(args):
    # every feasible j, in the default window or one shifted from its start:
    # Ext, each part of the Ext map and each k-block of the Kodaira scan give
    # the reference's components, in its order
    sub, sup, m, n, shift = args
    pairs = zset_general(sub).sorted_pairs()
    zsub, zsup = zset_general(sub).pairs, zset_general(sup).pairs
    both = sorted(zsub | zsup, key=ZPair.sort_key)

    def window_for(labels, j):
        window = default_window(labels, j, m, n)
        if shift is None or window is None:
            return window
        return (window[0] + shift[0], window[0] + shift[0] + shift[1])

    for j in sorted({j for pair in both for j in ext._chains_by_j(pair, m, n)}):
        res = ext_graded(sub, j, m, n, window_for(pairs, j))
        want = components_order_reference(pairs, j, m, n, res.window)
        assert res.components == want, (sub, j, m, res.window)
        assert res.table == table_reference(want)

        got = ext_map_parts(sub, sup, j, m, n, window_for(both, j))
        split = {"kernel": zsup - zsub, "image": zsup & zsub, "cokernel": zsub - zsup}
        for name, labels in split.items():
            part = getattr(got, name)
            want = components_order_reference(sorted(labels, key=ZPair.sort_key), j, m, n, got.window)
            assert part.components == want, (sub, sup, j, m, name)
            assert part.table == table_reference(want)
    if n >= 2:
        mn = m * n
        report = kodaira_check(sub, m, n, jmax=4)
        want = ()
        for k in report.k_checked:
            want += components_order_reference(pairs, mn - 1 - k, m, n, (-mn + 1, -mn + 4))
        assert report.violations == want


def test_wide_window_costs_what_its_weights_cost():
    # the components are grouped by degree in a dict, so nothing is sized by
    # the width of the window: a billion degrees cost what [-1000, 0] costs
    start = time.perf_counter()
    wide = ext_graded(power_gens(2, 2, 3), 4, 3, 3, window=(-10**9, 0))
    wide_map = ext_map_parts(power_gens(2, 3, 3), power_gens(2, 2, 3), 4, 3, 3, window=(-10**9, 0))
    elapsed = time.perf_counter() - start
    narrow = ext_graded(power_gens(2, 2, 3), 4, 3, 3, window=(-1000, 0))
    narrow_map = ext_map_parts(power_gens(2, 3, 3), power_gens(2, 2, 3), 4, 3, 3, window=(-1000, 0))
    assert wide.components and wide.components == narrow.components
    assert wide.table == narrow.table
    for name in ("kernel", "image", "cokernel"):
        assert getattr(wide_map, name) == getattr(narrow_map, name)
    assert wide_map.image.components
    assert elapsed < 1.0


def test_last_entry_check_raises(monkeypatch):
    # when z_{l+1} = z_l every weight must end in l - z_l - m, where each feasible
    # chain's region fixes the last entry; an index whose regions fix it one lower
    # breaks that
    real = ext._ext_index

    def index(zs, m, n):
        labels, floors, entries = real(zs, m, n)
        lower = lambda r: r._replace(fixed_at=r.fixed_at[:-1] + (r.fixed_at[-1] - 1,))
        return labels, floors, {
            j: [(pair, tuple((tup, lower(r)) for tup, r in chains)) for pair, chains in rows]
            for j, rows in entries.items()
        }

    monkeypatch.setattr(ext, "_ext_index", index)
    with pytest.raises(RuntimeError, match="should end in"):
        ext_graded(power_gens(2, 7, 3), 9, 3, 3)


def test_walks_leave_no_cyclic_garbage():
    # the recursive closure of the pricing walk holds its own cell; with the name
    # deleted after the top-level call, reference counting frees what a walk of a
    # chain's region (one free entry) and of factors' (two and three) leaves, both when
    # it builds the region's plan and when it walks the region again on that plan
    region = ext._region(Partition([2, 2]), 1, (0, 1), 0, 3, 3)  # entry 1 is free
    assert region.fixed_at == (-3, None, -4)
    factor = schur._factor_region((3, 2, 1, 0), 2)
    wide = schur._factor_region((3, 2, 1, 0), 3)
    assert wide.fixed_at.count(None) == 3
    chain_weights, factor_weights, wide_weights = [], [], []
    schur._plan.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            schur._priced(region, -100, 0, 0, 3, 3, defaultdict(lambda: chain_weights))
            schur._priced(factor, 9, 9, 4, 4, 4, defaultdict(lambda: factor_weights))
            schur._priced(wide, 9, 10, 4, 5, 4, defaultdict(lambda: wide_weights))
            assert gc.collect() == 0
        assert [lam for lam, *_ in chain_weights] == [(-3, -4, -4), (-3, -3, -4)] * 2
        assert factor_weights and wide_weights
    finally:
        gc.enable()


def test_ext_json_dims_are_strings():
    res = ext_graded(power_gens(2, 7, 3), 9, 3, 3, window=(-22, -22))
    doc = res.components[0].to_json()
    assert isinstance(doc["dim"], str)


def test_results_do_not_depend_on_warm_caches():
    # every call once with the label, chain and index caches emptied before it, then
    # twice with them warm
    sub, sup = symbolic_gens(2, 3, 3), power_gens(2, 2, 3)
    m, n = 4, 3

    def sweep(clear):
        calls = [lambda j=j: ext_graded(sub, j, m, n) for j in range(m * n + 1)]
        calls += [lambda j=j: ext_map_parts(sub, sup, j, m, n) for j in range(m * n + 1)]
        calls.append(lambda: kodaira_check(sub, m, n))
        out = []
        for call in calls:
            if clear:
                zset_general.cache_clear()
                ext._chains_by_j.cache_clear()
                ext._ext_index.cache_clear()
            out.append(call())
        return out

    cold = sweep(True)
    assert any(r.components for r in cold[: m * n + 1])
    assert sweep(False) == sweep(False) == cold


def check_index_against_scan(sub, sup, m, n):
    # the memoised index against the per-call scans it replaces: the default
    # windows of default_window, and the labels that have a chain at each j
    pairs = zset_general(sub).sorted_pairs()
    both = sorted(zset_general(sub).pairs | zset_general(sup).pairs, key=ZPair.sort_key)
    for X in (sub, sup):
        labels, _, entries = ext._ext_index(zset_general(X), m, n)
        assert labels == zset_general(X).sorted_pairs()
        for j in range(m * n + 1):
            want = [pair for pair in labels if j in ext._chains_by_j(pair, m, n)]
            assert [pair for pair, _ in entries.get(j, ())] == want, (X, j, m)
            assert [chains for _, chains in entries.get(j, ())] == [
                ext._chains_by_j(pair, m, n)[j] for pair in want
            ]
    for j in range(m * n + 1):
        assert ext_graded(sub, j, m, n).window == default_window(pairs, j, m, n), (sub, j, m)
        assert ext_map_parts(sub, sup, j, m, n).window == default_window(both, j, m, n)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["power", "symbolic", "saturated"])
def test_index_matches_scan_on_families(kind, n):
    # I^{(d+1)} inside I^{(d)} for each family, at every m from n to n + 2
    p = 2
    build = {
        "power": lambda d: power_gens(p, d, n),
        "symbolic": lambda d: symbolic_gens(p, d, n),
        "saturated": lambda d: saturate(power_gens(p, d, n), 1),
    }[kind]
    for d in (2, 3):
        for m in range(n, n + 3):
            check_index_against_scan(build(d + 1), build(d), m, n)


@settings(max_examples=40, deadline=None)
@given(ideal_pairs())
def test_index_matches_scan_on_random_antichains(args):
    sub, sup, m, n, _ = args
    check_index_against_scan(sub, sup, m, n)


def test_index_is_built_once_per_ideal():
    # an all-j sweep of Ext and Ext maps plus the Kodaira scan builds each
    # (ideal, m, n) index once, and every later call reads it
    sub, sup = symbolic_gens(2, 3, 3), power_gens(2, 2, 3)
    m, n = 4, 3
    ext._ext_index.cache_clear()
    for j in range(m * n + 1):
        ext_graded(sub, j, m, n)
        ext_map_parts(sub, sup, j, m, n)
    kodaira_check(sub, m, n)
    info = ext._ext_index.cache_info()
    assert (info.misses, info.hits) == (2, 3 * (m * n + 1) + 1 - 2)
    ext_graded(sub, 9, m + 1, n)
    assert ext._ext_index.cache_info().misses == 3


def test_index_empty_degree_walks_nothing(monkeypatch):
    # at j = 7 neither power:2:8 nor power:2:7 over 3 x 3 has a feasible chain
    sub, sup = power_gens(2, 8, 3), power_gens(2, 7, 3)

    def walk(*args):
        raise AssertionError("a degree with no feasible chain walked a region")

    monkeypatch.setattr(ext, "_priced", walk)
    assert ext_graded(sub, 7, 3, 3) == ext.ExtResult(7, 3, 3, None, (), ())
    got = ext_map_parts(sub, sup, 7, 3, 3)
    assert got.window is None
    assert not got.kernel.components and not got.image.components and not got.cokernel.components
    shared = zset_general(sub).pairs & zset_general(sup).pairs
    assert got.image.pairs == tuple(sorted(shared, key=ZPair.sort_key))
    # an explicit reversed window is refused there too, as at any other j
    with pytest.raises(ValueError, match="empty degree window"):
        ext_graded(sub, 7, 3, 3, window=(5, 4))
    with pytest.raises(ValueError, match="empty degree window"):
        ext_map_parts(sub, sup, 7, 3, 3, window=(5, 4))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=n, max_value=n + 2),
            st.lists(st.integers(min_value=0, max_value=7), min_size=n, max_size=n),
        )
    )
)
@example((1, 1, [0]))  # the empty z
@example((6, 8, [7, 7, 5, 2, 2, 0]))
def test_l0_label_is_one_point(args):
    # an l = 0 label's table is built straight from z, and its one weight is priced with
    # no plan and no walk: the table equals the single chain of index_tuples with _region's
    # region, the component equals the reference and the plan's walk of the same weight as
    # a region whose last entry is free but capped at its value, and the regularity equals
    # the chain sum
    n, m, parts = args
    z = Partition(sorted(parts, reverse=True))
    pair = ZPair(z, 0)
    (tup,) = index_tuples(z, 0, m, n)
    region = ext._region(z, 0, tup.t, tup.s, m, n)
    assert list(ext._chains_by_j(pair, m, n).items()) == [(tup.j, ((tup, region),))]
    degree = -z.size - m * n
    assert enumerate_weights(z, 0, tup.t, tup.s, m, n, degree - 3, 0) == [region.fixed_at]
    chains = ext._chains_by_j(pair, m, n)[tup.j]
    built = schur._plan.cache_info().misses
    comps, table = ext._components_for_pairs([(pair, chains)], m, n, (degree - 3, degree))
    assert schur._plan.cache_info().misses == built
    assert comps == components_order_reference([pair], tup.j, m, n, (degree, degree))
    (want,) = comps
    assert table == ((degree, want.dim),) and want.dim == schur_dim(z, m) * schur_dim(z, n)
    lam = region.fixed_at
    walked: defaultdict = defaultdict(list)
    freed = schur._bounded((*lam[:-1], None), lam, lam)
    schur._priced(freed, degree, degree, tup.s, m, n, walked, ExtComponent, (pair, tup.s, tup.t))
    assert dict(walked) == {degree: [want]}
    assert ext._components_for_pairs([(pair, chains)], m, n, (degree + 1, 0)) == ((), ())
    assert reg_j(z, 0, n) == reg_j_by_chains(z, 0, n) == z.size


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: index_tuples(Partition([1]), 0, 2, 3), "need 1 <= n <= m, got m=2, n=3"),
        (lambda: index_tuples(Partition([1]), 0, 0, 0), "need 1 <= n <= m, got m=0, n=0"),
        (lambda: index_tuples(Partition([1, 1, 1, 1]), 0, 3, 3), "has more than 3 parts"),
        (lambda: index_tuples(Partition([1]), 4, 3, 3), "need 0 <= l <= 3, got l=4"),
        (lambda: index_tuples(Partition([2, 1]), 2, 3, 3), "need z_1 = ... = z_2"),
        (lambda: enumerate_weights(Partition([1]), 1, (0,), 0, 3, 3, -10, 0),
         "chain (0,) should have 2 entries"),
        (lambda: enumerate_weights(Partition([1]), 0, (0, 0, 0), 0, 3, 3, 0, -1),
         "empty degree window [0, -1]"),
    ],
    ids=["m-below-n", "n-below-1", "parts", "l", "z-not-flat", "chain-length", "window"],
)
def test_argument_checks_raise(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert fragment in str(info.value)
