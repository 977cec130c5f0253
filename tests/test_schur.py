import json
from collections import defaultdict
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from detthick import cli, ext, ideals, schur
from detthick.ext import enumerate_weights, ext_graded, index_tuples
from detthick.ideals import (
    IdealSpec, member, normalize, power_gens, saturate, succ_gens, symbolic_gens,
)
from detthick.partitions import Partition, enumerate_partitions, leq
from detthick.schur import (
    graded_table_to_json,
    j_graded_dim,
    quotient_graded_dim,
    quotient_hilbert_table,
    ring_graded_dim,
    schur_dim,
)
from detthick.zset import zset_general
from oracles import enumerate_weights_reference, quotient_graded_dim_reference, weight_expand


def hook_content_dim(lam, k):
    """Independent oracle: product of (k + content) / hook length over the cells."""
    lam = [v for v in lam if v > 0]
    conj = [sum(1 for v in lam if v > j) for j in range(lam[0])] if lam else []
    out = Fraction(1)
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            out *= Fraction(k + j - i, hook)
    assert out.denominator == 1
    return int(out)


def test_dimension_small_cases():
    assert schur_dim((1,), 3) == 3
    assert schur_dim((2,), 3) == 6
    assert schur_dim((1, 1), 3) == 3
    assert schur_dim((1, 1, 1), 3) == 1
    assert schur_dim((2, 1), 3) == 8
    assert schur_dim((), 5) == 1
    # too many rows: the functor vanishes, treated as an error upstream
    with pytest.raises(ValueError):
        schur_dim((1, 1, 1), 2)


@given(
    st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=4),
    st.integers(min_value=4, max_value=7),
)
def test_dimension_matches_hook_content(parts, k):
    lam = sorted(parts, reverse=True)
    assert schur_dim(lam, k) == hook_content_dim(lam, k)


@given(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
    st.integers(min_value=-4, max_value=4),
)
def test_dimension_translation_invariance(vals, c):
    lam = sorted(vals, reverse=True)
    shifted = [v + c for v in lam]
    assert schur_dim(lam, 3) == schur_dim(shifted, 3)


def test_dimension_rejects_non_dominant():
    with pytest.raises(ValueError):
        schur_dim((1, 2), 3)


def test_weight_expand_square_is_identity():
    lam = (-2, -3, -5)
    assert weight_expand(lam, 1, 3, 3) == lam


def test_weight_expand_rectangular():
    # m=4, n=3, s=1: insert (s-n)^(m-n) after the first s entries, shift the rest
    assert weight_expand((-2, -3, -5), 1, 4, 3) == (-2, -2, -2, -4)
    assert weight_expand((0, -1, -4), 2, 5, 3) == (0, -1, -1, -1, -2)
    # size is always preserved
    for s, lam in [(0, (-6, -7, -8)), (3, (3, 2, 1))]:
        out = weight_expand(lam, s, 6, 3)
        assert sum(out) == sum(lam)
        assert all(out[i] >= out[i + 1] for i in range(len(out) - 1))


def test_weight_expand_boundary_violations():
    # needs lam_s >= s-n and lam_{s+1} <= s-m
    with pytest.raises(ValueError):
        weight_expand((-4, -5, -6), 1, 4, 3)  # lam_1 < 1-3
    with pytest.raises(ValueError):
        weight_expand((0, 0, -6), 1, 4, 3)  # lam_2 > 1-4


def priced(region, lo, hi, s, m, n):
    """The (weight, m, total, dim) records of a region's weights in [lo, hi], in the
    order the pricing walk reaches them: every total's list is the same list."""
    got = []
    schur._priced(region, lo, hi, s, m, n, defaultdict(lambda: got))
    return got


def price_alone(weights, s, m, n):
    """Each GL_n weight's expansion at s with dim_m(expansion) * dim_n(weight), each weight
    priced as a region of its own with every entry fixed."""
    out = []
    for lam in weights:
        [(_, rank, _, dim)] = priced(schur._bounded(lam, lam, lam), sum(lam), sum(lam), s, m, n)
        assert rank == m
        out.append((weight_expand(lam, s, m, n), dim))
    return out


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    d=st.integers(min_value=0, max_value=3),
    l=st.integers(min_value=0, max_value=4),
    zvals=st.lists(st.integers(0, 4), min_size=5, max_size=5),
    width=st.integers(min_value=0, max_value=6),
)
@example(n=3, d=0, l=0, zvals=[3, 2, 1, 0, 0], width=6)  # m = n, l = 0
@example(n=4, d=2, l=3, zvals=[2, 2, 2, 1, 0], width=6)  # m - n = 2, l = n - 1
@example(n=4, d=3, l=0, zvals=[3, 1, 1, 0, 0], width=6)
@example(n=5, d=0, l=4, zvals=[1, 1, 1, 1, 0], width=6)
@example(n=4, d=0, l=2, zvals=[2, 2, 1, 1, 0], width=6)
def test_each_weight_priced_alone_matches_two_weyl_products(n, d, l, zvals, width):
    # every weight of every feasible chain of a label (z, l), each priced alone
    l = min(l, n - 1)
    vals = sorted(zvals[:n], reverse=True)
    vals[:l] = [vals[0]] * l
    z, m = Partition(vals), n + d
    for tup in index_tuples(z, l, m, n):
        region = ext._region(z, l, tup.t, tup.s, m, n)
        if region is None:
            continue
        lo = sum(region.lower)
        weights = enumerate_weights(z, l, tup.t, tup.s, m, n, lo, lo + width)
        got = price_alone(weights, tup.s, m, n)
        assert len(got) == len(weights)
        for lam, (expanded, dim) in zip(weights, got):
            oracle = weight_expand(lam, tup.s, m, n)
            assert expanded == oracle
            assert dim == schur_dim(oracle, m) * schur_dim(lam, n)


def test_pricing_partitions_pads_with_zeros():
    # at s = n the expansion only appends zeros: the path of the quotient dimensions
    for m, n in [(3, 3), (5, 3), (6, 4)]:
        xs = [x.parts + (0,) * (n - x.nparts) for x in enumerate_partitions(n, 4, size=4)]
        for x, (expanded, dim) in zip(xs, price_alone(xs, n, m, n)):
            assert expanded == x + (0,) * (m - n)
            assert dim == schur_dim(x, m) * schur_dim(x, n)


def test_pricing_rejects_non_dominant_weights():
    # the bounds of weight_expand at s = 1 hold; the last entry is above the one before it
    with pytest.raises(RuntimeError, match="not dominant"):
        price_alone([(-2, -4, -3)], 1, 4, 3)
    # two fixed entries out of order (5 - 6 + 1 = 0), whatever the walked entry
    with pytest.raises(RuntimeError, match="not dominant"):
        price_alone([(5, 6, 0)], 3, 3, 3)
    # a free entry whose least value -6 is below the fixed entry after it
    region = schur._bounded((-3, None, -5), (-3, -6, -5), (-3, -3, -5))
    assert [lam for lam, *_ in priced(region, -13, -12, 0, 3, 3)] == [(-3, -5, -5), (-3, -4, -5)]
    with pytest.raises(RuntimeError, match="not dominant"):
        priced(region, -14, -12, 0, 3, 3)


def test_pricing_checks_each_new_value_of_a_free_entry():
    # two free entries before a fixed 0, totals 4 and 5: the second entry takes 2, then
    # 1 and 2 (a memo hit), then 0 and 1, ...; with its least value -1 it meets -1 only
    # after those, and -1 breaks dominance only against the fixed last entry
    # (-1 - 0 + 1 = 0), which only that entry's memo checks
    region = schur._bounded((None, None, 0), (2, 0, 0), (None, None, 0))
    got = priced(region, 4, 5, 3, 3, 3)
    assert [lam for lam, *_ in got] == [
        (2, 2, 0), (3, 1, 0), (3, 2, 0), (4, 0, 0), (4, 1, 0), (5, 0, 0)
    ]
    assert [dim for *_, dim in got] == [schur_dim(lam, 3) ** 2 for lam, *_ in got]
    with pytest.raises(RuntimeError, match="not dominant"):
        priced(schur._bounded((None, None, 0), (2, -1, 0), (None, None, 0)), 4, 5, 3, 3, 3)


def test_pricing_checks_every_weight():
    # a weight met after valid ones breaks a bound of weight_expand: at s = 2 with
    # m = 4, entry 3 <= -2 (the last entry climbs -3, -2, -1), and at s = 3, entry
    # 3 >= 0 (in degree 9 after 5, the last entry falls 2, 1, 0, -1)
    region = schur._bounded((0, -1, None), (0, -1, -3), (0, -1, None))
    with pytest.raises(RuntimeError, match="above"):
        priced(region, -4, -2, 2, 4, 3)
    assert [lam for lam, *_ in priced(region, -4, -3, 2, 4, 3)] == [(0, -1, -3), (0, -1, -2)]
    region = schur._bounded((5, None, None), (5, 2, 0), (5, None, None))
    assert [lam for lam, *_ in priced(region, 9, 9, 3, 3, 3)] == [(5, 2, 2), (5, 3, 1), (5, 4, 0)]
    with pytest.raises(RuntimeError, match="below"):
        priced(schur._bounded((5, None, None), (5, 2, -1), (5, None, None)), 9, 9, 3, 3, 3)


def test_pricing_checks_the_fixed_entries():
    # every weight shares the fixed entries, so they are checked once per plan, built when a
    # window first holds a weight: for dominance (3 - 5 + 1 < 0) and for each bound of
    # weight_expand
    with pytest.raises(RuntimeError, match="not dominant"):
        priced(schur._bounded((None, 3, 5), (7, 3, 5), (None, 3, 5)), 15, 15, 3, 3, 3)
    with pytest.raises(RuntimeError, match="below"):
        priced(schur._bounded((None, 3, -1), (9, 3, -1), (None, 3, -1)), 11, 11, 3, 3, 3)
    with pytest.raises(RuntimeError, match="above"):
        priced(schur._bounded((None, -1, -4), (0, -1, -4), (None, -1, -4)), -5, -5, 1, 4, 3)
    assert priced(schur._bounded((None, 3, 5), (7, 3, 5), (None, 3, 5)), 10, 14, 3, 3, 3) == []


def pricing_shapes(n, d, l, zvals, width):
    """Check the pricing walk against the reference weights, weight_expand and two
    schur_dim calls on every weight it reaches for a label (z, l): the weights of each
    feasible chain, in a window of the given width from the chain's least degree, and the
    weights of the factor's Hilbert function in as many degrees.  Return the shapes met:
    s before, at, just after or past the last walked entry (-1, 0, 1, 2), m - n, two or
    more weights after one prefix, chains with no free entry, and a weight at the cap of the
    last free entry when it is the only one, or the second of two with fixed entries after."""
    l = min(l, n - 1)
    vals = sorted(zvals[:n], reverse=True)
    vals[:l] = [vals[0]] * l
    z, m = Partition(vals), n + d
    met = set()

    def check(region, lo, hi, s, want):
        got = priced(region, lo, hi, s, m, n)
        lams = [lam for lam, *_ in got]
        assert lams == want
        for lam, rank, total, dim in got:
            oracle = weight_expand(lam, s, m, n)
            assert rank == m and total == sum(lam)
            assert dim == schur_dim(oracle, m) * schur_dim(lam, n)
        if not got:
            return
        free = [j for j, x in enumerate(region.fixed_at) if x is None]
        walked = max(free, default=n - 1)
        met.update({("s", max(-1, min(s - walked, 2))), ("d", d)})
        if any(a[:walked] == b[:walked] for a, b in zip(lams, lams[1:])):
            met.add("long run")
        # the last free entry's cap, met by a weight: bounded inline by its parent when it is
        # the second of two free entries and fixed entries follow, at the root when alone
        if free and any(lam[walked] == region.cap_at[walked] for lam in lams):
            if len(free) == 2 and walked < n - 1:
                met.add("capped second of two, fixed after")
            elif len(free) == 1:
                met.add("capped only free entry")

    for tup in index_tuples(z, l, m, n):
        region = ext._region(z, l, tup.t, tup.s, m, n)
        if region is not None:
            lo = sum(region.lower)
            want = enumerate_weights_reference(z, l, tup.t, tup.s, m, n, lo, lo + width)
            check(region, lo, lo + width, tup.s, want)
            if None not in region.fixed_at:
                met.add("no free column")
    region = schur._factor_region(tuple(vals), l)
    for r in range(z.size, z.size + width + 1):
        want = sorted(
            [x.parts + (0,) * (n - x.nparts) for x in enumerate_partitions(n, r, size=r)
             if leq(z, x) and all(x.part(i) == z.part(i) for i in range(l + 1, n + 1))]
        )
        check(region, r, r, n, want)
    return met


PRICING_CASES = [
    (4, 0, 2, [2, 2, 1, 1, 0], 6),
    (4, 2, 3, [2, 2, 2, 1, 0], 6),
    (5, 3, 2, [3, 3, 1, 0, 0], 4),
    (3, 2, 0, [3, 2, 1, 0, 0], 2),
    (3, 1, 1, [2, 2, 1, 0, 0], 4),  # one free entry, at its cap
]


def test_pricing_cases_cover_every_shape():
    met = set().union(*[pricing_shapes(*case) for case in PRICING_CASES])
    shapes = {("s", k) for k in (-1, 0, 1, 2)} | {"long run", "no free column"}
    shapes |= {"capped second of two, fixed after", "capped only free entry"}
    assert shapes <= met and {("d", 0), ("d", 1), ("d", 2), ("d", 3)} <= met


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    d=st.integers(min_value=0, max_value=3),
    l=st.integers(min_value=0, max_value=4),
    zvals=st.lists(st.integers(0, 4), min_size=5, max_size=5),
    width=st.integers(min_value=0, max_value=6),
)
def test_pricing_matches_two_weyl_products(n, d, l, zvals, width):
    pricing_shapes(n, d, l, zvals, width)


def test_pricing_rejects_weights_that_do_not_expand():
    for m in (3, 4):
        with pytest.raises(RuntimeError, match="below"):
            price_alone([(-4, -5, -6)], 1, m, 3)  # lam_1 < 1 - n
        with pytest.raises(RuntimeError, match="above"):
            price_alone([(0, 0, -6)], 1, m, 3)  # lam_2 > 1 - m


@pytest.fixture
def fresh_plans():
    """Clear the pricing plans before and after a test that patches ``_denominator``: a plan
    built before the patch would hide it, and one built under it would outlive it."""
    schur._plan.cache_clear()
    yield
    schur._plan.cache_clear()


def test_pricing_checks_weyl_divisibility(fresh_plans, monkeypatch):
    # 7 does not divide 4, the product of (0, 0, 0) at m = n = 3
    monkeypatch.setattr(schur, "_denominator", lambda m, n: 7)
    with pytest.raises(RuntimeError, match="not an integer"):
        price_alone([(0, 0, 0)], 3, 3, 3)


def test_empty_windows_do_no_pricing_setup(fresh_plans, monkeypatch):
    # a window or a degree that holds no weight returns before building a plan, which
    # needs the denominator: an Ext window above every chain's weights at a j whose
    # chains have l >= 1 (power:2:7 over 3 x 3 at j = 6), and a factor with l >= 1 one
    # degree below its least; an l = 0 label's one weight outside the window sets up nothing
    calls = []
    real = schur._priced

    def spy(*args):
        calls.append(args[:3])
        return real(*args)

    def no_setup(m, n):
        raise AssertionError("an empty window set up its pricing")

    X = power_gens(2, 7, 3)
    ext_graded(X, 6, 3, 3)  # the labels and chains, memoised before the patch
    schur._plan.cache_clear()  # but no plan: one built for the warm-up would hide a lookup
    monkeypatch.setattr(schur, "_denominator", no_setup)
    monkeypatch.setattr(ext, "_priced", spy)
    monkeypatch.setattr(schur, "_priced", spy)
    res = ext_graded(X, 6, 3, 3, window=(0, 10))
    assert res.components == () and res.table == ()
    assert calls
    calls.clear()
    # at j = 9 every label has l = 0: its one weight, of degree -22 and up, is out of the window
    entries = ext._ext_index(zset_general(X), 3, 3)[2][9]
    assert {pair.l for pair, _ in entries} == {0}
    res = ext_graded(X, 9, 3, 3, window=(0, 10))
    assert res.components == () and res.table == ()
    assert [args[0] for args in calls] == [region for _, ((_, region),) in entries]
    calls.clear()
    assert j_graded_dim(Partition([2, 2]), 1, 3, 4, 3) == 0
    assert calls == [(schur._factor_region((2, 2, 0), 1), 3, 3)]
    assert schur._plan.cache_info().currsize == 0


def test_plans_are_built_once_and_reused_across_windows():
    # three free entries before a fixed one, m - n = 2, least total -12: a window below it
    # builds no plan, the walk over [lo, mid] and then [mid + 1, hi] builds one and gives the
    # records of one walk over [lo, hi] with a fresh plan, in order within each total
    z, l, t, s, m, n = Partition([2, 2, 2, 1]), 3, (3,), 2, 6, 4
    region = ext._region(z, l, t, s, m, n)
    assert region.fixed_at == (None, None, None, -4) and sum(region.lower) == -12
    lo, mid, hi = -12, -9, -6
    schur._plan.cache_clear()
    assert priced(region, -20, -13, s, m, n) == []
    assert schur._plan.cache_info().currsize == 0
    split = defaultdict(list)
    schur._priced(region, lo, mid, s, m, n, split)
    schur._priced(region, mid + 1, hi, s, m, n, split)
    assert priced(region, -20, -13, s, m, n) == []
    info = schur._plan.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    schur._plan.cache_clear()
    whole = defaultdict(list)
    schur._priced(region, lo, hi, s, m, n, whole)
    assert split == whole and max(map(len, whole.values())) > 1
    want = enumerate_weights_reference(z, l, t, s, m, n, lo, hi)
    assert sorted([lam for rows in whole.values() for lam, *_ in rows]) == want


def test_failed_checks_are_never_memoised():
    # the second free entry meets -1, not dominant against the fixed last entry, after
    # memo hits; and two fixed entries out of order: each raises on every call
    region = schur._bounded((None, None, 0), (2, -1, 0), (None, None, 0))
    fixed = schur._bounded((None, 3, 5), (7, 3, 5), (None, 3, 5))
    schur._plan.cache_clear()
    for _ in range(2):
        with pytest.raises(RuntimeError, match="not dominant"):
            priced(region, 4, 5, 3, 3, 3)
        with pytest.raises(RuntimeError, match="not dominant"):
            priced(fixed, 15, 15, 3, 3, 3)
    assert schur._plan.cache_info().currsize == 1  # the first region's plan, without -1


def factor_dim_oracle(z, l, r, m, n):
    if r < 0:  # no partition has a negative size
        return 0
    total = 0
    for x in enumerate_partitions(n, r, size=r):
        if not leq(z, x):
            continue
        if any(x.part(i) != z.part(i) for i in range(l + 1, n + 1)):
            continue
        total += schur_dim(x.parts, m) * schur_dim(x.parts, n)
    return total


@pytest.mark.parametrize("n, m", [(n, m) for n in range(4) for m in range(n, n + 3)])
def test_factor_dimension_matches_direct_enumeration(n, m):
    # every z in the n x 3 box, every l, from one degree below |z| to three above;
    # GL_0 (n = 0) has the empty weight alone, in degree 0
    for z in enumerate_partitions(n, 3):
        for l in range(n + 1):
            for r in range(z.size - 1, z.size + 4):
                expected = factor_dim_oracle(z, l, r, m, n) if n else int(r == 0)
                assert j_graded_dim(z, l, r, m, n) == expected, (z, l, r)


def test_factor_regions_are_built_once_per_ideal(monkeypatch):
    # the regions live in the ideal's label memo: a second sweep over the degrees builds no
    # region and no plan
    X = power_gens(2, 3, 3)
    schur._labels_by_size.cache_clear()
    schur._plan.cache_clear()
    region, built = schur._factor_region, []
    monkeypatch.setattr(schur, "_factor_region", lambda *zl: built.append(zl) or region(*zl))
    first = [quotient_graded_dim(X, r, 4, 3) for r in range(12)]
    regions, plans = len(built), schur._plan.cache_info().misses
    assert regions and plans
    assert [quotient_graded_dim(X, r, 4, 3) for r in range(12)] == first
    assert len(built) == regions and schur._plan.cache_info().misses == plans


def test_factors_with_l_zero_build_no_region(monkeypatch):
    # an l = 0 factor is z alone: neither one degree of it nor a Hilbert table builds its region,
    # and the table builds each other label's region once
    region = schur._factor_region
    schur._labels_by_size.cache_clear()
    asked = []
    monkeypatch.setattr(schur, "_factor_region", lambda *zl: asked.append(zl) or region(*zl))
    for z in enumerate_partitions(3, 3):
        for r in range(z.size - 1, z.size + 2):
            j_graded_dim(z, 0, r, 4, 3)
    X = power_gens(2, 3, 3)
    assert {bool(p.l) for p in zset_general(X).pairs if p.z.size <= 12} == {False, True}
    quotient_hilbert_table(X, 0, 12, 4, 3)
    assert asked and all(l for _, l in asked)
    padded = [(p.z.parts + (0,) * (3 - p.z.nparts), p.l) for p in zset_general(X).pairs if p.l]
    assert sorted(asked) == sorted(padded)


def test_factor_dimension_below_size_is_zero():
    assert j_graded_dim(Partition([2, 2]), 1, 3, 3, 3) == 0
    assert j_graded_dim(Partition([2, 2]), 1, -1, 3, 3) == 0


def test_ring_dimension_is_binomial():
    for m in range(1, 5):
        for n in range(1, m + 1):
            for r in range(0, 8):
                assert ring_graded_dim(r, m, n) == comb(m * n + r - 1, r)


def test_cauchy_decomposition():
    # sum of squares of dimensions over one degree recovers the polynomial count
    for m in range(1, 5):
        for n in range(1, m + 1):
            for r in range(0, 8):
                total = sum(
                    schur_dim(x.parts, m) * schur_dim(x.parts, n)
                    for x in enumerate_partitions(n, r, size=r)
                )
                assert total == ring_graded_dim(r, m, n)


def test_quotient_dimension_example():
    # degree 3 of the quotient by the square of the 2x2 minors: still the full ring
    X = power_gens(2, 2, 3)
    assert quotient_graded_dim(X, 3, 3, 3) == 165
    assert quotient_graded_dim(X, 0, 3, 3) == 1
    # degree 4 loses exactly the two generator shapes
    loss = schur_dim((2, 2), 3) ** 2 + schur_dim((2, 1, 1), 3) ** 2
    assert quotient_graded_dim(X, 4, 3, 3) == ring_graded_dim(4, 3, 3) - loss


def quotient_graded_dim_by_labels(X, r, m, n):
    """Degree-r dimension of S/I_X: the factors of its label filtration, one degree at a time."""
    if r < 0 or X.is_unit:
        return 0
    if X.is_zero or r < min(g.size for g in X.gens):
        return ring_graded_dim(r, m, n)
    labels = [p for p in zset_general(X).pairs if p.z.size <= r and (p.l or p.z.size == r)]
    return sum(j_graded_dim(p.z, p.l, r, m, n) for p in labels)


def test_filtration_dimensions_sum_to_quotient():
    X = normalize(3, [Partition([2, 1]), Partition([1, 1, 1])])
    pairs = zset_general(X).sorted_pairs()
    for r in range(0, 9):
        total = sum(j_graded_dim(pr.z, pr.l, r, 3, 3) for pr in pairs)
        assert total == quotient_graded_dim_reference(X, r, 3, 3)


def gens_from_rows(n, raw):
    return [Partition(sorted(xs[:n], reverse=True)) for xs in raw]


rows_lists = st.lists(
    st.lists(st.integers(1, 4), min_size=1, max_size=4), min_size=1, max_size=4
)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=0, max_value=2),
    raw=rows_lists,
)
@example(n=3, d=1, raw=[])  # the zero ideal
@example(n=3, d=1, raw=[[]])  # the unit ideal
@example(n=1, d=0, raw=[])
@example(n=4, d=2, raw=[[]])
def test_quotient_dimension_matches_membership_scan(n, d, raw):
    X = normalize(n, gens_from_rows(n, raw))
    top = max((g.size for g in X.gens), default=0) + 3
    for r in range(0, top + 1):
        assert quotient_graded_dim(X, r, n + d, n) == quotient_graded_dim_reference(
            X, r, n + d, n
        ), (X, r, n + d)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=0, max_value=1),
    raw=st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=4), min_size=1, max_size=3),
)
@example(n=3, d=0, raw=[[2, 2], [2, 1, 1]])  # I_2^2 in 3 x 3, the square of the 2 x 2 minors
@example(n=3, d=1, raw=[[2, 2], [3, 1, 1]])
def test_factor_dimension_is_difference_of_quotients(n, d, raw):
    # the factor labeled (z, l) is I_z / I_succ, so its dimension in each
    # degree is dim (S/I_succ)_r - dim (S/I_z)_r, with both quotients counted
    # by the membership scan
    X = normalize(n, gens_from_rows(n, raw))
    m = n + d
    for pr in zset_general(X).pairs:
        succ = succ_gens(pr.z, pr.l, n)
        below = normalize(n, [pr.z])
        for r in range(0, pr.z.size + 5):
            assert j_graded_dim(pr.z, pr.l, r, m, n) == (
                quotient_graded_dim_reference(succ, r, m, n)
                - quotient_graded_dim_reference(below, r, m, n)
            ), (X, pr, r)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=0, max_value=2),
    raw=rows_lists,
    start=st.sampled_from(["below zero", "at least", "above least"]),
    width=st.integers(min_value=0, max_value=4),
)
@example(n=3, d=1, raw=[], start="below zero", width=4)  # the zero ideal
@example(n=3, d=1, raw=[[]], start="at least", width=2)  # the unit ideal
@example(n=2, d=0, raw=[[2, 1]], start="at least", width=0)  # one degree
def test_hilbert_table_matches_both_oracles(n, d, raw, start, width):
    X = normalize(n, gens_from_rows(n, raw))
    least = min((g.size for g in X.gens), default=0)
    lo = {"below zero": -2, "at least": least, "above least": least + 2}[start]
    m = n + d
    table = quotient_hilbert_table(X, lo, lo + width, m, n)
    assert list(table) == list(range(lo, lo + width + 1))
    for r, dim in table.items():
        assert dim == quotient_graded_dim_by_labels(X, r, m, n), (X, r, m)
        assert dim == quotient_graded_dim_reference(X, r, m, n), (X, r, m)


@pytest.mark.parametrize(
    "X, m, n, rmax",
    [
        (symbolic_gens(3, 6, 5), 6, 5, 40),
        (power_gens(3, 4, 5), 6, 5, 42),
        (power_gens(2, 6, 4), 5, 4, 40),
    ],
)
def test_hilbert_table_matches_label_sums(X, m, n, rmax):
    # far past the generators, where the membership scan is too slow to serve
    table = quotient_hilbert_table(X, 0, rmax, m, n)
    assert table == {r: quotient_graded_dim_by_labels(X, r, m, n) for r in range(rmax + 1)}


def test_hilbert_table_rejects_an_empty_window():
    with pytest.raises(ValueError, match="lo <= hi"):
        quotient_hilbert_table(power_gens(2, 2, 3), 4, 3, 3, 3)


def test_hilbert_walks_each_label_once(monkeypatch):
    # one walk per label with l >= 1 and |z| <= rmax, over all the degrees at once
    X, rmax = power_gens(2, 3, 3), 9
    walks = []

    def spy(region, lo, hi, *args):
        walks.append((region, lo, hi))
        return walk(region, lo, hi, *args)

    walk = schur._priced
    monkeypatch.setattr(schur, "_priced", spy)
    doc = cli.run(["hilbert", "--m", "4", "--n", "3", "--ideal", "power:2:3", "--rmax", str(rmax), "--json"])
    walked = [p for p in zset_general(X).pairs if p.l and p.z.size <= rmax]
    assert walked
    assert len(walks) == len(walked)
    assert {hi for *_, hi in walks} == {rmax}
    table = json.loads(doc)["result"]["table"]
    assert table == {str(r): str(quotient_graded_dim_by_labels(X, r, 4, 3)) for r in range(rmax + 1)}


def test_trivial_ideals_and_low_degrees(monkeypatch):
    # saturating I_1^3 gives the unit ideal, and "0" is the empty partition
    for ideal in ("satpower:1:3", "gens:0"):
        doc = cli.run(["hilbert", "--m", "4", "--n", "3", "--ideal", ideal, "--rmax", "4", "--json"])
        X = cli.parse_ideal_spec(ideal, 3).ideal
        assert X.is_unit
        table = json.loads(doc)["result"]["table"]
        assert table == {str(r): "0" for r in range(5)}
        assert table == {str(r): str(quotient_graded_dim_reference(X, r, 4, 3)) for r in range(5)}
    Z = IdealSpec.zero(3)
    for r in range(-1, 8):
        assert quotient_graded_dim(Z, r, 4, 3) == quotient_graded_dim_reference(Z, r, 4, 3)
        assert quotient_graded_dim(Z, r, 4, 3) == (ring_graded_dim(r, 4, 3) if r >= 0 else 0)
    # below the least generator size the quotient is the whole ring: the
    # labels of this wide ideal are never computed
    X = power_gens(2, 30, 6)

    def no_labels(_):
        raise AssertionError("labels computed below the least generator size")

    schur._labels_by_size.cache_clear()  # a memoised label list would hide a call
    monkeypatch.setattr(schur, "zset_general", no_labels)
    for r in (0, 1, 5, 59):
        assert quotient_graded_dim(X, r, 6, 6) == comb(35 + r, r)
    doc = cli.run(["hilbert", "--m", "6", "--n", "6", "--ideal", "power:2:30", "--rmax", "59", "--json"])
    assert json.loads(doc)["result"]["table"] == {str(r): str(comb(35 + r, r)) for r in range(60)}
    assert quotient_graded_dim_reference(X, 5, 6, 6) == comb(40, 5)


def test_quotient_dim_makes_no_membership_tests(monkeypatch):
    # the membership scan reaches leq once per partition and generator; the
    # filtration sum makes no membership test
    calls = []

    def counting_leq(a, b):
        calls.append((a, b))
        return leq(a, b)

    X = power_gens(3, 8, 5)  # generators of size 24: both sides of the shortcut
    monkeypatch.setattr(ideals, "leq", counting_leq)
    values = [quotient_graded_dim(X, r, 6, 5) for r in range(0, 29)]
    assert calls == []
    assert values[:17] == [ring_graded_dim(r, 6, 5) for r in range(17)]
    assert values[24] < ring_graded_dim(24, 6, 5)
    assert member(X, Partition([8, 8, 8]))
    assert calls  # the counter does see the calls membership makes


def test_graded_table_json_uses_strings():
    doc = graded_table_to_json({-22: 1287, 0: 1})
    assert doc == {"-22": "1287", "0": "1"}


def test_l0_factor_is_the_product_of_two_weyl_dimensions():
    # each l = 0 label of powers, symbolic and saturated powers at n <= 6, priced by the one
    # product of z and its expansion, equals dim(z, m) * dim(z, n)
    ideals_ = []
    for n in range(1, 7):
        for p in range(1, n + 1):
            for d in (1, 2, 4):
                ideals_ += [power_gens(p, d, n), symbolic_gens(p, d, n),
                            saturate(power_gens(p, d, n), 1)]
    seen = 0
    for X in ideals_:
        n = X.n
        if X.is_unit:  # a saturated power of the 1 x 1 minors
            continue
        for pair in zset_general(X).pairs:
            if pair.l:
                continue
            zs = pair.z.parts + (0,) * (n - pair.z.nparts)
            for m in (n, n + 1, n + 3):
                table = defaultdict(int)
                schur._add_factor(table, zs, None, 0, pair.z.size, m, n)
                assert dict(table) == {pair.z.size: schur_dim(zs, m) * schur_dim(zs, n)}
                seen += 1
    assert seen > 300


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: schur_dim([1], -1), "k must be >= 0, got -1"),
        (lambda: j_graded_dim(Partition([1, 1, 1, 1]), 0, 4, 3, 3), "need nparts(z) <= n <= m"),
        (lambda: j_graded_dim(Partition([1]), 0, 1, 2, 3), "need nparts(z) <= n <= m"),
        (lambda: j_graded_dim(Partition([1]), 4, 1, 3, 3), "need 0 <= l <= 3, got l=4"),
        (lambda: j_graded_dim(Partition([1]), -1, 1, 3, 3), "need 0 <= l <= 3, got l=-1"),
    ],
    ids=["schur-k", "factor-parts", "factor-m-below-n", "factor-l-high", "factor-l-negative"],
)
def test_argument_checks_raise(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert fragment in str(info.value)


# Large m: pricing takes one binomial per entry, so none of these grows with m, and each checks
# the labels (zset), the ideal (ideals) and the pricing (schur) against a formula of its own.


@pytest.mark.parametrize("n, m", [(n, m) for n in (2, 3, 4) for m in (n, n + 3, 1000, 100000)])
def test_segre_hilbert_function_at_large_m(n, m):
    # the 2 x 2 minors cut out the rank-one matrices, whose coordinate ring is the Segre ring:
    # its degree-r part is Sym^r C^m (x) Sym^r C^n
    X = IdealSpec(n, frozenset([Partition([1, 1])]))
    table = quotient_hilbert_table(X, 0, 6, m, n)
    assert table == {r: comb(m + r - 1, r) * comb(n + r - 1, r) for r in range(7)}


@pytest.mark.parametrize("m", [10, 1000, 100000, 10**8])
def test_ext_of_the_residue_field_at_large_m(m):
    # S / (x_ij) is C, whose one Ext is Ext^{mn}(C, S) = det^-1 (x) det^-1 in degree -mn
    res = ext_graded(IdealSpec(2, frozenset([Partition([1])])), 2 * m, m, 2)
    assert [(c.lam, c.degree, c.dim) for c in res.components] == [((-m, -m), -2 * m, 1)]


def test_top_ext_components_match_two_weyl_products_at_m_300():
    # every component of the top Ext of S / I_(3,1) over 300 x 3 matrices, priced against the
    # Weyl product of its 300-entry expansion
    res = ext_graded(IdealSpec(3, frozenset([Partition([3, 1])])), 900, 300, 3)
    assert len(res.components) == 7
    for c in res.components:
        assert c.dim == schur_dim(c.lam_expanded, 300) * schur_dim(c.lam, 3)
