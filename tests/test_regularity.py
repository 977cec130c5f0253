import gc

import pytest

from detthick import ext, regularity
from detthick.ideals import IdealSpec, normalize, power_gens, saturate, symbolic_gens
from detthick.partitions import Partition
from detthick.regularity import (
    NEG_INF,
    closed_form_valid,
    f_value,
    has_linear_resolution,
    r_bruteforce,
    r_closed,
    reg_j,
    reg_power_details,
    reg_power_family,
    reg_quotient,
    reg_tuples,
)
from detthick.zset import zset_general
from oracles import r_bruteforce_reference


def test_reg_tuples_level_zero():
    # level 0 admits only the all-zero chain
    assert reg_tuples(Partition([4, 4, 3]), 0, 3) == [(0, 0, 0, 0)]
    assert f_value(Partition([4, 4, 3]), 0, (0, 0, 0, 0)) == 0


def test_reg_tuples_pair_of_rows():
    # z = (d, d), l = 1: the jump to 1 happens where the z-differences allow,
    # which is two steps from the end; below n = 3 only the all-ones chain fits
    for n in range(2, 6):
        for d in range(1, 5):
            got = reg_tuples(Partition([d, d]), 1, n)
            if n == 2:
                assert got == [(1, 1)]
            else:
                assert got == sorted({(0,) * (n - 2) + (1, 1), (1,) * n})


def test_reg_tuples_end_at_level():
    for z, l, n in [
        (Partition([3, 3, 1]), 1, 4),
        (Partition([2, 2, 2]), 2, 4),
        (Partition([5, 5, 5, 2]), 2, 5),
    ]:
        for t in reg_tuples(z, l, n):
            assert t[-1] == l
            assert all(0 <= a <= b for a, b in zip(t, t[1:]))


def scanned_tails(z: Partition, l: int, n: int) -> list[tuple[int, ...]]:
    # the t of every candidate Ext chain with a nonempty weight region, each
    # followed by l, sorted; feasibility does not depend on m, so m = n
    feasible = {
        tup.t for tup in ext.index_tuples(z, l, n, n) if ext._region(z, l, tup.t, tup.s, n, n)
    }
    return sorted(t + (l,) for t in feasible)


# the ideals whose Ext chain tables tests/test_ext.py checks against the scan
CHAIN_TABLE_IDEALS = [
    power_gens(2, 7, 3),
    symbolic_gens(2, 3, 3),
    saturate(power_gens(3, 2, 4), 1),
    power_gens(1, 3, 2),
    normalize(4, [Partition([3, 1]), Partition([2, 2, 2])]),
    symbolic_gens(5, 3, 7),
    power_gens(6, 2, 7),
    power_gens(4, 3, 6),
]


@pytest.mark.parametrize("X", CHAIN_TABLE_IDEALS)
def test_reg_tuples_are_the_feasible_ext_chains(X):
    for pair in zset_general(X).pairs:
        assert reg_tuples(pair.z, pair.l, X.n) == scanned_tails(pair.z, pair.l, X.n), pair


# the ideals of the label_sweep benchmark families, with (labels, sum and max of
# reg_j over them) as the enumeration of every candidate chain gave them
LABEL_SWEEP_REG = [
    (power_gens(2, 7, 4), (57, 612, 13)),
    (power_gens(3, 5, 5), (33, 417, 15)),
    (symbolic_gens(2, 6, 4), (16, 118, 11)),
    (symbolic_gens(3, 4, 5), (7, 63, 11)),
    (saturate(power_gens(2, 7, 4), 1), (23, 197, 13)),
    (power_gens(2, 6, 4), (38, 344, 11)),
    (power_gens(2, 5, 4), (23, 172, 9)),
    (symbolic_gens(2, 5, 4), (11, 70, 9)),
    (symbolic_gens(2, 4, 4), (7, 37, 7)),
    (saturate(power_gens(2, 6, 4), 1), (16, 118, 11)),
    (saturate(power_gens(2, 5, 4), 1), (11, 70, 9)),
]


@pytest.mark.parametrize("X, pinned", LABEL_SWEEP_REG)
def test_reg_j_unchanged_on_label_sweep_families(X, pinned):
    # each label's regularity against the maximum over the scanned chains
    values = []
    for pair in zset_general(X).pairs:
        z, l = pair.z, pair.l
        want = max(z.size + sum(t) - l - f_value(z, l, t) for t in scanned_tails(z, l, X.n))
        got = reg_j(z, l, X.n)
        assert got == want, pair
        values.append(got)
    assert (len(values), sum(values), max(values)) == pinned


def test_reg_value_worked_cases():
    assert reg_j(Partition([4, 4, 3]), 0, 3) == 11
    # two-row family: max of the two chain values
    for n in range(2, 6):
        for d in range(1, 6):
            assert reg_j(Partition([d, d]), 1, n) == max(2 * d + 1, d + n - 1)


def test_reg_j_checks_each_label_once(monkeypatch):
    calls = []
    check = regularity._check_zl
    monkeypatch.setattr(regularity, "_check_zl", lambda *a: calls.append(a) or check(*a))
    z = Partition([5, 5, 3, 1])
    assert len(reg_tuples(z, 1, 5)) > 1
    calls.clear()
    assert reg_j(z, 1, 5) == max(
        z.size + sum(t) - 1 - f_value(z, 1, t) for t in reg_tuples(z, 1, 5)
    )
    assert len(calls) > 2  # the public helpers still check, each call
    calls.clear()
    reg_j(z, 1, 5)
    assert calls == [(z, 1, 5)]


def test_labels_and_their_regularity_leave_no_cyclic_garbage():
    # the recursive closure of the label walk holds its own cell; deleting
    # the name after the top-level call lets reference counting free it, and
    # the chain walk builds no closure
    X = power_gens(2, 6, 4)
    zset_general.cache_clear()
    gc.collect()
    gc.disable()
    try:
        assert reg_quotient(X, 4, 4) == reg_power_family(2, 6, 4, 4, "power") - 1
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_regularity_of_a_label_rejects_bad_labels():
    for z, l, n in [
        (Partition([2, 1]), 1, 3),  # z_1 != z_2
        (Partition([1, 1, 1]), 3, 3),  # l = n
        (Partition([1, 1, 1, 1]), 0, 3),  # more than n parts
        (Partition([1]), -1, 3),
    ]:
        with pytest.raises(ValueError):
            reg_j(z, l, n)
        with pytest.raises(ValueError):
            reg_tuples(z, l, n)
        if l >= 0:
            with pytest.raises(ValueError):
                f_value(z, l, (l,) * (n - l + 1))
    with pytest.raises(ValueError):
        f_value(Partition([2, 2]), 1, (0, 0, 0))  # chain does not end at l


def test_reg_quotient_trivial_cases():
    assert reg_quotient(IdealSpec.unit(3), 3, 3) == NEG_INF
    with pytest.raises(ValueError):
        reg_quotient(IdealSpec.zero(3), 3, 3)


def test_reg_quotient_worked_example():
    assert reg_quotient(power_gens(2, 7, 3), 3, 3) == 13
    # determinant hypersurface: reg S/(det) = n(n-1) ... for n=2: 2*1-... check small
    assert reg_quotient(normalize(2, [Partition([1, 1])]), 2, 2) == 1


def test_reg_quotient_is_max_over_labels():
    X = power_gens(2, 3, 3)
    pairs = zset_general(X).sorted_pairs()
    assert reg_quotient(X, 3, 3) == max(reg_j(p.z, p.l, 3) for p in pairs)


def test_optimization_brute_force_frozen_values():
    assert r_bruteforce(0, 2, 3, 1) == NEG_INF
    assert r_bruteforce(1, 2, 3, 1) == 2
    assert r_bruteforce(0, 2, 3, 4) == 7


def test_search_matches_reference():
    # the tuple search equals the Partition-based one on every level of
    # n <= 7, d <= 10, -inf included, and refuses the same bad arguments
    def outcome(search, *args):
        try:
            return search(*args)
        except ValueError:
            return ValueError

    for n in range(1, 8):
        for p in range(1, n + 1):
            for l in range(p):
                for d in range(1, 11):
                    assert r_bruteforce(l, p, n, d) == r_bruteforce_reference(l, p, n, d), (l, p, n, d)
    for n in range(-1, 4):
        for p in range(-1, n + 2):
            for l in range(-1, p + 2):
                for d in range(-1, 2):
                    got = outcome(r_bruteforce, l, p, n, d)
                    assert got == outcome(r_bruteforce_reference, l, p, n, d), (l, p, n, d)
    assert outcome(r_bruteforce, 0, 2, 3, 0) is ValueError
    assert outcome(r_bruteforce, 2, 2, 3, 1) is ValueError


def test_search_builds_no_partition(monkeypatch):
    built = []
    new = Partition.__new__

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Partition, "__new__", counted)
    r_bruteforce_reference(1, 3, 4, 2)
    assert built, "the count sees the reference search's partitions"
    built.clear()
    assert not any(closed_form_valid(l, 3, 7, 4) for l in range(3))
    reg_power_details(3, 4, 7, 7, "power")
    assert built == []


def test_closed_form_matches_brute_force():
    for n in range(2, 7):
        for p in range(1, n):
            for l in range(0, p):
                for d in range(n - 1, n + 3):
                    assert closed_form_valid(l, p, n, d)
                    assert r_bruteforce(l, p, n, d) == r_closed(l, p, n, d)


def test_full_minors_closed_form():
    # p = n: only the top level survives and gives nd - 1
    for n in range(2, 6):
        for d in range(1, 6):
            assert r_bruteforce(n - 1, n, n, d) == n * d - 1
            assert r_closed(n - 1, n, n, d) == n * d - 1
            for l in range(0, n - 1):
                assert r_bruteforce(l, n, n, d) == NEG_INF
                assert r_closed(l, n, n, d) == NEG_INF


def test_reg_power_details_worked_example():
    reg, per_level = reg_power_details(2, 7, 3, 3, "power")
    assert reg == 14
    assert per_level == {0: 13, 1: 13}


def test_reg_power_family_closed_forms():
    # large d: pd plus a constant depending only on p
    for n in range(3, 7):
        for p in range(2, n):
            for d in range(n - 1, n + 3):
                expect = p * d + (((p - 1) // 2) ** 2 if p % 2 else (p - 2) * p // 4)
                assert reg_power_family(p, d, n, n, "power") == expect
                assert reg_power_family(p, d, n, n, "symbolic") == p * d


def test_reg_small_powers_of_2x2_minors():
    for n in range(3, 8):
        for d in range(1, n - 1):
            assert reg_power_family(2, d, n, n, "power") == d + n - 1
            assert reg_power_family(2, d, n, n, "symbolic") == d + n - 1


def test_reg_symbolic_exceeds_linear_bound_for_small_d():
    for n in range(4, 7):
        for p in range(3, n):
            for d in range(1, n - 1):
                assert reg_power_family(p, d, n, n, "symbolic") > p * d


def test_reg_chain_power_satpower_symbolic():
    # same p, d: powers dominate saturated powers dominate symbolic powers
    for n in range(2, 6):
        for p in range(2, n + 1):
            for d in range(1, 5):
                a = reg_power_family(p, d, n, n, "power")
                b = reg_power_family(p, d, n, n, "satpower")
                c = reg_power_family(p, d, n, n, "symbolic")
                assert a >= b >= c


def test_reg_power_family_matches_quotient_route():
    for p, d, n in [(2, 3, 3), (2, 5, 4), (3, 2, 4), (1, 4, 3), (3, 3, 3)]:
        for kind, gens in [
            ("power", power_gens(p, d, n)),
            ("symbolic", symbolic_gens(p, d, n)),
        ]:
            via_family = reg_power_family(p, d, n, n, kind)
            via_quotient = reg_quotient(gens, n, n) + 1
            assert via_family == via_quotient, (p, d, n, kind)


def test_satpower_needs_thickness():
    with pytest.raises(ValueError):
        reg_power_details(1, 3, 3, 3, "satpower")
    with pytest.raises(ValueError):
        reg_power_details(2, 3, 3, 3, "bogus")


def test_linear_resolution_trichotomy():
    # d <= 8 for every n, and up to n + 1 at n = 8
    for n in range(2, 9):
        for p in range(1, n + 1):
            for d in range(1, max(9, n + 2)):
                expect = p == 1 or p == n or (p == 2 and d >= n - 1)
                assert has_linear_resolution(p, d, n) == expect, (p, d, n)


def test_reg_power_details_matches_search_on_grid():
    # the per-level values agree with the partition-pair search everywhere on
    # the grid, both where the closed form is used and where the search is
    brute: dict = {}
    for n in range(1, 7):
        for p in range(1, n + 1):
            for d in range(1, 11):
                for kind, levels in [
                    ("power", range(p)),
                    ("satpower", range(1, p)),
                    ("symbolic", range(p - 1, p)),
                ]:
                    if kind == "satpower" and p < 2:
                        continue
                    for l in levels:
                        if (l, p, n, d) not in brute:
                            brute[l, p, n, d] = r_bruteforce(l, p, n, d)
                    expect = {l: brute[l, p, n, d] for l in levels}
                    assert reg_power_details(p, d, n, n, kind)[1] == expect, (p, d, n, kind)


def test_proven_levels_skip_the_search(monkeypatch):
    def refuse(l, p, n, d):
        raise AssertionError(f"search ran at l={l}, p={p}, n={n}, d={d}")

    monkeypatch.setattr(regularity, "r_bruteforce", refuse)
    assert reg_power_details(2, 30, 6, 6, "power") == (60, {0: 59, 1: 59})
    assert reg_power_details(3, 40, 7, 7, "satpower")[0] == 121
    assert reg_power_details(4, 6, 7, 7, "symbolic")[0] == 24

    calls = []

    def count(l, p, n, d):
        calls.append(l)
        return r_bruteforce(l, p, n, d)

    monkeypatch.setattr(regularity, "r_bruteforce", count)
    assert not closed_form_valid(0, 2, 6, 3)
    reg_power_details(2, 3, 6, 6, "power")
    assert sorted(calls) == [0, 1]


def test_kinds_share_each_level_search():
    # power then satpower then symbolic at one (p, d, n) outside the closed form:
    # the levels the later kinds share with power are looked up, not searched
    p, d, n = 3, 4, 7
    assert not any(closed_form_valid(l, p, n, d) for l in range(p))
    r_bruteforce.cache_clear()
    _, power = reg_power_details(p, d, n, n, "power")
    assert r_bruteforce.cache_info()[:2] == (0, 3)  # (hits, misses)
    _, sat = reg_power_details(p, d, n, n, "satpower")
    _, sym = reg_power_details(p, d, n, n, "symbolic")
    assert r_bruteforce.cache_info()[:2] == (3, 3)
    assert sat == {1: power[1], 2: power[2]} and sym == {2: power[2]}
    assert power == {l: r_bruteforce_reference(l, p, n, d) for l in range(p)}


@pytest.mark.parametrize(
    "call, fragment",
    [
        # closed_form_valid is False on bad arguments, so r_closed refuses them
        (lambda: r_closed(-1, 2, 3, 2), "not proven for l=-1, p=2, n=3, d=2"),
        (lambda: r_closed(2, 2, 3, 2), "not proven for l=2, p=2, n=3, d=2"),
        (lambda: r_closed(0, 4, 3, 2), "not proven for l=0, p=4, n=3, d=2"),
        (lambda: r_closed(0, 2, 3, 0), "not proven for l=0, p=2, n=3, d=0"),
        # p < n and d < n - 1: outside the proven range
        (lambda: r_closed(0, 2, 4, 2), "not proven for l=0, p=2, n=4, d=2"),
        (lambda: reg_power_details(4, 1, 3, 3, "power"), "need 1 <= p <= n <= m, got p=4"),
        (lambda: reg_power_details(2, 0, 3, 3, "power"), "need d >= 1, got d=0"),
    ],
    ids=["l-negative", "l-at-p", "p-above-n", "d-zero", "unproven", "powers-p", "powers-d"],
)
def test_argument_checks_raise(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert fragment in str(info.value)


@pytest.mark.parametrize("l, p, n, d", [(-1, 2, 3, 2), (2, 2, 3, 2), (0, 4, 3, 2), (0, 2, 3, 0)])
def test_closed_form_is_not_valid_on_bad_arguments(l, p, n, d):
    assert closed_form_valid(l, p, n, d) is False
