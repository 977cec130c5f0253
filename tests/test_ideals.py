import pytest
from hypothesis import given, settings, strategies as st

from detthick import ext, ideals, kodaira, regularity, schur
from detthick.ideals import (
    IdealSpec,
    intersect,
    member,
    normalize,
    power_gens,
    radical_index,
    saturate,
    subideal,
    succ_gens,
    symbolic_gens,
    yset_gens,
)
from detthick.partitions import Partition, enumerate_partitions, leq
from oracles import (
    minimal_reference,
    power_gens_reference,
    saturate_reference,
    sorted_gens_reference,
    symbolic_gens_reference,
)


def part_in(n, max_part=5):
    return st.lists(
        st.integers(min_value=1, max_value=max_part), min_size=1, max_size=n
    ).map(lambda xs: Partition(sorted(xs, reverse=True)))


def ideal_in(n, max_gens=4):
    return st.lists(part_in(n), min_size=1, max_size=max_gens).map(
        lambda gs: normalize(n, gs)
    )


def test_zero_and_unit():
    z = IdealSpec.zero(3)
    u = IdealSpec.unit(3)
    assert z.is_zero and not z.is_unit
    assert u.is_unit and not u.is_zero
    assert not member(z, Partition([1]))
    assert member(u, Partition([1]))
    assert member(u, Partition([]))


def test_validation():
    with pytest.raises(ValueError):
        IdealSpec(0, frozenset())
    with pytest.raises(ValueError):
        # generator with too many rows for P_2
        IdealSpec(2, frozenset({Partition([1, 1, 1])}))
    with pytest.raises(ValueError):
        # not an antichain
        IdealSpec(3, frozenset({Partition([2, 1]), Partition([2, 2, 1])}))


def test_comparable_generators_of_different_sizes_rejected():
    # the comparable pair sits two sizes apart, among generators of equal size
    gens = {Partition([3]), Partition([2, 1]), Partition([1, 1, 1]), Partition([3, 2]), Partition([4, 1])}
    with pytest.raises(ValueError, match="comparable"):
        IdealSpec(3, frozenset(gens))
    with pytest.raises(ValueError, match="comparable"):
        IdealSpec(3, frozenset({Partition([1]), Partition([3, 3, 3]), Partition([2, 2])}))
    # the least size class, an antichain, is not tested; a generator four sizes up lies
    # above both of its members
    with pytest.raises(ValueError, match="comparable"):
        IdealSpec(3, frozenset({Partition([2]), Partition([1, 1]), Partition([3, 2, 1])}))


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=200)
def test_antichain_check_matches_all_pairs(n, data):
    gens = frozenset(data.draw(st.lists(part_in(n, max_part=4), min_size=1, max_size=6)))
    comparable = any(a != b and leq(a, b) for a in gens for b in gens)
    if comparable:
        with pytest.raises(ValueError, match="comparable"):
            IdealSpec(n, gens)
    else:
        assert IdealSpec(n, gens).gens == gens


def test_power_gens_makes_no_comparisons(monkeypatch):
    # every generator of a power has one size, so no pair needs a leq test
    calls = []

    def counting_leq(a, b):
        calls.append((a, b))
        return leq(a, b)

    monkeypatch.setattr(ideals, "leq", counting_leq)
    X = power_gens(3, 8, 5)
    assert len(X.gens) == 63
    assert calls == []
    normalize(3, [Partition([2, 1]), Partition([3, 1])])
    assert calls  # the counter does see the calls ideals makes


def test_normalize_keeps_minimal_elements():
    X = normalize(3, [Partition([2, 1]), Partition([2, 2, 1]), Partition([3, 1])])
    assert X.gens == frozenset({Partition([2, 1])})
    # the empty partition absorbs everything
    U = normalize(3, [Partition([]), Partition([2, 1])])
    assert U.is_unit


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=200)
def test_normalize_keeps_exactly_the_minimal_elements(n, data):
    # the all-pairs reference over the list, repeats and the empty partition included
    raw = data.draw(
        st.lists(st.one_of(part_in(n, max_part=5), st.just(Partition([]))), min_size=1, max_size=12)
    )
    assert normalize(n, raw).gens == minimal_reference(raw)


def test_normalize_of_one_size_makes_no_comparisons(monkeypatch):
    # a generator can only lie below one of larger size
    calls = []

    def counting_leq(a, b):
        calls.append((a, b))
        return leq(a, b)

    gens = power_gens(3, 8, 5).gens
    monkeypatch.setattr(ideals, "leq", counting_leq)
    assert normalize(5, gens).gens == gens
    assert calls == []


def test_normalize_tests_its_antichain_once(monkeypatch):
    # the minimal-element pass alone; re-testing its result as an antichain made
    # 55,978 calls here
    calls = []

    def counting_leq(a, b):
        calls.append(1)
        return leq(a, b)

    monkeypatch.setattr(ideals, "leq", counting_leq)
    X = saturate(power_gens(3, 12, 6), 1)
    assert len(calls) <= 37_076
    assert X == IdealSpec(6, X.gens)  # which re-tests it in full


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=200)
def test_normalize_result_passes_the_full_check(n, data):
    raw = data.draw(
        st.lists(st.one_of(part_in(n, max_part=5), st.just(Partition([]))), max_size=12)
    )
    X = normalize(n, raw)
    assert IdealSpec(n, X.gens) == X


@given(st.integers(min_value=1, max_value=4), st.data())
def test_member_is_upward_closure_of_gens(n, data):
    X = data.draw(ideal_in(n))
    y = data.draw(part_in(n, max_part=6))
    assert member(X, y) == any(leq(g, y) for g in X.gens)


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=40)
def test_intersect_matches_brute_force_membership(n, data):
    A = data.draw(ideal_in(n))
    B = data.draw(ideal_in(n))
    C = intersect(A, B)
    for y in enumerate_partitions(n, 7):
        assert member(C, y) == (member(A, y) and member(B, y))


def test_intersect_via_sups():
    A = normalize(2, [Partition([2])])
    B = normalize(2, [Partition([1, 1])])
    assert intersect(A, B).gens == frozenset({Partition([2, 1])})


def test_subideal():
    assert subideal(power_gens(2, 3, 3), power_gens(2, 2, 3))
    assert not subideal(power_gens(2, 2, 3), power_gens(2, 3, 3))
    assert subideal(power_gens(2, 2, 3), symbolic_gens(2, 2, 3))


def test_subideal_checks_each_pair_once(monkeypatch):
    # an all-j sweep of Ext maps tests the containment of its pair once; a
    # mismatched n still raises on every call
    calls = []
    real = ideals.member
    monkeypatch.setattr(ideals, "member", lambda *a: calls.append(a) or real(*a))
    sub, sup = power_gens(2, 3, 3), power_gens(2, 2, 3)
    subideal.cache_clear()
    for j in range(10):
        ext.ext_map_parts(sub, sup, j, 3, 3)
    assert len(calls) == len(sub.gens)
    assert subideal.cache_info().misses == 1
    other = power_gens(2, 2, 4)
    for _ in range(2):
        with pytest.raises(ValueError, match="mismatched n: 3 vs 4"):
            subideal(sub, other)
    assert not subideal(sup, sub)  # the memo keys on the ordered pair


def test_saturate_examples():
    # stripping columns of height <= p, then re-normalizing
    X = normalize(3, [Partition([3, 1]), Partition([2, 2, 2])])
    S1 = saturate(X, 1)
    # (3,1) keeps only its height-2 column; the survivor absorbs (2,2,2)
    assert S1.gens == frozenset({Partition([1, 1])})
    # every column of (3,1) has height <= 2, so the generator collapses
    assert saturate(X, 2).is_unit
    Y = normalize(3, [Partition([2, 2, 2])])
    assert saturate(Y, 2).gens == Y.gens
    assert saturate(Y, 3).is_unit


def test_saturate_of_trivial_ideals():
    assert saturate(IdealSpec.unit(3), 1).is_unit
    assert saturate(IdealSpec.zero(3), 1).is_zero
    # p=0 keeps every column, p>n is out of range
    X = power_gens(2, 2, 3)
    assert saturate(X, 0).gens == X.gens
    with pytest.raises(ValueError):
        saturate(X, 4)


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=40)
def test_saturate_is_idempotent_and_grows(n, data):
    X = data.draw(ideal_in(n))
    for p in range(1, n + 1):
        S = saturate(X, p)
        assert subideal(X, S)
        assert saturate(S, p).gens == S.gens
        # saturating by a larger minor ideal removes at least as much
        if p < n:
            assert subideal(S, saturate(X, p + 1))


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=100)
def test_saturate_equals_the_conjugate_reference(n, data):
    X = data.draw(ideal_in(n, max_gens=6))
    for p in range(n + 1):
        assert saturate(X, p) == saturate_reference(X, p)


@pytest.mark.parametrize("p, d, n", [(1, 4, 3), (2, 5, 4), (3, 6, 5), (2, 4, 6), (6, 2, 6)])
def test_builders_equal_their_references(p, d, n):
    assert power_gens(p, d, n) == power_gens_reference(p, d, n)
    assert symbolic_gens(p, d, n) == symbolic_gens_reference(p, d, n)
    X = power_gens(p, d, n)
    for q in range(n + 1):
        assert saturate(X, q) == saturate_reference(X, q)
    for Y in (X, symbolic_gens(p, d, n), saturate(X, 1)):
        assert Y.sorted_gens() == sorted_gens_reference(Y)
        assert Y.to_json()["gens"] == [list(g) for g in sorted_gens_reference(Y)]


def test_power_gens_examples():
    X = power_gens(2, 2, 3)
    assert set(X.sorted_gens()) == {
        Partition([2, 2]),
        Partition([2, 1, 1]),
    }
    # cube of the maximal ideal in two rows: only shapes with <= 2 rows
    assert power_gens(1, 3, 2).gens == frozenset({Partition([3]), Partition([2, 1])})
    assert power_gens(3, 2, 3).gens == frozenset({Partition([2, 2, 2])})


def test_power_gens_degree_and_width():
    for p in range(1, 4):
        for d in range(1, 5):
            X = power_gens(p, d, 4)
            for g in X.gens:
                assert g.size == p * d and g.part(1) <= d


def test_symbolic_gens_examples():
    X = symbolic_gens(2, 2, 3)
    assert set(X.sorted_gens()) == {Partition([2, 2]), Partition([1, 1, 1])}
    Y = symbolic_gens(2, 3, 3)
    assert set(Y.sorted_gens()) == {Partition([3, 3]), Partition([2, 2, 1])}


def test_symbolic_equals_saturated_power():
    for n in range(1, 6):
        for p in range(2, n + 1):
            for d in range(1, 6):
                assert (
                    symbolic_gens(p, d, n).gens
                    == saturate(power_gens(p, d, n), p - 1).gens
                )


def test_power_symbolic_agree_for_p1_and_pn():
    for n in range(1, 5):
        for d in range(1, 5):
            assert power_gens(1, d, n).gens == symbolic_gens(1, d, n).gens
            assert power_gens(n, d, n).gens == symbolic_gens(n, d, n).gens


def test_succ_gens_worked_example():
    # bumping z=(4,4,4,3,1), l=2 inside P_6
    X = succ_gens(Partition([4, 4, 4, 3, 1]), 2, 6)
    assert set(X.sorted_gens()) == {
        Partition([5, 5, 5, 3, 1]),
        Partition([4, 4, 4, 4, 1]),
        Partition([4, 4, 4, 3, 2]),
        Partition([4, 4, 4, 3, 1, 1]),
    }


def test_yset_gens_worked_example():
    Y = yset_gens(Partition([4, 4, 4, 3, 1]), 2, 6)
    assert set(Y.sorted_gens()) == {
        Partition([5, 5, 5]),
        Partition([4, 4, 4, 4]),
        Partition([2, 2, 2, 2, 2]),
        Partition([1, 1, 1, 1, 1, 1]),
    }


def test_succ_is_intersection_of_principal_and_yset():
    # the successor ideal of (z, l) is (z) ∩ Y(z, l)
    cases = [
        (Partition([4, 4, 4, 3, 1]), 2, 6),
        (Partition([3, 3]), 1, 3),
        (Partition([2, 2, 2]), 0, 3),
        (Partition([5, 5, 5, 5]), 3, 4),
        (Partition([3, 3, 1]), 1, 4),
    ]
    for z, l, n in cases:
        P = normalize(n, [z])
        assert intersect(P, yset_gens(z, l, n)).gens == succ_gens(z, l, n).gens


def test_radical_index():
    assert radical_index(power_gens(2, 3, 4)) == 2
    assert radical_index(symbolic_gens(3, 2, 4)) == 3
    assert radical_index(normalize(3, [Partition([5]), Partition([2, 2])])) == 1


def test_str_and_json():
    X = power_gens(2, 2, 3)
    d = X.to_json()
    assert d["n"] == 3
    assert sorted(d["gens"]) == [[2, 1, 1], [2, 2]]


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=100)
def test_sorted_gens_and_json_keep_the_reference_order(n, data):
    X = data.draw(st.one_of(ideal_in(n, max_gens=8), st.just(IdealSpec.zero(n)),
                            st.just(IdealSpec.unit(n))))
    ordered = sorted_gens_reference(X)
    assert X.sorted_gens() == ordered
    assert X.to_json() == {"n": n, "gens": [list(g) for g in ordered]}


def _refuse(*args):
    raise AssertionError("computed before the shape check")


# each entry point that takes an (ideal, m, n), at a j or degree range it accepts
SHAPE_CHECKED = {
    "ext_graded": lambda X, m, n: ext.ext_graded(X, 4, m, n),
    "ext_map_parts": lambda X, m, n: ext.ext_map_parts(X, X, 4, m, n),
    "reg_quotient": regularity.reg_quotient,
    "kodaira_check": kodaira.kodaira_check,
    "quotient_hilbert_table": lambda X, m, n: schur.quotient_hilbert_table(X, 0, 5, m, n),
}


@pytest.mark.parametrize("name", sorted(SHAPE_CHECKED))
def test_entry_points_check_the_shape_first(name, monkeypatch):
    # with the labels and the containment test refusing to run, a matrix with
    # fewer rows than columns, or an ideal of another P_n, is still a ValueError
    for mod in (ext, kodaira, regularity, schur):
        monkeypatch.setattr(mod, "zset_general", _refuse)
    monkeypatch.setattr(ext, "subideal", _refuse)
    X = power_gens(2, 3, 3)
    with pytest.raises(ValueError, match="need n <= m, got m=2, n=3"):
        SHAPE_CHECKED[name](X, 2, 3)
    with pytest.raises(ValueError, match="lives in P_3, not P_4"):
        SHAPE_CHECKED[name](X, 4, 4)
