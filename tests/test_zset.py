"""Factor labels: the finite set of (z, l) pairs attached to an invariant ideal.

Every quotient by a proper nonzero invariant ideal filters into factor
modules indexed by these pairs; the closed-form enumerations for powers and
symbolic powers must agree with the general algorithm.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from detthick.ideals import (
    IdealSpec,
    normalize,
    power_gens,
    saturate,
    symbolic_gens,
)
from detthick.partitions import Partition, enumerate_partitions, leq
from detthick.zset import ZPair, ZSet, _check_pair, zset_general, zset_power, zset_symbolic


def zset_reference(X):
    """The label algorithm as first written: every candidate z against every
    generator truncated anew.  The reference the engine must reproduce."""
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


def _width_candidates(n, c):
    # partitions in the n x c box with first part exactly c
    if c == 0:
        yield Partition()
        return
    for tail in enumerate_partitions(n - 1, c):
        yield Partition((c,) + tail.parts)


@st.composite
def antichain_ideals(draw, rows=(1, 5), maxpart=7):
    n = draw(st.integers(*rows))
    gen = st.lists(st.integers(1, maxpart), min_size=1, max_size=n).map(
        lambda ps: Partition(sorted(ps, reverse=True))
    )
    return normalize(n, draw(st.lists(gen, min_size=1, max_size=5)))


@settings(max_examples=300, deadline=None)
@given(antichain_ideals())
def test_engine_matches_reference(X):
    assert zset_general(X) == zset_reference(X)


@settings(max_examples=60, deadline=None)
@given(antichain_ideals(rows=(6, 7), maxpart=5))
def test_engine_matches_reference_at_workload_rows(X):
    # the benchmark workloads run n = 6 and 7; the reference is slow there
    assert zset_general(X) == zset_reference(X)


def _labels(X):
    return {(pr.z.parts, pr.l) for pr in zset_general(X).pairs}


def test_walk_edge_cases():
    for n in range(1, 8):
        # one rectangle (c^n): each value below c at the bottom row is a label
        X = normalize(n, [Partition([3] * n)])
        assert _labels(X) == {(Partition([v] * n).parts, n - 1) for v in range(3)}
        # zero bottom rows never empty C, and every row stops below g_1 = 2
        X = normalize(n, [Partition([2])])
        assert _labels(X) == {((1,) * k, 0) for k in range(n + 1)}
        if n >= 2:
            for gens in ([[3, 3]], [[4, 1], [2, 2]], [[5], [3, 1], [2, 2, 2][:n]]):
                X = normalize(n, [Partition(g) for g in gens])
                assert zset_general(X) == zset_reference(X)
    for d in range(1, 6):
        # one row: the labels are the single rows shorter than d
        assert _labels(normalize(1, [Partition([d])])) == {
            (Partition([c]).parts, 0) for c in range(d)
        }


def random_proper_ideal(rng, n, max_part=5):
    while True:
        raws = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, n)
            raws.append(
                Partition(sorted((rng.randint(1, max_part) for _ in range(k)), reverse=True))
            )
        X = normalize(n, raws)
        if not (X.is_zero or X.is_unit):
            return X


def test_all_produced_pairs_satisfy_head_equality():
    # any emitted label has z_1 = ... = z_{l+1} and 0 <= l < n
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 4)
        X = random_proper_ideal(rng, n)
        for pr in zset_general(X).pairs:
            assert 0 <= pr.l <= n - 1
            head = [pr.z.part(i) for i in range(1, pr.l + 2)]
            assert len(set(head)) == 1


def test_every_row_the_walk_visits_leads_to_a_label():
    # the walk visits a tail (k, z_(k+1..n)) iff some label with l < k ends in
    # it: the prune leaves no tail whose completions all lie in I_X
    walk_code = next(
        c for c in zset_general.__wrapped__.__code__.co_consts
        if getattr(c, "co_name", None) == "walk"
    )
    visits = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is walk_code:
            visits.append((frame.f_locals["k"], frame.f_locals["tail"]))

    for X in (power_gens(2, 6, 4), symbolic_gens(2, 3, 5), normalize(4, [Partition([2])])):
        zset_general.cache_clear()
        visits.clear()
        sys.setprofile(count)
        try:
            Z = zset_general(X)
        finally:
            sys.setprofile(None)
        n = X.n
        padded = [(pr.z.parts + (0,) * (n - pr.z.nparts), pr.l) for pr in Z.pairs]
        tails = {(k, z[k:]) for z, l in padded for k in range(l + 1, n + 1)}
        assert len(visits) == len(tails)
        assert set(visits) == tails


def test_trivial_ideals_rejected():
    zset_general(power_gens(2, 2, 3))  # a warm cache must not answer for them
    with pytest.raises(ValueError):
        zset_general(IdealSpec.zero(3))
    with pytest.raises(ValueError):
        zset_general(IdealSpec.unit(3))


def test_check_pair_rejects_bad_labels():
    with pytest.raises(RuntimeError):
        _check_pair(ZPair(Partition([2, 1]), 1), 3)  # z_1 != z_2
    with pytest.raises(RuntimeError):
        _check_pair(ZPair(Partition([1, 1, 1]), 3), 3)  # l = n


def test_equal_ideals_share_one_label_set():
    X = power_gens(2, 3, 3)
    Y = IdealSpec(3, frozenset(Partition(g.parts) for g in X.gens))
    assert X is not Y and X == Y
    assert zset_general(X) is zset_general(Y)


def test_reduced_determinantal_labels():
    # I_{p x p minors} has the single label (0, p-1); for p = n the walk
    # empties C at the bottom row
    for n in range(1, 8):
        for p in range(1, n + 1):
            X = normalize(n, [Partition([1] * p)])
            Z = zset_general(X)
            assert {(pr.z.parts, pr.l) for pr in Z.pairs} == {((), p - 1)}


def test_principal_single_row():
    X = normalize(2, [Partition([3]), Partition([1, 1])])
    Z = zset_general(X)
    assert {(pr.z.parts, pr.l) for pr in Z.pairs} == {((), 0), ((1,), 0), ((2,), 0)}
    # a label equals the plain pair (z, l), and z the tuple of its parts
    assert Z.pairs == {((), 0), ((1,), 0), ((2,), 0)}
    assert ZPair(Partition([2]), 0) == (Partition([2]), 0)
    with pytest.raises(TypeError):
        iter(Z)  # a label set does not unpack as (n, pairs)


def test_closed_forms_match_general_algorithm():
    for n in range(1, 7):
        for p in range(1, n + 1):
            for d in range(1, 9):
                assert (
                    zset_general(power_gens(p, d, n)).pairs
                    == zset_power(p, d, n).pairs
                )
                assert (
                    zset_general(symbolic_gens(p, d, n)).pairs
                    == zset_symbolic(p, d, n).pairs
                )
    # the sizes the benchmark workloads use: the family tables' powers, and
    # the n = 7 minors and symbolic powers of the weight sweep
    for p, d, n in [(3, 12, 6), (3, 10, 6), (2, 10, 5)]:
        assert zset_general(power_gens(p, d, n)) == zset_power(p, d, n)
    for p in range(1, 8):
        for d in range(1, 5):
            assert zset_general(power_gens(p, d, 7)) == zset_power(p, d, 7)
            assert zset_general(symbolic_gens(p, d, 7)) == zset_symbolic(p, d, 7)


def test_power_labels_level_bound():
    # a d-th power of the p x p minors only produces levels below p
    for n in range(2, 5):
        for p in range(1, n + 1):
            for d in range(1, 5):
                for pr in zset_power(p, d, n).pairs:
                    assert 0 <= pr.l <= p - 1


def test_symbolic_labels():
    # symbolic powers live entirely at level p-1, cut out by a tail bound
    for n in range(2, 5):
        for p in range(1, n + 1):
            for d in range(1, 5):
                Z = zset_symbolic(p, d, n)
                for pr in Z.pairs:
                    assert pr.l == p - 1
                    tail = sum(pr.z.part(i) for i in range(p, n + 1))
                    assert tail <= d - 1


def test_worked_example_top_level_slice():
    # d = 7 power of 2 x 2 minors in three rows: the level-0 labels
    Z = zset_power(2, 7, 3)
    level0 = sorted(pr.z.parts for pr in Z.pairs if pr.l == 0)
    assert level0 == [
        (4, 4, 3),
        (4, 4, 4),
        (5, 4, 3),
        (5, 4, 4),
        (5, 5, 2),
        (5, 5, 3),
        (6, 4, 3),
        (6, 5, 2),
        (6, 6, 1),
    ]
    assert len(Z.pairs) == 25


def test_saturation_drops_low_levels():
    rng = random.Random(3)
    cases = 0
    while cases < 30:
        n = rng.randint(2, 4)
        X = random_proper_ideal(rng, n)
        Z = zset_general(X)
        for p in range(1, n):
            S = saturate(X, p)
            kept = frozenset(pr for pr in Z.pairs if pr.l >= p)
            if S.is_unit:
                assert not kept
            else:
                assert zset_general(S).pairs == kept
        cases += 1


def test_sorted_pairs_deterministic():
    Z = zset_power(2, 3, 3)
    sp = Z.sorted_pairs()
    assert sp == sorted(sp, key=ZPair.sort_key)
    assert len(sp) == len(Z.pairs)


def test_to_json_shape():
    Z = zset_power(2, 2, 3)
    doc = Z.to_json()
    assert doc["n"] == 3
    assert all(set(item) == {"z", "l"} for item in doc["pairs"])
