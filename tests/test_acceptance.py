"""Acceptance gate: one test per advertised capability, with runtime caps.

Each test prints a single PASS/FAIL line so the whole gate reads as a
checklist under `pytest -v -s tests/test_acceptance.py`.  Expected values
are either reproduced from the worked example, derived from independent
in-test oracles, or stated closed forms; nothing here is tuned to the
implementation.
"""

import json
import random
import time
from contextlib import contextmanager

from detthick import ext
from detthick.ext import ext_graded, ext_map_parts
from detthick.ideals import (
    intersect,
    member,
    normalize,
    power_gens,
    saturate,
    symbolic_gens,
)
from detthick.kodaira import kodaira_check
from detthick.partitions import Partition, enumerate_partitions
from detthick.regularity import (
    NEG_INF,
    has_linear_resolution,
    r_bruteforce,
    r_closed,
    reg_j,
    reg_power_family,
)
from detthick.schur import (
    j_graded_dim,
    ring_graded_dim,
    schur_dim,
)
from detthick.zset import ZPair, zset_general, zset_power, zset_symbolic
from detthick.cli import run as cli_run
from oracles import quotient_graded_dim_reference


@contextmanager
def checked(label, max_seconds):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"{label}: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"{label}: PASS ({elapsed:.2f}s)")
    assert elapsed < max_seconds, f"{label} exceeded {max_seconds}s cap: {elapsed:.2f}s"


def test_criterion_1_worked_example_ext_and_image():
    with checked("1. worked example: top Ext slice and image of the power map", 1.0):
        res = ext_graded(power_gens(2, 7, 3), 9, 3, 3, window=(-22, -22))
        dims = sorted(c.dim for c in res.components)
        assert dims == sorted([6**2, 3**2, 21**2, 24**2, 15**2])
        assert dict(res.table) == {-22: 1287}
        by_z = {c.pair.z.parts: c.dim for c in res.components}
        assert by_z == {
            (5, 5, 3): 36,
            (5, 4, 4): 9,
            (6, 6, 1): 441,
            (6, 5, 2): 576,
            (6, 4, 3): 225,
        }
        parts = ext_map_parts(power_gens(2, 7, 3), power_gens(2, 6, 3), 9, 3, 3)
        assert len(parts.image.components) == 1
        comp = parts.image.components[0]
        assert comp.pair.z.parts == (4, 4, 3) and comp.pair.l == 0
        assert comp.degree == -20 and comp.dim == 9
        assert parts.image.graded() == {-20: 9}


def test_criterion_2_level_zero_table_via_cli():
    # expected rows for the 3x3, p=2 table; group contents compare as sets
    # because display order inside a size group is not part of the contract
    expected = {
        1: [],
        2: [[(1, 1, 1)]],
        3: [[(2, 2, 1)]],
        4: [[(2, 2, 2)], [(3, 2, 2), (3, 3, 1)]],
        5: [[(3, 3, 2)], [(3, 3, 3), (4, 4, 1), (4, 3, 2)]],
        6: [[(3, 3, 3)], [(4, 4, 2), (4, 3, 3)],
            [(4, 4, 3), (5, 5, 1), (5, 4, 2), (5, 3, 3)]],
        7: [[(4, 4, 3)], [(4, 4, 4), (5, 5, 2), (5, 4, 3)],
            [(5, 5, 3), (5, 4, 4), (6, 6, 1), (6, 5, 2), (6, 4, 3)]],
    }
    with checked("2. worked example: level-0 table over d=1..7 via the CLI", 1.0):
        doc = json.loads(cli_run(["bblsz-table", "--dmax", "7", "--json"]))
        rows = doc["result"]["rows"]
        assert [r["d"] for r in rows] == list(range(1, 8))
        for row in rows:
            got = [
                [tuple(z) for z in group] for group in row["groups"]
            ]
            want = expected[row["d"]]
            assert len(got) == len(want), row
            for g_group, w_group in zip(got, want):
                assert set(g_group) == set(w_group), (row["d"], g_group, w_group)


def test_criterion_3_optimization_closed_form():
    with checked("3. optimization: brute force equals the closed form", 60.0):
        for n in range(3, 7):
            for p in range(2, n):
                for l in range(0, p):
                    for d in range(n - 1, n + 3):
                        brute = r_bruteforce(l, p, n, d)
                        formula = p * d - 1 + l * (p - 1 - l)
                        assert brute == formula == r_closed(l, p, n, d), (l, p, n, d)
        for n in range(2, 6):
            for d in range(1, 7):
                assert r_bruteforce(n - 1, n, n, d) == n * d - 1 == r_closed(n - 1, n, n, d)
                for l in range(0, n - 1):
                    assert r_bruteforce(l, n, n, d) == NEG_INF == r_closed(l, n, n, d)


def test_criterion_4_power_regularity_grids():
    with checked("4. regularity of powers: all four closed-form grids", 120.0):
        for n in range(3, 7):
            for p in range(2, n):
                for d in range(n - 1, n + 3):
                    odd_term = ((p - 1) // 2) ** 2
                    even_term = (p - 2) * p // 4
                    expect = p * d + (odd_term if p % 2 else even_term)
                    assert reg_power_family(p, d, n, n, "power") == expect, (p, d, n)
                    assert reg_power_family(p, d, n, n, "symbolic") == p * d, (p, d, n)
        for n in range(3, 8):
            for d in range(1, n - 1):
                assert reg_power_family(2, d, n, n, "power") == d + n - 1, (d, n)
                assert reg_power_family(2, d, n, n, "symbolic") == d + n - 1, (d, n)
        for n in range(4, 7):
            for p in range(3, n):
                for d in range(1, n - 1):
                    assert reg_power_family(p, d, n, n, "symbolic") > p * d, (p, d, n)


def test_criterion_5_linear_resolution_trichotomy():
    with checked("5. linear resolutions: exactly p=1, p=n, or p=2 with d >= n-1", 60.0):
        for n in range(1, 7):
            for p in range(1, n + 1):
                for d in range(1, 9):
                    expect = p == 1 or p == n or (p == 2 and d >= n - 1)
                    assert has_linear_resolution(p, d, n) == expect, (p, d, n)


def test_criterion_6_oracle_equivalences():
    with checked("6. oracle equivalences: labels, Hilbert, Cauchy, lattice ops", 120.0):
        # (a) closed-form label sets against the general algorithm
        for n in range(1, 6):
            for p in range(1, n + 1):
                for d in range(1, 7):
                    assert (
                        zset_general(power_gens(p, d, n)).pairs
                        == zset_power(p, d, n).pairs
                    )
                    assert (
                        zset_general(symbolic_gens(p, d, n)).pairs
                        == zset_symbolic(p, d, n).pairs
                    )
        # (b) filtration dimensions add up to the quotient dimensions
        rng = random.Random(2024)
        done = 0
        while done < 20:
            n = rng.randint(1, 4)
            m = rng.randint(n, 5)
            raws = []
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(1, n)
                raws.append(
                    Partition(sorted((rng.randint(1, 4) for _ in range(k)), reverse=True))
                )
            X = normalize(n, raws)
            if X.is_zero or X.is_unit:
                continue
            pairs = zset_general(X).sorted_pairs()
            for r in range(0, 11):
                total = sum(j_graded_dim(p.z, p.l, r, m, n) for p in pairs)
                assert total == quotient_graded_dim_reference(X, r, m, n), (X, m, n, r)
            done += 1
        # (c) Cauchy identity
        for m in range(1, 5):
            for n in range(1, m + 1):
                for r in range(0, 9):
                    total = sum(
                        schur_dim(x.parts, m) * schur_dim(x.parts, n)
                        for x in enumerate_partitions(n, r, size=r)
                    )
                    assert total == ring_graded_dim(r, m, n)
        # (d) intersection against brute-force membership
        done = 0
        while done < 15:
            n = rng.randint(1, 3)
            def draw():
                raws = []
                for _ in range(rng.randint(1, 3)):
                    k = rng.randint(1, n)
                    raws.append(
                        Partition(sorted((rng.randint(1, 4) for _ in range(k)), reverse=True))
                    )
                return normalize(n, raws)
            A, B = draw(), draw()
            C = intersect(A, B)
            for y in enumerate_partitions(n, 7):
                assert member(C, y) == (member(A, y) and member(B, y))
            done += 1
        # (e) symbolic powers as saturated powers
        for n in range(1, 6):
            for p in range(2, n + 1):
                for d in range(1, 6):
                    assert (
                        symbolic_gens(p, d, n).gens
                        == saturate(power_gens(p, d, n), p - 1).gens
                    )


def test_criterion_7_ext_regularity_duality():
    with checked("7. duality: factor regularity from minimal Ext weights", 60.0):
        for n in range(2, 5):
            for m in (n, n + 1):
                for z in enumerate_partitions(4, 4):
                    if z.nparts > n:
                        continue
                    for l in range(0, n):
                        head = {z.part(i) for i in range(1, l + 2)}
                        if len(head) > 1:
                            continue
                        # the feasible chains and their regions, as the Ext engine holds them
                        best = NEG_INF
                        for j, chains in ext._chains_by_j(ZPair(z, l), m, n).items():
                            for _, region in chains:
                                best = max(best, -sum(region.lower) - j)
                        assert best == reg_j(z, l, n), (z, l, m, n)


def test_criterion_8_kodaira_vanishing():
    with checked("8. vanishing scan passes on the whole corpus, jmax=15", 120.0):
        for n in range(2, 5):
            for m in (n, n + 1):
                for p in range(2, n + 1):
                    for d in range(1, 5):
                        for X in (
                            power_gens(p, d, n),
                            symbolic_gens(p, d, n),
                            saturate(power_gens(p, d, n), 1),
                        ):
                            if X.is_unit:
                                continue
                            rep = kodaira_check(X, m, n, jmax=15)
                            assert rep.passed, (n, m, p, d, X)
                            assert rep.mechanism_ok, (n, m, p, d, X)


def test_criterion_9_injective_ext_maps():
    with checked("9. injectivity: empty kernels along the standard inclusions", 120.0):
        # symbolic-power chains
        for n in range(2, 5):
            for m in (n, n + 1):
                for p in range(1, n + 1):
                    for d in range(1, 4):
                        sub = symbolic_gens(p, d + 1, n)
                        sup = symbolic_gens(p, d, n)
                        for j in range(1, m * n + 1):
                            parts = ext_map_parts(sub, sup, j, m, n)
                            assert not parts.kernel.pairs, (n, m, p, d, j)
        # every ideal into its saturation
        rng = random.Random(77)
        corpus = []
        for n in range(2, 5):
            for p in range(2, n + 1):
                for d in range(1, 4):
                    corpus.append((power_gens(p, d, n), n))
        done = 0
        while done < 10:
            n = rng.randint(2, 4)
            raws = []
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(1, n)
                raws.append(
                    Partition(sorted((rng.randint(1, 4) for _ in range(k)), reverse=True))
                )
            X = normalize(n, raws)
            if X.is_zero or X.is_unit:
                continue
            corpus.append((X, n))
            done += 1
        for X, n in corpus:
            for p in range(1, n):
                S = saturate(X, p)
                if S.is_unit:
                    continue
                for j in range(1, n * n + 1):
                    parts = ext_map_parts(X, S, j, n, n)
                    assert not parts.kernel.pairs, (X, p, j)
