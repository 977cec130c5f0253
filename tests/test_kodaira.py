import pytest

from detthick import ext, kodaira
from detthick.ext import index_tuples
from detthick.ideals import IdealSpec, normalize, power_gens, saturate, symbolic_gens
from detthick.kodaira import VanishingReport, kodaira_check, sing_codim
from detthick.partitions import Partition
from detthick.zset import zset_general
from oracles import components_order_reference


def mechanism_reference(X: IdealSpec, m: int, n: int) -> bool:
    """The first mechanism scan: every chain of every label, feasible or not,
    whose j lies in the scanned range mn - m - n + 2 .. mn - 1 has s = 0."""
    mn = m * n
    return not any(
        tup.s != 0 and mn - m - n + 2 <= tup.j <= mn - 1
        for pair in zset_general(X).pairs
        for tup in index_tuples(pair.z, pair.l, m, n)
    )


def check_against_reference(X: IdealSpec, m: int, n: int, jmax: int) -> VanishingReport:
    """kodaira_check(X) beside the walk it replaced: every Ext component at each
    scanned k in the twists 1..jmax, by the Ext order reference, and the
    mechanism scan."""
    rep = kodaira_check(X, m, n, jmax)
    mn = m * n
    pairs = zset_general(X).sorted_pairs()
    want = ()
    for k in rep.k_checked:
        want += components_order_reference(pairs, mn - 1 - k, m, n, (-mn + 1, -mn + jmax))
    assert rep.violations == want, (X, m, n)
    assert rep.mechanism_ok == mechanism_reference(X, m, n), (X, m, n)
    return rep


def test_sing_codim_values():
    assert sing_codim(2, 3, 3) == 4
    assert sing_codim(2, 6, 4) == 8
    assert sing_codim(3, 4, 4) == 5
    assert sing_codim(4, 6, 5) == 6
    with pytest.raises(ValueError):
        sing_codim(1, 3, 3)
    with pytest.raises(ValueError):
        sing_codim(4, 3, 3)


def test_vanishing_square_power():
    rep = kodaira_check(power_gens(2, 2, 3), 3, 3, jmax=12)
    assert rep.passed
    assert rep.mechanism_ok
    assert rep.violations == ()
    assert rep.k_checked == tuple(range(3 + 3 - 2))


def test_vanishing_across_small_corpus():
    for n in range(2, 5):
        for m in (n, n + 1):
            for p in range(2, n + 1):
                for d in range(1, 4):
                    for X in (
                        power_gens(p, d, n),
                        symbolic_gens(p, d, n),
                        saturate(power_gens(p, d, n), 1),
                    ):
                        if X.is_unit:
                            continue
                        rep = check_against_reference(X, m, n, jmax=15)
                        assert rep.passed and rep.mechanism_ok, (n, m, p, d)


def test_vanishing_for_random_antichains():
    # any proper nonzero invariant ideal, single-row generators (p = 1) included
    import random

    rng = random.Random(23)
    done = 0
    while done < 12:
        n = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, n)
            parts = sorted((rng.randint(1, 4) for _ in range(k)), reverse=True)
            parts = [max(v, 1) for v in parts]
            gens.append(Partition(parts))
        X = normalize(n, gens)
        if X.is_unit or X.is_zero:
            continue
        rep = check_against_reference(X, n + 1, n, jmax=15)
        assert rep.passed and rep.mechanism_ok, X
        done += 1


def test_report_json():
    rep = kodaira_check(power_gens(2, 2, 3), 3, 3, jmax=6)
    doc = rep.to_json()
    assert doc["passed"] is True
    assert doc["violations"] == []
    assert doc["jmax"] == 6


def test_validation_errors():
    with pytest.raises(ValueError):
        kodaira_check(power_gens(2, 2, 3), 2, 3, jmax=5)  # m < n
    with pytest.raises(ValueError):
        kodaira_check(power_gens(2, 2, 3), 3, 3, jmax=0)
    with pytest.raises(ValueError):
        kodaira_check(IdealSpec.unit(3), 3, 3, jmax=5)


@pytest.mark.parametrize(
    "lift",
    [
        lambda tup, region: (tup, region._replace(cap_at=(-2, -3, -3))),  # a cap above -m
        lambda tup, region: (tup._replace(s=1), region),  # s = 1 in range
    ],
    ids=["cap", "s"],
)
def test_chain_breaking_the_mechanism_raises(monkeypatch, lift):
    # power:2:2 over 3 x 3 has one in-range chain, (s, t) = (0, (0, 1)) at j = 6
    real = kodaira._ext_index

    def index(zs, m, n):
        labels, floors, entries = real(zs, m, n)
        return labels, floors, {
            j: [(pair, tuple(lift(tup, region) for tup, region in chains)) for pair, chains in rows]
            for j, rows in entries.items()
        }

    monkeypatch.setattr(kodaira, "_ext_index", index)
    with pytest.raises(RuntimeError, match=r"chain .* of .* reaches above degree -9"):
        kodaira_check(power_gens(2, 2, 3), 3, 3)


def test_kodaira_walks_no_weights(monkeypatch):
    # power:2:2 over 3 x 3 has an in-range chain, which a walk would visit
    X = power_gens(2, 2, 3)
    warm = kodaira_check(X, 3, 3)  # memoises the chain tables

    def walk(*args):
        raise AssertionError("kodaira_check walked a weight region")

    monkeypatch.setattr(ext, "_priced", walk)
    assert kodaira_check(X, 3, 3) == warm


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: kodaira_check(power_gens(1, 1, 1), 2, 1), "need n >= 2, got n=1"),
        (lambda: kodaira_check(power_gens(1, 1, 1), 1, 1), "need n >= 2, got n=1"),
    ],
    ids=["m-2", "m-1"],
)
def test_argument_checks_raise(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert fragment in str(info.value)
