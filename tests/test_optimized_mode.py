"""The correctness checks hold under ``python -O``, which strips every ``assert``.

One ``python -O`` subprocess computes the worked 3 x 3 Ext slice, runs the
pricing walk on weights and hand-built regions that break each of its checks,
feeds the Ext components an index whose regions break the last-entry check,
feeds the Kodaira check an Ext index whose in-range chain breaks its cap
check, builds a chain table with a ``_region`` that refuses a walked chain,
and prints what it saw as one JSON line.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = r"""
import json, sys
from collections import defaultdict
from detthick import ext, kodaira, schur
from detthick.ext import ext_graded
from detthick.ideals import power_gens


def raises(*call):
    try:
        call[0](*call[1:])
    except RuntimeError:
        return True
    return False


def priced(fixed_at, lower, cap_at, lo, hi, s, m):
    # the pricing walk on a hand-built GL_3 region in the degrees lo..hi
    region = schur._bounded(fixed_at, lower, cap_at)
    return raises(schur._priced, region, lo, hi, s, m, 3, defaultdict(list))


def one_weight(lam, s, m):
    # one GL_3 weight, a region of its own with every entry fixed
    return priced(lam, lam, lam, sum(lam), sum(lam), s, m)


res = ext_graded(power_gens(2, 7, 3), 9, 3, 3, window=(-22, -22))
out = {
    "optimize": sys.flags.optimize,
    "slice": {",".join(map(str, c.pair.z.parts)): c.dim for c in res.components},
    "table": [list(row) for row in res.table],
    "dominance": one_weight((-2, -4, -3), 1, 4),
    "expansion_below": one_weight((-4, -5, -6), 1, 4),
    "expansion_above": one_weight((0, 0, -6), 1, 4),
    # (v, w, 0) in degrees 4 and 5: w takes 2, then 1 and 2, then 0 and 1, and
    # only then -1, which breaks dominance against the fixed last entry
    "dominance_free_fixed": priced((None, None, 0), (2, -1, 0), (None, None, 0), 4, 5, 3, 3),
    # a fixed entry above the fixed entry before it, after a free one: raised, not pruned
    "dominance_last_head": priced((None, 3, 4), (4, 3, 4), (None, 3, 4), 11, 11, 3, 3),
    # (5, v, w) in degree 9: at s = 3 the last entry must be >= 0, and w falls
    # 2, 1, 0 before it reaches -1
    "expansion_varying": priced((5, None, None), (5, 2, -1), (5, None, None), 9, 9, 3, 3),
}
# an index whose regions fix the last entry one below l - z_l - m
index = ext._ext_index


def lower_last(*a):
    labels, floors, entries = index(*a)
    lower = lambda r: r._replace(fixed_at=r.fixed_at[:-1] + (r.fixed_at[-1] - 1,))
    lowered = lambda rows: [(pair, tuple((tup, lower(r)) for tup, r in c)) for pair, c in rows]
    return labels, floors, {j: lowered(rows) for j, rows in entries.items()}


ext._ext_index = lower_last
out["last_entry"] = raises(ext_graded, power_gens(2, 7, 3), 9, 3, 3)
ext._ext_index = index
# power:2:2 over 3 x 3 has one in-range chain, at j = 6; lift its first cap above -m


def lift_first_cap(*a):
    labels, floors, entries = index(*a)
    lift = lambda chains: tuple((tup, r._replace(cap_at=(-2,) + r.cap_at[1:])) for tup, r in chains)
    return labels, floors, {j: [(pair, lift(c)) for pair, c in rows] for j, rows in entries.items()}


kodaira._ext_index = lift_first_cap
out["kodaira_cap"] = raises(kodaira.kodaira_check, power_gens(2, 2, 3), 3, 3)
kodaira._ext_index = index
# a _region that finds no weight for any chain the walk yields
region = ext._region
ext._region = lambda *a: None
ext._chains_by_j.cache_clear()
ext._ext_index.cache_clear()
out["empty_region"] = raises(ext_graded, power_gens(2, 7, 3), 9, 3, 3)
ext._region = region
schur._plan.cache_clear()  # a plan built before the patch would keep the true denominator
schur._superfactorial = lambda k: 7**k  # 7**6 does not divide the product 4 of (0, 0, 0)
out["divisibility"] = one_weight((0, 0, 0), 3, 3)
print(json.dumps(out))
"""


def test_checks_and_worked_slice_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["optimize"] == 1
    assert got["slice"] == {"5,5,3": 36, "5,4,4": 9, "6,6,1": 441, "6,5,2": 576, "6,4,3": 225}
    assert got["table"] == [[-22, 1287]]
    assert got["dominance"] and got["expansion_below"] and got["expansion_above"]
    assert got["dominance_free_fixed"] and got["dominance_last_head"]
    assert got["expansion_varying"] and got["last_entry"]
    assert got["kodaira_cap"]
    assert got["empty_region"]
    assert got["divisibility"]
