"""The correctness checks hold under ``python -O``, which strips every ``assert``.

One ``python -O`` subprocess computes the worked 3 x 3 Ext slice, runs the
Weyl-product kernel on weights and runs that break each of its checks, feeds
the Ext components a run walker whose weights break the last-entry check,
feeds the Kodaira check an Ext index whose in-range chain breaks its cap
check, and prints what it saw as one JSON line.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = r"""
import json, sys
from detthick import ext, kodaira, schur
from detthick.ext import ext_graded
from detthick.ideals import power_gens


def raises(*call):
    try:
        call[0](*call[1:])
    except RuntimeError:
        return True
    return False


def one_weight(lam, s, m):
    # the Weyl-product kernel on one GL_3 weight, a run of its own with every entry free
    run = (lam[:-1], sum(lam) - lam[-1], lam[-1], lam[-1])
    return raises(schur._run_dims, [run], (None,) * 3, s, m, 3)


res = ext_graded(power_gens(2, 7, 3), 9, 3, 3, window=(-22, -22))
out = {
    "optimize": sys.flags.optimize,
    "slice": {",".join(map(str, c.pair.z.parts)): c.dim for c in res.components},
    "table": [list(row) for row in res.table],
    "dominance": one_weight((-2, -4, -3), 1, 4),
    "expansion_below": one_weight((-4, -5, -6), 1, 4),
    "expansion_above": one_weight((0, 0, -6), 1, 4),
    # runs of (5, v, 0) with the first and last columns fixed: only the
    # varying middle column against the fixed last breaks dominance, at a
    # value met after the memo has served 3 once
    "dominance_free_fixed": raises(
        schur._run_dims, [((5,), 5, 2, 3), ((5,), 5, 3, 3), ((5,), 5, -1, -1)], (5, None, 0), 3, 3, 3
    ),
    # one run (5, 3, v), v = 3, 4: the second weight breaks dominance against the head
    "dominance_last_head": raises(schur._run_dims, [((5, 3), 8, 3, 4)], (None,) * 3, 3, 3, 3),
    # at s = 3 the varying last entry must be >= 0; the second run's is not
    "expansion_varying": raises(
        schur._run_dims, [((5, 3), 8, 0, 1), ((5, 3), 8, -1, -1)], (None,) * 3, 3, 3, 3
    ),
}
# a run walker that lowers the last entry of every weight where it emits it;
# at j = 9 the chains with l = 0 vary the last entry
walk = ext._walk
ext._walk = lambda *a: [(h, ht, b - 1, e - 1) if len(h) == 2 else (h, ht, b, e) for h, ht, b, e in walk(*a)]
out["last_entry"] = raises(ext_graded, power_gens(2, 7, 3), 9, 3, 3)
ext._walk = walk
# power:2:2 over 3 x 3 has one in-range chain, at j = 6; lift its first cap above -m
index = kodaira._ext_index


def lift_first_cap(*a):
    labels, floors, entries = index(*a)
    lift = lambda chains: tuple((tup, r._replace(cap_at=(-2,) + r.cap_at[1:])) for tup, r in chains)
    return labels, floors, {j: [(pair, lift(c)) for pair, c in rows] for j, rows in entries.items()}


kodaira._ext_index = lift_first_cap
out["kodaira_cap"] = raises(kodaira.kodaira_check, power_gens(2, 2, 3), 3, 3)
kodaira._ext_index = index
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
    assert got["divisibility"]
