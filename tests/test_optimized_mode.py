"""The correctness checks hold under ``python -O``, which strips every ``assert``.

One ``python -O`` subprocess computes the worked 3 x 3 Ext slice, runs the
Weyl-product kernel on weights that break each of its checks, feeds the Ext
components a walk whose weights break the last-entry check, and prints what
it saw as one JSON line.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = r"""
import json, sys
from detthick import ext, schur
from detthick.ext import ext_graded
from detthick.ideals import power_gens


def raises(*call):
    try:
        call[0](*call[1:])
    except RuntimeError:
        return True
    return False


res = ext_graded(power_gens(2, 7, 3), 9, 3, 3, window=(-22, -22))
out = {
    "optimize": sys.flags.optimize,
    "slice": {",".join(map(str, c.pair.z.parts)): c.dim for c in res.components},
    "table": [list(row) for row in res.table],
    "dominance": raises(schur.expanded_dims, [(-2, -4, -3)], 1, 4, 3),
    "expansion_below": raises(schur.expanded_dims, [(-4, -5, -6)], 1, 4, 3),
    "expansion_above": raises(schur.expanded_dims, [(0, 0, -6)], 1, 4, 3),
    # only the free middle column against the fixed first breaks dominance,
    # at a value met after the memo has served 3 once
    "dominance_free_fixed": raises(
        schur.expanded_dims, [(5, 3, 0), (5, 2, 0), (5, 3, 0), (5, 6, 0)], 3, 3, 3
    ),
}
walk = ext._walk
ext._walk = lambda *a: [w[:-1] + (w[-1] - 1,) for w in walk(*a)]
out["last_entry"] = raises(ext_graded, power_gens(2, 7, 3), 4, 3, 3)
ext._walk = walk
schur._superfactorial = lambda k: 7**k  # 7**6 does not divide the product 4 of (0, 0, 0)
out["divisibility"] = raises(schur.expanded_dims, [(0, 0, 0)], 3, 3, 3)
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
    assert got["dominance_free_fixed"] and got["last_entry"]
    assert got["divisibility"]
