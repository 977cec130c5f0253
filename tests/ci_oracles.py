"""Oracle checks at the aim-1 sizes, too slow for the tier-1 suite: one function per CI step.

Each check compares a fast path of the package with its reference or a second
method, prints one line per case that agrees, and exits with a message naming
the first case that does not.  Run all of them, or the ones named, with

    PYTHONPATH=src python tests/ci_oracles.py [check ...]

from the repository root; the references come from ``tests/oracles.py``.
"""

import json
import sys
import timeit
from collections import defaultdict

from detthick import cli, ext, schur
from detthick.ideals import power_gens, saturate, symbolic_gens
from detthick.partitions import enumerate_partitions
from detthick.regularity import closed_form_valid, has_linear_resolution, r_bruteforce, reg_j
from detthick.zset import zset_general, zset_power
from oracles import (
    enumerate_partitions_reference,
    power_gens_reference,
    r_bruteforce_reference,
    reg_j_by_chains,
    saturate_reference,
    sorted_gens_reference,
    symbolic_gens_reference,
)


def label_walk():
    """Label walk equals the closed form at the aim-1 sizes."""
    for p, d, n in [(2, 20, 6), (3, 14, 6)]:
        Z = zset_general(power_gens(p, d, n))
        if Z != zset_power(p, d, n):
            sys.exit(f"power_gens({p},{d},{n}): label walk and closed form differ")
        print(f"power_gens({p},{d},{n}): {len(Z.pairs)} labels agree")


def chain_tables():
    """Chain table equals the candidate scan."""
    shapes = [("power_gens(3,14,6)", power_gens(3, 14, 6), 7),
              ("symbolic_gens(5,5,7)", symbolic_gens(5, 5, 7), 9),
              ("power_gens(2,20,6)", power_gens(2, 20, 6), 6)]
    for name, X, m in shapes:
        n, labels = X.n, zset_general(X).sorted_pairs()
        for pair in labels:
            scan = {}
            for tup in ext.index_tuples(pair.z, pair.l, m, n):
                region = ext._region(pair.z, pair.l, tup.t, tup.s, m, n)
                if region is not None:
                    scan.setdefault(tup.j, []).append((tup, region))
            walked = [(j, list(chains)) for j, chains in ext._chains_by_j(pair, m, n).items()]
            if walked != list(scan.items()):
                sys.exit(f"{name} at {m}x{n}: the chain table of {pair} differs from the scan")
        print(f"{name} at {m}x{n}: the chain tables of {len(labels)} labels agree")


def point_labels():
    """Each l = 0 label's point component equals its region walk."""
    for name, X, m in [("power_gens(2,20,6)", power_gens(2, 20, 6), 6),
                       ("power_gens(3,14,6)", power_gens(3, 14, 6), 7)]:
        n = X.n
        points = [pair for pair in zset_general(X).sorted_pairs() if not pair.l]
        for pair in points:
            (tup,) = ext.index_tuples(pair.z, 0, m, n)
            region = ext._region(pair.z, 0, tup.t, tup.s, m, n)
            chains = ext._chains_by_j(pair, m, n)[tup.j]
            lam, degree = region.fixed_at, region.min_rest[0]
            # the same weight with its last entry free but capped at its value: the plan walk
            walked = defaultdict(list)
            freed = schur._bounded((*lam[:-1], None), lam, lam)
            schur._priced(
                freed, degree, degree, 0, m, n, walked, ext.ExtComponent, (pair, 0, tup.t)
            )
            got = ext._components_for_pairs([(pair, chains)], m, n, (degree, degree))
            want = (tuple(walked[degree]), ((degree, got[0][0].dim),))
            if chains != ((tup, region),) or got != want:
                sys.exit(f"{name} at {m}x{n}: the point component of {pair} differs from its walk")
            if reg_j(pair.z, 0, n) != reg_j_by_chains(pair.z, 0, n):
                sys.exit(f"{name}: reg_j of {pair} differs from the chain sum")
        print(f"{name} at {m}x{n}: the {len(points)} l = 0 labels agree")


def regularity_search():
    """Regularity search equals the reference at item 15's sizes."""
    cases = [(l, p, n, d) for n in range(3, 10) for p in range(2, n)
             for l in range(p) for d in range(1, n - 1)]
    for case in cases:
        if closed_form_valid(*case) or r_bruteforce(*case) != r_bruteforce_reference(*case):
            sys.exit(f"level case (l, p, n, d) = {case}: the search differs from the reference")
    print(f"{len(cases)} level cases with 2 <= p < n <= 9, d < n - 1 agree")
    for n in (9, 10):
        for p in range(1, n + 1):
            for d in range(1, n + 2):
                if has_linear_resolution(p, d, n) != (p == 1 or p == n or (p == 2 and d >= n - 1)):
                    sys.exit(f"p={p}, d={d}, n={n}: linear resolution breaks the trichotomy")
        print(f"n = {n}: the linear-resolution trichotomy holds for d <= {n + 1}")


def ideal_builders():
    """Ideal builders equal their references at the aim-1 sizes."""
    builds = [("power_gens(3,14,6)", lambda: power_gens(3, 14, 6),
               lambda: power_gens_reference(3, 14, 6)),
              ("power_gens(2,20,6)", lambda: power_gens(2, 20, 6),
               lambda: power_gens_reference(2, 20, 6)),
              ("saturate(power_gens(3,12,6), 1)", lambda: saturate(power_gens(3, 12, 6), 1),
               lambda: saturate_reference(power_gens_reference(3, 12, 6), 1)),
              ("symbolic_gens(5,5,7)", lambda: symbolic_gens(5, 5, 7),
               lambda: symbolic_gens_reference(5, 5, 7))]
    for name, build, reference in builds:
        X, R = build(), reference()
        if X != R or X.sorted_gens() != sorted_gens_reference(R):
            sys.exit(f"{name}: the build differs from its reference")
        ours = min(timeit.repeat(build, number=1, repeat=10))
        theirs = min(timeit.repeat(reference, number=1, repeat=10))
        print(f"{name}: {len(X.gens)} generators equal; built in {ours * 1e3:.2f} ms,"
              f" reference {theirs * 1e3:.2f} ms (best of 10)")
    for rows, cols in [(6, 14), (6, 20)]:
        if enumerate_partitions(rows, cols) != enumerate_partitions_reference(rows, cols):
            sys.exit(f"the {rows}x{cols} box: the partitions differ from the reference")
        print(f"the {rows}x{cols} box: the partitions equal the reference, in order")


def json_documents():
    """Wide --json documents equal json.dumps byte for byte."""
    wide = "--m 8 --n 7 --cohdeg 6 --window -26 14 --json".split()
    argvs = [["ext", "--ideal", "minors:6", *wide],
             ["ext-map", "--sub", "symbolic:6:2", "--super", "minors:6", *wide]]
    for argv in argvs:
        out = cli.run(argv)
        doc = json.loads(out)
        if out != json.dumps(doc, indent=2, sort_keys=True) + "\n":
            sys.exit(f"{argv[0]}: the --json document differs from json.dumps")
        ours = min(timeit.repeat(lambda: cli._json_text(doc, "\n"), number=1, repeat=3))
        theirs = min(timeit.repeat(lambda: json.dumps(doc, indent=2, sort_keys=True),
                                   number=1, repeat=3))
        print(f"{argv[0]}: {len(out):,} bytes equal; encoded in {ours * 1e3:.1f} ms,"
              f" json.dumps {theirs * 1e3:.1f} ms (best of 3)")


CHECKS = {f.__name__: f for f in (label_walk, chain_tables, point_labels, regularity_search,
                                  ideal_builders, json_documents)}


def main(names: list[str]) -> None:
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        sys.exit(f"unknown checks {unknown}; the checks are {list(CHECKS)}")
    for name in names or CHECKS:
        CHECKS[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
