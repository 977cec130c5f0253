"""Seeded op lists for the three benchmark workloads.

An op is one call to a public detthick entry point, written as plain JSON
data so that the worker process receives only the generated inputs.  Ideals
are written as ``["power", p, d, n]``, ``["symbolic", p, d, n]``,
``["satpower", p, d, n]``, ``["minors", p, n]`` or ``["gens", n, [[...], ...]]``.

Op kinds:
  ``["zset", ideal]``                      zset_general
  ``["ext", ideal, j, m, n, window]``      ext_graded (window null: default)
  ``["ext_map", sub, sup, j, m, n]``       ext_map_parts, default window
  ``["reg", ideal, m, n]``                 reg_quotient
  ``["kodaira", ideal, m, n]``             kodaira_check
  ``["cli", argv]``                        detthick.cli.run(argv)
  ``["reg_family", p, d, m, n, kind]``     reg_power_family
  ``["hilbert_dim", ideal, r, m, n]``      quotient_graded_dim

Each workload is a fixed list of named families plus seeded draws from one
narrow size class (random antichains; for weight_sweep the values of m and
the window positions), shuffled by the seed.  The class is narrow so that
the total work, and so every timing, varies little from seed to seed.
"""

from __future__ import annotations

import itertools
import random


def cohomological_degrees(m: int, n: int) -> list[int]:
    """Every j = mn - l^2 - s(m-n) - 2 sum(t) over chains 0 <= s <= t_1 <= ... <= l."""
    out = set()
    for l in range(n):
        for chain in itertools.combinations_with_replacement(range(l + 1), n - l + 1):
            out.add(m * n - l * l - chain[0] * (m - n) - 2 * sum(chain[1:]))
    return sorted(out)


def contains(big, small) -> bool:
    """Diagram containment of two partitions given as tuples."""
    return len(small) <= len(big) and all(a <= b for a, b in zip(small, big))


def partitions(size: int, rows: int, maxpart: int):
    """Partitions of size with at most rows parts, each at most maxpart."""
    if size == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(size, maxpart), 0, -1):
        for rest in partitions(size - first, rows - 1, first):
            yield (first,) + rest


def _random_partition(rng: random.Random, rows: int, cols: int, size: int) -> tuple:
    while True:
        parts = sorted((rng.randint(0, cols) for _ in range(rows)), reverse=True)
        if sum(parts) == size:
            return tuple(p for p in parts if p)


def random_antichain(rng, n, ngens, cmax, sizes) -> list[list[int]]:
    """ngens pairwise incomparable partitions in P_n, one of first part cmax.

    Pinning the widest generator at cmax fixes the number of label
    candidates, which sets most of the label cost.
    """
    while True:
        gens = [_random_partition(rng, n - 1, cmax, rng.randint(*sizes) - cmax)]
        gens[0] = (cmax,) + gens[0]
        tries = 0
        while len(gens) < ngens and tries < 200:
            tries += 1
            g = _random_partition(rng, n, cmax - 1, rng.randint(*sizes))
            if all(not contains(g, h) and not contains(h, g) for h in gens):
                gens.append(g)
        if len(gens) == ngens:
            return sorted([list(g) for g in gens], reverse=True)


def _shifted(ideal: list) -> list:
    # Add one box to the first row of each generator: the result is again
    # an antichain and lies inside the given ideal.
    n, gens = ideal[1], ideal[2]
    return ["gens", n, [[g[0] + 1] + g[1:] for g in gens]]


def _gens_text(gens: list) -> str:
    # the CLI form of an explicit antichain
    return "gens:" + ";".join(",".join(map(str, g)) for g in gens)


# ---------------------------------------------------------------- label_sweep

# (ideal, m, n); all-j ext_graded, reg_quotient, kodaira_check and zset_general
_LABEL_FAMILIES = [
    (["power", 2, 7, 4], 5, 4),
    (["power", 3, 5, 5], 6, 5),
    (["symbolic", 2, 6, 4], 5, 4),
    (["symbolic", 3, 4, 5], 6, 5),
    (["satpower", 2, 7, 4], 5, 4),
]
# (sub, super, m, n): all-j ext_map_parts along I^{d+1} inside I^d
_LABEL_MAPS = [
    (["power", 2, 6, 4], ["power", 2, 5, 4], 5, 4),
    (["symbolic", 2, 5, 4], ["symbolic", 2, 4, 4], 5, 4),
    (["satpower", 2, 6, 4], ["satpower", 2, 5, 4], 5, 4),
]
# (n, m, widest first part) per random antichain; the antichains have 3, 4
# and 5 generators of 8-14 boxes in turn, and the first one gets an Ext map.
_LABEL_RANDOM = [(4, 5, 7), (4, 5, 7), (4, 5, 7), (5, 6, 6), (5, 6, 6), (5, 6, 6)]
_LABEL_RANDOM_SIZES = (8, 14)


def _label_sweep(rng: random.Random) -> list:
    ideals = list(_LABEL_FAMILIES)
    maps = list(_LABEL_MAPS)
    for k, (n, m, cmax) in enumerate(_LABEL_RANDOM):
        X = ["gens", n, random_antichain(rng, n, 3 + k % 3, cmax, _LABEL_RANDOM_SIZES)]
        ideals.append((X, m, n))
        if k == 0:
            maps.append((_shifted(X), X, m, n))
    ops = []
    for X, m, n in ideals:
        ops.append(["zset", X])
        ops += [["ext", X, j, m, n, None] for j in cohomological_degrees(m, n)]
        ops.append(["reg", X, m, n])
        ops.append(["kodaira", X, m, n])
    for sub, sup, m, n in maps:
        ops += [["ext_map", sub, sup, j, m, n] for j in cohomological_degrees(m, n)]
    return ops


# ---------------------------------------------------------------- weight_sweep


def symbolic_labels(p: int, d: int, n: int) -> list:
    """Labels (z, p-1) of the d-th symbolic power of p x p minors (d = 1: the minors).

    z_1 = ... = z_p = c and z_p + ... + z_n <= d - 1.
    """
    out = []
    for c in range(d):
        for size in range(d - c):
            for tail in partitions(size, n - p, c):
                out.append(((c,) * p + tail if c else (), p - 1))
    return out


def feasible_degrees(labels, m: int, n: int) -> list[int]:
    """The j of every chain that is feasible for some label.

    A chain 0 <= s <= t_1 <= ... <= t_{n-l} <= l of (z, l) is feasible when
    s >= t_1 - z_n, each step t_i - t_{i-1} is at most z_{n-i} - z_{n+1-i},
    and l - t_{n-l} <= z_l - z_{l+1} (reading z_0 as z_1).
    """
    out = set()
    for z, l in labels:
        part = lambda i: z[max(i, 1) - 1] if max(i, 1) <= len(z) else 0
        for chain in itertools.combinations_with_replacement(range(l + 1), n - l + 1):
            s, t = chain[0], chain[1:]
            if s < t[0] - part(n) or l - t[-1] > part(l) - part(l + 1):
                continue
            if any(t[i] - t[i - 1] > part(n - i) - part(n + 1 - i) for i in range(1, len(t))):
                continue
            out.add(m * n - l * l - s * (m - n) - 2 * sum(t))
    return sorted(out)


# (p, d, n): the d-th symbolic power of p x p minors, d = 1 being minors:p.
# Every p, d <= 3 at n = 6, 7 and d = 4 for p <= 3, leaving out the four
# largest, whose single ops take seconds.
_WEIGHT_FAMILIES = [
    (p, d, n)
    for n in (6, 7)
    for p in range(2, n)
    for d in (1, 2, 3, 4)
    if (d < 4 or p <= 3) and (p, d, n) not in ((5, 3, 6), (5, 3, 7), (6, 2, 7), (6, 3, 7))
]
_WEIGHT_WIDTH = 40  # degrees per window
_WEIGHT_ABOVE = (18, 22)  # the window ends this far above -j, drawn per op


def _weight_sweep(rng: random.Random) -> list:
    ops = []
    for p, d, n in _WEIGHT_FAMILIES:
        X = ["minors", p, n] if d == 1 else ["symbolic", p, d, n]
        labels = symbolic_labels(p, d, n)
        # m = n + 2 holds the largest Ext modules, and so the peak memory;
        # it is always run, and the seed picks one of the two smaller m
        for m in (rng.choice((n, n + 1)), n + 2):
            for j in feasible_degrees(labels, m, n):
                hi = -j + rng.randint(*_WEIGHT_ABOVE)
                ops.append(["ext", X, j, m, n, [hi - _WEIGHT_WIDTH, hi]])
    return ops


# ---------------------------------------------------------------- family_tables

_FAMILY_CLI = [
    ["reg-powers", "--n", "5", "--p", "3", "--dmax", "10", "--kind", "power"],
    ["reg-powers", "--n", "5", "--p", "3", "--dmax", "10", "--kind", "satpower"],
    ["reg-powers", "--n", "6", "--p", "4", "--dmax", "10", "--kind", "symbolic"],
    ["reg-powers", "--n", "6", "--p", "2", "--dmax", "8", "--kind", "power"],
    ["linear-res", "--n", "4", "--p", "2", "--dmax", "8"],
    ["linear-res", "--n", "5", "--p", "3", "--dmax", "6"],
    ["hilbert", "--m", "7", "--n", "6", "--ideal", "power:3:12", "--rmax", "20"],
    ["hilbert", "--m", "6", "--n", "5", "--ideal", "power:2:10", "--rmax", "22"],
    ["hilbert", "--m", "7", "--n", "6", "--ideal", "symbolic:3:5", "--rmax", "16"],
    ["hilbert", "--m", "6", "--n", "5", "--ideal", "satpower:2:8", "--rmax", "18"],
    ["kodaira", "--m", "5", "--n", "4", "--ideal", "power:2:4"],
    ["reg", "--m", "5", "--n", "4", "--ideal", "power:2:5"],
    ["reg", "--m", "6", "--n", "5", "--ideal", "symbolic:3:4"],
    ["zset", "--n", "4", "--ideal", "power:2:5"],
    ["zset", "--n", "5", "--ideal", "symbolic:3:4"],
    ["bblsz-table", "--dmax", "7"],
]
# (p, m, n, kind, dmax): reg_power_family for d = 1..dmax
_FAMILY_LADDERS = [
    (2, 6, 6, "power", 10),
    (3, 6, 6, "power", 9),
    (3, 7, 6, "satpower", 9),
    (4, 7, 6, "symbolic", 10),
]
# (ideal, m, n, rmax): quotient_graded_dim for r = 0..rmax
_FAMILY_HILBERT = [
    (["power", 3, 10, 6], 7, 6, 18),
    (["power", 2, 8, 5], 6, 5, 18),
]
_FAMILY_RANDOM = [(5, 6), (5, 6), (6, 7), (6, 7)]  # (n, m) per antichain


def _family_tables(rng: random.Random) -> list:
    ops = [["cli", argv + ["--json"]] for argv in _FAMILY_CLI]
    for p, m, n, kind, dmax in _FAMILY_LADDERS:
        ops += [["reg_family", p, d, m, n, kind] for d in range(1, dmax + 1)]
    for X, m, n, rmax in _FAMILY_HILBERT:
        ops += [["hilbert_dim", X, r, m, n] for r in range(rmax + 1)]
    for n, m in _FAMILY_RANDOM:
        gens = random_antichain(rng, n, 4, 5, (7, 11))
        X, text = ["gens", n, gens], _gens_text(gens)
        ops.append(["cli", ["hilbert", "--m", str(m), "--n", str(n), "--ideal", text,
                            "--rmax", "14", "--json"]])
        ops.append(["cli", ["reg", "--m", str(m), "--n", str(n), "--ideal", text, "--json"]])
        ops += [["hilbert_dim", X, r, m, n] for r in range(4, 15, 2)]
    return ops


_GENERATORS = {
    "label_sweep": _label_sweep,
    "weight_sweep": _weight_sweep,
    "family_tables": _family_tables,
}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int) -> list:
    """The op list of one workload for one seed: same seed, same list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops
