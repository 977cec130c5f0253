"""Kodaira-type vanishing checks for thickened determinantal schemes.

For a proper nonzero invariant ideal the cohomology of twists of the
structure sheaf in the smooth range is read off Ext modules: vanishing in
positive twists for cohomological indices k below the singular codimension
minus one amounts to every relevant Ext being zero in degrees above -mn.
The check is finite because the mechanism is structural: in that range
only s = 0 chains occur, and their weights all have total at most -mn.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ext import ExtComponent, _components_for_pairs, index_tuples
from .ideals import IdealSpec
from .zset import zset_general


@dataclass(frozen=True)
class VanishingReport:
    """Outcome of a vanishing scan over all small cohomological indices."""

    m: int
    n: int
    jmax: int
    ideal: IdealSpec
    k_checked: tuple[int, ...]
    violations: tuple[ExtComponent, ...]
    mechanism_ok: bool

    @property
    def passed(self) -> bool:
        return not self.violations and self.mechanism_ok

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "jmax": self.jmax,
            "ideal": self.ideal.to_json(),
            "k_checked": list(self.k_checked),
            "violations": [c.to_json() for c in self.violations],
            "mechanism_ok": self.mechanism_ok,
            "passed": self.passed,
        }


def sing_codim(p: int, m: int, n: int) -> int:
    """Codimension of the singular locus inside the determinantal variety.

    m + n - 2 for p = 2 (the cone point), m + n - 2p + 3 for p >= 3.
    """
    if not 2 <= p <= n <= m:
        raise ValueError(f"need 2 <= p <= n <= m, got p={p}, n={n}, m={m}")
    return m + n - 2 if p == 2 else m + n - 2 * p + 3


def kodaira_check(X: IdealSpec, m: int, n: int, jmax: int = 15) -> VanishingReport:
    """Scan twists 1..jmax at every k < m + n - 2 and report violations.

    A violation is an Ext component of S/I_X at cohomological index
    m n - 1 - k in an internal degree above -m n.  Also reports the
    structural mechanism in ``mechanism_ok``: every chain whose cohomological
    degree falls in the scanned range has s = 0, which forces all its
    weights to total at most -m n regardless of the window.
    """
    if not 2 <= n <= m:
        raise ValueError(f"need 2 <= n <= m, got m={m}, n={n}")
    if X.n != n:
        raise ValueError(f"ideal lives in P_{X.n}, not P_{n}")
    if jmax < 1:
        raise ValueError(f"need jmax >= 1, got {jmax}")
    pairs = zset_general(X).sorted_pairs()
    mn = m * n
    window = (-mn + 1, -mn + jmax)

    j_low = mn - m - n + 2  # j at k = m + n - 3, the deepest scanned index
    mechanism_ok = not any(
        tup.s != 0 and j_low <= tup.j <= mn - 1
        for pair in pairs
        for tup in index_tuples(pair.z, pair.l, m, n)
    )

    violations: list[ExtComponent] = []
    for k in range(m + n - 2):
        j = mn - 1 - k
        violations.extend(_components_for_pairs(pairs, j, m, n, window)[0])
    return VanishingReport(
        m, n, jmax, X, tuple(range(m + n - 2)), tuple(violations), mechanism_ok
    )
