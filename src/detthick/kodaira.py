"""Kodaira-type vanishing checks for thickened determinantal schemes.

For a proper nonzero invariant ideal the cohomology of twists of the
structure sheaf in the smooth range is read off Ext modules: vanishing in
positive twists for cohomological indices k below the singular codimension
minus one amounts to every relevant Ext being zero in degrees above -mn.
``kodaira_check`` reads this off the feasible chains that the memoised Ext
index holds at each j, walking no weight: in that range of j only s = 0
chains occur, whose caps bound every total by -mn.
"""

from __future__ import annotations

from typing import NamedTuple

from .ext import ExtComponent, _ext_index
from .ideals import IdealSpec, _check_shape
from .zset import zset_general


class VanishingReport(NamedTuple):
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
    """Certify that Ext^(mn - 1 - k) of S/I_X is zero above degree -mn for every k < m + n - 2.

    A component there would be a violation: cohomology in a positive twist.
    The report names the twists 1..jmax, but the certificate covers them all.
    Two inequalities decide it from the indexed chains, with no weight walked:

    - a chain with s >= 1 has every t_i >= 1, so its j = mn - l^2 - s(m - n)
      - 2 sum(t) <= mn - m - n - l^2 + 2l <= mn - m - n + 1, below the least
      scanned j; so every chain in range has s = 0 (``mechanism_ok``);
    - an s = 0 region caps every entry at -m, so its weights total at most -mn.

    A feasible chain in range that breaks either raises RuntimeError.
    """
    _check_shape(X, m, n)
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if jmax < 1:
        raise ValueError(f"need jmax >= 1, got {jmax}")
    mn = m * n
    j_low = mn - m - n + 2  # j at k = m + n - 3, the deepest scanned index
    _, _, entries = _ext_index(zset_general(X), m, n)
    for j in range(j_low, mn):
        for pair, chains in entries.get(j, ()):
            for tup, region in chains:
                if tup.s or not all(c is not None and c <= -m for c in region.cap_at):
                    raise RuntimeError(f"chain {tup} of {pair} reaches above degree {-mn}")
    return VanishingReport(m, n, jmax, X, tuple(range(m + n - 2)), (), True)
