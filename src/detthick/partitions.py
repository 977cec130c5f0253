"""Integer partitions, the index language for everything in this package.

A partition is a weakly decreasing tuple of positive integers, and a
:class:`Partition` is a ``tuple``: it equals and hashes like the tuple of
its parts.  Trailing zeros are accepted on input and never stored, so
``(4, 2, 1, 0)`` and ``(4, 2, 1)`` denote the same object.  Indexing is
0-based like any tuple; :meth:`Partition.part` reads parts 1-based, and
every part past the stored length reads 0 there.  All arithmetic is exact
(Python integers).
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator, Optional


class Partition(tuple):
    """Weakly decreasing finite sequence of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        ps = [int(p) for p in parts]
        while ps and ps[-1] == 0:
            ps.pop()
        for i, p in enumerate(ps):
            if p <= 0:
                raise ValueError(f"part {p} is not positive in {ps}")
            if i and ps[i - 1] < p:
                raise ValueError(f"parts not weakly decreasing: {ps}")
        return tuple.__new__(cls, ps)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the comma form ``"4,2,1"``; ``""`` and ``"0"`` are empty."""
        text = text.strip()
        if text in ("", "0"):
            return cls()
        try:
            parts = [int(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad partition text {text!r}") from exc
        return cls(parts)

    @property
    def parts(self) -> tuple[int, ...]:
        return self

    @property
    def size(self) -> int:
        """Number of boxes, |x|."""
        return sum(self)

    @property
    def nparts(self) -> int:
        """Number of nonzero parts (the height of the first column)."""
        return len(self)

    def part(self, i: int) -> int:
        """1-based part access; indices beyond the length read 0."""
        if i < 1:
            raise IndexError(f"part index {i} is not >= 1")
        return self[i - 1] if i <= len(self) else 0

    def conjugate(self) -> "Partition":
        """Transpose the Young diagram: column heights become rows."""
        if not self:
            return Partition()
        return Partition(sum(1 for p in self if p >= c) for c in range(1, self[0] + 1))

    def truncate(self, c: int) -> "Partition":
        """Keep the first c columns: pointwise min with c."""
        if c < 0:
            raise ValueError(f"column bound {c} is negative")
        return Partition(min(p, c) for p in self)

    def __repr__(self) -> str:
        return f"Partition({list(self)!r})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self) if self else "0"

    def to_json(self) -> list[int]:
        return list(self)


EMPTY = Partition()


def leq(x: Partition, y: Partition) -> bool:
    """Componentwise order: x_i <= y_i for every i (diagram containment)."""
    if x.nparts > y.nparts:
        return False
    return all(a <= b for a, b in zip(x.parts, y.parts))


def sup(x: Partition, y: Partition) -> Partition:
    """Least upper bound: pointwise maximum of the parts."""
    k = max(x.nparts, y.nparts)
    return Partition(max(x.part(i), y.part(i)) for i in range(1, k + 1))


def _desc_lex(size: int, maxpart: int, slots: int) -> Iterator[tuple[int, ...]]:
    # Partitions of `size` with at most `slots` parts each <= maxpart,
    # emitted in descending lexicographic order.
    if size == 0:
        yield ()
        return
    if slots == 0 or maxpart == 0:
        return
    top = min(maxpart, size)
    lo = -(-size // slots)  # ceil: the first part of any such partition
    for first in range(top, lo - 1, -1):
        for rest in _desc_lex(size - first, first, slots - 1):
            yield (first,) + rest


def enumerate_partitions(
    rows: int, cols: int, size: Optional[int] = None
) -> list[Partition]:
    """All partitions in the rows x cols box, optionally of an exact size.

    Canonical order: ascending by size, descending lexicographic within
    each size.  Without the size filter the count is binom(rows+cols, rows).
    """
    if rows < 0 or cols < 0:
        raise ValueError(f"negative box bound {rows}x{cols}")
    if size is not None:
        if size < 0:
            return []
        return [Partition(t) for t in _desc_lex(size, cols, rows)]
    out: list[Partition] = []
    for r in range(rows * cols + 1):
        out.extend(Partition(t) for t in _desc_lex(r, cols, rows))
    if len(out) != comb(rows + cols, rows):
        raise RuntimeError(f"found {len(out)} partitions in the {rows}x{cols} box")
    return out
