"""Integer partitions, the index language for everything in this package.

A partition is a weakly decreasing tuple of positive integers, and a
:class:`Partition` is a ``tuple``: it equals and hashes like the tuple of
its parts.  Trailing zeros are accepted on input and never stored, so
``(4, 2, 1, 0)`` and ``(4, 2, 1)`` denote the same object.  Indexing is
0-based like any tuple; :meth:`Partition.part` reads parts 1-based, and
every part past the stored length reads 0 there.  Each part must be an
integer by ``operator.index``: a float, a string or any other object that
``int()`` would convert is refused with ValueError.  All arithmetic is exact
(Python integers).
"""

from __future__ import annotations

from math import comb
from operator import index, le
from typing import Iterable, Optional


class Partition(tuple):
    """Weakly decreasing finite sequence of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        ps = tuple(parts)  # kept, so that a refused part can be named
        try:
            ps = [index(p) for p in ps]
        except TypeError:
            for p in ps:
                try:
                    index(p)
                except TypeError:
                    raise ValueError(f"part {p!r} is not an integer in {ps!r}") from None
            raise
        while ps and ps[-1] == 0:
            ps.pop()
        prev = ps[0] if ps else 0
        for p in ps:
            if p <= 0:
                raise ValueError(f"part {p} is not positive in {ps}")
            if prev < p:
                raise ValueError(f"parts not weakly decreasing: {ps}")
            prev = p
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
    return len(x) <= len(y) and all(map(le, x, y))


def sup(x: Partition, y: Partition) -> Partition:
    """Least upper bound: pointwise maximum of the parts."""
    k = max(x.nparts, y.nparts)
    return Partition(max(x.part(i), y.part(i)) for i in range(1, k + 1))


def _desc_lex(out: list, size: int, maxpart: int, slots: int) -> None:
    # append to out the partitions of `size` with at most `slots` parts each <= maxpart,
    # in descending lexicographic order; enumerate_partitions proves the order and the set
    if size == 0:
        out.append(Partition())
        return
    if slots == 0 or maxpart == 0:
        return
    prefix = [0] * slots

    def rec(i: int, rest: int, top: int) -> None:
        # parts i, i+1, ... of prefix: each way to write rest as at most slots - i parts,
        # each <= top and <= the one before it, in descending lexicographic order
        if rest <= top:  # the largest part i can take ends the partition
            prefix[i] = rest
            out.append(Partition(prefix[: i + 1]))
            top = rest - 1
        for first in range(top, -(-rest // (slots - i)) - 1, -1):
            prefix[i] = first
            rec(i + 1, rest - first, first)

    rec(0, size, maxpart)
    del rec  # the closure holds its own cell: break the cycle


def enumerate_partitions(
    rows: int, cols: int, size: Optional[int] = None
) -> list[Partition]:
    """All partitions in the rows x cols box, optionally of an exact size.

    Canonical order: ascending by size, descending lexicographic within
    each size.  Without the size filter the count is binom(rows+cols, rows),
    checked on every call.

    Each size r is one recursion that fixes the parts left to right in one
    prefix list: part i takes each value from min(r', bound) down to
    ceil(r' / s) inclusive, where r' is what is left of r, s the slots left
    (rows minus the parts fixed) and bound the part before it (cols for the
    first).  Each part is at most the one before it, so each result is
    weakly decreasing and in the box.  Each part is at least ceil(r' / s),
    and ceil(r' / s) > 0 as r' > 0, so every part is positive; and
    ceil(r' / s) is the least value that lets s parts, none above it, hold
    r'.  A partition of r in the box has, as its part i, some value in
    that range, and so every one is reached, once; every branch of the
    range reaches at least one, since what is left, r' - v, fits into
    s - 1 parts each <= v.  A value v = r' ends the partition and is
    appended; values go down, so the results come in descending
    lexicographic order.  Each is built by the validated ``Partition``.
    """
    if rows < 0 or cols < 0:
        raise ValueError(f"negative box bound {rows}x{cols}")
    out: list[Partition] = []
    if size is not None:
        if size >= 0:
            _desc_lex(out, size, cols, rows)
        return out
    for r in range(rows * cols + 1):
        _desc_lex(out, r, cols, rows)
    if len(out) != comb(rows + cols, rows):
        raise RuntimeError(f"found {len(out)} partitions in the {rows}x{cols} box")
    return out
