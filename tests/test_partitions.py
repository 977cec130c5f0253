import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from detthick.partitions import (
    EMPTY,
    Partition,
    enumerate_partitions,
    leq,
    sup,
)
from oracles import enumerate_partitions_reference


def parts_strategy(max_rows=6, max_part=8):
    return st.lists(
        st.integers(min_value=1, max_value=max_part), min_size=0, max_size=max_rows
    ).map(lambda xs: Partition(sorted(xs, reverse=True)))


def diagram(x):
    """Young diagram of x as a set of (row, col) cells, 0-indexed."""
    return {(i, j) for i, row in enumerate(x.parts) for j in range(row)}


def test_construction_strips_zeros():
    assert Partition([3, 2, 0, 0]).parts == (3, 2)
    assert Partition([]).parts == ()
    assert Partition([0]).parts == ()
    assert Partition([2, 2]) == Partition((2, 2, 0))


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError, match="not weakly decreasing"):
        Partition([1, 2])
    with pytest.raises(ValueError, match="not positive"):
        Partition([2, -1])
    with pytest.raises(ValueError, match="not positive"):
        Partition([3, 0, 1])
    # pickle and deepcopy rebuild a partition through Partition.__new__
    rebuild, args = Partition([2, 1]).__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]
    assert rebuild(*args) == (2, 1)
    with pytest.raises(ValueError, match="not weakly decreasing"):
        rebuild(args[0], (1, 2))


class _Two:
    def __index__(self):
        return 2


def test_construction_refuses_parts_that_are_not_integers():
    # each part goes through operator.index: no float, str or other object int() would convert
    with pytest.raises(ValueError, match=r"part 2\.5 is not an integer"):
        Partition([2.5, 1])
    with pytest.raises(ValueError, match="part '3' is not an integer"):
        Partition(["3", "1"])
    with pytest.raises(ValueError, match="part '3' is not an integer"):
        Partition("321")
    with pytest.raises(ValueError, match=r"part 1\.0 is not an integer"):
        Partition(p for p in (3, 1.0))
    # a part that is an integer by __index__ is its integer
    x = Partition([3, _Two(), True])
    assert x == (3, 2, 1) and all(type(p) is int for p in x)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Partition([3, 2, 0]),
        lambda: Partition.from_text("3,2"),
        lambda: Partition([2, 2, 1]).conjugate(),
        lambda: Partition([5, 2]).truncate(3),
        lambda: sup(Partition([3]), Partition([2, 2])),
        lambda: pickle.loads(pickle.dumps(Partition([3, 2]))),
        lambda: copy.deepcopy(Partition([3, 2])),
    ],
    ids=["new", "from_text", "conjugate", "truncate", "sup", "pickle", "deepcopy"],
)
def test_partition_is_the_tuple_of_its_parts(build):
    x = build()
    assert type(x) is Partition and isinstance(x, tuple)
    assert x == (3, 2) and hash(x) == hash((3, 2))
    assert (x[0], x[-1], len(x)) == (3, 2, 2)  # 0-based by index
    assert (x.part(1), x.part(2), x.part(3)) == (3, 2, 0)  # 1-based through part


def test_from_text():
    assert Partition.from_text("4,4,3").parts == (4, 4, 3)
    assert Partition.from_text("0") == EMPTY
    assert Partition.from_text("") == EMPTY
    assert Partition.from_text(" 2 , 1 ").parts == (2, 1)
    with pytest.raises(ValueError):
        Partition.from_text("2,3")
    with pytest.raises(ValueError):
        Partition.from_text("a,b")


def test_basic_accessors():
    x = Partition([5, 3, 3, 1])
    assert x.size == 12
    assert x.nparts == 4
    assert x.part(1) == 5
    assert x.part(4) == 1
    assert x.part(5) == 0  # reads 0 beyond the last row
    assert list(x) == [5, 3, 3, 1]
    assert str(x) == "5,3,3,1"
    assert str(EMPTY) == "0"
    assert not EMPTY
    assert x


@given(parts_strategy())
def test_text_round_trip(x):
    assert Partition.from_text(str(x)) == x


def test_conjugate_examples():
    assert Partition([4, 4, 3]).conjugate().parts == (3, 3, 3, 2)
    assert Partition([5, 1]).conjugate().parts == (2, 1, 1, 1, 1)
    assert EMPTY.conjugate() == EMPTY


@given(parts_strategy())
def test_conjugate_involution(x):
    assert x.conjugate().conjugate() == x
    assert x.conjugate().size == x.size


@given(parts_strategy())
def test_conjugate_transposes_diagram(x):
    assert diagram(x.conjugate()) == {(j, i) for (i, j) in diagram(x)}


def test_truncate():
    x = Partition([5, 3, 3, 1])
    assert x.truncate(2).parts == (2, 2, 2, 1)
    assert x.truncate(0) == EMPTY
    assert x.truncate(9) == x


@given(parts_strategy(), parts_strategy())
def test_leq_matches_containment_of_diagrams(x, y):
    # componentwise order on rows == containment of Young diagrams
    assert leq(x, y) == (diagram(x) <= diagram(y))


@given(parts_strategy(), parts_strategy())
def test_sup_is_least_upper_bound(x, y):
    z = sup(x, y)
    assert leq(x, z) and leq(y, z)
    assert diagram(z) == diagram(x) | diagram(y)


@given(parts_strategy())
def test_leq_reflexive(x):
    assert leq(x, x)
    assert leq(EMPTY, x)


def test_leq_examples():
    assert leq(Partition([2, 1]), Partition([3, 1]))
    assert not leq(Partition([2]), Partition([1, 1]))
    assert not leq(Partition([1, 1]), Partition([2]))


def test_enumerate_box_cardinality():
    # partitions inside a rows x cols box are counted by a binomial coefficient
    from math import comb

    for rows in range(0, 5):
        for cols in range(0, 5):
            got = enumerate_partitions(rows, cols)
            assert len(got) == comb(rows + cols, rows)
            assert len(set(got)) == len(got)


@pytest.mark.parametrize("rows", range(7))
def test_enumerate_equals_the_nested_generators(rows):
    # the same list in the same order as the reference, whole box and each size
    for cols in range(7):
        assert enumerate_partitions(rows, cols) == enumerate_partitions_reference(rows, cols)
        for size in range(-1, rows * cols + 2):
            got = enumerate_partitions(rows, cols, size=size)
            assert got == enumerate_partitions_reference(rows, cols, size=size)
            assert all(type(x) is Partition for x in got)


def test_enumerate_order_is_size_then_desc_lex():
    got = enumerate_partitions(2, 2)
    assert [p.parts for p in got] == [
        (),
        (1,),
        (2,),
        (1, 1),
        (2, 1),
        (2, 2),
    ]


def test_enumerate_fixed_size():
    got = enumerate_partitions(3, 7, size=7)
    assert [p.parts for p in got] == [
        (7,),
        (6, 1),
        (5, 2),
        (5, 1, 1),
        (4, 3),
        (4, 2, 1),
        (3, 3, 1),
        (3, 2, 2),
    ]
    for p in got:
        assert p.size == 7 and p.nparts <= 3


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: Partition([2, 1]).part(0), IndexError, "part index 0 is not >= 1"),
        (lambda: Partition([2, 1]).truncate(-1), ValueError, "column bound -1 is negative"),
        (lambda: enumerate_partitions(-1, 2), ValueError, "negative box bound -1x2"),
        (lambda: enumerate_partitions(2, -1, size=1), ValueError, "negative box bound 2x-1"),
    ],
    ids=["part-0", "truncate-negative", "negative-rows", "negative-cols"],
)
def test_argument_checks_raise(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
