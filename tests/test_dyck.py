import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import comb

from qtchains.dyck import (
    area,
    class_from_partition,
    defc,
    dinv,
    enumerate_deficit,
    format_vector,
    is_qdv,
    lift,
    mind,
    parse_vector,
    partition_from_class,
    qdv_from_partition,
    reduce,
)
from qtchains.partitions import format_partition, parse_partition
from oracles import (
    classify_vector,
    deficit_classes_bruteforce,
    defc_pairs,
    dinv_extended,
    dyck_vectors,
    is_reduced,
    unlift,
)


# ------------------------------------------------------------ small strategies

def qdv_strategy(max_len=9, min_entry=-3):
    def build(deltas):
        v = [0]
        for d in deltas:
            v.append(max(v[-1] + d, min_entry))
        return tuple(v)

    return st.lists(st.integers(min_entry - 1, 1), max_size=max_len - 1).map(build)


def climbing_qdv_strategy(max_rise=14, max_drop=25, max_moves=6):
    """Vectors built from climbs of up to max_rise steps, each ended by a drop.

    Long climbs reach entries above 9 and long drops go below 0, the two
    ranges the word notation parenthesizes.
    """
    def build(moves):
        v = [0]
        for rise, drop in moves:
            v.extend(range(v[-1] + 1, v[-1] + rise + 1))
            v.append(v[-1] - drop)
        return tuple(v)

    move = st.tuples(st.integers(0, max_rise), st.integers(0, max_drop))
    return st.lists(move, max_size=max_moves).map(build)


def partition_strategy(max_part=7, max_len=7):
    return st.lists(st.integers(1, max_part), max_size=max_len).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )


# ------------------------------------------------------------- worked example

def test_worked_class_vectors():
    lam = (5, 4, 4, 1)
    assert qdv_from_partition(lam, 5) == (0, 0, -2, -1, -1)
    assert qdv_from_partition(lam, 6) == (0, 1, 1, -1, 0, 0)
    assert qdv_from_partition(lam, 7) == (0, 1, 2, 2, 0, 1, 1)
    assert qdv_from_partition(lam, 8) == (0, 1, 2, 3, 3, 1, 2, 2)
    assert [area(qdv_from_partition(lam, n)) for n in (5, 6, 7, 8)] == [-4, 1, 7, 14]
    assert mind(lam) == 7
    assert class_from_partition(lam) == (0, 1, 2, 2, 0, 1, 1)
    v = class_from_partition(lam)
    assert dinv(v) == 10
    assert defc(v) == 4
    assert partition_from_class(v) == lam
    for n in (5, 6, 7, 8):
        assert partition_from_class(qdv_from_partition(lam, n)) == lam
        assert sum(lam) + area(qdv_from_partition(lam, n)) == comb(n, 2)


def test_parse_format_round_trip():
    assert parse_vector("0122011") == (0, 1, 2, 2, 0, 1, 1)
    assert parse_vector("00(-2)(-1)(-1)") == (0, 0, -2, -1, -1)
    assert format_vector((0, 0, -2, -1, -1)) == "00(-2)(-1)(-1)"
    stair = tuple(range(11))
    assert format_vector(stair) == "0123456789(10)"
    assert parse_vector("0123456789(10)") == stair


@settings(max_examples=300)
@given(climbing_qdv_strategy())
def test_vector_word_round_trip(v):
    assert is_qdv(v)
    assert parse_vector(format_vector(v)) == v


@settings(max_examples=300)
@given(st.dictionaries(st.integers(1, 40), st.integers(1, 40), max_size=6))
def test_partition_word_round_trip(mults):
    p = tuple(a for a in sorted(mults, reverse=True) for _ in range(mults[a]))
    assert parse_partition(format_partition(p)) == p


@pytest.mark.parametrize("word", ["3^0", "23^0", "1^(0)", "3^(-1)", "3^"])
def test_bad_partition_word(word):
    with pytest.raises(ValueError):
        parse_partition(word)


def test_reduce_goldens():
    assert reduce((0, -1, 0)) == (0, 1, 0, 1)
    assert reduce((0, 1, 2, 3)) == (0,)
    assert reduce((0,)) == (0,)
    assert reduce((0, 0, 0, 1, 2, -1, 0, 0, 1, 1, 1, 1)) == (0, 1, 1, 1, 2, 3, 0, 1, 1, 2, 2, 2, 2)


def test_reduced_predicate():
    assert is_reduced((0,))
    assert is_reduced((0, 0, 1))
    assert is_reduced((0, 1, 0, 1))
    assert not is_reduced((0, 1, 2))
    assert not is_reduced((0, 1, 2, 2))
    assert not is_reduced((0, -1, 0))


def test_mind_values():
    assert mind(()) == 1
    assert mind((1,)) == 2
    assert mind((5, 4, 4, 1)) == 7
    assert mind((2, 1, 1, 1)) == 5


@pytest.mark.parametrize("n,q", [(0, 0), (1, 0), (0, 1), (2, 3), (4, 1), (3, 2)])
def test_deficit_family(n, q):
    v = (0, 0, 0, 1) + (2,) * n + (1,) * q
    assert defc(v) == 2 * (n + q + 1)


def test_defc_pairs_matches_defc():
    for n in range(1, 9):
        for v in dyck_vectors(n):
            assert defc_pairs(v) == defc(v)


def test_dyck_vector_counts():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for n in range(1, 8):
        assert sum(1 for _ in dyck_vectors(n)) == catalan[n]


def test_classify_vector():
    assert classify_vector((0, 1, 1, 0, 1)) == "binary"
    assert classify_vector((0, 0, 1, 2, 2)) == "ternary-reduced"
    assert classify_vector((0, 1, 2, 2, 1)) == "ternary-nonreduced"
    assert classify_vector((0, 1, 2, -1, 0)) == "cycled-ternary"
    assert classify_vector((0, 1, 2, 3)) == "other"
    assert classify_vector((0, 1, 2, -1, 0, 1, 2)) == "other"


# ------------------------------------------------------------------ invariance

@settings(max_examples=150)
@given(qdv_strategy())
def test_dinv_matches_extended_word_count(v):
    assert dinv(v) == dinv_extended(v)


@settings(max_examples=150)
@given(qdv_strategy())
def test_lift_preserves_class_stats(v):
    assert is_qdv(v)
    w = lift(v)
    assert dinv(w) == dinv(v)
    assert defc(w) == defc(v)
    assert reduce(w) == reduce(v)
    assert unlift(w) == v


@settings(max_examples=150)
@given(qdv_strategy())
def test_reduce_is_canonical(v):
    r = reduce(v)
    assert is_reduced(r)
    assert reduce(r) == r
    assert partition_from_class(r) == partition_from_class(v)


@settings(max_examples=150)
@given(partition_strategy(), st.integers(0, 5))
def test_partition_class_round_trip(lam, pad):
    n = mind(lam) + pad
    v = qdv_from_partition(lam, n)
    assert min(v) >= 0
    assert partition_from_class(v) == lam
    assert sum(lam) + area(v) == comb(n, 2)
    assert dinv(v) + defc(v) == sum(lam)


def test_qdv_needs_room():
    with pytest.raises(ValueError):
        qdv_from_partition((2, 1, 1), 3)


# ------------------------------------------------------------------ enumerator

@pytest.mark.parametrize("k,d_max", [(0, 10), (1, 10), (2, 12), (3, 12), (4, 9)])
def test_enumerate_deficit_matches_bruteforce(k, d_max):
    assert enumerate_deficit(k, d_max) == deficit_classes_bruteforce(k, d_max)


def test_enumerate_deficit_is_reduced_and_sorted():
    out = enumerate_deficit(3, 14)
    assert all(reduce(v) == v for v in out)
    assert [dinv(v) for v in out] == sorted(dinv(v) for v in out)
    assert len(set(out)) == len(out)
