import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import comb

from qtchains.builder import collection_payload, extend_all
from qtchains.dyck import (
    area,
    class_from_partition,
    defc,
    dinv,
    enumerate_deficit,
    format_vector,
    is_qdv,
    mind,
    parse_vector,
    parse_vectors,
    partition_dinv,
    partition_from_class,
    qdv_from_partition,
    reduce,
    starts_00,
)
from qtchains.partitions import format_partition, parse_partition, partitions_of
from oracles import (
    classify_vector,
    deficit_classes_bruteforce,
    defc_pairs,
    dinv_extended,
    dyck_vectors,
    format_vector_by_join,
    is_reduced,
    lift,
    parse_vector_by_char,
    parse_vectors_by_word,
    partition_dinv_by_cells,
    reduce_by_lifting,
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


def test_format_vector_matches_per_entry_join(coll16):
    """Words of entries 0..9 take one bytes translation; every vector gives
    the per-entry join, the stored generators of deficit <= 16 included."""
    gens = [g for chain in coll16.chains.values() for g in chain.generators]
    assert len(gens) == 4594
    odd = [(), (0,), (0, 10), (0, 1, -1), (0, -1, 9), (0, 255), (0, 256), (0, -300), (12, 3)]
    for v in gens + odd:
        assert format_vector(v) == format_vector_by_join(v), v


def _outcome(parse, word):
    try:
        return parse(word)
    except Exception as exc:
        return type(exc)


def test_parse_vector_matches_per_character_reader():
    """Digit-only words take a one-pass read; every word gives the value or
    the exception type of the per-character reference.  '²' and '٣' are
    digits to str.isdigit, and only '٣' is one to int."""
    rng = random.Random(12)
    pieces = list("0001112223(-)²٣x ") + ["(-1)", "(-2)", "(1)"] * 3
    words = ["", " ", "0", " 012 ", "0²", "0٣", "01٣", "0(٣)", "0(-)", "0(", "0)"]
    words += [
        rng.choice(("", "0")) + "".join(rng.choices(pieces, k=rng.randrange(10)))
        for _ in range(20_000)
    ]
    outcomes = [_outcome(parse_vector, w) for w in words]
    assert outcomes == [_outcome(parse_vector_by_char, w) for w in words]
    parsed = [w for w, o in zip(words, outcomes) if isinstance(o, tuple)]
    assert sum(w.strip().isdigit() for w in parsed) > 100
    assert sum(not w.strip().isdigit() for w in parsed) > 100
    assert {ValueError} == {o for o in outcomes if not isinstance(o, tuple)}


def _outcome_and_message(parse, words):
    try:
        return parse(words)
    except Exception as exc:
        return type(exc), str(exc)


ODD_WORDS = ["", " 012 ", "0²", "0(10)", "00(-1)", "02", "1", "0,0", "01,0", "0013", "0,", ","]


def test_parse_vectors_matches_per_word_reader():
    """Lists of words give parse_vector's values, or the exception type and
    message of the first bad word.  The one-pass read joins words with
    commas, so a word holding a comma must still raise on that comma."""
    rng = random.Random(19)
    pieces = list("0001112223(-)²٣x ,") + ["(-1)", "(-2)", "(1)", "(10)"] * 3

    def word():
        if rng.random() < 0.1:
            return rng.choice(("", "0")) + "".join(rng.choices(pieces, k=rng.randrange(10)))
        v = [0]  # a digit word rising by at most 1, one entry in ten of them then reset
        for _ in range(rng.randrange(12)):
            v.append(rng.randint(0, min(v[-1] + 1, 9)))
        if rng.random() < 0.1:
            v[rng.randrange(len(v))] = rng.randrange(10)
        return "".join(map(str, v))

    lists = [[], *([w] for w in ODD_WORDS), ["0", "01", "012"], ["0", "0(10)", "012"]]
    lists += [[w, "0123", "01"] for w in ODD_WORDS] + [["0", "01", w] for w in ODD_WORDS]
    lists += [[word() for _ in range(rng.randrange(1, 8))] for _ in range(5_000)]
    outcomes = [_outcome_and_message(parse_vectors, ws) for ws in lists]
    assert outcomes == [_outcome_and_message(parse_vectors_by_word, ws) for ws in lists]
    assert sum(isinstance(o, list) for o in outcomes) > 500
    assert sum(not isinstance(o, list) for o in outcomes) > 500
    assert {ValueError} == {o[0] for o in outcomes if not isinstance(o, list)}


@pytest.mark.parametrize("mode", ["flagpole", "generalized"])
def test_parse_vectors_reads_every_stored_record(base_coll, coll16, mode):
    """Every record of the deficit-16 file and of the generalized deficit-12
    file reads as one word at a time; 55 deficit-16 records hold a
    parenthesized word."""
    coll = coll16 if mode == "flagpole" else extend_all(base_coll, 12, mode="generalized")
    records = collection_payload(coll)["chains"]
    assert len(records) == (241 if mode == "flagpole" else 95)
    for rec in records:
        assert parse_vectors(rec["generators"]) == parse_vectors_by_word(rec["generators"])
    mixed = sum("(" in "".join(rec["generators"]) for rec in records)
    assert mixed == (55 if mode == "flagpole" else 0)


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


@pytest.mark.parametrize("word", ["3^0", "23^0", "1^(0)", "3^(-1)", "3^", "", " "])
def test_bad_partition_word(word):
    with pytest.raises(ValueError):
        parse_partition(word)


@pytest.mark.parametrize("word", ["1^(1000000000000)2", "0^(1000000000000)", "2^(1000000000000)0"])
def test_bad_partition_word_is_rejected_before_its_runs_expand(word):
    # a trillion parts could not be held: the runs are checked first
    with pytest.raises(ValueError):
        parse_partition(word)


def test_reduce_goldens():
    assert reduce((0, -1, 0)) == (0, 1, 0, 1)
    assert reduce((0, 1, 2, 3)) == (0,)
    assert reduce((0,)) == (0,)
    assert reduce((0, 0, 0, 1, 2, -1, 0, 0, 1, 1, 1, 1)) == (0, 1, 1, 1, 2, 3, 0, 1, 1, 2, 2, 2, 2)
    # read off the partition (20001), not by 20000 lifts
    assert reduce((0, -20000)) == tuple(range(20001)) + (0,)
    assert dinv((0, -20000)) == 2


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


def test_partition_statistics_match_class_vectors():
    """dinv, mind and a leading 0 0 read off the partition agree with the vectors,
    and dinv with the cell count of arm - leg in {0, 1}."""
    count = 0
    for size in range(21):
        for p in partitions_of(size):
            v = class_from_partition(p)
            assert partition_dinv(p) == dinv_extended(v) == partition_dinv_by_cells(p), p
            assert mind(p) == len(v), p
            assert starts_00(p, mind(p)) == (v == (0,) or v[:2] == (0, 0)), p
            for n in range(len(p) + 1, len(v) + 3):
                w = qdv_from_partition(p, n)
                assert starts_00(p, n) == (w == (0,) or w[:2] == (0, 0)), (p, n)
            count += 1
    assert count == 2714


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


def test_class_statistics_match_oracles_on_every_short_vector():
    """reduce and dinv agree with the lift/strip loop and the direct pair count
    on every nonnegative vector of length at most 10, its lift and its
    one-step unlift, which brings in negative entries."""
    count = negative = 0
    for n in range(1, 11):
        for v in dyck_vectors(n):
            for w in (v, lift(v), unlift(v)):
                if w is None:
                    continue
                assert reduce(w) == reduce_by_lifting(w), w
                assert dinv(w) == dinv_extended(w), w
                count += 1
                negative += min(w) < 0
    assert (count, negative) == (64221, 9878)


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

@pytest.mark.parametrize(
    "k,d_max", [(0, 10), (1, 10), (2, 12), (3, 12), (4, 9), (5, 15), (6, 21)]
)
def test_enumerate_deficit_matches_bruteforce(k, d_max):
    assert enumerate_deficit(k, d_max) == deficit_classes_bruteforce(k, d_max)


def test_enumerate_deficit_is_reduced_and_sorted():
    out = enumerate_deficit(3, 14)
    assert all(reduce(v) == v for v in out)
    assert [dinv(v) for v in out] == sorted(dinv(v) for v in out)
    assert len(set(out)) == len(out)
