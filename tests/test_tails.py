from collections import Counter
from itertools import islice
from math import comb

import pytest

from qtchains.dyck import (
    defc,
    dinv,
    enumerate_deficit,
    mind,
    parse_vector,
    partition_from_class,
    reduce,
)
from qtchains.partitions import count_partitions_max, parse_partition, partitions_of
from qtchains.tails import (
    TailLocator,
    absorption_counts,
    b_word,
    coverage_bound,
    locate_in_tail,
    partition_from_b_word,
    plateau,
    s_vectors,
    staircase_profile,
    tail2_iter,
    tail_elements,
    ti,
    ti2,
    ti_dinv,
    ti_mind,
)

from oracles import (
    format_profile,
    locate_in_tail2,
    stage_vectors_bruteforce,
    summary_profile,
    tail2_by_nu,
    tail_iter,
    ti2_by_nd,
)

TI_TABLE = [
    ("0", "0"),
    ("1", "001"),
    ("2", "0001"),
    ("11", "0011"),
    ("3", "00001"),
    ("21", "00101"),
    ("111", "00111"),
    ("4", "000001"),
    ("31", "001001"),
    ("22", "00011"),
    ("211", "001101"),
    ("1111", "001111"),
]

TI2_TABLE = [
    ("0", "0"),
    ("1", "001"),
    ("2", "0012"),
    ("11", "0011"),
    ("3", "01012"),
    ("21", "00121"),
    ("111", "00122"),
    ("4", "00012"),
    ("31", "00112"),
    ("22", "00011"),
    ("211", "001222"),
    ("1111", "001221"),
    ("2111", "0012221"),
    ("11111", "0012222"),
    ("321", "0012121"),
    ("3111", "0012212"),
    ("322111", "001221222"),
    ("4321", "001212121"),
]


# ------------------------------------------------------------ first-order base

@pytest.mark.parametrize("word,vec", TI_TABLE)
def test_base_vector_table(word, vec):
    assert ti(parse_partition(word)) == parse_vector(vec)


def test_b_word_round_trip():
    for n in range(7):
        for mu in partitions_of(n):
            assert partition_from_b_word(b_word(mu)) == mu
    assert partition_from_b_word((1, 0)) is None
    assert partition_from_b_word(()) == ()


def test_base_statistics():
    for n in range(7):
        for mu in partitions_of(n):
            v = ti(mu)
            assert defc(v) == n
            assert sum(reduce(v)) == len(mu)
            assert len(v) == ti_mind(mu) == (mu[0] if mu else 0) + len(mu) + 1
            assert mind(partition_from_class(v)) == ti_mind(mu)
            assert dinv(v) == ti_dinv(mu) == comb(ti_mind(mu), 2) - len(mu) - n


def test_specific_base_partition():
    v = ti((3, 3, 1, 1, 1))
    assert v == parse_vector("001110011")
    assert partition_from_class(v) == (7, 6, 6, 5, 3, 2, 1, 1)


# ------------------------------------------------------------- plateau forms

@pytest.mark.parametrize("word", ["0", "1", "21", "22", "311", "2211"])
def test_plateau_forms_match_orbit(word):
    mu = parse_partition(word)
    want = list(islice(tail_iter(mu), 40))
    got = [reduce(v) for v in tail_elements(mu, 40)]
    assert got == want


def test_plateau_sizes():
    mu = (2, 1)
    assert plateau(mu, 0) == [ti(mu)]
    for j in range(1, 5):
        assert len(plateau(mu, j)) == ti_mind(mu) + j - 1
    for j in range(1, 5):
        assert len(plateau((), j)) == j


def test_staircase_profile_values():
    assert staircase_profile(7, 16) == [7] + [8] * 7 + [9] * 8
    assert staircase_profile(3, 1) == [3]
    mu = (2, 2)
    lens = [len(reduce(v)) for v in islice(tail_iter(mu), 30)]
    assert lens == staircase_profile(ti_mind(mu), 30)


# ------------------------------------------------------------------ location

def test_locate_goldens():
    assert locate_in_tail(parse_vector("011110101")) == TailLocator((2, 1), 4, 3, "padded")
    assert locate_in_tail(parse_vector("01211221")) == TailLocator((2, 2), 2, 4, "padded")
    assert reduce(parse_vector("01211221")) == parse_vector("0100110")
    assert locate_in_tail(parse_vector("01122110")) == TailLocator((2, 2), 3, 0, "split")
    assert locate_in_tail((0,)) == TailLocator((), 0, 0, "padded")
    assert locate_in_tail(parse_vector("0012")) is None


def test_locator_indexes_plateau():
    for k in range(5):
        for c in enumerate_deficit(k, 25):
            loc = locate_in_tail(c)
            if loc is not None:
                assert plateau(loc.mu, loc.plateau_index)[loc.position] == c


def test_locate_membership():
    d_max = 25
    members: set[tuple[int, ...]] = set()
    for k in range(5):
        for mu in partitions_of(k):
            count = max(0, d_max - ti_dinv(mu) + 1)
            members.update(tail_elements(mu, count))
    for k in range(5):
        for c in enumerate_deficit(k, d_max):
            assert (locate_in_tail(c) is not None) == (c in members)


def test_class_count_identity():
    for k in range(6):
        by_d = Counter(dinv(v) for v in enumerate_deficit(k, 16))
        for d in range(17):
            assert by_d.get(d, 0) == count_partitions_max(k, d)


def test_coverage_bound_values():
    assert coverage_bound(0) == 7
    assert coverage_bound(5) == 37
    assert [coverage_bound(k) for k in range(4)] == [7, 11, 16, 22]


# ----------------------------------------------------------- second-order base

@pytest.mark.parametrize("word,vec", TI2_TABLE)
def test_extended_base_table(word, vec):
    assert ti2(parse_partition(word)) == parse_vector(vec)


def test_extended_base_matches_class_walk():
    for n in range(13):
        for mu in partitions_of(n):
            assert ti2(mu) == ti2_by_nd(mu), mu


def test_extended_orbit_matches_class_walk():
    for n in range(13):
        for mu in partitions_of(n):
            assert list(islice(tail2_iter(mu), 60)) == tail2_by_nu(mu, 60), mu


def test_extended_orbit_walk():
    walk = ["001222", "0123330", "001211", "0123220", "001101"]
    got = list(islice(tail2_iter((2, 1, 1)), 5))
    assert got == [parse_vector(w) for w in walk]
    assert [dinv(v) for v in got] == [4, 5, 6, 7, 8]


def test_extended_orbit_reaches_first_order_base():
    for n in range(6):
        for mu in partitions_of(n):
            base = ti(mu)
            seen = False
            for v in islice(tail2_iter(mu), 40):
                if v == base:
                    seen = True
                    break
            assert seen, mu


def test_locate_in_tail2_members():
    for n in range(5):
        for mu in partitions_of(n):
            for v in islice(tail2_iter(mu), 12):
                assert locate_in_tail2(v) == mu


def test_locate_in_tail2_rejects_outsiders():
    for k in range(5):
        d0 = coverage_bound(k)
        hits = sum(
            1
            for c in enumerate_deficit(k, d0 - 1)
            if locate_in_tail2(c) is not None
        )
        total = sum(count_partitions_max(k, d) for d in range(d0))
        second, first = absorption_counts(k)
        assert total - hits == second
        hits1 = sum(
            1
            for c in enumerate_deficit(k, d0 - 1)
            if locate_in_tail(c) is not None
        )
        assert total - hits1 == first


def test_absorption_goldens():
    assert absorption_counts(6) == (36, 125)
    assert absorption_counts(7) == (81, 235)


# ------------------------------------------------------- extended closed forms

def test_stage_vectors_small_golden():
    summary = s_vectors(parse_vector("0012212112"))
    assert summary.mu == (5, 3, 1, 1, 1, 1)
    assert summary.dinvs == (21, 23, 35, 48)
    assert summary.lengths == (10, 10, 11, 12)
    assert summary.s_vectors[1] == parse_vector("0011211211")
    assert summary.s_vectors[2] == parse_vector("00112111001")
    assert summary.s_vectors[3] == parse_vector("001111001001")


def test_stage_vectors_long_golden():
    v = parse_vector("001222212211121221")
    summary = s_vectors(v)
    assert summary.mu == parse_partition("6^32^21^(10)")
    assert summary.dinvs == (96, 98, 100, 120, 182, 184)
    assert summary.lengths == (18, 18, 18, 19, 22, 22)
    assert summary.s_vectors[1:] == (
        parse_vector("001221221112122111"),
        parse_vector("001122111212211111"),
        parse_vector("0011112122111111011"),
        parse_vector("0012211111111101100001"),
        parse_vector("0011111111110110000111"),
    )
    assert format_profile(summary_profile(summary, 40)) == "(18,19)^3,19^17,20,19,20^15"


@pytest.mark.parametrize(
    "vec", ["0012212112", "001222", "0012221", "0012121", "001221222"]
)
def test_stage_vectors_match_orbit_walk(vec):
    v = parse_vector(vec)
    summary = s_vectors(v)
    assert summary.s_vectors == tuple(stage_vectors_bruteforce(v))
    assert dinv(ti(summary.mu)) == summary.dinvs[-1]


def test_profile_matches_orbit_lengths():
    v = parse_vector("001222")
    summary = s_vectors(v)
    lens = [len(w) for w in islice(tail2_iter((2, 1, 1)), 30)]
    assert summary_profile(summary, 30) == lens


def test_format_profile():
    assert format_profile([]) == ""
    assert format_profile([5]) == "5"
    assert format_profile([3, 4, 3]) == "3,4,3"
    assert format_profile([7, 8, 7, 8, 9, 9, 9]) == "(7,8)^2,9^3"
    assert format_profile([2, 2, 3, 3, 3]) == "2^2,3^3"
