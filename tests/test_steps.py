import pytest

from qtchains.dyck import (
    class_from_partition,
    defc,
    dinv,
    enumerate_deficit,
    parse_vector,
    partition_from_class,
    reduce,
)
from qtchains.partitions import partitions_of
from qtchains.steps import (
    nd,
    nd1,
    nd2,
    nu,
    nu1,
    nu1_partition,
    nu2,
    rep_ending_minus_one,
    rep_starting_00,
)

from oracles import (
    dyck_vectors,
    is_reduced,
    nd1_qdv,
    nu1_qdv,
    rep_ending_minus_one_by_unlift,
    rep_starting_00_by_unlift,
)


def small_classes(k_max=5, d_max=22):
    for k in range(k_max + 1):
        yield from enumerate_deficit(k, d_max)


# ----------------------------------------------------------- first-order step

def test_nu1_worked_example():
    assert nu1_partition((5, 4, 4, 1)) == (5, 4, 3, 3)
    assert nu1(class_from_partition((5, 4, 4, 1))) == parse_vector("0120111")


def test_nu1_partition_edges():
    assert nu1_partition(()) == (1,)
    assert nu1_partition((1,)) == (2,)
    assert nu1_partition((6, 1, 1)) is None
    assert nu1_partition((5, 1, 1)) == (4, 4)


def test_initial_final_markers():
    assert nd1(reduce((0,))) is None
    assert nd1(class_from_partition((1, 1, 1))) is None
    assert nd1(class_from_partition((3, 1))) is not None
    assert nu1(class_from_partition((6, 1, 1))) is None
    assert nu1(class_from_partition((5, 1, 1))) is not None


def test_first_order_inverse_laws():
    for c in small_classes():
        up = nu1(c)
        p = partition_from_class(c)
        assert (up is None) == (bool(p) and p[0] > len(p) + 2)
        if up is not None:
            assert nd1(up) == c
            assert dinv(up) == dinv(c) + 1
            assert defc(up) == defc(c)
        down = nd1(c)
        assert (down is None) == (not p or p[0] < len(p))
        if down is not None:
            assert nu1(down) == c


def test_vector_surgery_matches_part_surgery():
    for c in small_classes():
        assert nu1_qdv(c) == nu1(c)
        assert nd1_qdv(c) == nd1(c)


def test_binary_append_law():
    for n in range(2, 7):
        for v in dyck_vectors(n):
            if max(v) > 1 or not is_reduced(v):
                continue
            walk = [v]
            while len(walk) <= n and nu1(walk[-1]) is not None:
                walk.append(nu1(walk[-1]))
            assert len(walk) == n + 1
            assert walk[-1] == v + (0,)


# ---------------------------------------------------------- second-order step

def test_special_representatives():
    assert rep_ending_minus_one(partition_from_class((0, 1, 2, 3, 3, 0, 0))) == (0, 1, 2, 2, -1, -1)
    assert rep_ending_minus_one(partition_from_class((0, 0, 1))) is None
    assert rep_starting_00(partition_from_class((0, 1, 1, 2, 0, 1))) == (0, 0, 1, -1, 0)
    assert rep_starting_00(partition_from_class((0, 1, 0))) is None


def test_special_representatives_match_unlift_walk():
    for size in range(21):
        for p in partitions_of(size):
            c = class_from_partition(p)
            assert rep_ending_minus_one(p) == rep_ending_minus_one_by_unlift(c), p
            assert rep_starting_00(p) == rep_starting_00_by_unlift(c), p


def test_nu2_rule_goldens():
    long_in = reduce(parse_vector("012222(-1)001(-1)(-1)"))
    assert nu2(long_in) == parse_vector("0111230112222")
    short_in = reduce(parse_vector("012211(-1)(-1)(-1)"))
    assert nu2(short_in) == parse_vector("0111220122")


def test_nd2_rule_goldens():
    assert nd2(parse_vector("000011")) == reduce(parse_vector("0122(-1)(-1)"))
    c = reduce(parse_vector("0001(-1)001111"))
    down = nd2(c)
    assert down is not None
    assert nu2(down) == c


def test_second_order_inverse_laws():
    for c in small_classes():
        up = nu2(c)
        if up is not None:
            assert nu1(c) is None
            assert nd2(up) == c
            assert dinv(up) == dinv(c) + 1
            assert defc(up) == defc(c)
        down = nd2(c)
        if down is not None:
            assert nd1(c) is None
            assert nu2(down) == c


# --------------------------------------------------------------- combined map

def test_combined_map_round_trip():
    for c in small_classes():
        up = nu(c)
        if up is not None:
            assert nd(up) == c
            assert dinv(up) == dinv(c) + 1
            assert defc(up) == defc(c)


def test_step_kind_dispatch():
    assert nu1((0,)) is not None
    for c in small_classes():
        if nu1(c) is not None:
            assert nu(c) == nu1(c)
        elif nu2(c) is not None:
            assert nu(c) == nu2(c)
        else:
            assert nu(c) is None


def test_descent_walk_golden():
    walk = ["001101", "0123220", "001211", "0123330", "001222"]
    cur = parse_vector(walk[0])
    for nxt in walk[1:]:
        cur = nd(cur)
        assert cur == parse_vector(nxt)
    for prev, here in zip(walk, walk[1:]):
        assert nu(parse_vector(here)) == parse_vector(prev)


def test_nu_segment_lengths():
    seg = [parse_vector("001222")]
    for _ in range(4):
        seg.append(nu(seg[-1]))
    assert [dinv(v) for v in seg] == [4, 5, 6, 7, 8]
    assert seg[-1] == parse_vector("001101")


@pytest.mark.parametrize(
    "p,expected",
    [((4, 2, 1, 1, 1), None), ((2, 1), (2,)), ((3, 1), (2, 1)), ((1, 1), None)],
)
def test_nd1_partition_cases(p, expected):
    c = class_from_partition(p)
    out = nd1(c)
    if expected is None:
        assert out is None
    else:
        assert partition_from_class(out) == expected
