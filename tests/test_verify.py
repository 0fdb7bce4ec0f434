from math import comb

import pytest

from qtchains.builder import ChainCollection, validate_collection
from qtchains.dyck import dinv, parse_vector
from qtchains.partitions import partitions_of
from qtchains.poly import QtPolynomial, cat_n, deficit_slice
from qtchains.steps import nd
from qtchains.tails import ti, ti_dinv
from qtchains.verify import (
    AmhVectors,
    Chain,
    CheckResult,
    amh_vectors,
    cat_n_mu,
    check_amh,
    check_pair,
    opposite_bruteforce,
    report_lines,
)

from oracles import chain_amh


GENS15 = [parse_vector(g) for g in ("0012332", "0012222", "0012211", "0011111")]


def chain15(gens: list = GENS15) -> Chain:
    return Chain((1, 1, 1, 1, 1), 5, gens)


def poly_from_profile(start: int, values: list[int], n: int, k: int) -> QtPolynomial:
    return QtPolynomial(
        {
            (comb(n, 2) - k - d, d): 1
            for d, ln in enumerate(values, start)
            if ln <= n
        }
    )


# --------------------------------------------------------------- chain basics

def test_chain_needs_generators():
    with pytest.raises(ValueError):
        Chain((1,), 0, [])


def test_manual_chain_elements():
    c = chain15()
    want = {
        5: "0012332",
        6: "01234430",
        7: "0012222",
        8: "01233330",
        9: "0012211",
        10: "01233220",
        11: "0011111",
    }
    for d, vec in want.items():
        assert c.element(d) == parse_vector(vec)
    assert c.element(11) == ti((1, 1, 1, 1, 1))
    assert ti_dinv((1, 1, 1, 1, 1)) == 11
    with pytest.raises(IndexError):
        c.element(4)
    for d in range(5, 20):
        assert dinv(c.element(d)) == d

    # one growing list: lookups in any order agree with a fresh chain
    fresh = chain15().elements_upto(26)
    c = chain15()
    assert c.element(20) == fresh[15]
    assert c.elements_upto(8) == fresh[:4]
    c.elements_upto(8).clear()  # callers get a copy, not the chain's list
    assert c.elements_upto(8) == fresh[:4]
    for d in (4, 0, -3):
        assert c.elements_upto(d) == []
    assert c.element(9) == fresh[4]
    assert c.elements_upto(26) == fresh
    assert [c.element(d) for d in range(5, 27)] == fresh


def test_manual_chain_profile():
    c = chain15()
    assert c.element(20) == chain15().element(20)
    assert c.elements_upto(4) == []
    assert [len(x) for x in c.elements_upto(26)] == [7, 8, 7, 8, 7, 8, 7] + [8] * 7 + [9] * 8
    assert c.elements_upto(8) == chain15().elements_upto(8)
    assert [len(x) for x in c.elements_upto(8)] == [7, 8, 7, 8]
    assert c.amh_horizon() == 19


def test_manual_chain_amh():
    amh = chain_amh(chain15())
    assert amh.a == (5, 7, 9, 11)
    assert amh.m == (0, 0, 0, 0)
    assert amh.h == (7, 7, 7, 7)
    assert amh.size == 4
    assert all(r.ok for r in check_amh(amh, amh, 5))
    assert amh_vectors(5, [7, 8, 7, 8, 7, 8, 7] + [8] * 7 + [9] * 8) == amh


def test_manual_chain_checks():
    c = chain15()
    rows = check_pair(c, c, 5)
    assert {ctx for ctx, _ in rows} == {"1^5"}
    results = [r for _, r in rows]
    assert all(r.ok for r in results)
    assert [r.clause for r in results] == [
        "basic-a", "basic-b", "basic-c", "basic-d", "basic-e",
        "local-a", "local-b",
        "extra-a", "extra-b", "extra-c", "extra-d",
        "amh-a", "amh-b", "amh-c",
    ]
    lines = report_lines(results)
    assert all(line.endswith(" ok") for line in lines)


def unmaterializable_fails(base_coll, bad: Chain, message: str) -> None:
    """check_pair and validate_collection report the chain, without raising."""
    assert check_pair(bad, bad, 5) == [("1^5", CheckResult("basic-a", False, message))]
    coll = ChainCollection({**base_coll.chains, bad.mu: bad}, base_coll.pairing, 5)
    fails = [(ctx, r) for ctx, r in validate_collection(coll, opposite_n=6) if not r.ok]
    assert fails == [
        ("1^5", CheckResult("basic-a", False, message)),
        ("1^5", CheckResult("opposite", False, message)),
        ("deficit 5", CheckResult("disjoint", False, message)),
    ]


def test_chain_with_endless_first_segment_fails(base_coll):
    bad = chain15([ti((1,))] + GENS15[1:])
    with pytest.raises(RuntimeError, match="segment 0 of"):
        bad.elements_upto(11)
    msg = "segment 0 of Chain(1^5, start=5) still runs at the base dinv 11"
    unmaterializable_fails(base_coll, bad, msg)
    # shifted by two, segment 2 would start at the base dinv; asking again
    # must not skip past it
    shifted = Chain((1, 1, 1, 1, 1), 7, GENS15)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="segment 2 of"):
            shifted.elements_upto(20)


def test_chain_without_base_generator_fails(base_coll):
    bad = chain15(GENS15[:-1])
    unmaterializable_fails(base_coll, bad, "final segment of Chain(1^5, start=5) stopped")


def test_first_generator_has_no_predecessor():
    assert nd(parse_vector("0012332")) is None


# ----------------------------------------------- descent-vector-only pair data

AMH_A = AmhVectors(a=(3, 5, 9, 27), m=(0, 2, 1, 0), h=(7, 7, 7, 9))
AMH_B = AmhVectors(a=(2, 4, 7, 11), m=(0, 1, 2, 0), h=(9, 7, 7, 7))

PROFILE_A = (3, [7, 8, 7, 7, 7, 8, 7, 7] + [8] * 7 + [9] * 8 + [10, 9])
PROFILE_B = (2, [9, 10, 7, 7, 8, 7, 7, 7, 8, 7] + [8] * 7 + [9] * 8)


def test_amh_pair_identity():
    assert all(r.ok for r in check_amh(AMH_A, AMH_B, 7))
    assert all(r.ok for r in check_amh(AMH_B, AMH_A, 7))


def test_amh_pair_identity_detects_damage():
    dented = AmhVectors(a=(3, 5, 9, 28), m=AMH_A.m, h=AMH_A.h)
    assert not all(r.ok for r in check_amh(dented, AMH_B, 7))
    short = AmhVectors(a=(3, 5), m=(0, 2), h=(7, 7))
    assert not all(r.ok for r in check_amh(short, AMH_B, 7))


def test_profile_pair_term_sets():
    start_a, vals_a = PROFILE_A
    start_b, vals_b = PROFILE_B
    pa = poly_from_profile(start_a, vals_a, 7, 7)
    pb = poly_from_profile(start_b, vals_b, 7, 7)
    assert set(pa.terms) == {(11, 3), (9, 5), (8, 6), (7, 7), (5, 9), (4, 10)}
    assert set(pb.terms) == {(10, 4), (9, 5), (7, 7), (6, 8), (5, 9), (3, 11)}
    for n in (7, 8, 9):
        lhs = poly_from_profile(start_a, vals_a, n, 7)
        rhs = poly_from_profile(start_b, vals_b, n, 7).swap()
        assert lhs == rhs


# ------------------------------------------------------------------ path sums

def test_path_sums_tile_the_slice(base_coll):
    for n in range(1, 10):
        full = cat_n(n)
        for k in range(5):
            acc = QtPolynomial()
            for mu in partitions_of(k):
                acc = acc + cat_n_mu(n, base_coll.chain(mu))
            assert acc == deficit_slice(full, n, k), (n, k)


def test_base_pairs_opposite(base_coll):
    for mu, mu_star in base_coll.pairs():
        results = opposite_bruteforce(
            base_coll.chain(mu), base_coll.chain(mu_star), 8
        )
        assert all(r.ok for r in results), (mu, mu_star)
