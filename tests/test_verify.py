import hashlib
import random
import tracemalloc
from collections import Counter
from functools import cache
from math import comb
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtchains import builder, verify
from qtchains.builder import ChainCollection, _disjoint_fault, extend_all, validate_collection
from qtchains.dyck import (
    Vector,
    class_from_partition,
    dinv,
    enumerate_deficit,
    mind,
    parse_vector,
    partition_dinv,
    partition_from_class,
)
from qtchains.partitions import Partition, format_partition, partitions_of
from qtchains.poly import QtPolynomial, cat_n, deficit_slice
from qtchains.steps import nd, nd1_partition, nd2_partition, nu1_partition, nu2_partition
from qtchains.tails import _nd1_stretch, coverage_bound, tail_elements, ti, ti2, ti_dinv
from qtchains.verify import (
    AmhVectors,
    Chain,
    CheckResult,
    _lengths,
    _orbit_below,
    amh_vectors,
    cat_n_mu,
    check_amh,
    check_basic,
    check_pair,
    opposite_bruteforce,
    report_lines,
    share_pieces,
    share_text,
)

from oracles import (
    cat_n_mu_by_lookup,
    chain_amh,
    check_pair_by_clauses,
    disjoint_fault_by_walk,
    lengths_by_walk,
    lift,
    opposite_per_n,
    partition_dinv_by_cells,
)


GENS15 = [parse_vector(g) for g in ("0012332", "0012222", "0012211", "0011111")]


def chain15(gens: list = GENS15) -> Chain:
    return Chain((1, 1, 1, 1, 1), 5, gens)


def basic(chain: Chain, d: int) -> list[CheckResult]:
    """check_basic on the chain's elements through dinv d: basic-a, b and d."""
    parts = chain.partitions_upto(d)
    return check_basic(chain, parts, [mind(p) for p in parts])


def lengths(chain: Chain, n_max: int) -> list[tuple[int, int]]:
    """The (dinv, reduced length) pairs that the runs of _lengths expand to."""
    return [(d, ln) for d0, count, ln in _lengths(chain, n_max) for d in range(d0, d0 + count)]


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


def no_class(p):
    raise AssertionError(f"class vector built for {p}")


def test_check_basic_looks_up_dinv_once_per_segment_start(monkeypatch):
    """One partition dinv per segment start inside parts, in order: each other
    element is nu1 of the one before, one more in dinv and size.  No class
    vector and no class-side dinv.  The walk to dinv 19 holds starts 0, 2, 4
    and 6; cut at dinv 8, only the first two are read."""
    c = chain15()
    walked = c.partitions_upto(c.amh_horizon())
    seen = []
    real = verify.partition_dinv
    monkeypatch.setattr(verify, "partition_dinv", lambda p: seen.append(p) or real(p))
    monkeypatch.setattr(verify, "class_from_partition", no_class)
    before = dinv.cache_info()
    for parts in (walked, walked[:4]):
        seen.clear()
        assert all(r.ok for r in check_basic(c, parts, [mind(p) for p in parts]))
        assert seen == [parts[i] for i in c._starts if i < len(parts)]
    assert len(seen) == 2 and c._starts == [0, 2, 4, 6]
    assert dinv.cache_info() == before


def test_checks_build_no_class_vectors_on_the_walk(monkeypatch, coll12):
    """On a passing collection, check_pair and the disjoint rows walk and check
    on partitions only; classes come only from second-order steps in tails."""
    monkeypatch.setattr(verify, "class_from_partition", no_class)
    monkeypatch.setattr(builder, "class_from_partition", no_class)
    fresh = {mu: Chain(mu, c.start_dinv, c.generators) for mu, c in coll12.chains.items()}
    rows = validate_collection(ChainCollection(fresh, coll12.pairing, 12))
    assert len(rows) == 1259
    assert all(r.ok for _, r in rows)


def test_unreduced_generator_fails_basic_a(coll12):
    """A stored generator replaced by its lift walks as its class: basic-a fails
    at its slot with the stored vector as witness, basic-d when it is the last
    generator, and every other row is the undamaged chain's."""
    count = 0
    for mu in coll12.members():
        chain, star = coll12.chain(mu), coll12.partner(mu)
        name = format_partition(mu)
        want = check_pair(chain, chain if star == mu else coll12.chain(star), sum(mu))
        for i, g in enumerate(chain.generators):
            gens = list(chain.generators)
            gens[i] = lift(g)
            bad = Chain(mu, chain.start_dinv, gens)
            expect = {
                "basic-a": CheckResult("basic-a", False, f"element {lift(g)} at slot {dinv(g)}"),
            }
            if i == len(gens) - 1:
                expect["basic-d"] = CheckResult(
                    "basic-d", False, f"last generator {lift(g)} is not the base vector of {name}"
                )
            got = check_pair(bad, bad if star == mu else coll12.chain(star), sum(mu))
            assert got == [
                (ctx, expect.get(r.clause, r) if ctx == name else r) for ctx, r in want
            ], (mu, i)
            count += 1
    assert count == 1037


def test_basic_a_catches_wrong_deficit_and_dinv():
    # the elements of chain15 have deficit 5, not |31^4| = 7; their dinvs are right
    bad = Chain((3, 1, 1, 1, 1), 5, GENS15)
    rows = basic(bad, 11)
    assert rows[0] == CheckResult("basic-a", False, f"element {GENS15[0]} at slot 5")
    # right deficit, but every element sits one slot below its dinv
    bad = Chain((1, 1, 1, 1, 1), 4, GENS15)
    rows = basic(bad, 11)
    assert rows[0] == CheckResult("basic-a", False, f"element {GENS15[0]} at slot 4")


def test_basic_b_catches_a_repeated_segment():
    # segment 1 walks the classes of segment 0 again, two slots up
    bad = chain15([GENS15[0]] + GENS15[:1] + GENS15[2:])
    rows = basic(bad, 11)
    assert rows[1] == CheckResult("basic-b", False, "repeated element in chain for 1^5")
    assert rows[0] == CheckResult("basic-a", False, f"element {GENS15[0]} at slot 7")


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


def test_check_pair_reports_a_partner_that_cannot_be_walked(base_coll):
    """The chain passes its own rows and its partner 21 lacks its base
    generator: the pair gives the partner's single basic-a row, under the
    partner's name."""
    star = base_coll.chain((2, 1))
    bad = Chain(star.mu, star.start_dinv, star.generators[:-1])
    assert check_pair(_copy(base_coll.chain((1, 1, 1))), bad, 3) == [
        ("21", CheckResult("basic-a", False, "final segment of Chain(21, start=3) stopped"))
    ]


# rows and disjoint witnesses of every drop/duplicate variant below, as the
# class-vector chains reported them; the partition walk must not change a line
DAMAGED_VARIANTS = 867
DAMAGED_DIGEST = "5506fac25c22ca71ef85128623f12222309c1cf8321ad3da6f91d19ffe3e218f"


def damaged_report(coll, k_max: int) -> list[str]:
    """check_pair rows and the disjoint witness of each chain of deficit at most
    k_max with one generator duplicated or, when it has several, dropped."""
    out = []
    for mu in coll.members():
        k = sum(mu)
        if k > k_max:
            continue
        chain, star = coll.chain(mu), coll.partner(mu)
        gens = chain.generators
        variants = [("dup", i, gens[: i + 1] + gens[i:]) for i in range(len(gens))]
        if len(gens) > 1:
            variants += [("drop", i, gens[:i] + gens[i + 1 :]) for i in range(len(gens))]
        for op, i, new in variants:
            bad = Chain(mu, chain.start_dinv, new)
            group = {m: coll.chain(m) for m in coll.members() if sum(m) == k}
            group[mu] = bad
            rows = check_pair(bad, bad if star == mu else coll.chain(star), k)
            out.append(f"{mu} {op} {i}")
            out += [f"  {ctx}: {line}" for (ctx, _), line in zip(rows, report_lines([r for _, r in rows]))]
            out.append(f"  disjoint: {_disjoint_fault(group, k, all(r.ok for _, r in rows))}")
    return out


def test_damaged_chains_keep_their_rows(coll12):
    report = damaged_report(coll12, 10)
    assert sum(not line.startswith(" ") for line in report) == DAMAGED_VARIANTS
    assert any("FAIL" in line for line in report)
    assert hashlib.sha256("\n".join(report).encode()).hexdigest() == DAMAGED_DIGEST


def _fresh(group: dict) -> dict:
    return {mu: _copy(c) for mu, c in group.items()}


def test_disjoint_row_matches_the_walk_oracle(base_coll, coll16):
    """Every deficit of the deficit-16 and the generalized deficit-12
    collections, each group clean as its pairs pass check_pair: the row
    walked to the larger of k and the largest base dinv gives the witness
    of the walk to coverage_bound(k) + 10.  From deficit 2 on, each group
    is also tried with its first chain replaced by the bare final orbit of
    one of its last three members, which shares only classes at or past
    that member's base dinv; and each base deficit from 2 on without its
    last chain, which leaves classes uncovered."""
    shared = missing = 0
    for coll in (coll16, extend_all(base_coll, 12, mode="generalized")):
        for k in range(coll.k_max + 1):
            group = {mu: _copy(coll.chain(mu)) for mu in coll.members() if sum(mu) == k}
            clean = all(
                r.ok for mu, star in coll.pairs() if sum(mu) == k
                for _, r in check_pair(group[mu], group[star], k)
            )
            assert clean
            assert _disjoint_fault(group, k, clean) == disjoint_fault_by_walk(_fresh(group), k), k
            first, *rest = group
            for mu in rest[-3:]:
                damaged = {**group, first: Chain(mu, ti_dinv(mu), [ti(mu)])}
                want = disjoint_fault_by_walk(_fresh(damaged), k)
                assert _disjoint_fault(damaged, k, True) == want != "", (k, mu)
                shared += 1
            if k <= builder.BASE_K_MAX and rest:
                damaged = {mu: group[mu] for mu in [first, *rest[:-1]]}
                want = disjoint_fault_by_walk(_fresh(damaged), k)
                assert _disjoint_fault(damaged, k, True) == want != "", k
                missing += 1
    assert shared == 2 * (1 + 2 + 3 + 3) + 3 * (11 + 7)
    assert missing == 2 * 4


# partitions validate_collection walks on the deficit-16 collection; 32,920
# when every chain was walked to coverage_bound(k) + 10, 19,584 when the
# base deficits still were
WALKED_BY_VERIFY_16 = 19_136


def test_disjoint_row_stops_clean_groups_at_their_largest_base_dinv(monkeypatch, coll16):
    """validate_collection on the deficit-16 collection walks each chain only
    to the larger of its deficit and the largest base dinv of its deficit (or
    its own amh horizon, when that lies further), not to coverage_bound(k) + 10."""
    made: list[Chain] = []

    class Recorded(Chain):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(builder, "Chain", Recorded)
    rows = validate_collection(coll16)
    assert len(rows) == 3145 and all(r.ok for _, r in rows)
    tops = {}
    for c in made:
        tops[sum(c.mu)] = max(tops.get(sum(c.mu), 0), ti_dinv(c.mu))
    for c in made:
        k = sum(c.mu)
        top = max(tops[k], k, c.amh_horizon())
        assert len(c._parts) == top - c.start_dinv + 1, c
    assert sum(len(c._parts) for c in made) == WALKED_BY_VERIFY_16


def test_check_pair_matches_the_clause_oracle(base_coll, coll16):
    """Every pair of the deficit-16 and the generalized deficit-12
    collections: checking each chain once and joining the results gives the
    rows of the clause-by-clause check."""
    for coll in (coll16, extend_all(base_coll, 12, mode="generalized")):
        for mu, star in coll.pairs():
            chain, partner = coll.chain(mu), coll.chain(star)
            got = check_pair(chain, partner, sum(mu))
            assert got == check_pair_by_clauses(chain, partner, sum(mu)), mu
            assert all(r.ok for _, r in got), mu


def test_check_pair_matches_the_clause_oracle_on_damaged_chains(coll12):
    """Two adjacent generators of the first chain of a pair of deficit at
    most 8 swapped: the failing rows of the clause-by-clause check."""
    count = 0
    for mu, star in coll12.pairs():
        if sum(mu) > 8:
            continue
        chain = coll12.chain(mu)
        for i in range(len(chain.generators) - 1):
            gens = list(chain.generators)
            gens[i], gens[i + 1] = gens[i + 1], gens[i]
            bad = Chain(mu, chain.start_dinv, gens)
            partner = bad if star == mu else coll12.chain(star)
            got = check_pair(bad, partner, sum(mu))
            assert got == check_pair_by_clauses(bad, partner, sum(mu)), (mu, i)
            assert not all(r.ok for _, r in got), (mu, i)
            count += 1
    assert count == 105


@cache
def class_at(k: int, d: int) -> Vector | None:
    """The first reduced vector of deficit k and dinv d, if there is one."""
    return next((v for v in enumerate_deficit(k, d) if dinv(v) == d), None)


def basic_a_damage(coll, k_max: int) -> Iterator[tuple[tuple, str, Chain, str]]:
    """The first chain of each pair of deficit at most k_max with damage that
    basic-a decides: start_dinv shifted by -1 or +1, or one generator g of
    dinv d replaced by its lift, by the first class of dinv d and deficit
    k + 1 (none for the empty partition's generator, at d = 0) or by the
    first class of deficit k and dinv d + 1.  Each comes with its basic-a
    witness when the chain can be walked: the stored vector at the first
    slot it moves."""
    for mu, _ in coll.pairs():
        k = sum(mu)
        if k > k_max:
            continue
        chain = coll.chain(mu)
        start, gens = chain.start_dinv, chain.generators
        for s in (-1, 1):
            bad = Chain(mu, start + s, gens)
            yield mu, f"start{s:+}", bad, f"element {gens[0]} at slot {start + s}"
        for i, g in enumerate(gens):
            d = dinv(g)
            for op, new in (
                ("lift", lift(g)), ("deficit", class_at(k + 1, d)), ("dinv", class_at(k, d + 1))
            ):
                if new is not None:
                    bad = Chain(mu, start, gens[:i] + [new] + gens[i + 1 :])
                    yield mu, f"{op} {i}", bad, f"element {new} at slot {d}"


def test_check_pair_matches_the_clause_oracle_on_basic_a_damage(coll12):
    """Damage that basic-a reads: check_pair gives the rows of the
    clause-by-clause check, whose basic-a reads every element, and basic-a
    fails at the first segment start the damage moves, with the stored
    vector as witness, whenever the damaged chain can be walked."""
    counts = Counter()
    for mu, op, bad, witness in basic_a_damage(coll12, 8):
        star = coll12.partner(mu)
        partner = bad if star == mu else coll12.chain(star)
        got = check_pair(bad, partner, sum(mu))
        assert got == check_pair_by_clauses(bad, partner, sum(mu)), (mu, op)
        basic_a = next(r for ctx, r in got if ctx == format_partition(mu))
        assert basic_a.clause == "basic-a" and not basic_a.ok, (mu, op)
        walked = basic_a.witness.startswith("element")
        assert basic_a.witness == witness or not walked, (mu, op)
        counts[op.split()[0], walked] += 1
    assert counts == {
        ("start-1", True): 27,
        ("start+1", True): 3,
        ("start+1", False): 24,
        ("lift", True): 132,
        ("deficit", True): 105,
        ("deficit", False): 26,
        ("dinv", True): 112,
        ("dinv", False): 20,
    }


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


def test_cat_n_mu_matches_lookup_oracle(base_coll):
    for mu in base_coll.members():
        for n in range(1, 13):
            want = cat_n_mu_by_lookup(n, base_coll.chain(mu))
            assert cat_n_mu(n, base_coll.chain(mu)) == want, (mu, n)


def test_opposite_matches_per_n_oracle(coll12):
    for mu, star in coll12.pairs():
        chain, partner = coll12.chain(mu), coll12.chain(star)
        assert opposite_bruteforce(chain, partner, 24) == opposite_per_n(chain, partner, 24), mu


def test_opposite_on_every_ordered_pair_matches_per_n_oracle(coll12):
    """Every ordered pair of chains of deficit at most 4, self pairs and pairs
    of different sizes included: the same rows and witnesses as the per-n
    oracle, with failing rows among the pairs of different sizes."""
    chains = [coll12.chain(mu) for mu in coll12.members() if sum(mu) <= 4]
    assert len(chains) == 12
    mixed = []
    for chain in chains:
        for partner in chains:
            got = opposite_bruteforce(chain, partner, 12)
            assert got == opposite_per_n(chain, partner, 12), (chain, partner)
            if sum(chain.mu) != sum(partner.mu):
                mixed += got
    assert any(r.ok for r in mixed) and any(not r.ok for r in mixed)


@pytest.mark.parametrize("n_max,count", [(1, 200), (5, 200), (12, 200), (33, 8), (40, 4)])
def test_opposite_masks_on_sampled_pairs_match_per_n_oracle(coll16, n_max, count):
    """Seeded ordered pairs of chains of deficit at most 16, mostly of
    different sizes, and stored pairs: the bit-mask rows and witnesses equal
    the per-n polynomials'.  Mismatched pairs map partner dinvs below the
    chain's start, where the shifted mask drops them."""
    members = coll16.members()
    rng = random.Random(n_max)
    pairs = [(rng.choice(members), rng.choice(members)) for _ in range(count)]
    pairs += rng.sample(list(coll16.pairs()), 4)
    assert sum(sum(mu) != sum(star) for mu, star in pairs) > count // 2
    for mu, star in pairs:
        chain, partner = coll16.chain(mu), coll16.chain(star)
        got = opposite_bruteforce(chain, partner, n_max)
        assert got == opposite_per_n(chain, partner, n_max), (mu, star)
        if coll16.pairing[mu] == star:
            assert all(r.ok for r in got), (mu, star)


def test_opposite_masks_with_negative_mapped_dinvs(coll16):
    """A single-segment partner labelled 3 or 7 dinvs too high has elements
    whose dinv maps to C(n,2) - |mu*| - d < 0 at small n: the same rows and
    witnesses as the per-n oracle, in both roles."""
    members = random.Random(5).sample(coll16.members(), 10)
    negative = 0
    for star in [(), (1,), (1, 1)]:
        stored = coll16.chain(star)
        assert len(stored.generators) == 1
        for shift in (3, 7):
            shifted = Chain(star, stored.start_dinv + shift, stored.generators)
            negative += any(
                ln <= n and d > comb(n, 2) - sum(star)
                for n in range(1, 13)
                for d, ln in lengths(shifted, 12)
            )
            for mu in members:
                chain = coll16.chain(mu)
                for a, b in ((chain, shifted), (shifted, chain), (shifted, shifted)):
                    assert opposite_bruteforce(a, b, 12) == opposite_per_n(a, b, 12), (mu, star, shift)
    assert negative == 6


def test_lengths_stop_before_a_final_segment_stops():
    """The 1^2 chain with its generator replaced by the class of 2^21^2,
    whose first-order segment has reduced lengths 5, 6, 6, 6, 6, 6, 7 and
    then stops: the walk reaches only the elements _lengths reads, so it
    returns below that stop and raises past it."""
    chain = Chain((1, 1), 2, [class_from_partition((2, 2, 1, 1))])
    assert lengths(chain, 5) == [(2, 5)]
    assert lengths(chain, 6) == [(2, 5)] + [(d, 6) for d in range(3, 8)]
    assert opposite_bruteforce(chain, chain, 6) == opposite_per_n(chain, chain, 6)
    assert cat_n_mu(6, chain) == QtPolynomial({(comb(6, 2) - 2 - d, d): 1 for d in range(2, 8)})
    with pytest.raises(RuntimeError, match="final segment of Chain\\(1\\^2, start=2\\) stopped"):
        _lengths(chain, 7)


def _result_or_error(f, *args):
    try:
        return f(*args)
    except RuntimeError as e:
        return str(e)


def test_opposite_on_damaged_chains_matches_per_n_oracle(coll12):
    """Two adjacent generators of one chain swapped: the same rows and
    witnesses as the per-n oracle, or the same walk error."""
    outcomes = []
    for mu, star in coll12.pairs():
        if sum(mu) > 8:
            continue
        chain, partner = coll12.chain(mu), coll12.chain(star)
        for i in range(len(chain.generators) - 1):
            gens = list(chain.generators)
            gens[i], gens[i + 1] = gens[i + 1], gens[i]
            got, want = (
                _result_or_error(check, Chain(mu, chain.start_dinv, gens), partner, 14)
                for check in (opposite_bruteforce, opposite_per_n)
            )
            assert got == want, (mu, i)
            outcomes.append(got)
    failing = [o for o in outcomes if isinstance(o, list) and not all(r.ok for r in o)]
    errors = [o for o in outcomes if isinstance(o, str)]
    assert failing and errors


LENGTH_NS = (1, 3, 12, 32, 40)


def _copy(chain: Chain) -> Chain:
    return Chain(chain.mu, chain.start_dinv, chain.generators)


def test_lengths_match_the_walk_on_stored_chains(base_coll, coll16):
    """Every chain built to deficit 16, and every chain of the generalized
    collection to deficit 12: the closed-form final orbit gives the walk's
    (dinv, length) pairs, and the chain holds no element past its base dinv."""
    for coll in (coll16, extend_all(base_coll, 12, mode="generalized")):
        for mu in coll.members():
            chain = coll.chain(mu)
            ours, walked = _copy(chain), _copy(chain)
            for n in LENGTH_NS:
                assert lengths(ours, n) == lengths_by_walk(walked, n), (mu, n)
            assert len(ours._parts) <= ours._base_slot + 1, mu


def test_lengths_match_the_walk_on_damaged_chains(coll12):
    """Two adjacent generators of one chain of deficit at most 8 swapped, and
    the single-segment chains of 0, 1 and 11 started 3 or 7 dinvs too high
    (they never reach their base dinv) or too low (a later orbit class sits
    at the base dinv): the walk's pairs, or its error."""
    damaged = []
    for mu in coll12.members():
        chain = coll12.chain(mu)
        if sum(mu) > 8:
            continue
        for i in range(len(chain.generators) - 1):
            gens = list(chain.generators)
            gens[i], gens[i + 1] = gens[i + 1], gens[i]
            damaged.append((mu, chain.start_dinv, gens))
    for mu in [(), (1,), (1, 1)]:
        chain = coll12.chain(mu)
        assert len(chain.generators) == 1
        damaged += [(mu, chain.start_dinv + shift, chain.generators) for shift in (-7, -3, 3, 7)]
    outcomes = []
    for mu, start, gens in damaged:
        for n in LENGTH_NS:
            got, want = (_result_or_error(f, Chain(mu, start, gens), n) for f in (lengths, lengths_by_walk))
            assert got == want, (mu, start, gens, n)
            outcomes.append(got)
    assert any(isinstance(o, str) for o in outcomes)
    assert any(isinstance(o, list) and o for o in outcomes)


def test_mind_after_a_first_order_step():
    """Surgery raises the reduced length to max(mind(p), len(p) + 2), on
    every partition of size at most 25 that has a first-order step."""
    steps = 0
    for n in range(26):
        for p in partitions_of(n):
            q = nu1_partition(p)
            if q is not None:
                assert mind(q) == max(mind(p), len(p) + 2), p
                steps += 1
    assert steps == 6_286


def test_dinv_and_size_after_a_first_order_step():
    """nu1_partition raises partition_dinv and |p| by exactly 1, and
    nd1_partition lowers both by exactly 1, on every partition of size at
    most 25 where the step is defined."""
    ups = downs = 0
    for n in range(26):
        for p in partitions_of(n):
            d = partition_dinv(p)
            q = nu1_partition(p)
            if q is not None:
                assert (partition_dinv(q), sum(q)) == (d + 1, n + 1), p
                ups += 1
            q = nd1_partition(p)
            if q is not None:
                assert (partition_dinv(q), sum(q)) == (d - 1, n - 1), p
                downs += 1
    assert (ups, downs) == (6_286, 4_990)


def test_dinv_and_size_after_a_second_order_step():
    """nd2_partition lowers partition_dinv and |p| by exactly 1, and
    nu2_partition raises both by exactly 1, on every partition of size at
    most 25 where the step is defined and on every nd2 step of the ti2
    walks for |mu| <= 16: the extended orbit walk reads its bottom dinv off
    the number of steps it takes."""
    ups = downs = 0
    for n in range(26):
        for p in partitions_of(n):
            d = partition_dinv(p)
            q = nu2_partition(p)
            if q is not None:
                assert (partition_dinv(q), sum(q)) == (d + 1, n + 1), p
                ups += 1
            q = nd2_partition(p)
            if q is not None:
                assert (partition_dinv(q), sum(q)) == (d - 1, n - 1), p
                downs += 1
    assert (ups, downs) == (156, 135)
    steps = 0
    for n in range(17):
        for mu in partitions_of(n):
            p = partition_from_class(ti(mu))
            while (q := nd2_partition(p := _nd1_stretch(p)[0])) is not None:
                assert (partition_dinv(q), sum(q)) == (partition_dinv(p) - 1, sum(p) - 1), mu
                p = q
                steps += 1
            assert class_from_partition(p) == ti2(mu), mu
    assert steps == 2_895


def test_orbit_bottom_by_index_is_the_dinv_of_ti2(base_coll, coll16):
    """On every chain of the deficit-16 and the generalized deficit-12
    collections the downward extra-d walk stays on the chain, and the dinv
    it reaches the bottom at is that of ti2(mu)."""
    for coll in (coll16, extend_all(base_coll, 12, mode="generalized")):
        for mu, chain in coll.chains.items():
            c = _copy(chain)
            bottom, depart = _orbit_below(c, c.partitions_upto(c.amh_horizon()))
            assert bottom == partition_dinv(partition_from_class(ti2(mu))), mu
            assert depart is None, mu


def extra_d_damage(coll, k_max: int) -> Iterator[tuple[tuple, str, Chain]]:
    """The first chain of each pair of deficit at most k_max with damage that
    extra-d reads: each generator from the dinv of ti2(mu) up to, not at,
    that of ti(mu) replaced by another class of its dinv and deficit
    ("orbit"), where there is one; the
    generators at or below the dinv of ti2(mu) dropped and start_dinv moved
    to the next one ("start"); the final generator, at the base slot,
    replaced by the class of that dinv in the orbit of another partition of
    the deficit ("base")."""
    for mu, _ in coll.pairs():
        k = sum(mu)
        if k > k_max:
            continue
        chain = coll.chain(mu)
        start, gens = chain.start_dinv, chain.generators
        bottom, top = dinv(ti2(mu)), ti_dinv(mu)
        for i, g in enumerate(gens):
            d = dinv(g)
            if bottom <= d < top:
                new = next((v for v in enumerate_deficit(k, d) if dinv(v) == d and v != g), None)
                if new is not None:
                    yield mu, f"orbit {i}", Chain(mu, start, gens[:i] + [new] + gens[i + 1 :])
        if bottom < top:
            j = next(j for j, g in enumerate(gens) if dinv(g) > bottom)
            yield mu, "start", Chain(mu, dinv(gens[j]), gens[j:])
        other = next((nu for nu in partitions_of(k) if nu != mu and ti_dinv(nu) <= top), None)
        if other is not None:
            new = tail_elements(other, top - ti_dinv(other) + 1)[-1]
            yield mu, "base", Chain(mu, start, gens[:-1] + [new])


def test_check_pair_matches_the_clause_oracle_on_extra_d_damage(coll12):
    """Damage to the extended orbit part of a chain: check_pair, whose
    extra-d walks the orbit down from the base class, gives the rows of the
    clause-by-clause check, which walks it up from ti2(mu).  A moved orbit
    element fails extra-d at a departure and a moved start at the orbit's
    bottom; a replaced base-slot generator fails basic-d, and extra-d, which
    reads the orbit below the base dinv, passes in both."""
    counts = Counter()
    for mu, op, bad in extra_d_damage(coll12, 10):
        star = coll12.partner(mu)
        partner = bad if star == mu else coll12.chain(star)
        got = check_pair(bad, partner, sum(mu))
        assert got == check_pair_by_clauses(bad, partner, sum(mu)), (mu, op)
        rows = {r.clause: r for ctx, r in got if ctx == format_partition(mu)}
        extra_d = rows["extra-d"]
        kind = op.split()[0]
        if kind == "base":
            assert extra_d.ok and not rows["basic-d"].ok, (mu, op)
        else:
            want = "departs from the chain" if kind == "orbit" else f"starts at {dinv(ti2(mu))},"
            assert not extra_d.ok and want in extra_d.witness, (mu, op)
        counts[kind] += 1
    assert counts == {"orbit": 92, "start": 38, "base": 36}


def partitions_to_size(n_max: int):
    """Partitions of size at most n_max: parts up to a drawn bound, largest
    first, each kept while the total stays within n_max.  Small bounds give
    long partitions, where nu1_partition is defined."""

    def build(parts: list[int]) -> Partition:
        out: list[int] = []
        for a in sorted(parts, reverse=True):
            if sum(out) + a <= n_max:
                out.append(a)
        return tuple(out)

    parts = st.integers(1, 40).flatmap(lambda top: st.lists(st.integers(1, top), max_size=80))
    return parts.map(build)


@settings(max_examples=400)
@given(partitions_to_size(80))
def test_first_order_steps_move_dinv_and_size_by_one(p):
    """The lemma basic-a rests on, past the exhaustive range above: where
    nu1_partition or nd1_partition is defined, it moves partition_dinv and
    |p| by exactly +1 or -1, and each dinv is the cell count of the oracle."""
    d = partition_dinv(p)
    assert d == partition_dinv_by_cells(p)
    for step, sign in ((nu1_partition, 1), (nd1_partition, -1)):
        q = step(p)
        if q is not None:
            assert (partition_dinv(q), sum(q)) == (d + sign, sum(p) + sign)
            assert partition_dinv(q) == partition_dinv_by_cells(q)


def test_walk_carries_the_reduced_lengths(coll16):
    """Every chain of the deficit-16 collection, walked at once to
    coverage_bound(k) + 10 and one element at a time as far: the lengths
    carried along the walk are the mind of each partition."""
    for mu in coll16.members():
        d = coverage_bound(sum(mu)) + 10
        chain, stepped = _copy(coll16.chain(mu)), _copy(coll16.chain(mu))
        parts = chain.partitions_upto(d)
        assert chain._minds[: len(parts)] == [mind(p) for p in parts], mu
        assert [p for _, p in zip(parts, stepped.walk())] == parts
        assert stepped._minds == chain._minds, mu


def test_share_keeps_only_the_finite_part(base_coll):
    """cat_n_mu at N = 340 on a fresh chain of 1 reads its orbit in closed
    form: the chain holds no partition past its base dinv.  The chain starts
    at its base class, of length 3, so the share has one term of length 3
    and L - 1 of each length L = 4..340."""
    chain = _copy(base_coll.chain((1,)))
    share = cat_n_mu(340, chain)
    assert len(chain._parts) <= chain._base_slot + 1
    assert len(share.terms) == 1 + sum(range(3, 340))


def test_share_text_is_the_str_of_the_share(base_coll, coll16):
    """Every chain of the deficit-16 and the generalized deficit-12
    collections: share_text writes str(cat_n_mu) at every n tried, the
    empty share "0" among them."""
    empty = 0
    for coll in (coll16, extend_all(base_coll, 12, mode="generalized")):
        for mu in coll.members():
            chain = coll.chain(mu)
            for n in (0, 1, 6, 13, 40):
                want = str(cat_n_mu(n, _copy(chain)))
                assert share_text(n, _copy(chain)) == want, (mu, n)
                empty += want == "0"
    assert empty > 0


def test_share_text_builds_no_polynomial(base_coll):
    """At N = 900 on the chain of 1 (404,548 terms), share_text peaks at
    38 MB under tracemalloc, against 110 MB for str(cat_n_mu(900, ...)),
    which builds the polynomial and sorts its terms; the texts are equal."""
    chain = base_coll.chain((1,))
    tracemalloc.start()
    try:
        text = share_text(900, _copy(chain))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 55_000_000, peak
    assert text == str(cat_n_mu(900, _copy(chain)))


def test_share_pieces_hold_one_run_at_a_time(base_coll):
    """`catalan N --mu MU` writes share_pieces: at N = 300 on the chain of 1,
    785,045 bytes of text in 298 runs, reading them peaks at 0.06 MB under
    tracemalloc, against the whole text for share_text."""
    pieces = size = 0
    tracemalloc.start()
    try:
        for piece in share_pieces(300, _copy(base_coll.chain((1,)))):
            pieces += 1
            size += len(piece)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (pieces, size) == (298, 785_045)
    assert peak < 250_000, peak
