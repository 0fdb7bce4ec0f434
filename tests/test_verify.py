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
from qtchains.cli import BUILD_MAX
from qtchains.dyck import (
    Vector,
    class_from_partition,
    dinv,
    enumerate_deficit,
    mind,
    parse_vector,
    partition_and_mind,
    partition_dinv,
    partition_from_class,
    starts_00,
)
from qtchains.partitions import Partition, format_partition, partitions_of
from qtchains.poly import QtPolynomial, cat_n, deficit_slice
from qtchains.steps import nd, nd1_partition, nd2_partition, nu1, nu1_partition, nu2_partition
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
    check_chain,
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
    reduce_by_lifting,
)


GENS15 = [parse_vector(g) for g in ("0012332", "0012222", "0012211", "0011111")]


def chain15(gens: list = GENS15) -> Chain:
    return Chain((1, 1, 1, 1, 1), 5, gens)


def basic(chain: Chain, d: int) -> list[CheckResult]:
    """check_basic on the chain's elements through dinv d: basic-a, b and d."""
    parts = chain.partitions_upto(d)
    return check_basic(chain, parts, [mind(p) for p in parts], frozenset(parts))


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
        assert all(r.ok for r in check_basic(c, parts, [mind(p) for p in parts], frozenset(parts)))
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


def group_classes(group: dict) -> list:
    """The ChainCheck.classes of the chains of group, None for a chain that is
    open or cannot be walked, as validate_collection hands them to the
    disjoint row of a group whose pair rows all pass."""
    return [check_chain(c).classes for c in group.values()]


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
            classes = group_classes(group) if all(r.ok for _, r in rows) else None
            out.append(f"  disjoint: {_disjoint_fault(group, k, classes)}")
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
    collections, each group clean as its pairs pass check_pair, its chains
    closed and their classes disjoint: the row, which walks nothing, gives
    the witness of the walk to coverage_bound(k) + 10.  From deficit 2 on,
    each group is also tried with its first chain replaced by the bare final
    orbit of one of its last three members, which shares only classes at or
    past that member's base dinv; and each base deficit from 2 on without
    its last chain, which leaves classes uncovered."""
    shared = missing = 0
    for coll in (coll16, extend_all(base_coll, 12, mode="generalized")):
        for k in range(coll.k_max + 1):
            group = {mu: _copy(coll.chain(mu)) for mu in coll.members() if sum(mu) == k}
            clean = all(
                r.ok for mu, star in coll.pairs() if sum(mu) == k
                for _, r in check_pair(group[mu], group[star], k)
            )
            assert clean
            classes = group_classes(group)
            assert None not in classes
            assert _disjoint_fault(group, k, classes) == disjoint_fault_by_walk(_fresh(group), k), k
            first, *rest = group
            for mu in rest[-3:]:
                damaged = {**group, first: Chain(mu, ti_dinv(mu), [ti(mu)])}
                want = disjoint_fault_by_walk(_fresh(damaged), k)
                assert _disjoint_fault(damaged, k, group_classes(damaged)) == want != "", (k, mu)
                shared += 1
            if k <= builder.BASE_K_MAX and rest:
                damaged = {mu: group[mu] for mu in [first, *rest[:-1]]}
                want = disjoint_fault_by_walk(_fresh(damaged), k)
                assert _disjoint_fault(damaged, k, group_classes(damaged)) == want != "", k
                missing += 1
    assert shared == 2 * (1 + 2 + 3 + 3) + 3 * (11 + 7)
    assert missing == 2 * 4


# partitions validate_collection walks on the deficit-16 collection, and the
# nu1_partition steps it takes; 19,136 and 18,895 when every chain was walked
# to its amh horizon, 32,920 partitions when every chain was walked to
# coverage_bound(k) + 10
WALKED_BY_VERIFY_16 = 12_318
NU1_BY_VERIFY_16 = 12_077


def test_verify_walks_each_chain_through_its_base_slot(monkeypatch, coll16):
    """validate_collection on the deficit-16 collection walks each chain
    through its base slot, at dinv max(ti_dinv(mu), start), and no further:
    every chain there is closed, its element there the base class of mu, so
    the rest of it is that class's orbit, whose lengths add no descent, and
    the classes walked decide basic-b, basic-e and the disjoint rows.
    No step is taken past the base slot, so each segment start but the
    first follows one nu1_partition call that returned None; basic-a reads
    one partition_dinv per generator."""
    made: list[Chain] = []
    steps = []
    dinvs = []

    class Recorded(Chain):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    step, dinv_of = verify.nu1_partition, verify.partition_dinv
    monkeypatch.setattr(builder, "Chain", Recorded)
    monkeypatch.setattr(verify, "nu1_partition", lambda p: steps.append(p) or step(p))
    monkeypatch.setattr(verify, "partition_dinv", lambda p: dinvs.append(p) or dinv_of(p))
    rows = validate_collection(coll16)
    assert len(rows) == 3145 and all(r.ok for _, r in rows)
    assert len(made) == len(coll16.chains)
    for c in made:
        assert len(c._parts) == max(ti_dinv(c.mu), c.start_dinv) - c.start_dinv + 1, c
        assert len(c._starts) == len(c.generators), c
    walked = sum(len(c._parts) for c in made)
    assert walked == WALKED_BY_VERIFY_16
    assert len(steps) == NU1_BY_VERIFY_16 == walked - len(made)
    assert len(dinvs) == sum(len(c.generators) for c in made) == 4_594


def test_check_chain_stops_at_the_base_slot_with_the_horizon_amh(base_coll, coll16):
    """Every chain of the deficit-16 and the generalized deficit-12
    collections is closed: check_chain walks it through its base slot only,
    holds the partitions of its classes there, and its amh data are those
    of the class-vector profile through the amh horizon."""
    for coll in (coll16, extend_all(base_coll, 12, mode="generalized")):
        for mu, chain in coll.chains.items():
            checked = check_chain(_copy(chain))
            assert checked.ok, mu
            walked = _copy(chain).elements_upto(ti_dinv(mu))
            assert checked.classes == frozenset(map(partition_from_class, walked)), mu
            assert len(checked.classes) == len(walked), mu
            assert len(checked.chain._parts) == ti_dinv(mu) - chain.start_dinv + 1, mu
            assert checked.amh == chain_amh(_copy(chain)), mu


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


def test_extra_c_holds_across_every_first_order_step():
    """The reduced length never drops across a nu1_partition step, and the
    drop criterion holds there: it rises exactly when the length of p starts
    with 0 0, on every partition of size at most 22 with a first-order step.
    So check_extra reads extra-c at segment ends only."""
    steps = 0
    for n in range(23):
        for p in partitions_of(n):
            q = nu1_partition(p)
            if q is not None:
                assert mind(q) >= mind(p), p
                assert (mind(p) < mind(q)) == starts_00(p, mind(p)), p
                steps += 1
    assert steps == 3_104


def test_segments_from_maximal_starts_share_no_class():
    """nd1_partition inverts nu1_partition, so the first-order segments from
    partitions with no nd1_partition are equal or share no class: the 728
    such starts of size at most 18, each walked up to 40 steps, hold 3,010
    classes, none twice."""
    owner: dict = {}
    starts = 0
    for n in range(19):
        for p in partitions_of(n):
            if nd1_partition(p) is not None:
                continue
            starts += 1
            q = p
            for _ in range(40):
                assert owner.setdefault(q, p) == p, (p, q)
                q = nu1_partition(q)
                if q is None:
                    break
    assert (starts, len(owner)) == (728, 3_010)


def test_the_base_class_has_no_first_order_predecessor():
    """The base class ti(mu) has no nd1_partition, for every partition mu of
    size at most BUILD_MAX: for nonempty mu the partition of ti(mu), of
    length n, has n - 1 parts and first part n - 2, below its number of
    parts, and ti of the empty partition has the empty partition.  So a
    closed chain's final segment starts at its base slot, and no walkable
    chain holds an element of the base class's orbit past it before its
    own base slot (check_chain)."""
    count = 0
    for n in range(BUILD_MAX + 1):
        for mu in partitions_of(n):
            v = ti(mu)
            p = partition_from_class(v)
            assert (len(p), p[0]) == (len(v) - 1, len(v) - 2) if mu else p == (), mu
            assert nd1_partition(p) is None, mu
            count += 1
    assert count == 7_338


def test_start_reader_gives_the_reduced_length(base_coll, coll16):
    """partition_and_mind reads the partition of partition_from_class and the
    reduced length, mind of that partition and the length of the lifting
    oracle's reduced vector, on every generator of the deficit-16 and the
    generalized deficit-12 collections, and on every class of deficit at
    most 8 and dinv at most 30, reduced and lifted."""
    vectors = [
        g
        for coll in (coll16, extend_all(base_coll, 12, mode="generalized"))
        for c in coll.chains.values()
        for g in c.generators
    ]
    classes = [v for k in range(9) for v in enumerate_deficit(k, 30)]
    vectors += classes + [lift(v) for v in classes]
    for v in vectors:
        p = partition_from_class(v)
        assert partition_and_mind(v) == (p, mind(p)) == (p, len(reduce_by_lifting(v))), v
    assert len(classes) == 1_860


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


def assert_closed_beyond_the_base_slot(chains: dict) -> None:
    """Each chain of chains is closed, and no partition past its base slot,
    walked through its amh horizon, lies in the classes of any of them: the
    orbit past the slot repeats no class and meets no other chain."""
    classes = [check_chain(_copy(c)).classes for c in chains.values()]
    assert None not in classes
    held = frozenset().union(*classes)
    for c in chains.values():
        c = _copy(c)
        beyond = c.partitions_upto(c.amh_horizon())[ti_dinv(c.mu) - c.start_dinv + 1 :]
        assert beyond and held.isdisjoint(beyond), c


def damaged_chains(coll, k_max: int) -> Iterator[tuple[tuple, str, Chain]]:
    """Each chain of deficit at most k_max with one generator duplicated,
    dropped (when it has several) or replaced by the nu1 image of its class,
    started one dinv below, at or above its start."""
    for mu in coll.members():
        if sum(mu) > k_max:
            continue
        chain = coll.chain(mu)
        gens = chain.generators
        for i, g in enumerate(gens):
            variants = [("dup", gens[: i + 1] + gens[i:])]
            if len(gens) > 1:
                variants.append(("drop", gens[:i] + gens[i + 1 :]))
            if (new := nu1(g)) is not None:
                variants.append(("nu1", gens[:i] + [new] + gens[i + 1 :]))
            for op, new_gens in variants:
                for shift in (-1, 0, 1):
                    yield mu, f"{op} {i} {shift:+d}", Chain(mu, chain.start_dinv + shift, new_gens)


def test_an_open_chain_fails_basic_a_or_basic_d(coll12):
    """A walkable chain that is not closed fails basic-a or basic-d: a chain
    passing both holds its final generator ti(mu) at dinv ti_dinv(mu), the
    base slot.  So every chain of a clean group is closed.  Pinned on the
    damaged chains of deficit at most 10 (damaged_chains)."""
    counts = Counter()
    for mu, op, bad in damaged_chains(coll12, 10):
        checked = check_chain(bad)
        if checked.amh is None:
            kind = "unwalkable"
        elif checked.classes is None:
            rows = {r.clause: r.ok for r in checked.rows}
            assert not (rows["basic-a"] and rows["basic-d"]), (mu, op)
            kind = "open"
        else:
            kind = "closed"
        counts[kind] += 1
    assert counts == {"open": 2_007, "closed": 378, "unwalkable": 1_521}


def test_a_closed_chain_keeps_its_classes_beyond_the_base_slot(coll12):
    """Every closed chain among the damaged chains of deficit at most 10
    (damaged_chains) and the extra-d damage, walked on to its amh horizon:
    no partition past its base slot lies in its classes, so the walk through
    the slot decides basic-b."""
    count = 0
    for mu, op, bad in [*damaged_chains(coll12, 10), *extra_d_damage(coll12, 10)]:
        if check_chain(_copy(bad)).classes is not None:
            assert_closed_beyond_the_base_slot({mu: bad})
            count += 1
    assert count == 416


def test_passing_rows_build_no_witness(monkeypatch, coll12):
    """check_chain and check_amh on every pair of the deficit-12 collection
    format no partition and build no class vector: a witness is built only
    for a failing row."""
    calls = Counter()
    for name in ("format_partition", "class_from_partition"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, name=name, real=real: calls.update([name]) or real(*a))
    for mu, star in coll12.pairs():
        ours = check_chain(_copy(coll12.chain(mu)))
        theirs = check_chain(_copy(coll12.chain(star)))
        assert ours.ok and theirs.ok, mu
        assert all(r.ok for r in check_amh(ours.amh, theirs.amh, sum(mu))), mu
    assert calls == Counter()


def test_a_start_with_a_predecessor_walks_to_the_horizon(coll12):
    """A generator of a pair of deficit at most 8 replaced by the nu1 image of
    its class, which has an nd1_partition; the first also with the chain
    started one dinv later, so its segment runs on from there.  check_chain
    walks a closed chain through its base slot and an open one to the amh
    horizon, and check_pair gives the rows of the clause-by-clause check.
    Only the later starts that leave the chain's first element out stay
    closed, 24 of them."""
    counts = Counter()
    for mu, star in coll12.pairs():
        if sum(mu) > 8:
            continue
        chain = coll12.chain(mu)
        for i, g in enumerate(chain.generators):
            new = nu1(g)
            if new is None:
                continue
            gens = chain.generators[:i] + [new] + chain.generators[i + 1 :]
            damaged = [("replace", Chain(mu, chain.start_dinv, gens))]
            if i == 0:
                damaged.append(("start", Chain(mu, chain.start_dinv + 1, gens)))
            for op, bad in damaged:
                checked = check_chain(_copy(bad))
                closed = checked.classes is not None
                end = ti_dinv(mu) if closed else bad.amh_horizon()
                assert len(checked.chain._parts) == end - bad.start_dinv + 1, (mu, i, op)
                partner = bad if star == mu else coll12.chain(star)
                assert check_pair(bad, partner, sum(mu)) == check_pair_by_clauses(
                    _copy(bad), _copy(partner), sum(mu)
                ), (mu, i, op)
                counts[op, closed] += 1
    assert counts == {("replace", False): 132, ("start", False): 3, ("start", True): 24}


def test_a_start_copied_into_the_partner_fails_basic_e_by_the_walk(coll12):
    """A non-final generator of the partner replaced by a generator of the
    chain with the same dinv, in the pairs of deficit at most 10: check_pair
    gives the rows of the clause-by-clause check.  Where both sides stay
    closed, their classes meet and basic-e fails, with the shared classes
    of the walks to the horizons as witness."""
    counts = Counter()
    for mu, star in coll12.pairs():
        if sum(mu) > 10 or mu == star:
            continue
        chain, partner = coll12.chain(mu), coll12.chain(star)
        for g in chain.generators[:-1]:
            for j, h in enumerate(partner.generators[:-1]):
                if dinv(h) != dinv(g):
                    continue
                bad = Chain(star, partner.start_dinv, partner.generators[:j] + [g] + partner.generators[j + 1 :])
                got = check_pair(_copy(chain), bad, sum(mu))
                assert got == check_pair_by_clauses(_copy(chain), _copy(bad), sum(mu)), (mu, j)
                both = None not in (check_chain(_copy(chain)).classes, check_chain(_copy(bad)).classes)
                basic_e = [r for _, r in got if r.clause == "basic-e"]
                if both:
                    assert not basic_e[0].ok and basic_e[0].witness.startswith("shared classes"), (mu, j)
                    assert_closed_beyond_the_base_slot({mu: chain, star: bad})
                counts[both] += 1
    assert counts == {True: 11, False: 3}


def test_a_start_shared_across_a_deficit_fails_disjoint_by_the_walk(coll12):
    """A non-final generator of one chain of deficit 2 to 8 replaced by a
    different generator of another chain of the deficit with the same dinv,
    the group's classes handed over as for a clean group: the disjoint row
    gives the first witness of the walk to coverage_bound(k) + 10, also
    where every chain stays closed and two chains' classes meet."""
    counts = Counter()
    for k in range(2, 9):
        mus = [m for m in coll12.members() if sum(m) == k]
        for x in mus:
            gens = coll12.chain(x).generators
            for i, g in enumerate(gens[:-1]):
                for y in mus:
                    for h in coll12.chain(y).generators[:-1] if y != x else ():
                        if dinv(h) != dinv(g) or h == g:
                            continue
                        group = {m: _copy(coll12.chain(m)) for m in mus}
                        group[x] = Chain(x, coll12.chain(x).start_dinv, gens[:i] + [h] + gens[i + 1 :])
                        classes = group_classes(group)
                        got = _disjoint_fault(group, k, classes)
                        assert got == disjoint_fault_by_walk(_fresh(group), k) != "", (x, i, y)
                        counts[None not in classes] += 1
                        if None not in classes:
                            assert_closed_beyond_the_base_slot(group)
    assert counts == {True: 134, False: 50}


def test_a_repeated_segment_fails_basic_b_by_its_classes(coll12):
    """A non-final generator of a pair of deficit at most 8 replaced by an
    earlier one whose segment is as long, so the walk still ends at the base
    class: the chain is closed, its classes are fewer than its walk, basic-b
    fails, and check_pair gives the rows of the clause-by-clause check."""
    count = 0
    for mu, star in coll12.pairs():
        if sum(mu) > 8:
            continue
        chain = _copy(coll12.chain(mu))
        chain.partitions_upto(chain.amh_horizon())
        gens, at = chain.generators, chain._starts
        size = [b - a for a, b in zip(at, at[1:])]
        for j in range(len(gens) - 1):
            for i in range(j):
                if size[i] != size[j]:
                    continue
                bad = Chain(mu, chain.start_dinv, gens[:j] + [gens[i]] + gens[j + 1 :])
                checked = check_chain(_copy(bad))
                assert checked.classes is not None and not checked.rows[1].ok, (mu, i, j)
                assert len(checked.classes) < len(checked.chain._parts), (mu, i, j)
                assert_closed_beyond_the_base_slot({mu: bad})
                partner = bad if star == mu else coll12.chain(star)
                assert check_pair(bad, partner, sum(mu)) == check_pair_by_clauses(
                    _copy(bad), _copy(partner), sum(mu)
                ), (mu, i, j)
                count += 1
    assert count == 220


def test_a_final_generator_off_the_base_walks_the_orbit(coll12):
    """The final generator of a pair of deficit at most 10 replaced by the
    class of its dinv in another partition's orbit: check_chain finds no
    base class at the base slot and walks the orbit to the amh horizon."""
    count = 0
    for mu, op, bad in extra_d_damage(coll12, 10):
        if op == "base":
            checked = check_chain(_copy(bad))
            assert checked.classes is None, mu
            assert len(checked.chain._parts) == bad.amh_horizon() - bad.start_dinv + 1, mu
            count += 1
    assert count == 36


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
