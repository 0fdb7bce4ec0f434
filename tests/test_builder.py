import hashlib
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtchains import builder
from qtchains.builder import (
    BASE_K_MAX,
    ChainCollection,
    antipode,
    bridge_vector,
    build_context,
    collection_payload,
    extend_all,
    load_collection,
    needed_partitions,
    search_base_collection,
    save_collection,
    search_chains,
    seed_base_collection,
    validate_collection,
)
from qtchains.dyck import dinv, format_vector, parse_vector, reduce
from qtchains.flagpole import is_flagpole, phi
from qtchains.partitions import count_partitions_max, format_partition, parse_partition, partitions_of
from qtchains.tails import coverage_bound, ti2
from qtchains.verify import Chain, CheckResult

from oracles import (
    antipode_inverse,
    assignment_passes,
    chain_amh,
    chain_candidates,
    chain_walk_by_nu1,
    coverage_check,
    format_profile,
)

BASE_PRINTED = [
    ("0", "0", 0, "0"),
    ("1", "1", 1, "001"),
    ("1^2", "1^2", 2, "0011"),
    ("2", "2", 1, "0012 0001"),
    ("1^3", "21", 2, "00122 00111"),
    ("21", "1^3", 3, "00121 00101"),
    ("3", "3", 1, "00123 01012 00001"),
    ("1^4", "21^2", 3, "001232 001221 001111"),
    ("21^2", "1^4", 4, "001222 001211 001101"),
    ("2^2", "31", 2, "001233 00011"),
    ("31", "2^2", 2, "00112 001001"),
    ("4", "4", 1, "001234 00012 011012 000001"),
    ("1^5", "1^5", 5, "0012332 0012222 0012211 0011111"),
    ("21^3", "21^3", 4, "0012333 0012322 0012221 0012111 0011101"),
    ("2^21", "41", 2, "0012344 010122 001011"),
    ("31^2", "31^2", 3, "0012343 001121 0011001"),
    ("32", "32", 2, "001223 001212 001201 000101"),
    ("41", "2^21", 3, "001231 010112 0010001"),
    ("5", "5", 1, "0012345 010123 010012 0111012 0000001"),
]

K12_GENERATORS = (
    "00123456645 0012345432 0012343342 0012334232 0012323223 0012322321"
    " 0012232121 0012212112 0011211211 00112111001 001111001001"
)
K12_PARTNER_GENERATORS = (
    "001234567866 00123455564 0012333443 0012344322 0012332233 0012223322"
    " 0012332211 0012221122 0012112211 0011221101 00111101011"
)


# ------------------------------------------------------------ base collection

def test_base_collection_contents(base_coll):
    assert base_coll.k_max == 5
    assert len(base_coll.chains) == 19
    for word, partner, start, gens in BASE_PRINTED:
        mu = parse_partition(word)
        assert base_coll.partner(mu) == parse_partition(partner)
        chain = base_coll.chain(mu)
        assert chain.start_dinv == start
        assert chain.generators == [parse_vector(g) for g in gens.split()]
    for k in range(6):
        group = [mu for mu in base_coll.members() if sum(mu) == k]
        assert sorted(group) == sorted(partitions_of(k))


def test_pairing_is_involution(base_coll):
    for mu in base_coll.members():
        assert base_coll.partner(base_coll.partner(mu)) == mu
        assert sum(base_coll.partner(mu)) == sum(mu)


def test_search_reproduces_frozen_file(base_coll):
    fresh = search_base_collection()
    assert collection_payload(fresh) == collection_payload(base_coll)


def test_one_candidate_passes_at_each_base_deficit():
    # with a single certified assignment per deficit, no candidate order can
    # change the base collection
    for k in range(BASE_K_MAX + 1):
        passing = [c for c in chain_candidates(k) if assignment_passes(c)]
        assert len(passing) == 1, k


@pytest.mark.parametrize("k", range(BASE_K_MAX + 1))
def test_search_is_the_first_passing_candidate(k):
    first = next(c for c in chain_candidates(k) if assignment_passes(c))
    assert collection_payload(search_chains(k)) == collection_payload(first)


def _every_assignment(k: int) -> list[ChainCollection]:
    search = builder._Search(k)
    everything = frozenset(range(len(search.segments)))
    return [ChainCollection(c, p, k) for c, p in search.assignments(search.mus, everything)]


@pytest.mark.parametrize("k", range(BASE_K_MAX + 1))
def test_search_walks_every_passing_candidate(k):
    passing = [c for c in chain_candidates(k) if assignment_passes(c)]
    assert list(map(collection_payload, _every_assignment(k))) == list(
        map(collection_payload, passing)
    )


def test_search_walk_at_deficit_six(base_coll):
    found = _every_assignment(6)
    assert len(found) == 4
    assert collection_payload(found[0]) == collection_payload(search_chains(6))
    for f in found:
        coll = ChainCollection(
            {**base_coll.chains, **f.chains}, {**base_coll.pairing, **f.pairing}, 6
        )
        assert [r for _, r in validate_collection(coll, opposite_n=12) if not r.ok] == []


def test_unseeded_search_at_deficit_six(base_coll):
    found = search_chains(6)
    assert {format_partition(mu): format_partition(star) for mu, star in found.pairs()} == {
        "1^6": "1^6", "21^4": "21^4", "2^21^2": "2^3", "31^3": "321", "3^2": "42",
        "41^2": "51", "6": "6",
    }
    coll = ChainCollection(
        {**base_coll.chains, **found.chains}, {**base_coll.pairing, **found.pairing}, 6
    )
    rows = validate_collection(coll, opposite_n=12)
    assert [r for _, r in rows if not r.ok] == []
    assert len(rows) == 667
    ext = extend_all(base_coll, 6)
    built = [mu for mu in ext.members() if sum(mu) == 6]
    assert list(map(format_partition, built)) == ["1^6", "21^4", "31^3", "321"]
    for mu in built:
        assert found.partner(mu) == ext.partner(mu), mu
        assert found.chain(mu).start_dinv == ext.chain(mu).start_dinv, mu
        assert found.chain(mu).generators == ext.chain(mu).generators, mu


def test_search_at_deficit_seven_within_the_budget(base_coll):
    """One-chain rows drop a tiling before it is paired, and its verdict is
    cached as a bool: deficit 7 finds its first assignment after 452 placed
    tilings (12,461 when every tiling was paired), and joined to the base
    and the deficit-6 collections it passes every row with path sums to
    n = 14."""
    search = builder._Search(7)
    next(search.assignments(search.mus, frozenset(range(len(search.segments)))))
    assert search.placed == 452
    assert all(type(v) is bool for v in search.passes.values())
    f6, f7 = search_chains(6), search_chains(7)
    coll = ChainCollection(
        {**base_coll.chains, **f6.chains, **f7.chains},
        {**base_coll.pairing, **f6.pairing, **f7.pairing},
        7,
    )
    rows = validate_collection(coll, opposite_n=14)
    assert [r for _, r in rows if not r.ok] == []
    assert len(rows) == 1064


def test_search_budget_names_itself(monkeypatch):
    monkeypatch.setattr(builder, "SEARCH_NODE_MAX", 10)
    with pytest.raises(RuntimeError, match="SEARCH_NODE_MAX = 10 placed tilings"):
        search_chains(5)


def test_base_collection_validates(base_coll):
    rows = validate_collection(base_coll)
    bad = [(c, r) for c, r in rows if not r.ok]
    assert not bad
    assert len(rows) == 260


def test_disjoint_row_checks_coverage(base_coll):
    chains = {mu: c for mu, c in base_coll.chains.items() if mu != (5,)}
    pairing = {mu: base_coll.pairing[mu] for mu in chains}
    rows = validate_collection(ChainCollection(chains, pairing, 5))
    bad = [(ctx, r) for ctx, r in rows if not r.ok]
    assert bad == [
        ("deficit 5", CheckResult("disjoint", False, "chains hold 0 of the 1 classes at dinv 1"))
    ]


def test_validate_holds_one_deficit_of_walks(tmp_path, coll16):
    """Each deficit is checked on fresh walks, dropped before the next: on a
    cold deficit-16 collection the traced peak stays under 3.5 MB (5.9 MB
    when every walk was kept to the end), and the collection's own chains
    are never walked."""
    path = tmp_path / "c16.json"
    save_collection(coll16, path)
    coll = load_collection(path)
    for cached in (dinv, reduce, ti2, count_partitions_max):
        cached.cache_clear()
    tracemalloc.start()
    try:
        rows = validate_collection(coll)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 3145 and all(r.ok for _, r in rows)
    assert peak < 3.5 * 2**20, peak
    assert all(not c.stored_generators() for c in coll.chains.values())


def test_extend_all_keeps_generators_not_walks():
    """Each built pair is kept as chains holding only their generators, so
    only the prefixes that bridges and mirrors read stay walked: extending a
    freshly loaded base to deficit 16 with cold caches holds 1,182
    partitions (16,472 when every checked walk was kept) at a traced peak
    under 3 MB (2.4 MB measured; 3.9 MB with the walks)."""
    base = seed_base_collection()
    for cached in (dinv, reduce, ti2, count_partitions_max):
        cached.cache_clear()
    tracemalloc.start()
    try:
        coll = extend_all(base, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(coll.chains) == 241
    assert sum(len(c._parts) for c in coll.chains.values()) == 1182
    assert peak < 3 * 2**20, peak


def test_validate_walks_a_partner_of_another_size(base_coll):
    pairing = {**base_coll.pairing, (1,): (1, 1), (1, 1): (1,)}
    rows = validate_collection(ChainCollection(base_coll.chains, pairing, 5))
    assert len(rows) == 257
    assert [(ctx, r.clause, r.witness) for ctx, r in rows if not r.ok] == [
        ("1", "basic-c", "starts 1,2 vs lengths 2,1"),
        ("1^2", "basic-c", "starts 2,1 vs lengths 1,2"),
        ("1", "amh-b", "h/m vectors (3,),(0,) vs reversed (4,),(0,)"),
        ("1", "amh-c", "position identity fails at 0"),
    ]


def test_disjoint_row_for_a_base_deficit_without_chains():
    rows = validate_collection(ChainCollection({}, {}, 1))
    assert [ctx for ctx, r in rows if not r.ok] == ["deficit 0", "deficit 1"]


def test_base_coverage(base_coll):
    for k in range(6):
        assert coverage_check(base_coll, k).ok


def test_coverage_reports_unwalkable_chain(base_coll):
    mu = (1, 1, 1, 1, 1)
    good = base_coll.chain(mu)
    bad = Chain(mu, good.start_dinv, good.generators[:-1])
    coll = ChainCollection({**base_coll.chains, mu: bad}, base_coll.pairing, 5)
    msg = "final segment of Chain(1^5, start=5) stopped"
    assert coverage_check(coll, 5) == CheckResult("coverage-k5", False, msg)
    assert coverage_check(coll, 4).ok


# --------------------------------------------------------------- persistence

def test_save_load_round_trip(tmp_path, base_coll):
    p = tmp_path / "coll.json"
    save_collection(base_coll, p)
    again = load_collection(p)
    assert collection_payload(again) == collection_payload(base_coll)


def test_load_rejects_damage(tmp_path, base_coll):
    p = tmp_path / "coll.json"
    save_collection(base_coll, p)
    payload = json.loads(p.read_text())

    payload["chains"][3]["generators"][0] = "0013"
    p.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="corrupt record"):
        load_collection(p)

    save_collection(base_coll, p)
    payload = json.loads(p.read_text())
    payload["format"] = 99
    p.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="format"):
        load_collection(p)

    save_collection(base_coll, p)
    payload = json.loads(p.read_text())
    swap = {"1": "1^2", "1^2": "1"}
    for rec in payload["chains"]:
        if rec["mu"] in swap:
            rec["partner"] = swap[rec["mu"]]
            rec["certificate"] = builder._certificate(rec)
    p.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"^pairing changes size: 1 is paired with 1\^2$"):
        load_collection(p)


def _changed(data, old, values):
    return data.draw(values.filter(lambda new: new != old))


partition_words = st.lists(st.integers(1, 9), max_size=8).map(
    lambda xs: format_partition(tuple(sorted(xs, reverse=True)))
)
vector_words = st.lists(st.integers(-3, 1), max_size=10).map(
    lambda deltas: format_vector(tuple(sum(deltas[:i]) for i in range(len(deltas) + 1)))
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_rejects_any_changed_field(base_coll, data):
    payload = collection_payload(base_coll)
    rec = data.draw(st.sampled_from(payload["chains"]), label="record")
    field = data.draw(
        st.sampled_from(["mu", "partner", "start", "generators", "certificate"]), label="field"
    )
    if field in ("mu", "partner"):
        rec[field] = _changed(data, rec[field], partition_words)
    elif field == "start":
        rec[field] = _changed(data, rec[field], st.integers(0, 60))
    elif field == "generators":
        j = data.draw(st.integers(0, len(rec["generators"]) - 1), label="generator")
        rec["generators"][j] = _changed(data, rec["generators"][j], vector_words)
    else:
        hex_words = st.text("0123456789abcdef", min_size=16, max_size=16)
        rec[field] = _changed(data, rec[field], hex_words)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "coll.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_collection(path)


def test_load_rejects_broken_pairing(tmp_path, base_coll):
    p = tmp_path / "coll.json"
    save_collection(base_coll, p)
    payload = json.loads(p.read_text())
    for rec in payload["chains"]:
        if rec["mu"] == "21":
            rec["partner"] = "21"
            rec["certificate"] = ""
    from qtchains.builder import _certificate

    for rec in payload["chains"]:
        rec["certificate"] = _certificate(rec)
    p.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="involution"):
        load_collection(p)


def test_seed_prefers_frozen_file(base_coll):
    assert seed_base_collection() is not None
    assert collection_payload(seed_base_collection()) == collection_payload(base_coll)


# ----------------------------------------------------------------- extension

def test_extension_reaches_deficit_twelve(coll12):
    assert coll12.k_max == 12
    assert len(coll12.chains) == 95


def test_chains_above_the_base_are_flagpole(coll12):
    # `catalan N --mu MU` answers "no chain" without building when MU is not flagpole
    above = [mu for mu in coll12.chains if sum(mu) > BASE_K_MAX]
    assert above and all(is_flagpole(mu) for mu in above)


def test_k12_chains_match_class_walk(coll12):
    for mu, chain in coll12.chains.items():
        d = coverage_bound(sum(mu)) + 10
        assert chain.elements_upto(d) == chain_walk_by_nu1(chain, d), mu


@pytest.mark.parametrize("mode", ["flagpole", "generalized"])
def test_k12_save_load_round_trip(tmp_path, base_coll, coll12, mode):
    coll = coll12 if mode == "flagpole" else extend_all(base_coll, 12, mode="generalized")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_collection(coll, first)
    loaded = load_collection(first)
    save_collection(loaded, second)
    assert json.loads(second.read_text()) == json.loads(first.read_text())
    assert collection_payload(loaded) == collection_payload(coll)
    for mu in coll.members():
        d = coverage_bound(sum(mu))
        assert loaded.chains[mu].elements_upto(d) == coll.chains[mu].elements_upto(d), mu


def test_k12_chain_goldens(coll12):
    mu = parse_partition("531^4")
    mu_star = parse_partition("3^221^4")
    assert coll12.partner(mu) == mu_star
    chain = coll12.chain(mu)
    partner = coll12.chain(mu_star)
    assert chain.start_dinv == 7 == len(mu_star)
    assert partner.start_dinv == 6 == len(mu)
    assert chain.generators == [parse_vector(g) for g in K12_GENERATORS.split()]
    assert partner.generators == [
        parse_vector(g) for g in K12_PARTNER_GENERATORS.split()
    ]


def test_k12_amh_golden(coll12):
    amh = chain_amh(coll12.chain(parse_partition("531^4")))
    assert amh.a == (7, 9, 11, 13, 15, 17, 19, 21, 23, 35, 48)
    assert amh.h == (11, 10, 10, 10, 10, 10, 10, 10, 10, 11, 12)
    assert amh.m == (0,) * 11


def test_k12_profile_golden(coll12):
    chain = coll12.chain(parse_partition("531^4"))
    prof = [len(c) for c in chain.elements_upto(33)]
    assert format_profile(prof) == "11,12,(10,11)^8,11^9"


def context_of(coll, word):
    """build_context for the template base of the partition word, with its flag type."""
    mu = parse_partition(word)
    return build_context(coll, phi(mu)[0], ti2(mu))


def test_k12_build_context(coll12):
    ctx = ours, theirs = context_of(coll12, "531^4")
    assert ours.mu == parse_partition("531^4")
    assert ours.lam == (3, 1)
    assert theirs.lam == (2, 2)
    assert theirs.mu == parse_partition("3^221^4")
    assert ours.stages.dinvs == (21, 23, 35, 48)
    want = {"2", "21", "2^2", "3", "31"}
    assert {format_partition(p) for p in needed_partitions(ctx)} == want


def test_k12_assembly_pieces(coll12):
    ours, theirs = context_of(coll12, "531^4")
    assert bridge_vector(coll12, ours.lam, 13, 10) == parse_vector("0012334232")
    assert bridge_vector(coll12, ours.lam, 19, 10) == parse_vector("0012232121")
    assert antipode(coll12, theirs.stages.s_vectors[3]) == parse_vector("00123456645")


def test_antipode_inverse_golden(coll12):
    chain = coll12.chain(parse_partition("531^4"))
    partner = coll12.chain(parse_partition("3^221^4"))
    v = chain.element(21)
    mirror = sum(v) + dinv(v)
    assert mirror == 33
    assert antipode_inverse(coll12, v) == partner.element(12)
    assert antipode_inverse(coll12, chain.element(13)) == parse_vector("0012221122")
    assert antipode_inverse(coll12, chain.element(19)) == partner.element(14)
    for d in range(13, 22, 2):
        image = antipode_inverse(coll12, chain.element(d))
        assert image == partner.element(mirror - d)
        assert antipode_inverse(coll12, image) == chain.element(d)


def test_extension_validates(coll12):
    rows = validate_collection(coll12)
    bad = [(c, r) for c, r in rows if not r.ok]
    assert not bad


# sha256 of json.dumps(collection_payload(...), sort_keys=True), as
# tests/test_bench_references.py takes it for the deficit-16 collection
PAYLOAD_SHA256 = {
    (20, "flagpole"): "1aea3619a4032291317e923283beefdcef61d19826fa918ee6f11a23503bf159",
    (16, "generalized"): "34c33d7d549875f58447982c8178b0400de1e805eddff6a499b612c5c7e690f9",
}


@pytest.mark.parametrize("k,mode", PAYLOAD_SHA256, ids=[f"{k}-{m}" for k, m in PAYLOAD_SHA256])
def test_extension_payload_digest(base_coll, k, mode):
    """The collections past the benchmark's deficit 16 and in generalized mode
    stay byte-identical."""
    payload = collection_payload(extend_all(base_coll, k, mode=mode))
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == PAYLOAD_SHA256[k, mode]


def test_extend_is_stable_at_same_k(coll12):
    again = extend_all(coll12, 12)
    assert collection_payload(again) == collection_payload(coll12)


def test_extend_below_k_max_cuts_the_collection(coll12, base_coll):
    assert collection_payload(extend_all(coll12, 8)) == collection_payload(extend_all(base_coll, 8))


def test_extend_below_the_base_saves_and_loads(tmp_path, base_coll):
    cut = extend_all(base_coll, 3)
    assert cut.k_max == 3
    assert max(sum(mu) for mu in cut.chains) == 3
    p = tmp_path / "cut.json"
    save_collection(cut, p)
    assert collection_payload(load_collection(p)) == collection_payload(cut)


def test_generalized_mode_extends_flagpole(base_coll):
    flag = extend_all(base_coll, 8)
    gen = extend_all(base_coll, 8, mode="generalized")
    assert set(flag.chains) <= set(gen.chains)
    for n in range(6, 9):
        for mu in partitions_of(n):
            if is_flagpole(mu):
                assert mu in gen.chains


def test_extend_skips_a_pair_whose_needed_chain_is_missing(base_coll):
    """Every deficit-6 chain needs the chain of 0: 1^6 and 21^4 as their
    flag type, 31^3 and 321 among the smaller chains they read.  Without it
    all four are skipped, and nothing raises."""
    keep = {mu: c for mu, c in base_coll.chains.items() if mu != ()}
    short = ChainCollection(keep, {mu: base_coll.pairing[mu] for mu in keep}, BASE_K_MAX)
    assert sum(sum(mu) == 6 for mu in extend_all(base_coll, 6).chains) == 4
    out = extend_all(short, 6)
    assert out.k_max == 6 and out.chains == keep


@pytest.mark.parametrize(
    "word,message",
    [("921^7", "no chain pair for the flag type 7")],
    ids=["no-flag-type-pair"],
)
def test_build_context_names_what_it_lacks(base_coll, word, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        context_of(base_coll, word)


def test_extend_raises_on_a_failing_assembled_pair(base_coll):
    """The 1 chain started one dinv late gives 31^3 a bridge that breaks basic-a."""
    one = base_coll.chains[(1,)]
    chains = {**base_coll.chains, (1,): Chain(one.mu, one.start_dinv + 1, one.generators)}
    shifted = ChainCollection(chains, base_coll.pairing, base_coll.k_max)
    want = "assembled pair for 31^3 fails basic-a: element (0, 0, 1, 2, 3, 3, 4) at slot 3"
    with pytest.raises(RuntimeError, match=f"^{re.escape(want)}$"):
        extend_all(shifted, 6)


def test_extend_derives_a_self_paired_side_once(base_coll, monkeypatch):
    """66 of the 144 contexts to deficit 16 are self-paired: build_context
    derives their one side once, so the stage labels are located 905 times."""
    contexts, located = [], []
    build, locate = builder.build_context, builder.locate_in_tail

    def counted_build(coll, lam, v):
        contexts.append(build(coll, lam, v))
        return contexts[-1]

    def counted_locate(w):
        located.append(w)
        return locate(w)

    monkeypatch.setattr(builder, "build_context", counted_build)
    monkeypatch.setattr(builder, "locate_in_tail", counted_locate)
    extend_all(base_coll, 16)
    assert len(contexts) == 144
    assert sum(ours is theirs for ours, theirs in contexts) == 66
    assert all(ours is theirs for ours, theirs in contexts if ours.mu == theirs.mu)
    assert len(located) == 905


def test_extend_rejects_unknown_mode(base_coll):
    with pytest.raises(ValueError):
        extend_all(base_coll, 6, mode="fast")


@pytest.mark.parametrize("k", [3, 4])
def test_extend_rejects_a_collection_below_the_base(base_coll, k):
    keep = {mu: c for mu, c in base_coll.chains.items() if sum(mu) <= k}
    short = ChainCollection(keep, {mu: base_coll.pairing[mu] for mu in keep}, k)
    with pytest.raises(ValueError, match=f"through deficit {BASE_K_MAX}, this one stops at {k}"):
        extend_all(short, 6)
    assert extend_all(short, k).chains == keep
