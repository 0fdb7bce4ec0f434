"""Ten gate checks, one test per criterion, each printing its own verdict line.

Every equality here is exact; the only tolerances are the per-criterion time
budgets, which pytest -v exposes through the per-test durations.
"""

from collections import Counter
from itertools import islice
from math import comb

from qtchains.dyck import (
    area,
    class_from_partition,
    defc,
    dinv,
    enumerate_deficit,
    lift,
    mind,
    parse_vector,
    partition_from_class,
    qdv_from_partition,
    reduce,
)
from qtchains.flagpole import count_flagpole, count_flagpole_bruteforce
from qtchains.partitions import count_partitions_max, parse_partition, partitions_of
from qtchains.poly import QtPolynomial, cat_n, deficit_slice
from qtchains.steps import (
    is_nu1_initial,
    nd,
    nd1,
    nd1_partition,
    nd2,
    nu,
    nu1,
    nu1_partition,
    nu2,
)
from qtchains.tails import (
    absorption_counts,
    s_vectors,
    staircase_profile,
    tail_elements,
    ti2,
    ti_mind,
)
from qtchains.verify import cat_n_mu, check_amh, opposite_bruteforce
from qtchains.builder import (
    antipode,
    bridge_vector,
    validate_collection,
)

from oracles import (
    chain_amh,
    coverage_check,
    defc_pairs,
    dinv_extended,
    dyck_vectors,
    is_reduced,
    tail_iter,
)


def _report(num: int, ok: bool) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}")
    assert ok


# 1. statistic identities across partitions and across whole Dyck vectors

def test_criterion_01_stat_identities():
    ok = True
    for n in range(15):
        for lam in partitions_of(n):
            c = class_from_partition(lam)
            ok = ok and dinv(c) + defc(c) == n
            for pad in range(3):
                m = mind(lam) + pad
                v = qdv_from_partition(lam, m)
                ok = ok and dinv(v) + defc(v) + area(v) == comb(m, 2)
                ok = ok and reduce(v) == c and dinv(v) == dinv(c) and defc(v) == defc(c)
    for length in range(1, 11):
        for v in dyck_vectors(length):
            ok = ok and dinv(v) + defc(v) + area(v) == comb(length, 2)
            ok = ok and defc_pairs(v) == defc(v)
            w = lift(v)
            ok = ok and dinv(w) == dinv(v) and defc(w) == defc(v)
            if length <= 8:
                ok = ok and dinv(v) == dinv_extended(v)
    _report(1, ok)


# 2. the printed worked examples, bit for bit

_TI2_TABLE = {
    "0": "0", "1": "001", "2": "0012", "11": "0011",
    "3": "01012", "21": "00121", "111": "00122",
    "4": "00012", "31": "00112", "22": "00011", "211": "001222", "1111": "001221",
    "2111": "0012221", "11111": "0012222", "321": "0012121",
    "3111": "0012212", "322111": "001221222", "4321": "001212121",
}

_WALK_UP = [("5433", "0120111"), ("54322", "0101111"), ("643211", "0011110")]
_WALK_DOWN = [("5521", "0122201"), ("6321", "0122220"), ("43211", "0112222")]

_BRIDGE_TABLE = {
    "31": [
        (13, "0112010", "01223121", "0012334232"),
        (15, "0101001", "01212112", "0012323223"),
        (17, "01211210", "01211210", "0012322321"),
        (19, "01121010", "01121010", "0012232121"),
    ],
    "22": [
        (12, "0122100", "01233211", "0012344322"),
        (14, "0110011", "01221122", "0012332233"),
        (16, "0001100", "01112211", "0012223322"),
        (18, "01221100", "01221100", "0012332211"),
    ],
}

_ANTIPODAL = ["0012343342", "0012345432", "00123456645"]

_PROFILE = [10, 11, 10] + [11] * 10 + [12, 11] + [12] * 11 + [13, 12] + [13] * 12 + [14] * 13
_PROFILE_STAR = [10, 11, 10, 11, 10] + [11] * 10 + [12, 11] + [12] * 11 + [13] * 12


def test_criterion_02_source_goldens(base_coll, coll12):
    gamma = (5, 4, 4, 1)
    checks = [
        class_from_partition(gamma) == parse_vector("0122011"),
        dinv(class_from_partition(gamma)) == 10,
        defc(class_from_partition(gamma)) == 4,
        mind(gamma) == 7,
    ]
    p, c = gamma, class_from_partition(gamma)
    for text, vec in _WALK_UP:
        p, c = nu1_partition(p), nu1(c)
        checks += [p == parse_partition(text), c == reduce(parse_vector(vec))]
    p, c = gamma, class_from_partition(gamma)
    for text, vec in _WALK_DOWN:
        p, c = nd1_partition(p), nd1(c)
        checks += [p == parse_partition(text), c == reduce(parse_vector(vec))]
    checks.append(is_nu1_initial(c))

    for mu_text, vec in _TI2_TABLE.items():
        checks.append(ti2(parse_partition(mu_text)) == parse_vector(vec))

    chain = coll12.chain(parse_partition("531^4"))
    partner = coll12.chain(parse_partition("3^221^4"))
    stages_star = s_vectors(ti2(parse_partition("3^221^4")))
    for j in range(1, 4):
        checks.append(
            antipode(coll12, stages_star.s_vectors[j]) == parse_vector(_ANTIPODAL[j - 1])
        )
    for lam_text, rows in _BRIDGE_TABLE.items():
        lam = parse_partition(lam_text)
        for i, gamma_text, z_text, m_text in rows:
            g = base_coll.chain(lam).element(i - 1)
            checks.append(g == reduce(parse_vector(gamma_text)))
            checks.append(
                qdv_from_partition(partition_from_class(g), 8) == parse_vector(z_text)
            )
            checks.append(bridge_vector(coll12, lam, i, 10) == parse_vector(m_text))

    prof = [len(c) for c in chain.elements_upto(73)]
    checks.append(prof == [11, 12, 10, 11, 10, 11] + [10, 11] * 4 + _PROFILE)
    prof_star = [len(c) for c in partner.elements_upto(59)]
    checks.append(prof_star == [12, 13, 11, 12, 10, 11] + [10, 11] * 4 + _PROFILE_STAR)

    amh15 = chain_amh(base_coll.chain((1, 1, 1, 1, 1)))
    checks += [amh15.a == (5, 7, 9, 11), amh15.m == (0,) * 4, amh15.h == (7,) * 4]
    amh12 = chain_amh(chain)
    checks += [
        amh12.a == (7, 9, 11, 13, 15, 17, 19, 21, 23, 35, 48),
        amh12.h == (11, 10, 10, 10, 10, 10, 10, 10, 10, 11, 12),
        amh12.m == (0,) * 11,
    ]
    _report(2, all(checks))


# 3. deficit class counts match part-bounded partition counts

def test_criterion_03_counting_identity():
    ok = True
    for k in range(9):
        by_d = Counter(dinv(v) for v in enumerate_deficit(k, 20))
        for d in range(21):
            ok = ok and by_d.get(d, 0) == count_partitions_max(k, d)
    _report(3, ok)


# 4. plateau listings generated both ways, and the staircase length profile

def test_criterion_04_tail_closed_forms():
    ok = True
    for n in range(7):
        for mu in partitions_of(n):
            closed = tail_elements(mu, 300)
            iterated = list(islice(tail_iter(mu), 300))
            ok = ok and [reduce(w) for w in closed] == iterated
            stair = staircase_profile(ti_mind(mu), 300)
            ok = ok and [len(w) for w in closed] == stair
            ok = ok and [mind(partition_from_class(c)) for c in iterated] == stair
    _report(4, ok)


# 5. the pole-partition count formula

def test_criterion_05_flagpole_counts():
    ok = count_flagpole(7) == 4
    for n in range(19):
        ok = ok and count_flagpole(n) == count_flagpole_bruteforce(n)
    _report(5, ok)


# 6. the stored deficit <= 5 collection is fully valid and mirror-symmetric

def test_criterion_06_base_collection(base_coll):
    rows = validate_collection(base_coll)
    ok = all(r.ok for _, r in rows)
    for k in range(6):
        ok = ok and coverage_check(base_coll, k).ok
    for mu, star in base_coll.pairs():
        rows = opposite_bruteforce(base_coll.chain(mu), base_coll.chain(star), 10)
        ok = ok and all(r.ok for r in rows)
    _report(6, ok)


# 7. the recursive build reaches deficit 12 and the pair is mirror-symmetric

def test_criterion_07_deficit_twelve_build(coll12):
    mu = parse_partition("531^4")
    star = parse_partition("3^221^4")
    chain, partner = coll12.chain(mu), coll12.chain(star)
    amh = chain_amh(chain)
    ok = coll12.partner(mu) == star
    ok = ok and amh.a == (7, 9, 11, 13, 15, 17, 19, 21, 23, 35, 48)
    ok = ok and amh.h == (11, 10, 10, 10, 10, 10, 10, 10, 10, 11, 12)
    ok = ok and amh.m == (0,) * 11
    ok = ok and all(r.ok for r in check_amh(amh, chain_amh(partner), 12))
    ok = ok and all(r.ok for r in opposite_bruteforce(chain, partner, 12))
    _report(7, ok)


# 8. the extended step is an involution-paired bijection with disjoint rules

def _shape_a(v):
    n = len(v)
    for h in range(2, n):
        if v[: 2 + h] != (0, 1) + (2,) * h:
            continue
        if 2 + h > n - (h - 1):
            continue
        mid = v[2 + h : n - (h - 1)]
        if v[n - (h - 1) :] != (-1,) * (h - 1):
            continue
        if any(x > 2 for x in mid) or (mid and mid[-1] < 0):
            continue
        return True
    return False


def _shape_b(v):
    n = len(v)
    for k in range(1, n):
        if v[: 2 + k] != (0, 1) + (2,) * k:
            continue
        if 2 + k > n - k:
            continue
        mid = v[2 + k : n - k]
        if v[n - k :] != (-1,) * k:
            continue
        if any(x > 2 for x in mid) or (mid and (mid[0] > 1 or mid[-1] < -1)):
            continue
        return True
    return False


def _cycled_vectors(max_len):
    def go(prefix):
        if 1 < len(prefix) <= max_len and prefix[-1] == -1:
            yield tuple(prefix)
        if len(prefix) == max_len:
            return
        for x in range(-1, min(prefix[-1] + 1, 2) + 1):
            prefix.append(x)
            yield from go(prefix)
            prefix.pop()

    yield from go([0])


def test_criterion_08_step_laws():
    ok = True
    for k in range(7):
        for c in enumerate_deficit(k, 40):
            up, down = nu(c), nd(c)
            if up is not None:
                ok = ok and nd(up) == c and dinv(up) == dinv(c) + 1 and defc(up) == defc(c)
            if down is not None:
                ok = ok and nu(down) == c and dinv(down) == dinv(c) - 1
                ok = ok and defc(down) == defc(c)
    for length in range(1, 10):
        for v in dyck_vectors(length):
            if not is_reduced(v):
                continue
            ok = ok and (nu1(v) is None or nu2(v) is None)
            ok = ok and (nd1(v) is None or nd2(v) is None)
    for v in _cycled_vectors(9):
        both = _shape_a(v) and _shape_b(v)
        ok = ok and not both
        if _shape_a(v) or _shape_b(v):
            ok = ok and nu2(reduce(v)) is not None
    _report(8, ok)


# 9. second-order orbits keep the uncovered share below the stated cap

def test_criterion_09_absorption():
    ok = all(second / first < 0.38 for second, first in map(absorption_counts, range(6, 15)))
    _report(9, ok)


# 10. the path sum polynomials are symmetric and the chains slice them exactly

def test_criterion_10_catalan_slices(base_coll):
    ok = True
    for n in range(1, 12):
        p = cat_n(n)
        ok = ok and p.swap() == p
    for n in range(1, 10):
        full = cat_n(n)
        for k in range(6):
            acc = QtPolynomial()
            for mu in partitions_of(k):
                acc = acc + cat_n_mu(n, base_coll.chain(mu))
            ok = ok and acc == deficit_slice(full, n, k)
    _report(10, ok)
