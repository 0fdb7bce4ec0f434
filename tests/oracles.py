"""Slow reference implementations the fast code is tested against."""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Iterator

from qtchains.builder import BASE_K_MAX, ChainCollection, Segment, _search_setup
from qtchains.dyck import (
    Vector,
    area,
    check_qdv,
    class_from_partition,
    defc,
    dinv,
    enumerate_deficit,
    format_vector,
    mind,
    parse_vector,
    partition_dinv,
    partition_from_class,
    qdv_from_partition,
    reduce,
    starts_00,
)
from qtchains.flagpole import phi, v_template
from qtchains.partitions import (
    Partition, count_partitions_max, format_partition, partitions_of, read_number
)
from qtchains.poly import QtPolynomial
from qtchains.steps import nd, nu, nu1, nu1_partition, nu2_partition
from qtchains.tails import (
    TailTwoSummary,
    coverage_bound,
    locate_in_tail,
    staircase_profile,
    ti,
    ti2,
    ti_dinv,
)
from qtchains.verify import (
    AmhVectors, Chain, CheckResult, _res, amh_vectors, check_amh, check_local, check_pair,
    opposite_witness,
)


def dinv_extended(v: Vector) -> int:
    """Pair count over the word extended to the left by the staircase.

    Positions k <= 0 carry the value k - 1; only pairs whose right end is
    inside v can contribute.
    """
    lo = min(0, min(v))
    word = [k - 1 for k in range(lo, 1)] + list(v)
    first = 1 - lo
    total = 0
    for j in range(first, len(word)):
        for i in range(j):
            if word[i] - word[j] in (0, 1):
                total += 1
    return total


def lift(v: Vector) -> Vector:
    """Prepend a 0 and shift up: the longer representative of the same class."""
    return (0,) + tuple(x + 1 for x in v)


def reduce_by_lifting(v: Vector) -> Vector:
    """The shortest nonnegative representative of the class of v: lift while an
    entry is negative, then drop the first entry and shift down while that
    stays nonnegative."""
    while min(v) < 0:
        v = lift(v)
    while len(v) >= 2 and v[1] == 1 and min(v[1:]) >= 1:
        v = tuple(x - 1 for x in v[1:])
    return v


def partition_dinv_by_cells(p: Partition) -> int:
    """Dinv as the cells of p whose arm exceeds their leg by 0 or 1."""
    conj = [sum(1 for a in p if a > j) for j in range(p[0] if p else 0)]
    return sum(
        (p[i] - 1 - j) - (conj[j] - 1 - i) in (0, 1) for i in range(len(p)) for j in range(p[i])
    )


def defc_pairs(v: Vector) -> int:
    """Count the deficit pairs of a nonnegative vector directly.

    A pair i < j counts when v_i - v_j >= 2, or when v_i < v_j and the value
    v_i already occurred strictly before position i.
    """
    if min(v) < 0:
        raise ValueError("defc_pairs needs a nonnegative vector")
    first: dict[int, int] = {}
    for idx, x in enumerate(v):
        first.setdefault(x, idx)
    total = 0
    for j in range(len(v)):
        for i in range(j):
            if v[i] - v[j] >= 2 or (v[i] < v[j] and first[v[i]] < i):
                total += 1
    return total


def parse_vector_by_char(text: str) -> Vector:
    """parse_vector reading one number at a time, with an indexed rise check."""
    s = text.strip()
    out: list[int] = []
    i = 0
    while i < len(s):
        x, i = read_number(s, i)
        out.append(x)
    if not out or out[0] != 0 or any(out[i + 1] > out[i] + 1 for i in range(len(out) - 1)):
        raise ValueError(f"not a quasi-Dyck vector: {tuple(out)}")
    return tuple(out)


def parse_vectors_by_word(words: list[str]) -> list[Vector]:
    """parse_vectors reading one word at a time."""
    return [parse_vector(w) for w in words]


def format_vector_by_join(v: Vector) -> str:
    """Vector word one entry at a time: a digit for 0..9, else the number in parentheses."""
    return "".join(str(x) if 0 <= x <= 9 else f"({x})" for x in v)


def is_reduced(v: Vector) -> bool:
    """True when v equals its own reduction."""
    if min(v) < 0:
        return False
    return len(v) == 1 or v[1] == 0 or 0 in v[2:]


def classify_vector(v: Vector) -> str:
    """One of 'binary', 'ternary-reduced', 'ternary-nonreduced', 'cycled-ternary', 'other'."""
    check_qdv(v)
    if all(x in (0, 1) for x in v):
        return "binary"
    if all(0 <= x <= 2 for x in v):
        return "ternary-reduced" if is_reduced(v) else "ternary-nonreduced"
    if all(-1 <= x <= 2 for x in v):
        last2 = max((i for i, x in enumerate(v) if x == 2), default=-1)
        if all(x != -1 for x in v[:last2]):
            return "cycled-ternary"
    return "other"


def dyck_vectors(n: int) -> Iterator[Vector]:
    """Yield every nonnegative length-n vector, in lexicographic order."""
    if n < 1:
        return

    def go(prefix: list[int]) -> Iterator[Vector]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for x in range(prefix[-1] + 2):
            prefix.append(x)
            yield from go(prefix)
            prefix.pop()

    yield from go([0])


def deficit_classes_bruteforce(k: int, d_max: int) -> list[Vector]:
    """Deficit-k classes with dinv at most d_max, via partition enumeration."""
    out: list[Vector] = []
    for d in range(d_max + 1):
        for lam in partitions_of(d + k):
            c = class_from_partition(lam)
            if dinv(c) == d:
                out.append(c)
    return out


def catalan_terms_bruteforce(n: int) -> dict[tuple[int, int], int]:
    """Area and pair-count spread over all nonnegative vectors of length n."""
    terms: dict[tuple[int, int], int] = {}
    for v in dyck_vectors(n):
        key = (area(v), dinv(v))
        terms[key] = terms.get(key, 0) + 1
    return terms


def gaussian_rows(top: int) -> list[list[list[int]]]:
    """q-coefficient lists of the Gaussian binomials [a choose b]_q for a <= top.

    Pascal's rule: [a choose b] = [a-1 choose b-1] + q^b [a-1 choose b].
    """
    rows = [[[1]]]
    for a in range(1, top + 1):
        prev = rows[-1]
        row = [[1]]
        for b in range(1, a):
            lo, hi = prev[b - 1], prev[b]
            coeffs = lo + [0] * (b + len(hi) - len(lo))
            for i, c in enumerate(hi, b):
                coeffs[i] += c
            row.append(coeffs)
        row.append([1])
        rows.append(row)
    return rows


def cat_n_by_lists(n: int) -> QtPolynomial:
    """cat_n by the Garsia-Haglund recursion on q-coefficient lists.

    Each F_{m,k} is a dict from t exponent to a list of q coefficients, and
    each product of q-polynomials is a convolution of two lists.
    """
    if n < 1:
        return QtPolynomial()
    gauss = gaussian_rows(n - 1)
    f: list[dict[int, dict[int, list[int]]]] = [{}]
    for m in range(1, n + 1):
        row = {m: {0: [0] * comb(m, 2) + [1]}}
        for k in range(1, m):
            j = m - k
            shift = comb(k, 2)
            acc: dict[int, list[int]] = {}
            for r in range(1, j + 1):
                g = gauss[r + k - 1][r]
                for te, qs in f[j][r].items():
                    out = acc.setdefault(te + j, [])
                    need = shift + len(qs) + len(g) - 1
                    out.extend([0] * (need - len(out)))
                    for a, x in enumerate(qs, shift):
                        if x:
                            for b, y in enumerate(g, a):
                                out[b] += x * y
            row[k] = acc
        f.append(row)
    terms: dict[tuple[int, int], int] = {}
    for part in f[n].values():
        for te, qs in part.items():
            for qe, c in enumerate(qs):
                terms[(qe, te)] = terms.get((qe, te), 0) + c
    return QtPolynomial(terms)


# ------------------------------------------------------------ step maps

def leader(v: Vector) -> int:
    """Largest d such that v starts 0, 1, 2, ..., d."""
    d = 0
    while d + 1 < len(v) and v[d + 1] == d + 1:
        d += 1
    return d


def nu1_qdv(v: Vector) -> Vector | None:
    """First-order step by vector surgery instead of part surgery.

    On a representative with second entry >= 0: undefined when the leading
    staircase overshoots the last entry by more than 2, else delete the top
    of the staircase and append one below it.
    """
    v = reduce(v)
    if len(v) == 1:
        v = lift(v)
    d = leader(v)
    if d > v[-1] + 2:
        return None
    return reduce(v[:d] + v[d + 1 :] + (d - 1,))


def nd1_qdv(v: Vector) -> Vector | None:
    """Inverse of nu1_qdv by vector surgery.

    Undefined when the leading staircase falls short of the last entry;
    else delete the last entry and reinsert its successor value after the
    first occurrence of that value.
    """
    v = reduce(v)
    if v == (0,):
        return None
    d = leader(v)
    s = v[-1]
    if d < s:
        return None
    body = v[:-1]
    i = body.index(s)
    return reduce(body[: i + 1] + (s + 1,) + body[i + 1 :])


# ------------------------------------------------------------ orbits

def tail_iter(mu: Partition) -> Iterator[Vector]:
    """The first-order orbit of the base class of mu, by iterating the step map."""
    c = ti(mu)
    while True:
        yield c
        nxt = nu1(c)
        if nxt is None:
            raise RuntimeError(f"first-order orbit of {mu} stopped at {c}")
        c = nxt


def ti2_by_nd(mu: Partition) -> Vector:
    """Extended orbit base by iterating the combined predecessor on classes."""
    c = ti(mu)
    while True:
        prev = nd(c)
        if prev is None:
            return c
        c = prev


def tail2_by_nu(mu: Partition, count: int) -> list[Vector]:
    """First count classes of the extended orbit by iterating nu on classes."""
    out = [ti2_by_nd(mu)]
    while len(out) < count:
        nxt = nu(out[-1])
        if nxt is None:
            raise RuntimeError(f"extended orbit of {mu} stopped at {out[-1]}")
        out.append(nxt)
    return out


def chain_walk_by_nu1(chain: Chain, d: int) -> list[Vector]:
    """Chain elements through dinv d, walking nu1 on classes segment by segment."""
    need = d - chain.start_dinv + 1
    out: list[Vector] = []
    for g in chain.generators:
        c: Vector | None = g
        while c is not None and len(out) < need:
            out.append(c)
            c = nu1(c)
    return out


def unlift(v: Vector) -> Vector | None:
    """Drop the first entry and shift down, or None when the result would not start at 0."""
    if len(v) >= 2 and v[1] == 1:
        return tuple(x - 1 for x in v[1:])
    return None


def rep_ending_minus_one_by_unlift(c: Vector) -> Vector | None:
    """Unlift the reduced vector until its last entry turns negative; keep it when that is -1."""
    v = reduce(c)
    while v[-1] >= 0:
        w = unlift(v)
        if w is None:
            return None
        v = w
    return v if v[-1] == -1 else None


def rep_starting_00_by_unlift(c: Vector) -> Vector | None:
    """Unlift the reduced vector until its second entry is 0."""
    v = reduce(c)
    while not (len(v) >= 2 and v[1] == 0):
        w = unlift(v)
        if w is None:
            return None
        v = w
    return v


def has_cycled_ternary_rep(c: Vector) -> bool:
    """True when some representative has entries in -1..2 with no -1 before a 2."""
    v: Vector | None = reduce(c)
    while v is not None:
        if classify_vector(v) != "other":
            return True
        v = unlift(v)
    return False


def locate_in_tail2(c: Vector) -> Partition | None:
    """Partition whose extended orbit contains the class of c, or None."""
    if not has_cycled_ternary_rep(c):
        return None
    v = reduce(c)
    while True:
        prev = nd(v)
        if prev is None:
            break
        v = prev
    # walk forward to the first binary class, which is a first-order base point
    while any(x > 1 for x in v):
        nxt = nu(v)
        if nxt is None:
            return None
        v = nxt
    loc = locate_in_tail(v)
    if loc is None or loc.plateau_index != 0:
        return None
    return loc.mu


def stage_vectors_bruteforce(v: Vector) -> list[Vector]:
    """Classes along the forward orbit where the reduced length drops."""
    out = [reduce(v)]
    cur: Vector | None = reduce(v)
    while any(x > 1 for x in cur):
        nxt = nu(cur)
        if nxt is None:
            raise RuntimeError(f"orbit from {v} stopped early")
        if len(nxt) < len(cur):
            out.append(nxt)
        cur = nxt
    return out


def summary_profile(summary: TailTwoSummary, count: int) -> list[int]:
    """Reduced lengths of the first count classes of an extended orbit.

    Between consecutive stage vectors the lengths follow the staircase of
    the stage's length; after the last one, the staircase of the base.
    """
    out: list[int] = []
    for j in range(len(summary.s_vectors) - 1):
        span = summary.dinvs[j + 1] - summary.dinvs[j]
        out.extend(staircase_profile(summary.lengths[j], span))
        if len(out) >= count:
            return out[:count]
    out.extend(staircase_profile(summary.lengths[-1], count - len(out)))
    return out[:count]


def chain_amh(chain: Chain) -> AmhVectors:
    """amh_vectors of the chain's length profile through its amh horizon."""
    els = chain.elements_upto(chain.amh_horizon())
    return amh_vectors(chain.start_dinv, [len(c) for c in els])


# ------------------------------------------------------------ encodings

def phi_inv_iterated(lam: Partition, a: int, eps: int) -> Partition:
    """Same as phi_inv but by walking the orbit to the first binary class."""
    v = v_template(lam, a, eps)
    while any(x > 1 for x in v):
        nxt = nu(v)
        if nxt is None:
            raise RuntimeError(f"orbit from {v} stopped early")
        v = nxt
    loc = locate_in_tail(v)
    if loc is None or loc.plateau_index != 0:
        raise RuntimeError(f"orbit from template did not reach a base class: {v}")
    return loc.mu


def is_generalized_flagpole(mu: Partition, involution: dict[Partition, Partition]) -> bool:
    """Template base with enough length for the partner of its flag type, read
    off ti2(mu): the membership test flag_templates enumerates in generalized mode.

    Needs the flag type lam inside the involution's domain; the base length
    must be at least 5 plus largest part plus number of parts of lam's
    partner.  For lam itself the template's a >= 2 already gives that.
    """
    m = phi(mu)
    if m is None or m[0] not in involution:
        return False
    lam_star = involution[m[0]]
    return len(ti2(mu)) >= 5 + (lam_star[0] if lam_star else 0) + len(lam_star)


def antipode_inverse(coll: ChainCollection, v: Vector) -> Vector | None:
    """Mirror of a twice-raised class through the chain that holds its core.

    None when the image does not fit at the same length.
    """
    if len(v) < 3 or v[:2] != (0, 0):
        raise ValueError(f"{format_vector(v)} does not start 00")
    z = reduce(tuple(x - 1 for x in v[2:]))
    kz, dz = defc(z), dinv(z)
    rho = None
    for mu in coll.members():
        chain = coll.chains[mu]
        if sum(mu) == kz and chain.start_dinv <= dz and chain.element(dz) == z:
            rho = mu
            break
    if rho is None:
        raise RuntimeError(f"{format_vector(z)} is in no stored chain")
    gamma = coll.chains[coll.pairing[rho]].element(area(v) - 1)
    p = partition_from_class(gamma)
    if mind(p) > len(v) - 2:
        return None
    z = qdv_from_partition(p, len(v) - 2)
    if min(z) < 0:
        raise RuntimeError(f"{format_vector(z)} does not lift")
    return (0,) + lift(z)


# ------------------------------------------------------------ path sums

def lengths_by_walk(chain: Chain, n_max: int) -> list[tuple[int, int]]:
    """(dinv, reduced length) of each chain element, in order, read off its partition.

    Stops before the first element at or past the base dinv that is longer
    than n_max: the final orbit's reduced lengths never come back down.
    The chain is walked one element at a time, so a final segment that
    stops only past that element is never reached.
    """
    base_dinv = ti_dinv(chain.mu)
    out = []
    d = chain.start_dinv
    for p in chain.walk():
        ln = mind(p)
        if ln > n_max and d >= base_dinv:
            break
        out.append((d, ln))
        d += 1
    return out


def cat_n_mu_by_lookup(n: int, chain: Chain) -> QtPolynomial:
    """cat_n_mu for one n, looking the chain's elements up one dinv at a time."""
    k = sum(chain.mu)
    base_dinv = ti_dinv(chain.mu)
    terms: dict[tuple[int, int], int] = {}
    d = chain.start_dinv
    while True:
        c = chain.element(d)
        if len(c) <= n:
            terms[(comb(n, 2) - k - d, d)] = 1
        elif d >= base_dinv:
            break
        d += 1
    return QtPolynomial(terms)


def opposite_per_n(chain: Chain, partner: Chain, n_max: int) -> list[CheckResult]:
    """opposite_bruteforce with a fresh lookup of both chains' path sums for every n."""
    out: list[CheckResult] = []
    for n in range(1, n_max + 1):
        lhs = cat_n_mu_by_lookup(n, chain)
        rhs = cat_n_mu_by_lookup(n, partner).swap()
        ok = lhs == rhs
        witness = "" if ok else opposite_witness(lhs, rhs)
        out.append(CheckResult(f"opposite-n{n}", ok, witness))
    return out


def format_profile(values: list[int]) -> str:
    """Run-length format with alternation folding: '11,12,(10,11)^7,10,11^10'."""
    chunks: list[str] = []
    i = 0
    n = len(values)
    while i < n:
        if i + 3 < n and values[i] != values[i + 1]:
            x, y = values[i], values[i + 1]
            m = 1
            while i + 2 * m + 1 < n and values[i + 2 * m] == x and values[i + 2 * m + 1] == y:
                m += 1
            if m >= 2:
                chunks.append(f"({x},{y})^{m}")
                i += 2 * m
                continue
        run = 1
        while i + run < n and values[i + run] == values[i]:
            run += 1
        chunks.append(str(values[i]) if run == 1 else f"{values[i]}^{run}")
        i += run
    return ",".join(chunks)


def coverage_check(coll: ChainCollection, k: int) -> CheckResult:
    """The deficit-k chains tile every class with dinv up to coverage_bound(k) + 10."""
    d_hi = coverage_bound(k) + 10
    have: list[Vector] = []
    for mu in coll.members():
        if sum(mu) == k:
            try:
                have.extend(coll.chains[mu].elements_upto(d_hi))
            except RuntimeError as e:
                return CheckResult(f"coverage-k{k}", False, str(e))
    want = enumerate_deficit(k, d_hi)
    ok = sorted(have) == sorted(want)
    witness = ""
    if not ok:
        missing = sorted(set(want) - set(have))
        surplus = sorted(set(have) - set(want))
        if missing:
            witness = f"missing {format_vector(missing[0])}"
        elif surplus:
            witness = f"unexpected {format_vector(surplus[0])}"
        else:
            witness = "duplicate classes"
    return CheckResult(f"coverage-k{k}", ok, witness)


# ------------------------------------------------------------ base search

def _tilings(segments: list[Segment], lo: int, hi: int, table: dict) -> list[tuple[int, ...]]:
    """The segment-index tuples that tile dinvs lo..hi-1, in the order a backward
    depth-first search from hi meets them; table memoizes (lo, hi)."""
    if (lo, hi) not in table:
        table[lo, hi] = [()] if hi == lo else [
            t + (i,)
            for i, (s, seg) in enumerate(segments)
            if s + len(seg) == hi and s >= lo
            for t in _tilings(segments, lo, s, table)
        ]
    return table[lo, hi]


def _matchings(pool: list[Partition]) -> Iterator[dict[Partition, Partition]]:
    """Every involution of pool: the head self-paired first, then with each later partner."""
    if not pool:
        yield {}
        return
    for other in pool:
        for m in _matchings([x for x in pool[1:] if x != other]):
            yield {pool[0]: other, other: pool[0], **m}


def _exact_covers(options: list[list[tuple[int, ...]]], free: frozenset[int]) -> Iterator[tuple]:
    """One tiling from each option list, together using each index of free once."""
    if not options:
        if not free:
            yield ()
        return
    for t in options[0]:
        if free.issuperset(t):
            for rest in _exact_covers(options[1:], free.difference(t)):
                yield (t,) + rest


def chain_candidates(k: int) -> Iterator[ChainCollection]:
    """Every deficit-k collection of chains and pairing whose chains tile the classes.

    Pairings come self images first, then partners in increasing order;
    within one, tilings in (start, vector) segment order.  The enumeration
    shares only _search_setup with search_chains."""
    mus, base, target, segments = _search_setup(k)
    table: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for pairing in _matchings(mus):
        options = [_tilings(segments, len(pairing[mu]), target[mu], table) for mu in mus]
        for choice in _exact_covers(options, frozenset(range(len(segments)))):
            chains = {
                mu: Chain(mu, len(pairing[mu]), [segments[i][1][0] for i in tiles] + [base[mu]])
                for mu, tiles in zip(mus, choice)
            }
            yield ChainCollection(chains, pairing, k)


def assignment_passes(coll: ChainCollection) -> bool:
    """Every chain pair of the collection passes check_pair."""
    return all(
        r.ok
        for mu, star in coll.pairs()
        for _, r in check_pair(coll.chains[mu], coll.chains[star], sum(mu))
    )


# ------------------------------------------------------------ pair checks

def tail2_iter(mu: Partition) -> Iterator[Partition]:
    """Partitions of the combined-map orbit from the second base class of mu.

    Both steps run on partitions; the second-order step rewrites one
    representative vector of the class.
    """
    p = partition_from_class(ti2(mu))
    while True:
        yield p
        q = nu1_partition(p)
        if q is None:
            q = nu2_partition(p)
            if q is None:
                raise RuntimeError(f"extended orbit of {mu} stopped at {class_from_partition(p)}")
        p = q


def disjoint_fault_by_walk(chains: dict[Partition, Chain], k: int) -> str:
    """The disjoint row of builder as it was before it stopped clean groups
    at their largest base dinv: every chain is walked to coverage_bound(k) + 10.

    The first class two chains share, or the first walk error; then, at a
    base deficit, the first dinv where the chains miss a class; "" if none.
    """
    d_hi = coverage_bound(k) + 10
    owner: dict[Partition, Partition] = {}
    for mu, chain in chains.items():
        try:
            parts = chain.partitions_upto(d_hi)
        except RuntimeError as e:
            return str(e)
        for p in parts:
            if owner.setdefault(p, mu) != mu:
                c = format_vector(class_from_partition(p))
                return f"{c} in {format_partition(owner[p])} and {format_partition(mu)}"
    if k <= BASE_K_MAX:
        held = Counter(map(partition_dinv, owner))
        for d in range(d_hi + 1):
            if held[d] != count_partitions_max(k, d):
                return f"chains hold {held[d]} of the {count_partitions_max(k, d)} classes at dinv {d}"
    return ""


def check_pair_by_clauses(chain: Chain, partner: Chain, k: int) -> list[tuple[str, CheckResult]]:
    """Every structural clause of a chain pair, as (context, result) rows: check_pair
    as it was before check_chain, walking and checking each chain inside.

    The chain's basic, local and extra rows come first, then the partner's
    when it is a different chain, then the pair's amh rows under the
    chain's name.  Each chain is walked through its amh horizon once, on
    partitions, and its length profile is their mind; a chain that cannot
    be walked gives a single failing basic-a row.  Class vectors are built
    only for witnesses.
    """
    sides = [chain] if partner.mu == chain.mu else [chain, partner]
    parts: list[list[Partition]] = []
    profs: list[list[int]] = []
    amh: list[AmhVectors] = []
    for c in sides:
        try:
            parts.append(c.partitions_upto(c.amh_horizon()))
        except RuntimeError as e:
            return [(format_partition(c.mu), _res("basic-a", False, str(e)))]
        profs.append([mind(p) for p in parts[-1]])
        amh.append(amh_vectors(c.start_dinv, profs[-1]))
    if len(sides) == 1:
        basic_e = _res(
            "basic-e",
            chain.generators == partner.generators,
            "self-paired chain differs from partner",
        )
    else:
        shared = set(parts[0]) & set(parts[1])
        basic_e = _res(
            "basic-e", not shared, f"shared classes {sorted(map(class_from_partition, shared))[:3]}"
        )
    names = [format_partition(c.mu) for c in sides]
    rows: list[tuple[str, CheckResult]] = []
    for c, other, name, c_parts, prof, c_amh in zip(
        sides, (partner, chain), names, parts, profs, amh
    ):
        results = (
            check_basic_by_clauses(c, other, c_parts, prof)
            + [basic_e]
            + check_local(c, prof, c_amh)
            + check_extra_by_clauses(c, c_parts, prof, c_amh)
        )
        rows += [(name, r) for r in results]
    return rows + [(names[0], r) for r in check_amh(amh[0], amh[-1], k)]


def check_basic_by_clauses(
    chain: Chain, partner: Chain, parts: list[Partition], prof: list[int]
) -> list[CheckResult]:
    """Deficit and dinv bookkeeping, start positions and ending orbit.

    parts holds the partitions of the chain's elements through its amh
    horizon and prof their mind.  An element's dinv is read off its
    partition and its deficit is |p| - dinv; a stored generator must be
    the reduced vector of its class, of length mind(p).
    """
    mu = chain.mu
    k = sum(mu)
    gens = chain.stored_generators()
    bad = [
        i
        for i, p in enumerate(parts)
        if (dv := partition_dinv(p)) != chain.start_dinv + i
        or sum(p) - dv != k
        or i in gens and len(gens[i]) != prof[i]
    ]
    return [
        _res(
            "basic-a",
            not bad,
            bad and f"element {gens.get(bad[0]) or class_from_partition(parts[bad[0]])} "
            f"at slot {chain.start_dinv + bad[0]}" or "",
        ),
        _res(
            "basic-b",
            len(set(parts)) == len(parts),
            f"repeated element in chain for {format_partition(mu)}",
        ),
        _res(
            "basic-c",
            chain.start_dinv == len(partner.mu) and partner.start_dinv == len(mu),
            f"starts {chain.start_dinv},{partner.start_dinv} vs lengths "
            f"{len(partner.mu)},{len(mu)}",
        ),
        _res(
            "basic-d",
            chain.generators[-1] == ti(mu),
            f"last generator {chain.generators[-1]} is not the base vector of "
            f"{format_partition(mu)}",
        ),
    ]


def check_extra_by_clauses(
    chain: Chain, parts: list[Partition], prof: list[int], amh: AmhVectors
) -> list[CheckResult]:
    """Valley shape, run height bounds, drop criterion, extended orbit containment;
    extra-d walks the extended orbit again with tail2_iter."""
    out: list[CheckResult] = []

    rising = False
    valley = True
    for i in range(1, amh.size):
        if amh.h[i] > amh.h[i - 1]:
            rising = True
        elif amh.h[i] < amh.h[i - 1] and rising:
            valley = False
            break
    out.append(_res("extra-a", valley, f"h vector {amh.h} is not a valley"))

    ok = True
    witness = ""
    for i in range(amh.size - 1):
        lo = amh.a[i] - chain.start_dinv
        hi = amh.a[i + 1] - chain.start_dinv
        cap = 1 + max(amh.h[i], amh.h[i + 1])
        if any(x > cap for x in prof[lo:hi]):
            ok = False
            witness = f"run {i} exceeds {cap}"
            break
    out.append(_res("extra-b", ok, witness))

    ok = True
    witness = ""
    for i in range(len(parts) - 1):
        if (prof[i] < prof[i + 1]) != starts_00(parts[i], prof[i]):
            ok = False
            witness = f"element {class_from_partition(parts[i])} at {chain.start_dinv + i}"
            break
    out.append(_res("extra-c", ok, witness))

    ok = True
    witness = ""
    d2 = dinv(ti2(chain.mu))
    base = partition_from_class(ti(chain.mu))
    if d2 < chain.start_dinv:
        ok = False
        witness = f"extended orbit starts at {d2}, below the chain"
    else:
        for off, p in enumerate(tail2_iter(chain.mu)):
            if p == base:
                break
            if parts[d2 + off - chain.start_dinv] != p:
                ok = False
                witness = f"extended orbit departs from the chain at dinv {d2 + off}"
                break
    out.append(_res("extra-d", ok, witness))
    return out
