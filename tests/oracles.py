"""Slow reference implementations the fast code is tested against."""

from __future__ import annotations

from math import comb
from typing import Iterator

from qtchains.builder import ChainCollection
from qtchains.dyck import (
    Vector,
    area,
    check_qdv,
    class_from_partition,
    defc,
    dinv,
    enumerate_deficit,
    format_vector,
    lift,
    mind,
    partition_from_class,
    qdv_from_partition,
    reduce,
)
from qtchains.flagpole import v_template
from qtchains.partitions import Partition, format_partition, partitions_of
from qtchains.poly import QtPolynomial
from qtchains.steps import nd, nu, nu1
from qtchains.tails import (
    TailTwoSummary,
    coverage_bound,
    locate_in_tail,
    staircase_profile,
    ti,
    ti_dinv,
)
from qtchains.verify import AmhVectors, Chain, CheckResult, amh_vectors


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
        witness = "" if ok else f"{format_partition(chain.mu)}: {lhs} vs {rhs}"
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
