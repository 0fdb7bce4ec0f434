"""Chain objects over the step maps, and the verification predicates.

A chain for a partition mu of the deficit k is a dinv-consecutive list of
deficit-k classes, given by the initial points of its maximal first-order
segments; the last segment is the infinite orbit of the base class of mu.
The predicates below are the machine-checkable clauses that make a family
of chains a certificate for the joint symmetry of the path sums.
"""

from __future__ import annotations

from itertools import count, repeat
from math import comb
from typing import Callable, Iterator, NamedTuple

from .dyck import (
    Vector, class_from_partition, mind, partition_dinv, partition_from_class, starts_00
)
from .partitions import Partition, format_partition
from .poly import QtPolynomial, format_terms
from .steps import nu1_partition, nu2_partition
from .tails import staircase_profile, staircase_runs, ti, ti2, ti_dinv, ti_mind


class Chain:
    """Lazy materialization of a chain from its segment initial points.

    The segments are walked once, in order, into one list of partitions
    that only grows; a class vector is built only when element or
    elements_upto asks for one.  A stored generator that is not the reduced
    vector of its class walks as that class: basic-a fails at its slot with
    the stored vector as witness, basic-d compares the stored last
    generator, and every other clause reads the classes.
    """

    def __init__(self, mu: Partition, start_dinv: int, generators: list[Vector]):
        if not generators:
            raise ValueError("a chain needs at least one segment")
        self.mu = tuple(mu)
        self.start_dinv = start_dinv
        self.generators = [tuple(g) for g in generators]
        self._parts: list[Partition] = []  # partitions of the elements' classes
        self._minds: list[int] = []  # reduced length of each element, mind of its partition
        self._starts: list[int] = []  # index of the first element of each segment walked
        self._base_slot = ti_dinv(self.mu) - start_dinv  # index of the element at the base dinv

    def __repr__(self) -> str:
        return f"Chain({format_partition(self.mu)}, start={self.start_dinv})"

    def _grow(self, need: int) -> None:
        """Walk the segments until at least need elements are held.

        Each first-order step is surgery on the partition p of the last
        element and takes its mind to max(mind(p), len(p) + 2), so only a
        segment's first element computes mind.  Only the final segment may
        reach the base dinv of mu, where a valid chain holds its final
        generator; a non-final segment still running there, or a final
        segment that stops, raises RuntimeError.
        """
        parts, minds, starts = self._parts, self._minds, self._starts
        if len(parts) >= need:
            return
        last = len(self.generators) - 1
        seg = len(starts) - 1
        p = None
        if parts:
            p = nu1_partition(parts[-1])
            m = max(minds[-1], len(parts[-1]) + 2)
        while True:
            if p is None:
                if seg == last:
                    raise RuntimeError(f"final segment of {self} stopped")
                seg += 1
                p = partition_from_class(self.generators[seg])
                m = mind(p)
            if seg < last and len(parts) >= self._base_slot:
                raise RuntimeError(
                    f"segment {seg} of {self} still runs at the base dinv {ti_dinv(self.mu)}"
                )
            if seg == len(starts):
                starts.append(len(parts))
            # the segment from p on, to need or, unless it is final, to the base slot
            while True:
                parts.append(p)
                minds.append(m)
                if len(parts) >= need:
                    return
                m = max(m, len(p) + 2)
                p = nu1_partition(p)
                if p is None or seg < last and len(parts) == self._base_slot:
                    break

    def walk(self) -> Iterator[Partition]:
        """Partitions of the chain elements in order, each walked only when it is reached."""
        parts = self._parts
        for i in count():
            if i == len(parts):
                self._grow(i + 1)
            yield parts[i]

    def partitions_upto(self, d: int) -> list[Partition]:
        """Partitions of the chain elements from start_dinv through dinv d, in order."""
        need = d - self.start_dinv + 1
        self._grow(need)
        return self._parts[:max(need, 0)]

    def partition(self, d: int) -> Partition:
        """Partition of the chain element with dinv d."""
        if d < self.start_dinv:
            raise IndexError(f"{self} starts at {self.start_dinv}, asked for {d}")
        i = d - self.start_dinv
        self._grow(i + 1)
        return self._parts[i]

    def elements_upto(self, d: int) -> list[Vector]:
        """Chain elements from start_dinv through dinv d, in order."""
        return [class_from_partition(p) for p in self.partitions_upto(d)]

    def element(self, d: int) -> Vector:
        """The chain element with dinv d."""
        return class_from_partition(self.partition(d))

    def stored_generators(self) -> dict[int, Vector]:
        """The stored generator of each segment walked so far, by its element's index."""
        return dict(zip(self._starts, self.generators))

    def amh_horizon(self) -> int:
        return ti_dinv(self.mu) + ti_mind(self.mu) + 1


class AmhVectors(NamedTuple):
    """Descent data of a length profile: positions, flat run lengths, values."""

    a: tuple[int, ...]
    m: tuple[int, ...]
    h: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.a)


def amh_vectors(start_dinv: int, prof: list[int]) -> AmhVectors:
    """Descent positions, flat runs, and lengths of a chain's length profile.

    prof holds the reduced lengths of the chain's elements from start_dinv
    on.  A descent is the start plus every place the length drops; scanned
    through the horizon past the final base class, no further drops occur.
    """
    des = [0] + [j for j in range(1, len(prof)) if prof[j - 1] > prof[j]]
    a, m, h = [], [], []
    for j in des:
        a.append(start_dinv + j)
        h.append(prof[j])
        r = 0
        while j + r + 1 < len(prof) and prof[j + r + 1] == prof[j]:
            r += 1
        m.append(r)
    return AmhVectors(tuple(a), tuple(m), tuple(h))


# ------------------------------------------------------------- check reports

class CheckResult(NamedTuple):
    clause: str
    ok: bool
    witness: str = ""


def report_lines(results: list[CheckResult]) -> list[str]:
    return [
        f"{r.clause} {'ok' if r.ok else 'FAIL'}" + (f" {r.witness}" if r.witness else "")
        for r in results
    ]


def _res(clause: str, ok: bool, witness: str = "") -> CheckResult:
    return CheckResult(clause, ok, "" if ok else witness)


class ChainCheck(NamedTuple):
    """One walk of a chain through its amh horizon, and the rows it decides alone.

    rows are basic-a, basic-b, basic-d, local-a, local-b and extra-a to
    extra-d, in that order; parts holds the partitions of the walk and amh
    the descent data of their length profile.  A chain that cannot be
    walked has the single failing basic-a row, no parts and no amh.
    """

    chain: Chain
    rows: list[CheckResult]
    parts: list[Partition]
    amh: AmhVectors | None

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def check_chain(chain: Chain) -> ChainCheck:
    """Walk chain once, on partitions, to its amh horizon and run its one-chain rows.

    The length profile is the mind of each partition, carried along the
    walk; class vectors are built only for witnesses.  A chain that starts
    above its horizon holds no element to check and fails basic-a alone.
    """
    try:
        parts = chain.partitions_upto(chain.amh_horizon())
        if not parts:
            raise RuntimeError(f"{chain} starts above its amh horizon {chain.amh_horizon()}")
    except RuntimeError as e:
        return ChainCheck(chain, [_res("basic-a", False, str(e))], [], None)
    prof = chain._minds[:len(parts)]
    amh = amh_vectors(chain.start_dinv, prof)
    rows = check_basic(chain, parts, prof) + check_local(chain, prof, amh) + check_extra(
        chain, parts, prof, amh
    )
    return ChainCheck(chain, rows, parts, amh)


def check_pair(chain: Chain, partner: Chain, k: int) -> list[tuple[str, CheckResult]]:
    """Every structural clause of a chain pair, as (context, result) rows.

    Each chain is checked once (check_chain), the partner only when it is
    another partition, and pair_rows joins the results.  A chain that
    cannot be walked gives its single failing basic-a row.
    """
    ours = check_chain(chain)
    if ours.amh is None:
        return [(format_partition(chain.mu), ours.rows[0])]
    theirs = ours._replace(chain=partner) if partner.mu == chain.mu else check_chain(partner)
    if theirs.amh is None:
        return [(format_partition(partner.mu), theirs.rows[0])]
    return pair_rows(ours, theirs, k)


def pair_rows(ours: ChainCheck, theirs: ChainCheck, k: int) -> list[tuple[str, CheckResult]]:
    """The rows of a pair from its two walked and checked chains, as (context, result) rows.

    The chain's basic, local and extra rows come first, with the pair's
    basic-c and basic-e among them, then the partner's when it is another
    partition, then the pair's amh rows under the chain's name.
    """
    chain, partner = ours.chain, theirs.chain
    sides = [ours] if partner.mu == chain.mu else [ours, theirs]
    if len(sides) == 1:
        basic_e = _res(
            "basic-e",
            chain.generators == partner.generators,
            "self-paired chain differs from partner",
        )
    else:
        shared = set(ours.parts) & set(theirs.parts)
        basic_e = _res(
            "basic-e", not shared, f"shared classes {sorted(map(class_from_partition, shared))[:3]}"
        )
    names = [format_partition(side.chain.mu) for side in sides]
    rows: list[tuple[str, CheckResult]] = []
    for side, other, name in zip(sides, (partner, chain), names):
        c = side.chain
        basic_c = _res(
            "basic-c",
            c.start_dinv == len(other.mu) and other.start_dinv == len(c.mu),
            f"starts {c.start_dinv},{other.start_dinv} vs lengths {len(other.mu)},{len(c.mu)}",
        )
        results = side.rows[:2] + [basic_c, side.rows[2], basic_e] + side.rows[3:]
        rows += [(name, r) for r in results]
    return rows + [(names[0], r) for r in check_amh(sides[0].amh, sides[-1].amh, k)]


def check_basic(chain: Chain, parts: list[Partition], prof: list[int]) -> list[CheckResult]:
    """Deficit and dinv bookkeeping, distinct elements and ending orbit: basic-a, b and d.

    parts holds the partitions of the chain's elements through its amh
    horizon and prof their mind.  Dinv and the deficit |p| - dinv are read
    at segment starts only: each later element is nu1 of the one before, one
    more in dinv and in size.  A stored generator must be the reduced vector
    of its class, of length mind(p).
    """
    mu = chain.mu
    k = sum(mu)
    gens = chain.stored_generators()
    bad = [
        i
        for i, p in enumerate(parts)
        if i in gens
        and ((dv := partition_dinv(p)) != chain.start_dinv + i
             or sum(p) - dv != k or len(gens[i]) != prof[i])
    ]
    return [
        _res(
            "basic-a",
            not bad,
            bad and f"element {gens[bad[0]]} at slot {chain.start_dinv + bad[0]}" or "",
        ),
        _res(
            "basic-b",
            len(set(parts)) == len(parts),
            f"repeated element in chain for {format_partition(mu)}",
        ),
        _res(
            "basic-d",
            chain.generators[-1] == ti(mu),
            f"last generator {chain.generators[-1]} is not the base vector of "
            f"{format_partition(mu)}",
        ),
    ]


def check_local(chain: Chain, prof: list[int], amh: AmhVectors) -> list[CheckResult]:
    """The profile between descents follows the staircase of the descent value."""
    out = [
        _res(
            "local-a",
            amh.a[-1] == ti_dinv(chain.mu),
            f"last descent {amh.a[-1]} vs base dinv {ti_dinv(chain.mu)}",
        )
    ]
    ok = True
    witness = ""
    for i in range(amh.size - 1):
        lo = amh.a[i] - chain.start_dinv
        hi = amh.a[i + 1] - chain.start_dinv
        run = prof[lo:hi]
        h, m = amh.h[i], amh.m[i]
        # h over the flat run after the descent, then the staircase above h
        want = ([h] * m + staircase_profile(h, len(run) - m))[: len(run)]
        if run != want or len(run) < m + 2:
            ok = False
            witness = f"run {i} is {run}, wanted prefix {want} with a rise"
            break
    out.append(_res("local-b", ok, witness))
    return out


def check_extra(
    chain: Chain, parts: list[Partition], prof: list[int], amh: AmhVectors
) -> list[CheckResult]:
    """Valley shape, run height bounds, drop criterion, extended orbit containment."""
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
    p = partition_from_class(ti2(chain.mu))
    d2 = partition_dinv(p)
    base = partition_from_class(ti(chain.mu))
    if d2 < chain.start_dinv:
        ok = False
        witness = f"extended orbit starts at {d2}, below the chain"
    else:
        # The extended orbit steps with nu1_partition where it is defined, as
        # the chain's walk does, and a chain segment starts exactly where it
        # is not; so the orbit can leave the chain only at a segment start,
        # where it takes the second-order step from the element before.
        starts = chain.stored_generators()
        i = d2 - chain.start_dinv
        while p != base:
            if parts[i] != p:
                ok = False
                witness = f"extended orbit departs from the chain at dinv {chain.start_dinv + i}"
                break
            i += 1
            if i in starts:
                p = nu2_partition(parts[i - 1])
                if p is None:
                    raise RuntimeError(
                        f"extended orbit of {chain.mu} stopped at {class_from_partition(parts[i - 1])}"
                    )
            else:
                p = parts[i]
    out.append(_res("extra-d", ok, witness))
    return out


def check_amh(amh: AmhVectors, partner: AmhVectors, k: int) -> list[CheckResult]:
    """Reversal symmetry of the descent data and the position identity."""
    out = [
        _res("amh-a", amh.size == partner.size, f"sizes {amh.size} vs {partner.size}")
    ]
    if amh.size != partner.size:
        return out
    out.append(
        _res(
            "amh-b",
            amh.h == tuple(reversed(partner.h)) and amh.m == tuple(reversed(partner.m)),
            f"h/m vectors {amh.h},{amh.m} vs reversed {partner.h},{partner.m}",
        )
    )
    bad = [
        i
        for i in range(amh.size)
        if amh.a[i] + amh.m[i] + k + partner.a[amh.size - 1 - i] != comb(amh.h[i], 2)
    ]
    out.append(_res("amh-c", not bad, bad and f"position identity fails at {bad[0]}" or ""))
    return out


# ---------------------------------------------------------------- path sums

def _lengths(chain: Chain, n_max: int) -> list[tuple[int, int, int]]:
    """(first dinv, count, reduced length) runs of the chain's elements, in order.

    Stops before the first element at or past the base dinv that is longer
    than n_max: the final orbit's reduced lengths never come back down.
    The chain is walked one element at a time, one run each, up to its
    base dinv.  When the element there is the base class of mu, the rest of
    the chain is that class's orbit (a non-final segment running there
    raises, and the orbit never stops), whose lengths are the plateaus of
    staircase_runs(ti_mind(mu)).  Otherwise the walk goes on, so a final
    segment that stops only past the last element read is never reached.
    """
    base_dinv = ti_dinv(chain.mu)
    base = partition_from_class(ti(chain.mu))
    out = []
    d = chain.start_dinv
    for i, p in enumerate(chain.walk()):
        ln = chain._minds[i]
        if d == base_dinv and p == base:
            for ln, reps in staircase_runs(ln):
                if ln > n_max:
                    break
                out.append((d, reps, ln))
                d += reps
            break
        if ln > n_max and d >= base_dinv:
            break
        out.append((d, 1, ln))
        d += 1
    return out


def _share(n: int, chain: Chain, runs: list[tuple[int, int, int]]) -> Iterator[tuple[int, int]]:
    """(q, t) exponents of cat_n_mu(n, chain) in ascending t, from the runs of a walk to
    some n_max >= n: q^(C(n,2)-k-d) t^d for each dinv d of reduced length at most n."""
    top = comb(n, 2) - sum(chain.mu)
    return ((top - d, d) for d0, count, ln in runs if ln <= n for d in range(d0, d0 + count))


def _path_sum(n: int, chain: Chain, runs: list[tuple[int, int, int]]) -> QtPolynomial:
    """cat_n_mu(n, chain) from the runs of a walk to some n_max >= n."""
    return QtPolynomial(dict.fromkeys(_share(n, chain, runs), 1))


def cat_n_mu(n: int, chain: Chain) -> QtPolynomial:
    """Sum of q^(C(n,2)-k-d) t^d over chain elements of reduced length at most n.

    Stops once the final orbit's reduced lengths pass n; they never return.
    """
    return _path_sum(n, chain, _lengths(chain, n))


def share_pieces(n: int, chain: Chain) -> Iterator[str]:
    """share_text one run of _lengths at a time: the run's terms, led by " + "
    after the first run, or "0" alone when the share is empty."""
    sep = ""
    for run in _lengths(chain, n):
        if run[2] <= n:
            yield sep + format_terms(zip(_share(n, chain, [run]), repeat(1)))
            sep = " + "
    if not sep:
        yield "0"


def share_text(n: int, chain: Chain) -> str:
    """str(cat_n_mu(n, chain)) with no polynomial built: one term per t, in ascending t."""
    return "".join(share_pieces(n, chain))


def _length_masks(
    runs: list[tuple[int, int, int]], n_max: int, shift: Callable[[int, int], int]
) -> list[int]:
    """For each n up to n_max, the OR over the runs of length at most n of
    count bits from bit shift(first dinv, count) up."""
    buckets = [0] * (n_max + 1)
    for d, count, ln in runs:
        if ln <= n_max:
            buckets[ln] |= ((1 << count) - 1) << shift(d, count)
    masks = []
    acc = 0
    for b in buckets:
        acc |= b
        masks.append(acc)
    return masks


def opposite_bruteforce(chain: Chain, partner: Chain, n_max: int) -> list[CheckResult]:
    """Path sums of the pair are mirror images in q and t, for each n up to n_max.

    Each chain is read once, to n_max, as runs of equal reduced length, and
    every n compares two bit masks; the polynomials are built only for a
    failing row's witness.
    """
    ours, theirs = _lengths(chain, n_max), _lengths(partner, n_max)
    # Each walk's dinvs ascend without repeats and every term is
    # q^(top - d) t^d with coefficient 1, so the chain's sum is the
    # partner's swapped exactly when the chain's dinvs are top_star minus
    # the partner's, and the tops agree unless both sums are 0.  The
    # chain's dinv d is bit d - lo and the partner's e is bit hi - e, so
    # top_star - e lands on the chain's bits after a shift by
    # top_star - hi - lo.  Bits shifted out below 0 are values under lo,
    # which the chain lacks: equal counts rule them out.
    lo = chain.start_dinv
    hi = theirs[-1][0] + theirs[-1][1] - 1 if theirs else 0
    mine = _length_masks(ours, n_max, lambda d, count: d - lo)
    rev = _length_masks(theirs, n_max, lambda e, count: hi - (e + count - 1))
    out: list[CheckResult] = []
    for n in range(1, n_max + 1):
        top = comb(n, 2) - sum(chain.mu)
        top_star = comb(n, 2) - sum(partner.mu)
        m, r = mine[n], rev[n]
        s = top_star - hi - lo
        ok = (
            (r << s if s >= 0 else r >> -s) == m
            and m.bit_count() == r.bit_count()
            and (top == top_star or not m)
        )
        witness = ""
        if not ok:
            lhs = _path_sum(n, chain, ours)
            rhs = _path_sum(n, partner, theirs).swap()
            witness = opposite_witness(lhs, rhs)
        out.append(CheckResult(f"opposite-n{n}", ok, witness))
    return out


def opposite_witness(lhs: QtPolynomial, rhs: QtPolynomial) -> str:
    """A failing opposite row's witness: the first term, in str order, where the
    chain's path sum lhs and the partner's swapped sum rhs differ, the side
    that holds it, and the two term counts."""
    first = min(
        (qt for qt in lhs.terms.keys() | rhs.terms.keys() if lhs.terms.get(qt) != rhs.terms.get(qt)),
        key=lambda qt: (qt[1], -qt[0]),
    )
    side, poly = ("chain", lhs) if first in lhs.terms else ("swapped partner", rhs)
    return (
        f"{format_terms([(first, poly.terms[first])])} first differs, "
        f"in the {side} sum; {len(lhs.terms)} vs {len(rhs.terms)} terms"
    )
