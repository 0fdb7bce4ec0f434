"""Chain objects over the step maps, and the verification predicates.

A chain for a partition mu of the deficit k is a dinv-consecutive list of
deficit-k classes, given by the initial points of its maximal first-order
segments; the last segment is the infinite orbit of the base class of mu.
The predicates below are the machine-checkable clauses that make a family
of chains a certificate for the joint symmetry of the path sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .dyck import Vector, defc, dinv, reduce
from .partitions import Partition, format_partition
from .poly import QtPolynomial
from .steps import nu1
from .tails import staircase_profile, tail2_iter, ti, ti2, ti_dinv, ti_mind


class Chain:
    """Lazy materialization of a chain from its segment initial points.

    The segments are walked once, in order, into one list that only grows.
    """

    def __init__(self, mu: Partition, start_dinv: int, generators: list[Vector]):
        if not generators:
            raise ValueError("a chain needs at least one segment")
        self.mu = tuple(mu)
        self.start_dinv = start_dinv
        self.generators = [tuple(g) for g in generators]
        self._elements: list[Vector] = []
        self._segment = -1  # index of the generator whose segment holds the last element

    def __repr__(self) -> str:
        return f"Chain({format_partition(self.mu)}, start={self.start_dinv})"

    def _grow(self, need: int) -> None:
        """Walk the segments until at least need elements are held.

        Only the final segment may reach the base dinv of mu, where a valid
        chain holds its final generator; a non-final segment still running
        there, or a final segment that stops, raises RuntimeError.
        """
        els = self._elements
        last = len(self.generators) - 1
        base_slot = ti_dinv(self.mu) - self.start_dinv
        while len(els) < need:
            c = nu1(els[-1]) if els else None
            seg = self._segment
            if c is None:
                if seg == last:
                    raise RuntimeError(f"final segment of {self} stopped")
                seg += 1
                c = self.generators[seg]
            if seg < last and len(els) >= base_slot:
                raise RuntimeError(
                    f"segment {seg} of {self} still runs at the base dinv {ti_dinv(self.mu)}"
                )
            els.append(c)
            self._segment = seg

    def elements_upto(self, d: int) -> list[Vector]:
        """Chain elements from start_dinv through dinv d, in order."""
        need = d - self.start_dinv + 1
        self._grow(need)
        return self._elements[:max(need, 0)]

    def element(self, d: int) -> Vector:
        """The chain element with dinv d."""
        if d < self.start_dinv:
            raise IndexError(f"{self} starts at {self.start_dinv}, asked for {d}")
        i = d - self.start_dinv
        self._grow(i + 1)
        return self._elements[i]

    def amh_horizon(self) -> int:
        return ti_dinv(self.mu) + ti_mind(self.mu) + 1


@dataclass(frozen=True)
class AmhVectors:
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

@dataclass(frozen=True)
class CheckResult:
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


def check_pair(chain: Chain, partner: Chain, k: int) -> list[tuple[str, CheckResult]]:
    """Every structural clause of a chain pair, as (context, result) rows.

    The chain's basic, local and extra rows come first, then the partner's
    when it is a different chain, then the pair's amh rows under the
    chain's name.  Each chain is materialized through its amh horizon
    once; a chain that cannot be gives a single failing basic-a row.
    """
    sides = [chain] if partner.mu == chain.mu else [chain, partner]
    els: list[list[Vector]] = []
    profs: list[list[int]] = []
    amh: list[AmhVectors] = []
    for c in sides:
        try:
            els.append(c.elements_upto(c.amh_horizon()))
        except RuntimeError as e:
            return [(format_partition(c.mu), _res("basic-a", False, str(e)))]
        profs.append([len(x) for x in els[-1]])
        amh.append(amh_vectors(c.start_dinv, profs[-1]))
    if len(sides) == 1:
        basic_e = _res(
            "basic-e",
            chain.generators == partner.generators,
            "self-paired chain differs from partner",
        )
    else:
        shared = set(els[0]) & set(els[1])
        basic_e = _res("basic-e", not shared, f"shared classes {sorted(shared)[:3]}")
    rows: list[tuple[str, CheckResult]] = []
    for c, other, c_els, prof, c_amh in zip(sides, (partner, chain), els, profs, amh):
        results = (
            check_basic(c, other, c_els)
            + [basic_e]
            + check_local(c, prof, c_amh)
            + check_extra(c, c_els, prof, c_amh)
        )
        rows += [(format_partition(c.mu), r) for r in results]
    name = format_partition(chain.mu)
    return rows + [(name, r) for r in check_amh(amh[0], amh[-1], k)]


def check_basic(chain: Chain, partner: Chain, els: list[Vector]) -> list[CheckResult]:
    """Deficit and dinv bookkeeping, start positions and ending orbit.

    els holds the chain's elements through its amh horizon.
    """
    mu = chain.mu
    k = sum(mu)
    bad = [
        (i, c)
        for i, c in enumerate(els)
        if defc(c) != k or dinv(c) != chain.start_dinv + i or reduce(c) != c
    ]
    return [
        _res(
            "basic-a",
            not bad,
            bad and f"element {bad[0][1]} at slot {chain.start_dinv + bad[0][0]}" or "",
        ),
        _res(
            "basic-b",
            len(set(els)) == len(els),
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
    chain: Chain, els: list[Vector], prof: list[int], amh: AmhVectors
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
    for i in range(len(els) - 1):
        drop_next = len(els[i]) < len(els[i + 1])
        starts_00 = els[i] == (0,) or els[i][:2] == (0, 0)
        if drop_next != starts_00:
            ok = False
            witness = f"element {els[i]} at {chain.start_dinv + i}"
            break
    out.append(_res("extra-c", ok, witness))

    ok = True
    witness = ""
    d2 = dinv(ti2(chain.mu))
    base = ti(chain.mu)
    if d2 < chain.start_dinv:
        ok = False
        witness = f"extended orbit starts at {d2}, below the chain"
    else:
        for off, cls in enumerate(tail2_iter(chain.mu)):
            if cls == base:
                break
            if chain.element(d2 + off) != cls:
                ok = False
                witness = f"extended orbit departs from the chain at dinv {d2 + off}"
                break
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

def cat_n_mu(n: int, chain: Chain) -> QtPolynomial:
    """Sum of q^(C(n,2)-k-d) t^d over chain elements of reduced length at most n.

    Stops once the final orbit's reduced lengths pass n; they never return.
    """
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


def opposite_bruteforce(chain: Chain, partner: Chain, n_max: int) -> list[CheckResult]:
    """Path sums of the pair are mirror images in q and t, for each n up to n_max."""
    out: list[CheckResult] = []
    for n in range(1, n_max + 1):
        lhs = cat_n_mu(n, chain)
        rhs = cat_n_mu(n, partner).swap()
        ok = lhs == rhs
        witness = "" if ok else f"{format_partition(chain.mu)}: {lhs} vs {rhs}"
        out.append(CheckResult(f"opposite-n{n}", ok, witness))
    return out
