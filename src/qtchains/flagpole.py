"""Partitions whose extended orbit base is a short two-run template.

A partition mu qualifies when its extended orbit base class is long relative
to the deficit; equivalently the base vector matches the template
0 0 1 2^a B' or 0 0 1 2^(a-1) B' 1 built from a smaller partition, with a
large enough.  The template data (lam, a, eps) and the pair (lam, length,
dinv parity) both determine mu, giving two invertible encodings.
"""

from __future__ import annotations

from .dyck import Vector, defc, dinv
from .partitions import Partition, count_partitions, partition_from_multiplicities, partitions_of
from .tails import b_word, s_vectors, template_parse, ti2, ti_mind


def v_template(lam: Partition, a: int, eps: int) -> Vector:
    """0 0 1 2^a B' (eps 0) or 0 0 1 2^(a-1) B' 1 (eps 1), B' the raised base word of lam."""
    if a < 2 or eps not in (0, 1):
        raise ValueError(f"need a >= 2 and eps in 0..1: {a}, {eps}")
    bp = tuple(x + 1 for x in b_word(lam))
    if eps == 0:
        return (0, 0, 1) + (2,) * a + bp
    return (0, 0, 1) + (2,) * (a - 1) + bp + (1,)


def template_match(v: Vector) -> tuple[Partition, int, int] | None:
    """Recover (lam, a, eps) from a template vector, or None when v is not one.

    template_parse reads the runs 2^m_0, 2^n_1, ..., 2^n_r; the rest after
    the last 2 is () for eps 0 and (1,) for eps 1, and a = m_0 + eps.
    """
    try:
        runs, rest = template_parse(tuple(v))
    except ValueError:
        return None
    if rest not in ((), (1,)) or runs[0] + len(rest) < 2:
        return None
    return partition_from_multiplicities(runs[1:]), runs[0] + len(rest), len(rest)


def a_floor(lam: Partition) -> int:
    """Smallest template exponent that makes lam a qualifying flag type."""
    return sum(lam) - (lam[0] if lam else 0) - len(lam) + 3


def is_flagpole(mu: Partition) -> bool:
    """True when the extended orbit base of mu is long relative to the deficit.

    Both characterizations are evaluated and must agree: the length bound
    2 * len >= |mu| + 8, and a template match with exponent at least a_floor.
    """
    t = ti2(mu)
    by_bound = sum(mu) + 8 <= 2 * len(t)
    m = template_match(t)
    by_template = m is not None and m[1] >= a_floor(m[0])
    if by_bound != by_template:
        raise RuntimeError(f"flagpole criteria disagree for {mu}: {t}")
    return by_bound


def phi(mu: Partition) -> tuple[Partition, int, int] | None:
    """(lam, a, eps) encoding of mu via its extended orbit base, when a template."""
    return template_match(ti2(mu))


def phi_inv(lam: Partition, a: int, eps: int) -> Partition:
    """Partition whose extended orbit base is the (lam, a, eps) template."""
    return s_vectors(v_template(lam, a, eps)).mu


def psi(mu: Partition) -> tuple[Partition, int, int] | None:
    """(lam, length, dinv parity) encoding of mu, when the base is a template."""
    t = ti2(mu)
    m = template_match(t)
    if m is None:
        return None
    return m[0], len(t), dinv(t) % 2


def psi_template(lam: Partition, length: int, parity: int) -> Vector:
    """The template psi reads (lam, length, parity) off: a from length, eps from parity."""
    a = length - 3 - (lam[0] if lam else 0) - len(lam)
    if a < 2:
        raise ValueError(f"length {length} too short for lam={lam}")
    for eps in (0, 1):
        v = v_template(lam, a, eps)
        if dinv(v) % 2 == parity % 2:
            return v
    raise ValueError(f"no template with lam={lam} length={length} parity={parity}")


def psi_inv(lam: Partition, length: int, parity: int) -> Partition:
    """Invert psi: the partition whose extended orbit base is psi_template(lam, length, parity)."""
    return s_vectors(psi_template(lam, length, parity)).mu


def flag_templates(
    pairing: dict[Partition, Partition], d: int, generalized: bool = False
) -> list[tuple[Partition, Vector]]:
    """(lam, template) of the base of each deficit-d (generalized) flagpole whose
    flag type lam is paired with some lam* in pairing.

    The (lam, a, eps) template has deficit a + defc(v_template(lam, 2, 0)) - 2
    and length a + 2 + ti_mind(lam), so d fixes a.  A flagpole needs
    a >= a_floor(lam); a generalized one a >= 2 and length >= 4 + ti_mind(lam*)."""
    out = []
    for lam, lam_star in pairing.items():
        a = d + 2 - defc(v_template(lam, 2, 0))
        if a >= (max(2, 2 + ti_mind(lam_star) - ti_mind(lam)) if generalized else a_floor(lam)):
            out += [(lam, v_template(lam, a, eps)) for eps in (0, 1)]
    return out


def count_flagpole(n: int) -> int:
    """Number of size-n flagpole partitions, in closed form."""
    return sum(2 * count_partitions(j) for j in range(0, (n - 4) // 2 + 1))


def count_flagpole_bruteforce(n: int) -> int:
    return sum(1 for mu in partitions_of(n) if is_flagpole(mu))


# ------------------------------------------------------- generalized variant

def gflag_lower_bound(k: int) -> int:
    """Lower bound on the number of size-k generalized flagpoles, for any involution."""
    total = 0
    for j in range(1, k):
        qs: dict[int, int] = {}
        for lam in partitions_of(j):
            i = lam[0] + len(lam) - 1
            qs[i] = qs.get(i, 0) + 1
        blocked = sum(qs.get(i, 0) for i in range(k - 3 - j, j + 1))
        total += 2 * max(0, count_partitions(j) - 2 * blocked)
    return total
