"""Eventual staircase orbits of the successor maps, and their base points.

Every partition mu yields a base class whose orbit under the first-order
step is infinite; the classes in the orbit are listed in closed form by
plateaus of constant reduced length.  Walking the combined predecessor map
down from the base class bottoms out at a second base point whose orbit
under the combined map extends the first-order orbit downward.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator

from .dyck import Vector, class_from_partition, dinv, partition_from_class, reduce
from .partitions import Partition, count_partitions_max, multiplicities, partitions_of
from .steps import nd1_partition, nd2, nu1_partition, nu2


def b_word(mu: Partition) -> Vector:
    """0 1^n_1 0 1^n_2 ... 0 1^n_r where n_i counts the parts of mu equal to i."""
    out: list[int] = []
    for n_i in multiplicities(mu):
        out.append(0)
        out.extend([1] * n_i)
    return tuple(out)


def partition_from_b_word(b: Vector) -> Partition | None:
    """Invert b_word, or None when b is not such a word."""
    if not b:
        return ()
    if b[0] != 0 or b[-1] != 1:
        return None
    groups: list[int] = []
    for x in b:
        if x == 0:
            groups.append(0)
        elif x == 1:
            groups[-1] += 1
        else:
            return None
    parts: list[int] = []
    for i, m in enumerate(groups, start=1):
        parts.extend([i] * m)
    return tuple(reversed(parts))


def ti(mu: Partition) -> Vector:
    """Reduced vector of the base class of the first-order orbit of mu."""
    return (0,) + b_word(mu)


def ti_mind(mu: Partition) -> int:
    return (mu[0] if mu else 0) + len(mu) + 1


def ti_dinv(mu: Partition) -> int:
    m1 = mu[0] if mu else 0
    ell = len(mu)
    return comb(m1 + ell + 1, 2) - ell - sum(mu)


def plateau(mu: Partition, j: int) -> list[Vector]:
    """The classes of the orbit of mu with reduced length ti_mind(mu) + j, in orbit order.

    For j > 0 and nonzero mu these are the proper splits of the base word
    followed by the padded forms; the count is ti_mind(mu) + j - 1.
    """
    if j == 0:
        return [ti(mu)]
    b = b_word(mu)
    out: list[Vector] = []
    if mu:
        for s in range(1, len(b)):
            y, z = b[:s], b[s:]
            out.append((0, 1) + tuple(x + 1 for x in z) + (1,) * (j - 1) + y)
        for zeros in range(j + 1):
            out.append((0,) + (1,) * (j - zeros) + b + (0,) * zeros)
    else:
        for zeros in range(1, j + 1):
            out.append((0,) + (1,) * (j - zeros) + (0,) * zeros)
    return out


def tail_elements(mu: Partition, count: int) -> list[Vector]:
    """First count classes of the orbit of mu, by the plateau closed forms."""
    out: list[Vector] = []
    j = 0
    while len(out) < count:
        out.extend(plateau(mu, j))
        j += 1
    return out[:count]


def staircase_profile(base: int, count: int) -> list[int]:
    """base, then base+1 taken base times, then base+2 taken base+1 times, ..."""
    out: list[int] = []
    lvl = base
    while len(out) < count:
        reps = 1 if lvl == base else lvl - 1
        out.extend([lvl] * min(reps, count - len(out)))
        lvl += 1
    return out


@dataclass(frozen=True)
class TailLocator:
    """Position of a class inside a first-order orbit."""

    mu: Partition
    plateau_index: int
    position: int
    kind: str  # "split" for the 01Z'1^(j-1)Y form, "padded" for 01^a B 0^b


def _locate_binary(r: Vector) -> TailLocator | None:
    if r == (0,):
        return TailLocator((), 0, 0, "padded")
    n = len(r)
    zeros = 0
    while zeros < n - 1 and r[n - 1 - zeros] == 0:
        zeros += 1
    core = r[: n - zeros]
    if core == (0,):
        return TailLocator((), zeros, zeros - 1, "padded")
    a = 0
    while 1 + a < len(core) and core[1 + a] == 1:
        a += 1
    b = core[1 + a :]
    if not b:
        return TailLocator((), a + zeros, zeros - 1, "padded")
    mu = partition_from_b_word(b)
    if mu is None or not mu:
        return None
    j = a + zeros
    if j == 0:
        return TailLocator(mu, 0, 0, "padded")
    return TailLocator(mu, j, (len(b) - 1) + zeros, "padded")


def _locate_ternary(r: Vector) -> TailLocator | None:
    last2 = max(i for i, x in enumerate(r) if x == 2)
    if any(x == 0 for x in r[1:last2]):
        return None
    if len(r) < 2 or r[1] != 1:
        return None
    zp = r[2 : last2 + 1]
    if any(x not in (1, 2) for x in zp):
        return None
    u = 0
    while last2 + 1 + u < len(r) and r[last2 + 1 + u] == 1:
        u += 1
    y = r[last2 + 1 + u :]
    if not y or y[0] != 0 or any(x not in (0, 1) for x in y):
        return None
    z = tuple(x - 1 for x in zp)
    mu = partition_from_b_word(y + z)
    if mu is None or not mu:
        return None
    return TailLocator(mu, u + 1, len(y) - 1, "split")


def locate_in_tail(w: Vector) -> TailLocator | None:
    """Locate the class of w inside a first-order orbit, or None when absent.

    Binary reduced vectors always locate; ternary ones locate exactly when
    the only 0 before the last 2 is the first entry; anything higher never
    locates.
    """
    r = reduce(w)
    if all(x in (0, 1) for x in r):
        return _locate_binary(r)
    if all(0 <= x <= 2 for x in r):
        if 2 in r:
            return _locate_ternary(r)
    return None


def coverage_bound(k: int) -> int:
    """Dinv from which the deficit-k classes are exactly the p(k) orbit slices."""
    return comb(k + 4, 2) + 1


def absorption_counts(k: int) -> tuple[int, int]:
    """Count deficit-k classes below coverage_bound(k) outside every orbit.

    Returns (second_order_leftover, first_order_leftover).  The stratum at
    dinv d has count_partitions_max(k, d) classes, and an orbit starting at
    dinv s covers one class in each stratum s <= d.
    """
    d0 = coverage_bound(k)
    total = sum(count_partitions_max(k, d) for d in range(d0))
    first = total - sum(max(0, d0 - ti_dinv(mu)) for mu in partitions_of(k))
    second = total - sum(max(0, d0 - dinv(ti2(mu))) for mu in partitions_of(k))
    return second, first


# ------------------------------------------------------------ second order

@lru_cache(maxsize=None)
def ti2(mu: Partition) -> Vector:
    """Base class of the extended orbit: iterate the predecessor map to a fixpoint.

    First-order steps run on partitions; the class is built only where the
    second-order step has to be tried.
    """
    p = partition_from_class(ti(mu))
    while True:
        q = nd1_partition(p)
        if q is None:
            c = class_from_partition(p)
            prev = nd2(c)
            if prev is None:
                return c
            q = partition_from_class(prev)
        p = q


def tail2_iter(mu: Partition) -> Iterator[Vector]:
    """The combined-map orbit from the second base class of mu."""
    c = ti2(mu)
    p = partition_from_class(c)
    while True:
        yield c
        q = nu1_partition(p)
        if q is None:
            nxt = nu2(c)
            if nxt is None:
                raise RuntimeError(f"extended orbit of {mu} stopped at {c}")
            c, p = nxt, partition_from_class(nxt)
        else:
            c, p = class_from_partition(q), q


# ------------------------------------- closed forms for the extended orbit

def template_parse(v: Vector) -> tuple[tuple[int, ...], Vector]:
    """Split 0 0 1 2^m_0 1 2^m_1 ... 1 2^m_r C into the runs and the binary rest.

    The segment from position 2 through the last 2 must consist of 1s and 2s
    and open with a 1; C is whatever follows and must be binary.
    """
    if len(v) < 3 or v[0] != 0 or v[1] != 0 or v[2] != 1:
        raise ValueError(f"no 0 0 1 prefix: {v}")
    if 2 not in v:
        raise ValueError(f"no 2 after the prefix: {v}")
    last2 = max(i for i, x in enumerate(v) if x == 2)
    seg = v[2 : last2 + 1]
    if any(x not in (1, 2) for x in seg):
        raise ValueError(f"run segment not made of 1s and 2s: {v}")
    runs: list[int] = []
    for x in seg:
        if x == 1:
            runs.append(0)
        else:
            runs[-1] += 1
    c = v[last2 + 1 :]
    if any(x not in (0, 1) for x in c):
        raise ValueError(f"rest not binary: {v}")
    return tuple(runs), c


def _block(n: int) -> Vector:
    return (1,) * (2 * (n // 2)) + (0,) + (1,) * (n % 2)


def _last_block(n: int) -> Vector:
    return (1,) * (2 * (n // 2)) + (0, 1) * (n % 2)


def _evens(runs: tuple[int, ...], upto: int) -> int:
    return sum(1 for n in runs[:upto] if n % 2 == 0)


def _v_end(runs: tuple[int, ...], c: Vector) -> Vector:
    out = (0, 0) + (1,) * _evens(runs, len(runs)) + c
    for n in runs[:-1]:
        out += _block(n)
    return out + _last_block(runs[-1])


def _v_partial(runs: tuple[int, ...], c: Vector, i: int, half: int) -> Vector:
    head = (0, 0, 1) + (2,) * (runs[i] - 2 * half)
    for n in runs[i + 1 :]:
        head += (1,) + (2,) * n
    out = head + (1,) * _evens(runs, i) + c
    for n in runs[:i]:
        out += _block(n)
    return out + (1,) * (2 * half)


@dataclass(frozen=True)
class TailTwoSummary:
    """Closed-form description of an extended orbit from its template vector.

    s_vectors[j] is the j-th class at which the reduced length drops; the
    last one is the first-order base vector of mu.  Between drops the
    reduced lengths follow the staircase profile of the current length.
    """

    mu: Partition
    v: Vector
    s_vectors: tuple[Vector, ...]
    lengths: tuple[int, ...]
    dinvs: tuple[int, ...]


def s_vectors(v: Vector) -> TailTwoSummary:
    """Initial points of the length drops along the extended orbit of v.

    v must be reduced of the template shape 0 0 1 2^m_0 1 ... 1 2^m_r C with
    binary C and m_r > 0.
    """
    v = tuple(v)
    runs, c = template_parse(v)
    if runs[-1] == 0:
        raise ValueError(f"trailing run empty: {v}")
    out: list[Vector] = [v]
    r = len(runs) - 1
    for i in range(r + 1):
        for half in range(1, runs[i] // 2 + 1):
            out.append(_v_partial(runs, c, i, half))
        if runs[i] % 2 == 1:
            out.append(_v_partial(runs, c, i + 1, 0) if i < r else _v_end(runs, c))
    if runs[r] % 2 == 0 and out[-1] != _v_end(runs, c):
        raise RuntimeError(f"closed forms disagree at the end of {v}")
    mu = partition_from_b_word(out[-1][1:])
    if mu is None:
        raise RuntimeError(f"end vector of {v} is not a base word")
    return TailTwoSummary(
        mu=mu,
        v=v,
        s_vectors=tuple(out),
        lengths=tuple(len(s) for s in out),
        dinvs=tuple(dinv(s) for s in out),
    )
