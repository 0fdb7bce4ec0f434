"""Eventual staircase orbits of the successor maps, and their base points.

Every partition mu yields a base class whose orbit under the first-order
step is infinite; the classes in the orbit are listed in closed form by
plateaus of constant reduced length.  Walking the combined predecessor map
down from the base class bottoms out at a second base point whose orbit
under the combined map extends the first-order orbit downward.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import chain, islice, repeat
from math import comb
from typing import Iterator, NamedTuple

from .dyck import Vector, class_from_partition, dinv, partition_from_class
from .partitions import (
    Partition, count_partitions_max, multiplicities, partition_from_multiplicities, partitions_of
)
from .steps import nd2_partition


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
    if b[0] != 0 or b[-1] != 1 or any(x not in (0, 1) for x in b):
        return None
    zeros = [i for i, x in enumerate(b) if x == 0] + [len(b)]
    return partition_from_multiplicities(tuple(j - i - 1 for i, j in zip(zeros, zeros[1:])))


def ti(mu: Partition) -> Vector:
    """Reduced vector of the base class of the first-order orbit of mu."""
    return (0,) + b_word(mu)


def ti_mind(mu: Partition) -> int:
    return (mu[0] if mu else 0) + len(mu) + 1


def ti_dinv(mu: Partition) -> int:
    m1 = mu[0] if mu else 0
    ell = len(mu)
    return comb(m1 + ell + 1, 2) - ell - sum(mu)


def plateau(mu: Partition, j: int) -> Iterator[Vector]:
    """The classes of the orbit of mu with reduced length ti_mind(mu) + j, in orbit order,
    each built when it is reached.

    For j > 0 and nonzero mu these are the proper splits of the base word
    followed by the padded forms; the count is ti_mind(mu) + j - 1.
    """
    if j == 0:
        yield ti(mu)
        return
    b = b_word(mu)
    if mu:
        for s in range(1, len(b)):
            y, z = b[:s], b[s:]
            yield (0, 1) + tuple(x + 1 for x in z) + (1,) * (j - 1) + y
        for zeros in range(j + 1):
            yield (0,) + (1,) * (j - zeros) + b + (0,) * zeros
    else:
        for zeros in range(1, j + 1):
            yield (0,) + (1,) * (j - zeros) + (0,) * zeros


def tail_classes(mu: Partition, count: int) -> Iterator[Vector]:
    """First count classes of the orbit of mu, by the plateau closed forms,
    each built when it is reached: the last plateau is read only as far as count.

    Every plateau holds at least one class, so count plateaus suffice.
    """
    plateaus = map(plateau, repeat(mu), range(count))
    return islice(chain.from_iterable(plateaus), count)


def tail_elements(mu: Partition, count: int) -> list[Vector]:
    """First count classes of the orbit of mu, by the plateau closed forms."""
    return list(tail_classes(mu, count))


def staircase_runs(base: int) -> Iterator[tuple[int, int]]:
    """(reduced length, class count) of each plateau of an orbit whose base class
    has reduced length base: plateau 0 holds 1 class, plateau j >= 1 holds base + j - 1."""
    yield base, 1
    ln = base
    while True:
        ln += 1
        yield ln, ln - 1


def staircase_profile(base: int, count: int) -> list[int]:
    """base, then base+1 taken base times, then base+2 taken base+1 times, ..."""
    out: list[int] = []
    for ln, reps in staircase_runs(base):
        out += [ln] * reps
        if len(out) >= count:
            return out[:count]


class TailLocator(NamedTuple):
    """Position of a class inside a first-order orbit."""

    mu: Partition
    plateau_index: int
    position: int


def locate_in_tail(w: Vector) -> TailLocator | None:
    """Locate the class of w inside a first-order orbit, or None when absent.

    nd1 inverts nu1, so the class lies in an orbit exactly when walking nd1
    down from it stops at a base class ti(mu); the number of steps is its
    index in that orbit.  Binary reduced vectors always locate; ternary ones
    locate exactly when the only 0 before the last 2 is the first entry;
    anything higher never locates.
    """
    p, index = _nd1_stretch(partition_from_class(w))
    mu = partition_from_b_word(class_from_partition(p)[1:])
    if mu is None:
        return None
    for plateau_index, (_, size) in enumerate(staircase_runs(ti_mind(mu))):
        if index < size:
            return TailLocator(mu, plateau_index, index)
        index -= size


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

def _nd1_stretch(p: Partition) -> tuple[Partition, int]:
    """Apply nd1_partition to p for as long as it is defined; return the
    partition it stops at and the number of steps.

    The parts are held in a deque, each stored less a running lift, so
    dropping the first part and raising the rest is one pop and one
    increment, and padding with ones costs one entry a part.
    """
    parts = deque(p)
    lift = 0
    ell = len(p)
    while ell and parts[0] + lift >= ell:
        first = parts.popleft() + lift
        lift += 1
        parts.extend(repeat(1 - lift, first - ell))
        ell = first - 1
    return tuple([a + lift for a in parts]), lift


@lru_cache(maxsize=None)
def ti2(mu: Partition) -> Vector:
    """Base class of the extended orbit: iterate the predecessor map to a fixpoint.

    Both steps run on partitions: each stretch of first-order steps runs in
    _nd1_stretch, and the second-order step reads the partition it leaves.
    The class is built only for the result.
    """
    p = partition_from_class(ti(mu))
    while True:
        p, _ = _nd1_stretch(p)
        q = nd2_partition(p)
        if q is None:
            return class_from_partition(p)
        p = q


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


def _blocks(runs: tuple[int, ...]) -> list[int]:
    """1^(2 floor(n/2)) 0 1^(n mod 2) for each run n, in one list."""
    out: list[int] = []
    for n in runs:
        out += [1] * (2 * (n // 2))
        out.append(0)
        out += [1] * (n % 2)
    return out


def _evens(runs: tuple[int, ...], upto: int) -> int:
    return sum(1 for n in runs[:upto] if n % 2 == 0)


def _v_end(runs: tuple[int, ...], c: Vector) -> Vector:
    n = runs[-1]
    out = [0, 0] + [1] * _evens(runs, len(runs))
    out += c
    out += _blocks(runs[:-1])
    out += [1] * (2 * (n // 2)) + [0, 1] * (n % 2)
    return tuple(out)


def _v_partial(runs: tuple[int, ...], c: Vector, i: int, half: int) -> Vector:
    out = [0, 0, 1] + [2] * (runs[i] - 2 * half)
    for n in runs[i + 1 :]:
        out.append(1)
        out += [2] * n
    out += [1] * _evens(runs, i)
    out += c
    out += _blocks(runs[:i])
    out += [1] * (2 * half)
    return tuple(out)


class TailTwoSummary(NamedTuple):
    """Closed-form description of an extended orbit from its template vector.

    s_vectors[j] is the j-th class at which the reduced length drops; the
    last one is the first-order base vector of mu.  Between drops the
    reduced lengths follow the staircase profile of the current length.
    """

    mu: Partition
    v: Vector
    s_vectors: tuple[Vector, ...]
    lengths: tuple[int, ...]

    @property
    def dinvs(self) -> tuple[int, ...]:  # computed when read
        return tuple(map(dinv, self.s_vectors))


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
    )
