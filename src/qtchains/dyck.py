"""Quasi-Dyck vectors, their shift classes, and the area/dinv/deficit statistics.

A quasi-Dyck vector starts at 0 and never rises by more than 1 between
consecutive entries.  Prepending a 0 and shifting every entry up by one keeps
the underlying lattice object, and each class under that move has a unique
shortest nonnegative member.  Classes correspond to integer partitions.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add, sub

from .partitions import Partition, read_number

Vector = tuple[int, ...]


def is_qdv(v) -> bool:
    """True for a nonempty int tuple starting at 0 with rises of at most 1."""
    if not v or v[0] != 0:
        return False
    return all(v[i + 1] <= v[i] + 1 for i in range(len(v) - 1))


def check_qdv(v) -> Vector:
    t = tuple(v)
    if not is_qdv(t):
        raise ValueError(f"not a quasi-Dyck vector: {t}")
    return t


def parse_vector(text: str) -> Vector:
    """Parse digit notation like '0122011' or '01222(-1)001(-1)(-1)'."""
    s = text.strip()
    out: list[int] = []
    i = 0
    while i < len(s):
        x, i = read_number(s, i)
        out.append(x)
    return check_qdv(out)


def format_vector(v: Vector) -> str:
    """Inverse of parse_vector; entries outside 0..9 are parenthesized."""
    return "".join(str(x) if 0 <= x <= 9 else f"({x})" for x in v)


# ---------------------------------------------------------------- class moves

def lift(v: Vector) -> Vector:
    """Prepend a 0 and shift up: the longer representative of the same class."""
    return (0,) + tuple(x + 1 for x in v)


@lru_cache(maxsize=None)
def reduce(v: Vector) -> Vector:
    """The unique shortest nonnegative representative of the class of v."""
    while min(v) < 0:
        v = lift(v)
    while len(v) >= 2 and v[1] == 1 and min(v[1:]) >= 1:
        v = tuple(x - 1 for x in v[1:])
    return v


# ---------------------------------------------------------------- statistics

def area(v: Vector) -> int:
    """Sum of the entries."""
    return sum(v)


@lru_cache(maxsize=None)
def dinv(v: Vector) -> int:
    """Count pairs i < j with v_i - v_j in {0, 1}.

    Class invariant; vectors with negative entries are reduced first, which
    matches counting against the infinite descending run to the left.
    """
    if min(v) < 0:
        v = reduce(v)
    total = 0
    seen = [0] * (max(v) + 2)  # seen[x]: earlier entries equal to x
    for x in v:
        total += seen[x] + seen[x + 1]
        seen[x] += 1
    return total


def defc(v: Vector) -> int:
    """Deficit: the size of the partition of the class minus dinv."""
    n = len(v)
    return comb(n, 2) - sum(v) - dinv(v)


# ------------------------------------------------------- partitions <-> classes

def mind(p: Partition) -> int:
    """Shortest length of a nonnegative vector in the class of p."""
    if not p:
        return 1
    return max(len(p) + 1, max(map(add, p, range(1, len(p) + 1))))


def qdv_from_partition(p: Partition, n: int) -> Vector:
    """Length-n vector of the class of p; needs n above the number of parts."""
    if n < len(p) + 1:
        raise ValueError(f"need n > {len(p)} for {p}")
    # entry j is j, less the part p[n - j - 1] for the last len(p) entries
    free = n - len(p)
    return tuple(range(free)) + tuple(map(sub, range(free, n), reversed(p)))


def partition_from_class(v: Vector) -> Partition:
    """Partition of the class of v; any representative gives the same answer."""
    n = len(v)
    parts = []
    for i in range(1, n + 1):
        a = n - i - v[n - i]
        if a <= 0:
            break
        parts.append(a)
    return tuple(parts)


def class_from_partition(p: Partition) -> Vector:
    """Reduced vector of the class of p."""
    return qdv_from_partition(p, mind(p))


# ------------------------------------------------------------- enumeration

def enumerate_deficit(k: int, d_max: int) -> list[Vector]:
    """All reduced vectors with deficit k and dinv at most d_max.

    Ordered by dinv, then by class partition in reverse lexicographic order.
    Depth-first search over nonnegative vectors; appending an entry can only
    grow both statistics, so overshooting branches are cut.  Any class here
    has a representative of length at most d_max + k + 1.
    """
    cap = d_max + k + 1
    cnt = [0] * (cap + 3)
    found: dict[int, list[tuple[Partition, Vector]]] = {}

    def go(v: list[int], maxv: int, d: int, kq: int) -> None:
        if kq == k and (len(v) == 1 or v[1] == 0 or 0 in v[2:]):
            vv = tuple(v)
            found.setdefault(d, []).append((partition_from_class(vv), vv))
        if len(v) >= cap:
            return
        top = v[-1] + 1
        # ge[x]: earlier entries >= x; rep[x]: repeated earlier entries < x
        ge = [0] * (maxv + 4)
        for val in range(maxv, -1, -1):
            ge[val] = ge[val + 1] + cnt[val]
        rep = [0] * (top + 3)
        for val in range(top + 1):
            rep[val + 1] = rep[val] + (cnt[val] - 1 if cnt[val] > 1 else 0)
        for x in range(top + 1):
            dd = d + cnt[x] + cnt[x + 1]
            if dd > d_max:
                continue
            kk = kq + ge[x + 2] + rep[x]
            if kk > k:
                continue
            v.append(x)
            cnt[x] += 1
            go(v, max(maxv, x), dd, kk)
            cnt[x] -= 1
            v.pop()

    cnt[0] = 1
    go([0], 0, 0, 0)
    cnt[0] = 0
    out: list[Vector] = []
    for d in sorted(found):
        for _, vv in sorted(found[d], reverse=True):
            out.append(vv)
    return out
