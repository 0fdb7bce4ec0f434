"""Successor and predecessor maps on classes.

The first-order step acts by part surgery on the partition of a class and
raises dinv by 1 while preserving the deficit.  Where it is undefined, a
second-order step rewrites a distinguished representative of the class.
The *_partition steps take and return partitions; the class steps nu1,
nd1, nu2, nd2, nu and nd take any representative of a class and return the
reduced vector.
"""

from __future__ import annotations

from .dyck import (
    Vector,
    class_from_partition,
    partition_from_class,
    qdv_from_partition,
)
from .partitions import Partition


# ------------------------------------------------------------ first order

def nu1_partition(p: Partition) -> Partition | None:
    """Prepend a part one above the length and lower every old part, when allowed."""
    ell = len(p)
    if p and p[0] > ell + 2:
        return None
    return (ell + 1, *[a - 1 for a in p if a > 1])


def nd1_partition(p: Partition) -> Partition | None:
    """Drop the first part, raise the rest, and pad with ones, when allowed."""
    if not p or p[0] < len(p):
        return None
    return tuple([a + 1 for a in p[1:]]) + (1,) * (p[0] - len(p))


def nu1(c: Vector) -> Vector | None:
    q = nu1_partition(partition_from_class(c))
    return None if q is None else class_from_partition(q)


def nd1(c: Vector) -> Vector | None:
    q = nd1_partition(partition_from_class(c))
    return None if q is None else class_from_partition(q)


# ----------------------------------------------------------- second order

def rep_ending_minus_one(p: Partition) -> Vector | None:
    """The representative of the class of p ending in -1, when one exists.

    A length-n vector of partition p ends in n - 1 - p[0], so that length is
    p[0], which must exceed the number of parts.
    """
    return qdv_from_partition(p, p[0]) if p and p[0] > len(p) else None


def rep_starting_00(p: Partition) -> Vector | None:
    """The representative of the class of p starting 0 0, when one exists.

    The vector of partition p of length len(p) + 1 has second entry 1 - p[-1];
    every longer one has second entry 1.
    """
    return qdv_from_partition(p, len(p) + 1) if p and p[-1] == 1 else None


def nu2_partition(p: Partition) -> Partition | None:
    """Second-order step: rewrite the representative ending in -1.

    Two input shapes, told apart by comparing the run of 2s after the
    leading 0 1 with the run of trailing -1s:

      0 1 2^h A (-1)^(h-1)  ->  0^h 1 A 1^h        (more 2s than -1s)
      0 1 2^k B (-1)^k      ->  0^(k+1) B 0 1^k    (otherwise, k >= 1)

    with every interior entry at most 2, A ending nonnegative, and B
    starting at most 1.  The rewritten vector is read back as a partition,
    which any representative of its class gives.
    """
    v = rep_ending_minus_one(p)
    if v is None:
        return None
    n = len(v)
    if n < 2 or v[1] != 1:
        return None
    t = 0
    while t < n and v[n - 1 - t] == -1:
        t += 1
    m = 2
    while m < n and v[m] == 2:
        m += 1
    twos = m - 2
    if twos > t:
        h = t + 1
        if h < 2 or 2 + h > n - (h - 1):
            return None
        mid = v[2 + h : n - (h - 1)]
        if any(x > 2 for x in mid) or (mid and mid[-1] < 0):
            return None
        return partition_from_class((0,) * h + (1,) + mid + (1,) * h)
    k = twos
    if k < 1 or 2 + k > n - k:
        return None
    mid = v[2 + k : n - k]
    if any(x > 2 for x in mid) or (mid and (mid[0] > 1 or mid[-1] < -1)):
        return None
    return partition_from_class((0,) * (k + 1) + mid + (0,) + (1,) * k)


def nd2_partition(p: Partition) -> Partition | None:
    """Inverse of nu2_partition: rewrite the representative starting 0 0.

    The two shapes are told apart by comparing the run of leading 0s with
    the run of trailing 1s:

      0^h 1 A 1^h        ->  0 1 2^h A (-1)^(h-1)  (trailing run >= leading, h >= 2)
      0^(k+1) B 0 1^k    ->  0 1 2^k B (-1)^k      (otherwise, k >= 1)
    """
    v = rep_starting_00(p)
    if v is None:
        return None
    n = len(v)
    z = 0
    while z < n and v[z] == 0:
        z += 1
    o = 0
    while o < n and v[n - 1 - o] == 1:
        o += 1
    if o >= z:
        h = z
        if h < 2 or n < 2 * h + 1 or v[h] != 1:
            return None
        mid = v[h + 1 : n - h]
        if any(x > 2 for x in mid) or (mid and mid[-1] < 0):
            return None
        return partition_from_class((0, 1) + (2,) * h + mid + (-1,) * (h - 1))
    k = o
    if k < 1 or n < 2 * k + 2 or v[n - k - 1] != 0:
        return None
    mid = v[k + 1 : n - k - 1]
    if any(x > 2 for x in mid) or (mid and mid[0] > 1):
        return None
    return partition_from_class((0, 1) + (2,) * k + mid + (-1,) * k)


def nu2(c: Vector) -> Vector | None:
    q = nu2_partition(partition_from_class(c))
    return None if q is None else class_from_partition(q)


def nd2(c: Vector) -> Vector | None:
    q = nd2_partition(partition_from_class(c))
    return None if q is None else class_from_partition(q)


# -------------------------------------------------------------- combined map

def nu(c: Vector) -> Vector | None:
    """Combined successor: first-order step when defined, else second-order."""
    out = nu1(c)
    if out is None:
        out = nu2(c)
    return out


def nd(c: Vector) -> Vector | None:
    """Combined predecessor: inverse of nu."""
    out = nd1(c)
    if out is None:
        out = nd2(c)
    return out
