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
    return max(map(sub, v[1:], v), default=1) <= 1


def check_qdv(v) -> Vector:
    t = tuple(v)
    if not is_qdv(t):
        raise ValueError(f"not a quasi-Dyck vector: {t}")
    return t


# the ASCII digits become the bytes 0..9
_FROM_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))


def parse_vector(text: str) -> Vector:
    """Parse digit notation like '0122011' or '01222(-1)001(-1)(-1)'.

    A word of ASCII digits alone is read in one bytes translation; any
    other word, such as one holding '²' (a digit to str.isdigit but not to
    int), one number at a time.
    """
    s = text.strip()
    if s.isascii() and s.isdigit():
        return check_qdv(s.encode().translate(_FROM_DIGITS))
    out: list[int] = []
    i = 0
    while i < len(s):
        x, i = read_number(s, i)
        out.append(x)
    return check_qdv(out)


def _parse_digit_words(words: list[str]) -> list[Vector] | None:
    """The vectors of words of ASCII digits alone, read in one pass, or None
    when some word is empty, holds another character, starts above 0 or rises
    by more than 1.

    The words are joined with commas; a word holding a comma shows as a
    surplus separator.  The rises are checked on all byte lanes at once: lane
    i of B + 0x81..81 - A is 0x80 + 1 + b_i - a_i, which keeps its high bit
    exactly when a_i <= b_i + 1 and never borrows from the next lane.
    """
    if not words:
        return []
    s = ",".join(words)
    seps = len(words) - 1
    if not (s.isascii() and s.startswith("0") and s.count(",") == seps and s.count(",0") == seps):
        return None
    raw = s.encode()
    if not raw.replace(b",", b"").isdigit():
        return None
    values = raw.translate(_FROM_DIGITS)  # the commas stay b","
    lanes = values.replace(b",", b"\0")  # a word's first entry, 0, never rises from a comma
    m = len(lanes) - 1
    rises = (
        int.from_bytes(lanes[:-1], "big")
        + int.from_bytes(b"\x81" * m, "big")
        - int.from_bytes(lanes[1:], "big")
    )
    high = int.from_bytes(b"\x80" * m, "big")
    if rises & high != high:
        return None
    return list(map(tuple, values.split(b",")))


def parse_vectors(words: list[str]) -> list[Vector]:
    """parse_vector of each word, with the same values and the same first error.

    The words of ASCII digits alone are read together in one pass; any other
    word, such as '0(10)' or ' 012 ', goes through parse_vector in place.
    When the one pass finds a bad word, every word is read again one at a
    time, so the first bad word raises parse_vector's ValueError.
    """
    out = _parse_digit_words(words)
    if out is not None:
        return out
    plain = [w.isascii() and w.isdigit() for w in words]
    fast = _parse_digit_words([w for w, ok in zip(words, plain) if ok])
    if fast is None:
        return [parse_vector(w) for w in words]
    read = iter(fast)
    return [next(read) if ok else parse_vector(w) for w, ok in zip(words, plain)]


# entries 0..9 become their digits; any other byte becomes 0xff, which ascii rejects
_DIGITS = bytes(range(48, 58)) + b"\xff" * 246


def format_vector(v: Vector) -> str:
    """Inverse of parse_vector; entries outside 0..9 are parenthesized.

    A vector of entries 0..9 alone is written in one bytes translation.
    """
    try:
        return bytes(v).translate(_DIGITS).decode("ascii")
    except ValueError:  # an entry outside 0..255, or a byte outside 0..9
        return "".join(str(x) if 0 <= x <= 9 else f"({x})" for x in v)


# ---------------------------------------------------------------- statistics

def area(v: Vector) -> int:
    """Sum of the entries."""
    return sum(v)


@lru_cache(maxsize=None)
def dinv(v: Vector) -> int:
    """Count pairs i < j with v_i - v_j in {0, 1} in the word ..., -2, -1, v.

    A class invariant, read off the partition; dinv_extended in
    tests/oracles.py counts the pairs directly.
    """
    return partition_dinv(partition_from_class(v))


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


def partition_dinv(p: Partition) -> int:
    """Dinv of the class of p, read off p without building a vector.

    The class's vector of length len(p) + p[0] + 1 is 0, 1, ..., p[0] and
    then p[0] + 1 + m - p[len(p) - 1 - m] for each m below len(p).  No pair
    inside the leading run counts, so it is entered all at once and only the
    later entries are walked.
    """
    top = p[0] if p else 0
    seen = [1] * (top + 1) + [0] * (len(p) + 1)  # seen[x]: earlier entries equal to x
    total = 0
    for x in map(sub, range(top + 1, top + 1 + len(p)), reversed(p)):
        total += seen[x] + seen[x + 1]
        seen[x] += 1
    return total


def starts_00(p: Partition, n: int) -> bool:
    """True when the length-n vector of the class of p is (0,) or starts 0 0.

    That vector's second entry is 1 - p[-1] at n = len(p) + 1 and 1 above it.
    """
    return n == len(p) + 1 and p[-1:] in ((), (1,))


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


@lru_cache(maxsize=None)
def reduce(v: Vector) -> Vector:
    """The unique shortest nonnegative representative of the class of v."""
    return class_from_partition(partition_from_class(v))


# ------------------------------------------------------------- enumeration

def enumerate_deficit(k: int, d_max: int) -> list[Vector]:
    """All reduced vectors with deficit k and dinv at most d_max.

    Ordered by dinv, then by class partition in reverse lexicographic order.
    Depth-first search over nonnegative vectors; appending an entry can only
    grow both statistics, so overshooting branches are cut.  A reduced
    vector longer than 1 has a 0 after its first entry, and appending that
    0 adds every earlier entry >= 2 to the deficit, so a prefix without one
    is cut once that count would pass k.  Any class here has a
    representative of length at most d_max + k + 1.
    """
    cap = d_max + k + 1
    cnt = [0] * (cap + 3)
    found: dict[int, list[tuple[Partition, Vector]]] = {}

    def go(v: list[int], maxv: int, d: int, kq: int, zero: bool) -> None:
        # zero: v has a 0 after its first entry
        if kq == k and (len(v) == 1 or zero):
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
            # with no 0 after the first entry, the 0 still to come adds the
            # entries >= 2 before it to the deficit
            if not zero and x and kk + ge[2] + (x >= 2) > k:
                continue
            v.append(x)
            cnt[x] += 1
            go(v, max(maxv, x), dd, kk, zero or not x)
            cnt[x] -= 1
            v.pop()

    cnt[0] = 1
    go([0], 0, 0, 0, False)
    cnt[0] = 0
    out: list[Vector] = []
    for d in sorted(found):
        for _, vv in sorted(found[d], reverse=True):
            out.append(vv)
    return out
