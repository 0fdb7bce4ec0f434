"""Integer partition utilities: word notation, enumeration, counting."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

Partition = tuple[int, ...]


def as_partition(parts) -> Partition:
    """Validate weakly decreasing positive parts and return them as a tuple."""
    t = tuple(int(a) for a in parts)
    if any(a <= 0 for a in t):
        raise ValueError(f"parts must be positive: {t}")
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"parts not weakly decreasing: {t}")
    return t


def read_number(text: str, i: int) -> tuple[int, int]:
    """The digit or parenthesized integer at text[i], and the index after it."""
    c = text[i]
    if c.isdigit():
        return int(c), i + 1
    if c == "(":
        j = text.index(")", i)
        return int(text[i + 1 : j]), j + 1
    raise ValueError(f"unexpected {c!r} in {text!r}")


def parse_partition(text: str) -> Partition:
    """Parse word notation like '531^4' or '(12)84^2' into a part tuple.

    '0' denotes the empty partition.  Parts above 9 are parenthesized;
    an exponent must be positive.
    """
    s = text.strip()
    if s == "0" or not s:
        return ()
    parts: list[int] = []
    i = 0
    while i < len(s):
        val, i = read_number(s, i)
        mult = 1
        if i < len(s) and s[i] == "^":
            if i + 1 == len(s):
                raise ValueError(f"missing exponent in {text!r}")
            mult, i = read_number(s, i + 1)
            if mult < 1:
                raise ValueError(f"exponent {mult} is not positive in {text!r}")
        parts.extend([val] * mult)
    return as_partition(parts)


def format_partition(p: Partition) -> str:
    """Inverse of parse_partition: '0', '531^4', '(12)84^2', ...

    Multiplicities above 9 are parenthesized, like parts, so that a run
    exponent can never swallow the next part.
    """
    if not p:
        return "0"
    chunks = []
    i = 0
    while i < len(p):
        j = i
        while j < len(p) and p[j] == p[i]:
            j += 1
        base = str(p[i]) if p[i] <= 9 else f"({p[i]})"
        mult = j - i
        if mult > 1:
            base += f"^{mult}" if mult <= 9 else f"^({mult})"
        chunks.append(base)
        i = j
    return "".join(chunks)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Yield the partitions of n in reverse lexicographic order, largest part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def count_partitions_max(n: int, m: int) -> int:
    """Number of partitions of n with every part at most m."""
    if n == 0:
        return 1
    if m <= 0:
        return 0
    if m > n:
        m = n
    return count_partitions_max(n - m, m) + count_partitions_max(n, m - 1)


def count_partitions(n: int) -> int:
    """Number of partitions of n."""
    return count_partitions_max(n, n)


def multiplicities(p: Partition) -> tuple[int, ...]:
    """(n_1, ..., n_r) where n_i counts the parts equal to i and r is the largest part."""
    if not p:
        return ()
    out = [0] * p[0]
    for a in p:
        out[a - 1] += 1
    return tuple(out)
