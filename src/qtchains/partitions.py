"""Integer partition utilities: word notation, enumeration, counting."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

Partition = tuple[int, ...]

PARTS_MAX = 100_000  # parts of a parsed word; a longer word is above every limit of the CLI


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

    '0' denotes the empty partition; an empty word is an error.  Parts
    above 9 are parenthesized; an exponent must be positive.  Parts and
    exponents are checked run by run, and the parts are expanded once, after
    their number is checked against PARTS_MAX: more parts than that force a
    reduced length above the `stats` limit, and every |MU| limit is lower.
    """
    s = text.strip()
    if not s:
        raise ValueError(f"empty partition word {text!r}; the empty partition is '0'")
    if s == "0":
        return ()
    runs: list[tuple[int, int]] = []
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
        if val <= 0:
            raise ValueError(f"part {val} is not positive in {text!r}")
        if runs and runs[-1][0] < val:
            raise ValueError(f"part {val} after {runs[-1][0]}: parts not weakly decreasing in {text!r}")
        runs.append((val, mult))
    if (n := sum(mult for _, mult in runs)) > PARTS_MAX:
        raise ValueError(f"part count {n} is above the limit {PARTS_MAX}")
    parts: list[int] = []
    for val, mult in runs:
        parts += [val] * mult
    return tuple(parts)


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


def partition_from_multiplicities(ms: tuple[int, ...]) -> Partition:
    """Inverse of multiplicities: ms[i - 1] parts equal to i, largest first."""
    return tuple(i for i in range(len(ms), 0, -1) for _ in range(ms[i - 1]))
