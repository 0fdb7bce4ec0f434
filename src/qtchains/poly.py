"""Sparse two-variable polynomials in q and t, and the weighted path sums."""

from __future__ import annotations

from math import comb


class QtPolynomial:
    """Integer polynomial in q and t as a dict from (q_exp, t_exp) to coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    def __eq__(self, other) -> bool:
        return isinstance(other, QtPolynomial) and self.terms == other.terms

    def __add__(self, other: "QtPolynomial") -> "QtPolynomial":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return QtPolynomial(out)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def swap(self) -> "QtPolynomial":
        """Exchange q and t."""
        return QtPolynomial({(t, q): c for (q, t), c in self.terms.items()})

    def __str__(self) -> str:
        """Terms with ascending t exponent, ties by descending q exponent."""
        if not self.terms:
            return "0"
        pieces = []
        for (qe, te) in sorted(self.terms, key=lambda k: (k[1], -k[0])):
            c = self.terms[(qe, te)]
            factors = []
            if c != 1 or (qe == 0 and te == 0):
                factors.append(str(c))
            if qe:
                factors.append("q" if qe == 1 else f"q^{qe}")
            if te:
                factors.append("t" if te == 1 else f"t^{te}")
            pieces.append(" ".join(factors))
        return " + ".join(pieces)

    __repr__ = __str__


def cat_n(n: int) -> QtPolynomial:
    """Sum of q^area t^dinv over the nonnegative length-n vectors."""
    terms: dict[tuple[int, int], int] = {}
    if n < 1:
        return QtPolynomial(terms)
    cnt = [0] * (n + 2)

    def go(last: int, length: int, ar: int, dv: int) -> None:
        if length == n:
            key = (ar, dv)
            terms[key] = terms.get(key, 0) + 1
            return
        for x in range(last + 2):
            cnt[x] += 1
            go(x, length + 1, ar + x, dv + cnt[x] - 1 + cnt[x + 1])
            cnt[x] -= 1

    cnt[0] = 1
    go(0, 1, 0, 0)
    cnt[0] = 0
    return QtPolynomial(terms)


def deficit_slice(poly: QtPolynomial, n: int, k: int) -> QtPolynomial:
    """Terms of a length-n path sum whose exponents add up to C(n,2) - k."""
    total = comb(n, 2) - k
    return QtPolynomial({kk: c for kk, c in poly.terms.items() if kk[0] + kk[1] == total})
