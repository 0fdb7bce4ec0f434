"""Sparse two-variable polynomials in q and t, and the weighted path sums."""

from __future__ import annotations

from itertools import islice
from math import comb
from operator import itemgetter
from typing import Iterator, TextIO

CHUNK_TERMS = 4096  # terms QtPolynomial.write joins into one string


class QtPolynomial:
    """Integer polynomial in q and t as a dict from (q_exp, t_exp) to coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        """Holds terms itself when no coefficient is 0, else a copy without the zeros."""
        terms = {} if terms is None else terms
        self.terms = terms if all(terms.values()) else {k: c for k, c in terms.items() if c != 0}

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

    def _pieces(self) -> Iterator[str]:
        """Each term as text, with ascending t exponent, ties by descending q exponent."""
        # two stable sorts on keys the terms already hold, no key tuple per term
        order = sorted(self.terms, key=itemgetter(0), reverse=True)
        order.sort(key=itemgetter(1))
        for qe, te in order:
            c = self.terms[(qe, te)]
            factors = []
            if c != 1 or (qe == 0 and te == 0):
                factors.append(str(c))
            if qe:
                factors.append("q" if qe == 1 else f"q^{qe}")
            if te:
                factors.append("t" if te == 1 else f"t^{te}")
            yield " ".join(factors)

    def __str__(self) -> str:
        """Terms with ascending t exponent, ties by descending q exponent."""
        return " + ".join(self._pieces()) if self.terms else "0"

    def write(self, out: TextIO) -> None:
        """Write str(self) to out, joining at most CHUNK_TERMS terms at a time."""
        if not self.terms:
            out.write("0")
            return
        pieces = self._pieces()
        sep = ""
        while chunk := " + ".join(islice(pieces, CHUNK_TERMS)):
            out.write(sep + chunk)
            sep = " + "

    __repr__ = __str__


def cat_n(n: int) -> QtPolynomial:
    """Sum of q^area t^dinv over the nonnegative length-n vectors.

    Computed by the Garsia-Haglund recursion (Garsia & Haglund, PNAS 98,
    2002; Haglund, AMS ULECT 41, 2008): F_{m,m} = q^C(m,2) and, for k < m,

        F_{m,k} = t^(m-k) q^C(k,2) sum_{r=1}^{m-k} [r+k-1 choose r]_q F_{m-k,r},

    with cat_n the sum of F_{n,k} over k.  The recursion weights a path by
    q^dinv t^area; the q,t-symmetry of the sum makes that the same
    polynomial.  The Gaussian binomials come from Pascal's rule,
    [a choose b] = [a-1 choose b-1] + q^b [a-1 choose b].

    Each q-polynomial is packed into one integer by Kronecker substitution,
    q = 2^B with B = 2n + 2 bits per coefficient: a Gaussian binomial, and
    each F_{m,k} as a dict from t exponent to its packed q coefficients.  A
    product is one integer multiply and q^C(k,2) a shift by C(k,2) B bits.
    This is exact because no digit ever carries: every coefficient, and
    every partial sum of one, is a nonnegative count of at most Catalan(m)
    < 4^m <= 2^(2n) < 2^B paths (a Gaussian coefficient is at most C(a, b)
    < 2^n).  The result is unpacked once, at the end.
    """
    if n < 1:
        return QtPolynomial()
    width = 2 * n + 2
    gauss = [[1]]  # gauss[a][b]: [a choose b]_q, packed
    for a in range(1, n):
        prev = gauss[-1]
        gauss.append([1] + [prev[b - 1] + (prev[b] << b * width) for b in range(1, a)] + [1])
    f: list[dict[int, dict[int, int]]] = [{}]
    for m in range(1, n + 1):
        row = {m: {0: 1 << comb(m, 2) * width}}
        for k in range(1, m):
            j = m - k
            acc: dict[int, int] = {}
            for r in range(1, j + 1):
                g = gauss[r + k - 1][r]
                for te, x in f[j][r].items():
                    acc[te] = acc.get(te, 0) + g * x
            shift = comb(k, 2) * width
            row[k] = {te + j: x << shift for te, x in acc.items()}
        f.append(row)
    total: dict[int, int] = {}
    for part in f[n].values():
        for te, x in part.items():
            total[te] = total.get(te, 0) + x
    mask = (1 << width) - 1
    terms: dict[tuple[int, int], int] = {}
    for te, x in total.items():
        qe = 0
        while x:
            terms[(qe, te)] = x & mask
            x >>= width
            qe += 1
    return QtPolynomial(terms)


def deficit_slice(poly: QtPolynomial, n: int, k: int) -> QtPolynomial:
    """Terms of a length-n path sum whose exponents add up to C(n,2) - k."""
    total = comb(n, 2) - k
    return QtPolynomial({kk: c for kk, c in poly.terms.items() if kk[0] + kk[1] == total})
