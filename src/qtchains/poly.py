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


def _gaussian_rows(top: int) -> list[list[list[int]]]:
    """q-coefficient lists of the Gaussian binomials [a choose b]_q for a <= top.

    Pascal's rule: [a choose b] = [a-1 choose b-1] + q^b [a-1 choose b].
    """
    rows = [[[1]]]
    for a in range(1, top + 1):
        prev = rows[-1]
        row = [[1]]
        for b in range(1, a):
            lo, hi = prev[b - 1], prev[b]
            coeffs = lo + [0] * (b + len(hi) - len(lo))
            for i, c in enumerate(hi, b):
                coeffs[i] += c
            row.append(coeffs)
        row.append([1])
        rows.append(row)
    return rows


def cat_n(n: int) -> QtPolynomial:
    """Sum of q^area t^dinv over the nonnegative length-n vectors.

    Computed by the Garsia-Haglund recursion (Garsia & Haglund, PNAS 98,
    2002; Haglund, AMS ULECT 41, 2008): F_{m,m} = q^C(m,2) and, for k < m,

        F_{m,k} = t^(m-k) q^C(k,2) sum_{r=1}^{m-k} [r+k-1 choose r]_q F_{m-k,r},

    with cat_n the sum of F_{n,k} over k.  The recursion weights a path by
    q^dinv t^area; the q,t-symmetry of the sum makes that the same
    polynomial.  Each F_{m,k} is held as a dict from t exponent to a list
    of q coefficients.
    """
    if n < 1:
        return QtPolynomial()
    gauss = _gaussian_rows(n - 1)
    f: list[dict[int, dict[int, list[int]]]] = [{}]
    for m in range(1, n + 1):
        row = {m: {0: [0] * comb(m, 2) + [1]}}
        for k in range(1, m):
            j = m - k
            shift = comb(k, 2)
            acc: dict[int, list[int]] = {}
            for r in range(1, j + 1):
                g = gauss[r + k - 1][r]
                for te, qs in f[j][r].items():
                    out = acc.setdefault(te + j, [])
                    need = shift + len(qs) + len(g) - 1
                    out.extend([0] * (need - len(out)))
                    for a, x in enumerate(qs, shift):
                        if x:
                            for b, y in enumerate(g, a):
                                out[b] += x * y
            row[k] = acc
        f.append(row)
    terms: dict[tuple[int, int], int] = {}
    for part in f[n].values():
        for te, qs in part.items():
            for qe, c in enumerate(qs):
                terms[(qe, te)] = terms.get((qe, te), 0) + c
    return QtPolynomial(terms)


def deficit_slice(poly: QtPolynomial, n: int, k: int) -> QtPolynomial:
    """Terms of a length-n path sum whose exponents add up to C(n,2) - k."""
    total = comb(n, 2) - k
    return QtPolynomial({kk: c for kk, c in poly.terms.items() if kk[0] + kk[1] == total})
