import io
import tracemalloc
from math import comb

from qtchains.dyck import defc, dinv
from qtchains.poly import CHUNK_TERMS, QtPolynomial, cat_n, deficit_slice

from oracles import cat_n_by_lists, catalan_terms_bruteforce, dyck_vectors


def test_str_forms():
    assert str(QtPolynomial()) == "0"
    assert str(QtPolynomial({(0, 0): 1})) == "1"
    assert str(QtPolynomial({(0, 0): 3})) == "3"
    assert str(QtPolynomial({(1, 0): 1})) == "q"
    assert str(QtPolynomial({(0, 2): 1})) == "t^2"
    assert str(QtPolynomial({(2, 1): 2, (0, 3): 1})) == "2 q^2 t + t^3"
    assert str(QtPolynomial({(1, 1): 1, (2, 0): 5})) == "5 q^2 + q t"


class _Sink:
    """A text stream that keeps only the length of what it is given."""

    def __init__(self):
        self.size = 0

    def write(self, text: str) -> None:
        self.size += len(text)


def test_write_is_str_in_bounded_chunks():
    """write gives str's text, ties in t by descending q, and joins only
    CHUNK_TERMS terms at a time: on 100,000 terms it peaks at 2.4 MB, where
    str, holding every term's text at once, peaks at 8.3 MB."""
    tied = QtPolynomial({(1, 1): 1, (3, 1): 1, (2, 0): 1, (0, 4): 2})
    assert str(tied) == "q^2 + q^3 t + q t + 2 t^4"
    big = QtPolynomial({(i, 400 - i + j): 1 + (j % 3 == 0) for i in range(400) for j in range(250)})
    for p in (QtPolynomial(), QtPolynomial({(0, 0): 3}), tied, cat_n(7), big):
        out = io.StringIO()
        p.write(out)
        assert out.getvalue() == str(p)
    assert len(big.terms) > 20 * CHUNK_TERMS
    sink = _Sink()
    tracemalloc.start()
    try:
        big.write(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == len(str(big))
    assert peak < 4_000_000, peak


def test_zero_terms_dropped():
    p = QtPolynomial({(1, 0): 1, (0, 1): 0})
    assert p.terms == {(1, 0): 1}
    assert p + QtPolynomial({(1, 0): -1}) == QtPolynomial()
    assert not QtPolynomial()
    assert QtPolynomial({(0, 0): 1})


def test_add_and_coefficient():
    p = QtPolynomial({(1, 2): 3}) + QtPolynomial({(1, 2): 1, (0, 0): 2})
    assert p.terms.get((1, 2), 0) == 4
    assert p.terms.get((0, 0), 0) == 2
    assert p.terms.get((5, 5), 0) == 0


def test_swap():
    p = QtPolynomial({(3, 1): 2})
    assert p.swap() == QtPolynomial({(1, 3): 2})
    assert p.swap().swap() == p


def test_cat_small():
    assert str(cat_n(0)) == "0"
    assert str(cat_n(1)) == "1"
    assert str(cat_n(2)) == "q + t"
    assert str(cat_n(3)) == "q^3 + q^2 t + q t + q t^2 + t^3"


def test_cat_matches_bruteforce():
    for n in range(1, 12):
        assert cat_n(n) == QtPolynomial(catalan_terms_bruteforce(n)), n


def test_cat_matches_list_recursion():
    """The packed-integer recursion equals the one on coefficient lists, and
    every coefficient stays below 2^(2n), so no packed digit of 2n + 2 bits
    carries into the next."""
    for n in range(17):
        p = cat_n(n)
        assert p == cat_n_by_lists(n), n
        assert all(c < 1 << 2 * n for c in p.terms.values()), n


def test_cat_symmetry():
    for n in range(1, 12):
        p = cat_n(n)
        assert p.swap() == p


def test_cat_total_count():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]
    for n in range(1, 12):
        assert sum(cat_n(n).terms.values()) == catalan[n]


def test_deficit_slice():
    for n in range(1, 8):
        p = cat_n(n)
        whole = QtPolynomial()
        for k in range(comb(n, 2) + 1):
            s = deficit_slice(p, n, k)
            direct: dict[tuple[int, int], int] = {}
            for v in dyck_vectors(n):
                if defc(v) == k:
                    key = (sum(v), dinv(v))
                    direct[key] = direct.get(key, 0) + 1
            assert s == QtPolynomial(direct)
            whole = whole + s
        assert whole == p
