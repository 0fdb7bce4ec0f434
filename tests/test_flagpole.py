from itertools import product
from math import comb

import pytest

from qtchains.builder import extend_all
from qtchains.dyck import area, defc, dinv
from qtchains.flagpole import (
    a_floor,
    count_flagpole,
    count_flagpole_bruteforce,
    flag_templates,
    gflag_lower_bound,
    is_flagpole,
    phi,
    phi_inv,
    psi,
    psi_inv,
    template_match,
    v_template,
)
from qtchains.partitions import parse_partition, partitions_of
from qtchains.tails import s_vectors, ti2

from oracles import is_generalized_flagpole, phi_inv_iterated


def template_grid(max_lam=4, spread=2):
    for n in range(max_lam + 1):
        for lam in partitions_of(n):
            lo = max(2, a_floor(lam) - 1)
            for a in range(lo, a_floor(lam) + spread + 1):
                for eps in (0, 1):
                    if a - eps >= 1:
                        yield lam, a, eps


# ------------------------------------------------------------------ templates

def test_template_goldens():
    assert v_template((3, 3, 1, 1, 1), 3, 0) == tuple(
        int(c) for c in "00122212221122"
    )
    assert v_template((4, 4, 2, 1), 3, 1) == tuple(int(c) for c in "00122121211221")
    assert v_template((), 2, 0) == (0, 0, 1, 2, 2)


def test_template_match_round_trip():
    for lam, a, eps in template_grid():
        assert template_match(v_template(lam, a, eps)) == (lam, a, eps)
    assert template_match((0, 1, 0, 1, 0, 1, 2)) is None
    assert template_match((0, 0, 1, 2, 1, 0)) is None
    assert template_match((0, 0, 1, 2)) is None


def test_template_match_word_side_round_trip():
    # every ternary word of length <= 12 opening 0 0 1; a reader that took
    # any binary rest after the last 2 would fail on 3,204 of them
    words = [(0, 0, 1) + w for n in range(10) for w in product((0, 1, 2), repeat=n)]
    assert len(words) == 29_524
    for w in words:
        m = template_match(w)
        assert m is None or v_template(*m) == w, w


def test_template_length_bounds_the_flag_type():
    # a >= 2 makes the base at least 5 + lam[0] + len(lam) long, the test
    # is_generalized_flagpole leaves out for lam itself
    for n in range(17):
        for mu in partitions_of(n):
            m = phi(mu)
            if m is not None:
                lam = m[0]
                assert len(ti2(mu)) >= 5 + (lam[0] if lam else 0) + len(lam), mu


def test_template_statistics():
    for lam, a, eps in template_grid():
        v = v_template(lam, a, eps)
        n = sum(lam)
        first = lam[0] if lam else 0
        length = len(v)
        assert length == a + 3 + first + len(lam)
        assert defc(v) == length + n - 2
        assert area(v) == 2 * length - first - 5 - eps
        assert dinv(v) == comb(length, 2) - 3 * length - n + first + 7 + eps


def test_template_deficit_is_a_plus_a_constant_of_the_flag_type():
    """The (lam, a, eps) template has deficit a + c(lam), c(lam) the deficit of
    the (lam, 2, 0) template less 2: flag_templates reads a off d by it."""
    count = 0
    for n in range(9):
        for lam in partitions_of(n):
            c = defc(v_template(lam, 2, 0)) - 2
            for a in range(2, 26):
                for eps in (0, 1):
                    assert defc(v_template(lam, a, eps)) == a + c, (lam, a, eps)
                    count += 1
    assert count == 3_216


def test_a_floor_values():
    assert a_floor(()) == 3
    assert a_floor((1,)) == 2
    assert a_floor((2, 2)) == 3
    assert a_floor((3, 3, 1, 1, 1)) == 4


# ------------------------------------------------------------ flagpole family

def test_flagpole_membership():
    assert is_flagpole((3, 2, 2, 1, 1, 1))
    assert not is_flagpole((2, 2))
    small = [
        "211", "1111",
        "2111", "11111",
        "321", "3111", "21111", "111111",
        "3211", "31111", "211111", "1111111",
    ]
    want = {parse_partition(w) for w in small}
    got = {
        mu
        for n in range(8)
        for mu in partitions_of(n)
        if is_flagpole(mu)
    }
    assert got == want


def test_flag_templates_are_the_bases_of_the_flagpoles():
    """With every smaller partition a flag type, flag_templates gives the
    extended orbit base of each flagpole of deficit d <= 20 once, and no
    other template: is_flagpole, which checks that its length and template
    criteria agree, runs on every partition of size at most 20."""
    types: dict = {}
    for d in range(21):
        templates = [v for _, v in flag_templates(types, d)]
        mus = [s_vectors(v).mu for v in templates]
        assert all(ti2(mu) == v for mu, v in zip(mus, templates)), d
        assert sorted(mus) == sorted(mu for mu in partitions_of(d) if is_flagpole(mu)), d
        types.update((lam, lam) for lam in partitions_of(d))


def test_a_partition_with_no_template_base_gets_no_template():
    """6^4 has no template base, so no template of its deficit is its base,
    though every template with a >= 2 is taken (generalized, each flag type
    its own partner): extend_all meets partitions only through templates."""
    mu = parse_partition("6^4")
    assert phi(mu) is None
    types = {lam: lam for n in range(22) for lam in partitions_of(n)}
    templates = flag_templates(types, 24, generalized=True)
    assert len(templates) == 420
    assert all(s_vectors(v).mu != mu for _, v in templates)


def test_flagpole_counts():
    assert [count_flagpole(n) for n in range(3, 13)] == [0, 2, 2, 4, 4, 8, 8, 14, 14, 24]
    for n in range(13):
        assert count_flagpole(n) == count_flagpole_bruteforce(n)


def test_ftype_values():
    assert phi((3, 2, 2, 1, 1, 1))[0] == (1, 1, 1)
    assert phi((6, 1)) is None


# ------------------------------------------------------------------ encodings

def test_phi_round_trips():
    for n in range(9):
        for mu in partitions_of(n):
            if not is_flagpole(mu):
                continue
            enc = phi(mu)
            assert enc is not None
            lam, a, eps = enc
            assert a >= a_floor(lam)
            assert phi_inv(lam, a, eps) == mu
            lam2, length, parity = psi(mu)
            assert lam2 == lam
            assert psi_inv(lam2, length, parity) == mu


def test_phi_inv_matches_orbit_walk():
    for lam, a, eps in template_grid(max_lam=3, spread=1):
        mu = phi_inv(lam, a, eps)
        assert phi_inv_iterated(lam, a, eps) == mu
        assert sum(1 for x in mu if x == 1) >= a - 1


def test_psi_golden():
    assert psi((3, 2, 2, 1, 1, 1)) == ((1, 1, 1), 9, 0)
    assert psi_inv((2, 2), 10, 0) == parse_partition("3321^4")


def test_phi_inv_goldens():
    assert phi_inv((), 2, 1) == (2, 1)
    assert phi_inv((4, 4, 3, 3, 1, 1, 1), 10, 0) == parse_partition("5^24^232^21^(14)")
    for a in range(2, 9):
        for eps in (0, 1):
            want = (2,) + (1,) * (a - 1) if (a - eps) % 2 == 1 else (1,) * (a + 1)
            assert phi_inv((), a, eps) == want


def test_psi_inv_empty_type_closed_form():
    for length in range(5, 13):
        want = (
            (1,) * (length - 2)
            if length % 4 in (0, 1)
            else (2,) + (1,) * (length - 4)
        )
        assert psi_inv((), length, 0) == want


def test_psi_inv_rejects_short_length():
    with pytest.raises(ValueError):
        psi_inv((2,), 6, 0)


# ------------------------------------------------------- generalized variant

def test_generalized_membership(base_coll):
    pairing = base_coll.pairing
    assert not is_generalized_flagpole((6, 1), pairing)
    for n in range(8):
        for mu in partitions_of(n):
            if is_flagpole(mu):
                assert is_generalized_flagpole(mu, pairing)


def test_generalized_flag_templates_match_the_membership_oracle(base_coll):
    """Over the pairing of the generalized deficit-16 collection, flag_templates
    gives the extended orbit base of each generalized flagpole of deficit
    d <= 20 once, and no other template."""
    pairing = extend_all(base_coll, 16, mode="generalized").pairing
    for d in range(21):
        templates = [v for _, v in flag_templates(pairing, d, generalized=True)]
        mus = [s_vectors(v).mu for v in templates]
        assert all(ti2(mu) == v for mu, v in zip(mus, templates)), d
        want = [mu for mu in partitions_of(d) if is_generalized_flagpole(mu, pairing)]
        assert sorted(mus) == sorted(want), d


def test_gflag_bound_below_bruteforce(base_coll):
    pairing = base_coll.pairing
    for k in range(3, 7):
        brute = sum(
            1 for mu in partitions_of(k) if is_generalized_flagpole(mu, pairing)
        )
        assert gflag_lower_bound(k) <= brute
