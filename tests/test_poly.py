import pytest

from u4codes import GF, poly
from conftest import rand_poly


def test_degree_conventions():
    assert poly.deg(()) == poly.NEG_INF
    assert poly.deg((1,)) == 0
    assert poly.deg((0, 1)) == 1
    assert poly.normalize([1, 0, 0]) == (1,)
    assert poly.deg(()) < poly.deg((1,))   # -inf compares below everything


def test_divrem_char2(gf2):
    # (x^2 + 1) / (x + 1) = (x + 1) exactly, since (x+1)^2 = x^2 + 1
    q, r = poly.divrem(gf2, (1, 0, 1), (1, 1))
    assert (q, r) == ((1, 1), ())
    # degree too small
    q, r = poly.divrem(gf2, (0, 1), (0, 0, 1))
    assert (q, r) == ((), (0, 1))
    # (x^7 + 1) / (x^3 + x + 1) = x^4 + x^2 + x + 1, no remainder
    q, r = poly.divrem(gf2, (1, 0, 0, 0, 0, 0, 0, 1), (1, 1, 0, 1))
    assert (q, r) == ((1, 1, 1, 0, 1), ())


def test_divrem_by_zero(gf3):
    with pytest.raises(ZeroDivisionError):
        poly.divrem(gf3, (1, 2), ())


def test_divrem_reconstruction(rng):
    for gf in (GF(2), GF(3), GF(2, 2), GF(5)):
        for _ in range(150):
            a = rand_poly(gf, rng, 10)
            b = rand_poly(gf, rng, 6, nonzero=True)
            q, r = poly.divrem(gf, a, b)
            assert poly.add(gf, poly.mul(gf, q, b), r) == a
            assert poly.deg(r) < poly.deg(b)


def test_ext_gcd_char2(gf2):
    g, s, t = poly.ext_gcd(gf2, (1, 1), (0, 1))
    assert g == (1,)
    assert poly.add(gf2, poly.mul(gf2, s, (1, 1)), poly.mul(gf2, t, (0, 1))) == (1,)
    assert (s, t) == ((1,), (1,))


def test_ext_gcd_equal_inputs(gf3):
    f = (2, 0, 1)
    g, s, t = poly.ext_gcd(gf3, f, f)
    assert g == poly.monic(gf3, f)
    assert poly.add(gf3, poly.mul(gf3, s, f), poly.mul(gf3, t, f)) == g


def test_ext_gcd_both_zero(gf2):
    with pytest.raises(ValueError):
        poly.ext_gcd(gf2, (), ())


def test_ext_gcd_bezout_witnesses_n7(gf2):
    # the coprime pair behind the n=7 idempotents: ((x^7+1)/(x+1))^2 vs (x+1)^2
    f1 = (1, 1)
    x7p1 = poly.xn_minus_c(gf2, 7, 1)
    cof = poly.quo(gf2, x7p1, f1)
    a = poly.mul(gf2, cof, cof)
    b = poly.mul(gf2, f1, f1)
    g, s, t = poly.ext_gcd(gf2, a, b)
    assert g == (1,)
    assert poly.add(gf2, poly.mul(gf2, s, a), poly.mul(gf2, t, b)) == (1,)
    assert poly.deg(s) < poly.deg(b)
    assert poly.deg(t) < poly.deg(a)


def test_ext_gcd_randomized(rng):
    for gf in (GF(2), GF(3), GF(2, 2)):
        for _ in range(120):
            a = rand_poly(gf, rng, 8)
            b = rand_poly(gf, rng, 8)
            if not a and not b:
                continue
            g, s, t = poly.ext_gcd(gf, a, b)
            lhs = poly.add(gf, poly.mul(gf, s, a), poly.mul(gf, t, b))
            assert lhs == g
            if a:
                assert poly.rem(gf, a, g) == ()
            if b:
                assert poly.rem(gf, b, g) == ()


def test_is_irreducible(gf2, gf3):
    assert poly.is_irreducible(gf2, (1, 1, 0, 1))        # x^3 + x + 1
    assert poly.is_irreducible(gf2, (1, 0, 1, 1))        # x^3 + x^2 + 1
    assert not poly.is_irreducible(gf2, (1, 0, 0, 0, 0, 0, 0, 1))  # x^7 + 1
    assert not poly.is_irreducible(gf2, (1, 0, 1))       # (x+1)^2
    assert poly.is_irreducible(gf3, (1, 0, 1))           # x^2 + 1 over GF(3)
    assert not poly.is_irreducible(gf3, (2, 0, 1))       # x^2 - 1
    assert not poly.is_irreducible(gf2, (1,))            # constants are not


def test_pow_mod(gf3):
    # x^9 = x mod (x^2 + 1) over GF(3)? x^2 = -1, x^8 = 1, so x^9 = x
    assert poly.pow_mod(gf3, (0, 1), 9, (1, 0, 1)) == (0, 1)


def test_to_str(gf2, gf3):
    assert poly.to_str(gf2, (1, 1, 0, 1)) == "x^3 + x + 1"
    assert poly.to_str(gf2, ()) == "0"
    assert poly.to_str(gf3, (2, 0, 2)) == "2*x^2 + 2"
    assert poly.to_str(gf3, (0, 1)) == "x"
    gf4 = GF(2, 2)
    assert poly.to_str(gf4, (3, 2), poly_basis=True) == "y*x + (y + 1)"


def test_canonical_key_orders_by_degree_then_encoding():
    # x^3 + x + 1 sorts before x^3 + x^2 + 1
    assert poly.canonical_key((1, 1, 0, 1)) < poly.canonical_key((1, 0, 1, 1))
    assert poly.canonical_key((1, 1)) < poly.canonical_key((1, 1, 0, 1))
