import pytest

from u4codes import GF, poly


def test_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)


def test_generated_moduli_are_the_smallest_irreducibles():
    assert GF(2).modulus == (0, 1)
    assert GF(2, 2).modulus == (1, 1, 1)       # y^2 + y + 1
    assert GF(2, 3).modulus == (1, 1, 0, 1)    # y^3 + y + 1
    assert GF(3, 2).modulus == (1, 0, 1)       # y^2 + 1
    assert GF(2, 4).modulus == (1, 1, 0, 0, 1)


def test_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        GF(2, 2, modulus=(1, 0, 1))   # y^2 + 1 = (y + 1)^2
    with pytest.raises(ValueError):
        GF(2, 3, modulus=(1, 1, 0))   # not monic of degree 3


def test_gf2_basics(gf2):
    assert gf2.add(1, 1) == 0
    assert gf2.inv(1) == 1
    assert gf2.mul(1, 1) == 1


def test_gf4_table():
    gf4 = GF(2, 2)
    # y * y = y + 1 since y^2 + y + 1 = 0
    assert gf4.mul(2, 2) == 3
    assert gf4.mul(2, 3) == 1      # y * (y + 1) = y^2 + y = 1
    assert gf4.inv(2) == 3


def test_encoding_bijection(gf8):
    seen = {gf8.from_coeffs(gf8.coeffs(a)) for a in range(gf8.q)}
    assert seen == set(range(gf8.q))
    assert gf8.coeffs(0) == (0, 0, 0)
    assert gf8.coeffs(1) == (1, 0, 0)


def test_field_axioms_randomized(rng):
    for gf in (GF(2), GF(3), GF(5), GF(2, 2), GF(2, 3), GF(3, 2),
               GF(2, 10), GF(3, 6), GF(5, 4)):
        for _ in range(200):
            a = rng.randrange(gf.q)
            b = rng.randrange(gf.q)
            c = rng.randrange(gf.q)
            assert gf.add(a, b) == gf.add(b, a)
            assert gf.mul(a, b) == gf.mul(b, a)
            assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
            assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
            assert gf.sub(gf.add(a, b), b) == a
            if a:
                assert gf.mul(a, gf.inv(a)) == 1
                assert gf.pow(a, gf.q - 1) == 1


def test_inversion_of_zero(gf3):
    with pytest.raises(ZeroDivisionError):
        gf3.inv(0)


@pytest.mark.parametrize("p,m", [(3, 2), (2, 5), (5, 3)])
def test_table_arithmetic_agrees_with_power_basis_polys(rng, p, m):
    # the reference multiplies coordinate vectors as polynomials over GF(p)
    # and reduces by the modulus; it adds them coordinate-wise mod p
    gf, base = GF(p, m), GF(p)
    assert all(base.mul(a, b) == a * b % p and base.add(a, b) == (a + b) % p
               and base.sub(a, b) == (a - b) % p for a in range(p) for b in range(p))
    for _ in range(300):
        a, b = rng.randrange(gf.q), rng.randrange(gf.q)
        ca, cb = gf.coeffs(a), gf.coeffs(b)
        product = poly.rem(base, poly.mul(base, ca, cb), gf.modulus)
        assert gf.mul(a, b) == gf.from_coeffs(product)
        assert gf.add(a, b) == gf.from_coeffs(x + y for x, y in zip(ca, cb))
        assert gf.sub(a, b) == gf.from_coeffs(x - y for x, y in zip(ca, cb))
        assert gf.neg(b) == gf.sub(0, b)


def test_non_primitive_modulus():
    # y has order 4 modulo y^2 + 1 over GF(3), so the tables use another generator
    gf = GF(3, 2)
    assert gf.modulus == (1, 0, 1)
    assert gf.pow(3, 4) == 1
    assert sorted(gf.exp[:8]) == list(range(1, 9))


def test_pow_edge_cases(gf4):
    assert gf4.pow(0, 0) == 1
    assert gf4.pow(0, 5) == 0
    assert gf4.pow(2, -1) == gf4.inv(2)
    assert gf4.pow(2, 3) == 1
    with pytest.raises(ZeroDivisionError):
        gf4.pow(0, -1)


def test_element_str():
    gf = GF(2, 3)
    assert gf.element_str(5) == "5"
    assert gf.element_str(5, poly_basis=True) == "y^2 + 1"
    assert gf.element_str(0, poly_basis=True) == "0"
    assert GF(3).element_str(2, poly_basis=True) == "2"


def test_check_rejects_out_of_range(gf4):
    with pytest.raises(ValueError):
        gf4.check(4)
    with pytest.raises(ValueError):
        gf4.check(-1)
