import json

import pytest

from u4codes import (GF, AmbientElement, AmbientMismatchError, NotAUnitError,
                     RingElement, ambient_reciprocal, lam_of, poly)
from u4codes.chainring import conv4
from conftest import rand_poly
from theory import BigQuotientElement, LocalRing, local_v_expansion, psi_inverse, psi_map


def R(gf, *cs):
    return RingElement(gf, cs)


# -- the chain ring R = GF(q)[u]/(u^4) ---------------------------------------


def test_u4_is_zero(gf2):
    u2 = RingElement.u_pow(gf2, 2)
    assert (u2 * u2).is_zero()
    assert RingElement.u_pow(gf2, 4).is_zero()


def test_one_plus_u2_is_self_inverse(gf2):
    a = R(gf2, 1, 0, 1, 0)
    assert a * a == RingElement.one(gf2)
    assert a.inv() == a


def test_geometric_series_inverse_gf3(gf3):
    # (1 + u)(1 - u + u^2 - u^3) = 1
    a = R(gf3, 1, 1, 0, 0)
    b = R(gf3, 1, 2, 1, 2)
    assert a * b == RingElement.one(gf3)
    assert a.inv() == b


def test_inverse_of_delta_plus_alpha_u2(gf3):
    # (2 + u^2)^(-1) = 2 + 2u^2, i.e. delta^(-1) - alpha*delta^(-2)*u^2
    a = R(gf3, 2, 0, 1, 0)
    assert a.inv() == R(gf3, 2, 0, 2, 0)
    assert a * a.inv() == RingElement.one(gf3)


def test_inv_examples(gf2, gf4):
    assert RingElement.one(gf2).inv() == RingElement.one(gf2)
    for alpha in (1, 2, 3):
        a = lam_of(gf4, 1, alpha)
        assert a.inv() == a       # (1 + alpha u^2)^(-1) = 1 + alpha u^2 in char 2


def test_non_unit_rejected(gf2):
    with pytest.raises(NotAUnitError):
        RingElement.u_pow(gf2, 1).inv()


def test_unit_criterion(gf3, rng):
    for _ in range(60):
        cs = tuple(rng.randrange(3) for _ in range(4))
        a = RingElement(gf3, cs)
        assert a.is_unit() == (cs[0] != 0)


def test_ring_axioms(gf4, rng):
    for _ in range(80):
        a = R(gf4, *[rng.randrange(4) for _ in range(4)])
        b = R(gf4, *[rng.randrange(4) for _ in range(4)])
        c = R(gf4, *[rng.randrange(4) for _ in range(4)])
        assert a * b == b * a
        assert a * (b * c) == (a * b) * c
        assert a * (b + c) == a * b + a * c
        if a.is_unit():
            assert a * a.inv() == RingElement.one(gf4)


def test_ring_str(gf2, gf3):
    assert str(R(gf2, 1, 0, 1, 0)) == "u^2 + 1"
    assert str(R(gf2, 0, 1, 1, 1)) == "u^3 + u^2 + u"
    assert str(R(gf3, 0, 0, 2, 0)) == "2*u^2"
    assert str(RingElement.zero(gf3)) == "0"


# -- the ambient R[x]/(x^n - lam) ----------------------------------------------


def _ambient(gf, n, delta, alpha):
    return lam_of(gf, delta, alpha)


def rand_ambient(gf, n, lam, rng):
    return AmbientElement(gf, n, lam, [
        RingElement(gf, [rng.randrange(gf.q) for _ in range(4)]) for _ in range(n)])


def test_defining_relation(gf2):
    lam = _ambient(gf2, 7, 1, 1)
    x = AmbientElement.x_pow(gf2, 7, lam, 1)
    x6 = AmbientElement.x_pow(gf2, 7, lam, 6)
    assert x * x6 == AmbientElement.from_ring_scalar(gf2, 7, lam, lam)


@pytest.mark.parametrize("p, n, delta", [(2, 7, 1), (3, 5, 2)])
def test_x_pow_wraps_through_lambda(p, n, delta):
    # x^k = lam^(k div n) * x^(k mod n), the closed form of x^n = lam
    gf = GF(p)
    lam = _ambient(gf, n, delta, 1)
    lam_pow = RingElement.one(gf)
    for k in range(3 * n):
        if k and k % n == 0:
            lam_pow = lam_pow * lam
        expected = (AmbientElement.from_ring_scalar(gf, n, lam, lam_pow)
                    * AmbientElement.x_pow(gf, n, lam, k % n))
        assert AmbientElement.x_pow(gf, n, lam, k) == expected


def test_identity_and_shift_consistency(gf3, rng):
    lam = _ambient(gf3, 5, 2, 1)
    one = AmbientElement.one(gf3, 5, lam)
    x = AmbientElement.x_pow(gf3, 5, lam, 1)
    for _ in range(30):
        a = rand_ambient(gf3, 5, lam, rng)
        assert one * a == a
        assert a * x == a.times_x()


def test_ambient_ring_axioms(gf2, rng):
    lam = _ambient(gf2, 4, 1, 1)
    for _ in range(40):
        a = rand_ambient(gf2, 4, lam, rng)
        b = rand_ambient(gf2, 4, lam, rng)
        c = rand_ambient(gf2, 4, lam, rng)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_ambient_mismatch_is_an_error(gf2):
    lam1 = _ambient(gf2, 7, 1, 1)
    a = AmbientElement.one(gf2, 7, lam1)
    b = AmbientElement.one(gf2, 5, lam1)
    with pytest.raises(AmbientMismatchError):
        a * b
    # same n but a different defining unit is just as illegal
    u = RingElement.u_pow(gf2, 1)
    lam2 = lam_of(gf2, 1, 1) + u   # 1 + u + u^2
    c = AmbientElement.one(gf2, 7, lam2)
    with pytest.raises(AmbientMismatchError):
        a + c
    with pytest.raises(AmbientMismatchError):
        a == c


def test_ambient_str(dec7):
    assert str(dec7.factors[1].e) == "x^4 + x^2 + (u^2 + 1)*x + 1"
    assert str(AmbientElement.zero(dec7.gf, 7, dec7.lam)) == "0"


def test_ambient_json_round_trip(gf3, rng):
    lam = _ambient(gf3, 4, 2, 2)
    for _ in range(10):
        a = rand_ambient(gf3, 4, lam, rng)
        obj = json.loads(json.dumps(a.to_json()))
        assert AmbientElement(gf3, obj["n"], RingElement(gf3, obj["lambda"]),
                              obj["coeffs"]) == a


# -- the reciprocal substitution -------------------------------------------------


def test_reciprocal_fixes_constants_and_twists_x(gf2):
    lam = _ambient(gf2, 7, 1, 1)
    one = AmbientElement.one(gf2, 7, lam)
    assert ambient_reciprocal(one) == one
    x = AmbientElement.x_pow(gf2, 7, lam, 1)
    expected = AmbientElement.x_pow(gf2, 7, lam.inv(), 6).scale(lam)
    assert ambient_reciprocal(x) == expected


def test_reciprocal_is_a_ring_map(gf3, rng):
    lam = _ambient(gf3, 4, 2, 1)
    for _ in range(40):
        a = rand_ambient(gf3, 4, lam, rng)
        b = rand_ambient(gf3, 4, lam, rng)
        assert ambient_reciprocal(a * b) == ambient_reciprocal(a) * ambient_reciprocal(b)
        assert ambient_reciprocal(a + b) == ambient_reciprocal(a) + ambient_reciprocal(b)


def test_reciprocal_is_an_involution_when_lambda_self_inverse(gf2, rng):
    lam = _ambient(gf2, 7, 1, 1)
    assert lam.inv() == lam
    for _ in range(20):
        a = rand_ambient(gf2, 7, lam, rng)
        assert ambient_reciprocal(ambient_reciprocal(a)) == a


def _reciprocal_by_conv4(a):
    """x^(-i) = lam * x^(n-i): one conv4 with lam's coordinates per coefficient."""
    flat = list(a.coeff(0))
    for i in range(a.n - 1, 0, -1):
        flat.extend(conv4(a.gf, a.coeff(i), a.lam.cs))
    return flat


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (3, 2), (3, 5)])
def test_strided_reciprocal_matches_one_conv4_per_coefficient(p, m, rng):
    gf = GF(p, m)
    nonzero = range(1, gf.q)
    for n in (1, 2, 3, 7, 12):
        lam = RingElement(gf, [rng.choice(nonzero) for _ in range(4)])
        for _ in range(6):
            a = rand_ambient(gf, n, lam, rng)
            # nonzero u^1 and u^3 coordinates at the constant and at x^(n-1)
            flat = list(a.flat)
            for i in (1, 3, 4 * n - 3, 4 * n - 1):
                flat[i] = rng.choice(nonzero)
            a = a._with(flat)
            r = ambient_reciprocal(a)
            assert r.lam == lam.inv()
            assert list(r.flat) == _reciprocal_by_conv4(a)


# -- the big quotient and psi ------------------------------------------------------


def test_psi_special_values(gf3):
    n, delta, alpha = 4, 2, 1
    lam = lam_of(gf3, delta, alpha)
    for i in range(n):
        b = BigQuotientElement(gf3, n, delta, alpha, poly.x_pow(i))
        assert psi_map(b) == AmbientElement.x_pow(gf3, n, lam, i)
    v = BigQuotientElement.v(gf3, n, delta, alpha)
    u = AmbientElement.from_ring_scalar(gf3, n, lam, RingElement.u_pow(gf3, 1))
    assert psi_map(v) == u
    xn = BigQuotientElement(gf3, n, delta, alpha, poly.x_pow(n))
    assert psi_map(xn) == AmbientElement.from_ring_scalar(gf3, n, lam, lam)


def test_psi_inverse_special_values(gf2):
    n, delta, alpha = 7, 1, 1
    lam = lam_of(gf2, delta, alpha)
    u = AmbientElement.from_ring_scalar(gf2, n, lam, RingElement.u_pow(gf2, 1))
    assert psi_inverse(u) == BigQuotientElement.v(gf2, n, delta, alpha)
    lam_elt = AmbientElement.from_ring_scalar(gf2, n, lam, lam)
    assert psi_inverse(lam_elt) == BigQuotientElement(gf2, n, delta, alpha, poly.x_pow(n))


def test_psi_is_an_isomorphism(rng):
    for gf, n, delta, alpha in [(GF(3), 4, 2, 1), (GF(2, 2), 3, 2, 3), (GF(2), 7, 1, 1)]:
        def rand_bq():
            return BigQuotientElement(
                gf, n, delta, alpha,
                [rng.randrange(gf.q) for _ in range(2 * n)],
                [rng.randrange(gf.q) for _ in range(2 * n)])
        for _ in range(30):
            a, b = rand_bq(), rand_bq()
            assert psi_map(a * b) == psi_map(a) * psi_map(b)
            assert psi_map(a + b) == psi_map(a) + psi_map(b)
            assert psi_inverse(psi_map(a)) == a


def test_psi_inverse_requires_delta_alpha_form(gf2):
    lam = RingElement(gf2, (1, 1, 0, 0))   # 1 + u is a unit but not delta + alpha u^2
    a = AmbientElement.one(gf2, 3, lam)
    with pytest.raises(ValueError):
        psi_inverse(a)


# -- the local rings K_j + v K_j ------------------------------------------------


def _local_ring_n7(gf2, which=1):
    # built from the n=7 data: f = x^3 + x + 1, omega = (x^7+1)/f mod f^2
    f = (1, 1, 0, 1) if which == 1 else (1, 1)
    cof = poly.quo(gf2, poly.xn_minus_c(gf2, 7, 1), f)
    omega = poly.rem(gf2, cof, poly.mul(gf2, f, f))
    return LocalRing(gf2, f, omega)


def test_v_expansion_of_powers_of_v(gf2):
    ring = _local_ring_n7(gf2)
    v = ring.v()
    assert local_v_expansion(v * v) == ((), (), (1,), ())
    assert local_v_expansion(v) == ((), (1,), (), ())
    assert local_v_expansion(ring.element((1,))) == ((1,), (), (), ())


def test_v_expansion_of_f_itself(gf2):
    ring = _local_ring_n7(gf2)
    fj = ring.element(ring.f)
    expected = poly.rem(gf2, ring.omega_inv, ring.f)
    assert local_v_expansion(fj) == ((), (), expected, ())
    # omega * f is exactly v^2
    wf = ring.element(poly.rem(gf2, poly.mul(gf2, ring.omega, ring.f), ring.fsq))
    assert local_v_expansion(wf) == ((), (), (1,), ())


def test_v_nilpotency_index_four(gf2):
    for which in (0, 1):
        ring = _local_ring_n7(gf2, which)
        v = ring.v()
        v2 = v * v
        v3 = v2 * v
        v4 = v2 * v2
        assert not v3.is_zero()
        assert v4.is_zero()


def test_v_expansion_recomposes_and_unit_criterion(gf2, rng):
    ring = _local_ring_n7(gf2)
    v = ring.v()
    for _ in range(60):
        e = ring.element(rand_poly(gf2, rng, 5), rand_poly(gf2, rng, 5))
        t0, t1, t2, t3 = local_v_expansion(e)
        for t in (t0, t1, t2, t3):
            assert poly.deg(t) < ring.d
        recomposed = ring.element(t0) + v * ring.element(t1) \
            + v * v * ring.element(t2) + v * v * v * ring.element(t3)
        assert recomposed == e
        assert e.is_unit() == (t0 != ())


def test_local_ring_rejects_non_unit_omega(gf2):
    with pytest.raises(NotAUnitError):
        LocalRing(gf2, (1, 1, 0, 1), (1, 1, 0, 1))   # omega = f is not a unit
