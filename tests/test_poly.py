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


def _ext_gcd_with_t(gf, a, b):
    """ext_gcd's (g, s) and the second witness t = (g - s*a)/b, which must be exact."""
    g, s = poly.ext_gcd(gf, a, b)
    if not b:
        assert poly.mul(gf, s, a) == g
        return g, s, poly.ZERO
    t, r = poly.divrem(gf, poly.sub(gf, g, poly.mul(gf, s, a)), b)
    assert r == poly.ZERO
    return g, s, t


def test_ext_gcd_char2(gf2):
    g, s, t = _ext_gcd_with_t(gf2, (1, 1), (0, 1))
    assert g == (1,)
    assert poly.add(gf2, poly.mul(gf2, s, (1, 1)), poly.mul(gf2, t, (0, 1))) == (1,)
    assert (s, t) == ((1,), (1,))


def test_ext_gcd_equal_inputs(gf3):
    f = (2, 0, 1)
    g, s, t = _ext_gcd_with_t(gf3, f, f)
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
    g, s, t = _ext_gcd_with_t(gf2, a, b)
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
            g, s, t = _ext_gcd_with_t(gf, a, b)
            lhs = poly.add(gf, poly.mul(gf, s, a), poly.mul(gf, t, b))
            assert lhs == g
            if a:
                assert poly.rem(gf, a, g) == ()
            if b:
                assert poly.rem(gf, b, g) == ()
            if a and b and poly.rem(gf, a, b) and poly.rem(gf, b, a):
                # Euclid's witnesses need no reduction: they are already of least degree
                assert poly.deg(s) < poly.deg(b) - poly.deg(g)
                assert poly.deg(t) < poly.deg(a) - poly.deg(g)


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


# -- the packed prime-field kernels against a schoolbook on ints mod p ----------


def school_mul(p, a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly.normalize(out)


def school_divrem(p, a, b):
    db = len(b) - 1
    rem, quot = list(a), [0] * max(len(a) - db, 0)
    inv = pow(b[-1], -1, p)
    for k in range(len(a) - 1, db - 1, -1):
        f = quot[k - db] = rem[k] * inv % p
        for i, y in enumerate(b):
            rem[k - db + i] = (rem[k - db + i] - f * y) % p
    return poly.normalize(quot), poly.normalize(rem)


PRIMES = (2, 3, 5, 7, 251)
# the shorter operand's length on both sides of each change of lane width:
# a lane of a product sums up to that many products of at most (p - 1)^2
MUL_EDGES = {2: (255, 256), 3: (63, 64), 5: (15, 16), 7: (7, 8), 251: (1, 2)}


def full(p, length):
    """The polynomial whose coefficients are all p - 1: the largest lane sums."""
    return (p - 1,) * length


def of_length(p, rng, length):
    """A random polynomial with exactly length coefficients."""
    return tuple(rng.randrange(p) for _ in range(length - 1)) + (rng.randrange(1, p),) \
        if length else ()


@pytest.mark.parametrize("p", PRIMES)
def test_packed_mul_matches_schoolbook_at_lane_edges(p, rng):
    gf = GF(p)
    for k in MUL_EDGES[p]:
        for a, b in ((full(p, k), full(p, k)), (full(p, k), full(p, k + 40)),
                     (full(p, k + 9), full(p, k))):
            assert poly.mul(gf, a, b) == school_mul(p, a, b), (p, len(a), len(b))
        a = of_length(p, rng, k)
        assert poly.mul(gf, a, a) == school_mul(p, a, a)


@pytest.mark.parametrize("p", PRIMES)
def test_packed_divrem_matches_schoolbook_at_lane_edges(p, rng):
    # quotient all ones over a divisor all p - 1: every step clears with
    # (p - 1) * (p - 1) added to each of min(steps, len b) lanes
    gf = GF(p)
    for k in MUL_EDGES[p]:
        for steps, lb in ((k, k), (k + 30, k), (k, k + 30), (300, 3)):
            b = full(p, lb)
            r = of_length(p, rng, rng.randrange(lb))
            a = poly.add(gf, poly.mul(gf, (1,) * steps, b), r)
            assert poly.divrem(gf, a, b) == school_divrem(p, a, b) == ((1,) * steps, r)


def test_packed_divrem_more_than_255_steps_p2(rng):
    gf = GF(2)
    for lb in (1, 2, 200, 255, 256, 257):
        b = of_length(2, rng, lb)
        a = of_length(2, rng, 600)
        assert poly.divrem(gf, a, b) == school_divrem(2, a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_packed_divrem_by_sparse_xn_minus_delta(p, rng):
    gf = GF(p)
    for n in (1, 63, 64, 255, 256):
        for delta in {1, p - 1}:
            b = poly.xn_minus_c(gf, n, delta)
            a = of_length(p, rng, 2 * n)
            assert poly.divrem(gf, a, b) == school_divrem(p, a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_packed_kernels_on_empty_and_constant_operands(p, rng):
    gf = GF(p)
    a = of_length(p, rng, 30)
    c = (p - 1,)
    for x, y in ((), a), (a, ()), ((), ()), (c, a), (a, c), (c, c), ((1,), a):
        assert poly.mul(gf, x, y) == school_mul(p, x, y)
    for x, y in ((), a), ((), c), (a, c), (c, c), (c, a), (a, (1,)):
        assert poly.divrem(gf, x, y) == school_divrem(p, x, y)
    for x in ((), c, a):
        with pytest.raises(ZeroDivisionError):
            poly.divrem(gf, x, ())


@pytest.mark.parametrize("p", (65537, 2 ** 61 - 1))
def test_packed_kernels_with_eight_byte_and_wider_lanes(p, rng):
    # a field this large has no tables, but the kernels take p alone: 65537
    # needs 8-byte lanes, 2^61 - 1 lanes wider than any array item
    a = [rng.randrange(p) for _ in range(40)] + [p - 1]
    b = [rng.randrange(p) for _ in range(17)] + [p - 2]
    assert poly.normalize(poly._mul_packed(p, a, b)) == school_mul(p, a, b)
    quot, rem = poly._divrem_packed(p, pow(p - 2, -1, p), a, b)
    assert (poly.normalize(quot), poly.normalize(rem)) == school_divrem(p, a, b)
