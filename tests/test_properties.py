"""Property tests against independent code: hypothesis and sympy.

Both libraries are test extras only; each test is skipped without its own.
"""

import functools

import pytest

from u4codes import GF, factor_xn_minus_delta, poly

# every (p, m) with p <= 13 and q = p^m <= 2^12
FIELDS = [(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(1, 13) if p ** m <= 2 ** 12]


@functools.lru_cache(maxsize=None)
def field(p, m):
    return GF(p, m)


def test_field_axioms_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.sampled_from(FIELDS), st.data())
    def axioms(pm, data):
        gf = field(*pm)
        a, b, c = (data.draw(st.integers(0, gf.q - 1)) for _ in range(3))
        e = data.draw(st.integers(-2 * gf.q, 2 * gf.q))
        assert gf.add(a, b) == gf.add(b, a)
        assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
        assert gf.sub(gf.add(a, b), b) == a
        assert gf.add(a, gf.neg(a)) == 0
        assert gf.mul(a, 1) == a and gf.add(a, 0) == a
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
            assert gf.pow(a, gf.q - 1) == 1
            assert gf.pow(a, e) == gf.pow(gf.inv(a), -e)
        # the Frobenius map is additive
        assert gf.pow(gf.add(a, b), gf.p) == gf.add(gf.pow(a, gf.p), gf.pow(b, gf.p))

    axioms()


# sympy's own sort of its factors compares modular integers, which it deprecates
@pytest.mark.filterwarnings(r"ignore:\s*Ordered comparisons with modular integers")
def test_factorization_matches_sympy(rng):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for _ in range(25):
        p = rng.choice((2, 3, 5, 7))
        n = rng.choice([k for k in range(1, 61) if k % p])
        delta = rng.randrange(1, p)
        gf = field(p, 1)
        _, pairs = sympy.factor_list(x ** n - delta, modulus=p)
        expected = []
        for f, mult in pairs:
            assert mult == 1     # x^n - delta is squarefree when gcd(n, p) = 1
            cs = [int(c) % p for c in reversed(sympy.Poly(f, x).all_coeffs())]
            expected.append(poly.monic(gf, poly.normalize(cs)))
        fact = factor_xn_minus_delta(gf, n, delta)
        assert fact.factors == tuple(sorted(expected, key=poly.canonical_key)), (p, n, delta)
