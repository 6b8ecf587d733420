"""Property tests against independent code: hypothesis and sympy.

Both libraries are test extras only; each test is skipped without its own.
"""

import functools

import pytest

from u4codes import (GF, AmbientElement, RingElement, ambient_reciprocal, build_code,
                     canonical_rearrange, check_self_dual, compute_decomposition, dual_span,
                     enumerate_codes, factor_xn_minus_delta, poly, self_dual_codes,
                     span_ideal)
from theory import dual_decomposition

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


# every field with q <= 9
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def _ring_elements(st, gf, count):
    coords = st.lists(st.integers(0, gf.q - 1), min_size=4, max_size=4)
    return st.lists(coords.map(lambda cs: RingElement(gf, cs)),
                    min_size=count, max_size=count)


def test_ring_axioms_of_r_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.sampled_from(SMALL_FIELDS), st.data())
    def axioms(pm, data):
        gf = field(*pm)
        a, b, c = data.draw(_ring_elements(st, gf, 3))
        zero, one = RingElement.zero(gf), RingElement.one(gf)
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and a - a == zero
        if a.is_unit():
            assert a * a.inv() == one

    axioms()


def test_ambient_ring_axioms_and_the_reciprocal_isomorphism_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.sampled_from(SMALL_FIELDS), st.integers(1, 10), st.data())
    def axioms(pm, n, data):
        gf = field(*pm)
        lam = data.draw(_ring_elements(st, gf, 1).filter(lambda r: r[0].is_unit()))[0]
        a, b, c = (AmbientElement(gf, n, lam, data.draw(_ring_elements(st, gf, n)))
                   for _ in range(3))
        zero, one = AmbientElement.zero(gf, n, lam), AmbientElement.one(gf, n, lam)
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and a - a == zero
        # x -> x^(-1) is a ring isomorphism onto the ambient of lam^(-1)
        rec = ambient_reciprocal
        assert rec(a).lam == lam.inv()
        assert rec(a * b) == rec(a) * rec(b) and rec(a + b) == rec(a) + rec(b)
        assert rec(one) == AmbientElement.one(gf, n, lam.inv())
        assert rec(rec(a)) == a

    axioms()


@functools.lru_cache(maxsize=None)
def decomposition(pm, n, delta, alpha):
    return compute_decomposition(field(*pm), n, delta, alpha)


def test_dual_of_dual_and_complementary_dimensions_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]), st.data())
    def dual_properties(pm, data):
        gf = field(*pm)
        n = data.draw(st.integers(1, 10).filter(lambda k: k % gf.p))
        delta, alpha = (data.draw(st.integers(1, gf.q - 1)) for _ in range(2))
        d = decomposition(pm, n, delta, alpha)
        index = tuple(data.draw(st.lists(st.integers(0, 4), min_size=d.r, max_size=d.r)))
        fc = span_ideal(build_code(d, index).generator)
        dual = dual_span(fc)
        # |C| * |C^perp| = q^(4n), and C^perp^perp = C
        assert fc.dim + dual.dim == 4 * n
        assert dual_span(dual).basis == fc.basis

    dual_properties()


def test_reciprocal_idempotents_are_the_dual_idempotents_at_tau_hypothesis():
    # e_j(x^(-1)) is the primitive idempotent of the inverse-unit ambient at
    # the monic reciprocal of f_j, which is where tau points
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]),
                      st.data())
    def reciprocal_pairing(pm, data):
        gf = field(*pm)
        n = data.draw(st.integers(1, 24).filter(lambda k: k % gf.p))
        delta, alpha = (data.draw(st.integers(1, gf.q - 1)) for _ in range(2))
        d = decomposition(pm, n, delta, alpha)
        dd = dual_decomposition(d)
        for j, fd in enumerate(d.factors):
            assert ambient_reciprocal(fd.e) == dd.factors[d.tau[j]].e

    reciprocal_pairing()


def test_the_oracle_confirms_exactly_5_to_the_eps_pairs_self_dual_codes_hypothesis():
    # for q = 2^m and delta = 1 the pairs tau swaps count the self-dual codes:
    # the oracle confirms each of the 5^eps_pairs enumerated codes and, where
    # all 5^r codes are few enough to check, finds no other
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @functools.lru_cache(maxsize=None)      # the oracle runs once per drawn (m, n)
    def counts(m, n):
        d = decomposition((2, m), n, 1, 1)
        confirmed = sum(map(check_self_dual, self_dual_codes(canonical_rearrange(d))))
        every = sum(map(check_self_dual, enumerate_codes(d))) if d.r <= 3 else None
        return 5 ** d.eps_pairs, confirmed, every

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(st.integers(1, 3), st.sampled_from(range(1, 12, 2)))
    def self_dual_count(m, n):
        expected, confirmed, every = counts(m, n)
        assert confirmed == expected
        assert every in (None, expected)

    self_dual_count()


# sympy's own sort of its factors compares modular integers, which it deprecates
@pytest.mark.filterwarnings(r"ignore:\s*Ordered comparisons with modular integers")
def test_factorization_matches_sympy(rng):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    cases = []
    for _ in range(25):
        p = rng.choice((2, 3, 5, 7))
        cases.append((p, rng.choice([k for k in range(1, 61) if k % p]), rng.randrange(1, p)))
    # larger sets, whose products run on 2-byte lanes at p = 3 and 5
    cases += [(2, 255, 1), (3, 242, 2), (5, 124, 2)]
    for p, n, delta in cases:
        gf = field(p, 1)
        _, pairs = sympy.factor_list(x ** n - delta, modulus=p)
        expected = []
        for f, mult in pairs:
            assert mult == 1     # x^n - delta is squarefree when gcd(n, p) = 1
            cs = [int(c) % p for c in reversed(sympy.Poly(f, x).all_coeffs())]
            expected.append(poly.monic(gf, poly.normalize(cs)))
        fact = factor_xn_minus_delta(gf, n, delta)
        assert fact == tuple(sorted(expected, key=poly.canonical_key)), (p, n, delta)
