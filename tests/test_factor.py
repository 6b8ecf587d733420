import itertools
from functools import partial, reduce

import pytest

from u4codes import GF, NotCoprimeError, factor_xn_minus_delta, poly
from u4codes.factor import is_irreducible
from golden import FACTORS_N7


def brute_force_factor(gf, target):
    """Trial division by every monic polynomial of ascending degree.

    Exponential in degree; usable only as an independent check on small
    inputs.
    """
    out = []
    remaining = target
    d = 1
    while poly.deg(remaining) > 0:
        found = False
        for tail in itertools.product(range(gf.q), repeat=d):
            cand = poly.normalize(list(tail) + [1])
            if poly.deg(cand) != d:
                continue
            q, r = poly.divrem(gf, remaining, cand)
            if r == ():
                out.append(cand)
                remaining = q
                found = True
                break
        if not found:
            d += 1
    return sorted(out, key=poly.canonical_key)


def test_golden_n7(gf2):
    fact = factor_xn_minus_delta(gf2, 7, 1)
    assert fact == FACTORS_N7
    assert tuple(len(f) - 1 for f in fact) == (1, 3, 3)
    assert reduce(partial(poly.mul, gf2), fact) == poly.xn_minus_c(gf2, 7, 1)


def test_length_one(gf2):
    fact = factor_xn_minus_delta(gf2, 1, 1)
    assert fact == ((1, 1),)


def test_gf3_n4_delta2_against_brute_force(gf3):
    fact = factor_xn_minus_delta(gf3, 4, 2)
    expected = brute_force_factor(gf3, poly.xn_minus_c(gf3, 4, 2))
    assert list(fact) == expected
    assert fact == ((2, 1, 1), (2, 2, 1))


def test_brute_force_agreement_on_more_instances(gf2, gf4):
    cases = [(gf2, 5, 1), (gf2, 9, 1), (gf4, 5, 2), (GF(3), 8, 1), (GF(5), 4, 3)]
    for gf, n, delta in cases:
        fact = factor_xn_minus_delta(gf, n, delta)
        assert list(fact) == brute_force_factor(gf, poly.xn_minus_c(gf, n, delta))


def test_factor_invariants(gf8, rng):
    for gf, n in [(gf8, 7), (gf8, 9), (GF(3), 13), (GF(2, 2), 15)]:
        delta = rng.randrange(1, gf.q)
        fact = factor_xn_minus_delta(gf, n, delta)
        assert reduce(partial(poly.mul, gf), fact) == poly.xn_minus_c(gf, n, delta)
        assert sum(len(f) - 1 for f in fact) == n
        assert len(set(fact)) == len(fact)
        for f in fact:
            assert f[-1] == 1
            assert is_irreducible(gf, f)
        for a, b in itertools.combinations(fact, 2):
            assert poly.gcd(gf, a, b) == (1,)
        # canonical order
        keys = [poly.canonical_key(f) for f in fact]
        assert keys == sorted(keys)


def test_determinism(gf8):
    a = factor_xn_minus_delta(gf8, 9, 3, seed=1)
    b = factor_xn_minus_delta(gf8, 9, 3, seed=1)
    assert a == b
    # canonical sorting makes the result seed-independent too
    c = factor_xn_minus_delta(gf8, 9, 3, seed=999)
    assert a == c


def test_preconditions(gf3, gf2):
    with pytest.raises(NotCoprimeError):
        factor_xn_minus_delta(gf3, 6, 1)
    with pytest.raises(NotCoprimeError):
        factor_xn_minus_delta(gf2, 14, 1)
    with pytest.raises(ValueError):
        factor_xn_minus_delta(gf3, 4, 0)
    with pytest.raises(ValueError):
        factor_xn_minus_delta(gf3, 0, 1)


def test_is_irreducible(gf2, gf3):
    assert is_irreducible(gf2, (1, 1, 0, 1))        # x^3 + x + 1
    assert is_irreducible(gf2, (1, 0, 1, 1))        # x^3 + x^2 + 1
    assert not is_irreducible(gf2, (1, 0, 0, 0, 0, 0, 0, 1))  # x^7 + 1
    assert not is_irreducible(gf2, (1, 0, 1))       # (x+1)^2
    assert is_irreducible(gf3, (1, 0, 1))           # x^2 + 1 over GF(3)
    assert not is_irreducible(gf3, (2, 0, 1))       # x^2 - 1
    assert not is_irreducible(gf2, (1,))            # constants are not


def test_is_irreducible_exhaustive_against_brute_force(gf2, gf3, gf4):
    # every monic polynomial of degree <= 4, squares and repeated factors included
    for gf in (gf2, gf3, gf4):
        for d in range(5):
            for tail in itertools.product(range(gf.q), repeat=d):
                f = tail + (1,)
                assert is_irreducible(gf, f) == (brute_force_factor(gf, f) == [f]), (gf, f)
