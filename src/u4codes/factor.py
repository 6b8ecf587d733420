"""Complete factorization of x^n - delta over GF(q) when gcd(q, n) = 1.

The input is squarefree under that hypothesis, so the pipeline is
distinct-degree factorization (repeated gcds with x^(q^k) - x) followed by
probabilistic equal-degree splitting: Cantor-Zassenhaus exponentiation for
odd characteristic and the absolute-trace map for characteristic 2.  The
splitting randomness comes from a seeded PRNG and the factor list is
re-sorted canonically, so output is deterministic for a fixed seed (and in
practice identical across seeds).

`is_irreducible` is distinct-degree factorization's verdict on one
polynomial: it is irreducible when the first piece is the polynomial
itself, since no factor of degree at most half its own turned up (von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 14).
"""

from __future__ import annotations

import random

from . import poly
from .errors import NotCoprimeError

DEFAULT_SEED = 1729


def factor_xn_minus_delta(gf, n: int, delta: int,
                          seed: int = DEFAULT_SEED) -> tuple[tuple[int, ...], ...]:
    """The monic irreducible factors of x^n - delta over gf, canonically ordered.

    Canonical order is ascending degree, ties broken by the integer
    encoding of the coefficient vector (see poly.canonical_key).
    """
    gf.check(delta)
    if delta == 0:
        raise ValueError(f"delta must be a nonzero element of GF({gf.q})")
    if n < 1:
        raise ValueError(f"length n = {n} must be positive")
    if n % gf.p == 0:
        raise NotCoprimeError(
            f"characteristic {gf.p} divides n = {n}; gcd(q, n) = 1 is required")

    target = poly.xn_minus_c(gf, n, delta)
    rng = random.Random(seed)
    factors: list[tuple[int, ...]] = []
    for piece, d in _distinct_degree(gf, target):
        factors.extend(_equal_degree(gf, piece, d, rng))
    factors.sort(key=poly.canonical_key)
    return tuple(factors)


def is_irreducible(gf, f) -> bool:
    """Whether monic f is irreducible over gf.

    The first piece of distinct-degree factorization is f itself at its
    own degree exactly when f has no factor of degree <= deg(f)/2.  That
    also holds for f that is not squarefree: a square p^2 dividing f has
    deg p <= deg(f)/2, so the gcd at d = deg p is already nontrivial.
    Taking only the first piece stops at the first factor found.
    """
    return len(f) > 1 and next(_distinct_degree(gf, f)) == (f, len(f) - 1)


def _distinct_degree(gf, f):
    """Split squarefree monic f into (product, d) pieces by factor degree,
    yielded in ascending d."""
    h = poly.X
    d = 0
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            yield f, len(f) - 1
            break
        h = poly.pow_mod(gf, h, gf.q, f)
        g = poly.gcd(gf, poly.sub(gf, h, poly.X), f)
        if len(g) > 1:
            yield g, d
            f = poly.quo(gf, f, g)
            h = poly.rem(gf, h, f)


def _equal_degree(gf, f, d: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Split monic squarefree f whose irreducible factors all have degree d."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if len(g) - 1 == d:
            out.append(g)
            continue
        h = _split_once(gf, g, d, rng)
        stack.append(h)
        stack.append(poly.quo(gf, g, h))
    return out


def _split_once(gf, g, d: int, rng: random.Random) -> tuple[int, ...]:
    """Find one proper monic factor of g (deg g > d, all factors degree d)."""
    dg = len(g) - 1
    while True:
        # a factor of g that divides a lands on one side of the gcd below,
        # and a constant a splits nothing, so neither needs its own test
        a = poly.normalize([rng.randrange(gf.q) for _ in range(dg)])
        if gf.p == 2:
            # absolute trace to GF(2): a + a^2 + a^4 + ... (m*d - 1 squarings)
            acc = a
            t = a
            for _ in range(gf.m * d - 1):
                t = poly.pow_mod(gf, t, 2, g)
                acc = poly.add(gf, acc, t)
            c = poly.gcd(gf, acc, g)
        else:
            b = poly.pow_mod(gf, a, (gf.q ** d - 1) // 2, g)
            c = poly.gcd(gf, poly.sub(gf, b, poly.ONE), g)
        if 0 < len(c) - 1 < dg:
            return c
