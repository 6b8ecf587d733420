"""Dense univariate polynomial arithmetic over a GF instance.

A polynomial is a tuple of int-encoded field elements in ascending order
of degree with no trailing zeros; the zero polynomial is the empty tuple
and its degree is -inf.  Every function takes the field as its first
argument, mirroring the element encoding of the field module.
"""

from __future__ import annotations

NEG_INF = float("-inf")

ZERO: tuple[int, ...] = ()
ONE: tuple[int, ...] = (1,)
X: tuple[int, ...] = (0, 1)


def normalize(coeffs) -> tuple[int, ...]:
    """Strip trailing zeros and return a canonical tuple."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def deg(a) -> int | float:
    return len(a) - 1 if a else NEG_INF


def x_pow(k: int) -> tuple[int, ...]:
    return (0,) * k + (1,)


def add(gf, a, b) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    fadd = gf.add
    for i, c in enumerate(b):
        out[i] = fadd(out[i], c)
    return normalize(out)


def sub(gf, a, b) -> tuple[int, ...]:
    n = max(len(a), len(b))
    fsub = gf.sub
    out = [fsub(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
           for i in range(n)]
    return normalize(out)


def neg(gf, a) -> tuple[int, ...]:
    fneg = gf.neg
    return tuple(fneg(c) for c in a)


def scale(gf, a, c: int) -> tuple[int, ...]:
    if c == 0:
        return ZERO
    if c == 1:
        return tuple(a)
    fmul = gf.mul
    return normalize(fmul(x, c) for x in a)


def mul(gf, a, b) -> tuple[int, ...]:
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    fadd, fmul = gf.add, gf.mul
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = fadd(out[i + j], fmul(ai, bj))
    return normalize(out)


def divrem(gf, a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Division with remainder: a = q*b + r with deg(r) < deg(b)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return ZERO, tuple(a)
    rem = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    inv_lc = gf.inv(b[-1])
    fsub, fmul = gf.sub, gf.mul
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        f = fmul(c, inv_lc)
        quot[k - db] = f
        for i in range(db + 1):
            rem[k - db + i] = fsub(rem[k - db + i], fmul(f, b[i]))
    return normalize(quot), normalize(rem)


def quo(gf, a, b) -> tuple[int, ...]:
    return divrem(gf, a, b)[0]


def rem(gf, a, b) -> tuple[int, ...]:
    return divrem(gf, a, b)[1]


def monic(gf, a) -> tuple[int, ...]:
    if not a:
        return ZERO
    return scale(gf, a, gf.inv(a[-1]))


def gcd(gf, a, b) -> tuple[int, ...]:
    while b:
        a, b = b, rem(gf, a, b)
    return monic(gf, a)


def ext_gcd(gf, a, b):
    """Extended Euclid: monic g = gcd(a, b) and (s, t) with s*a + t*b = g.

    When meaningful (neither input divides the other up to a constant) the
    witnesses are degree-normalized: deg(s) < deg(b) - deg(g) and deg(t) <
    deg(a) - deg(g).
    """
    a, b = tuple(a), tuple(b)
    if not a and not b:
        raise ValueError("gcd of two zero polynomials")
    r0, r1 = a, b
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while r1:
        q, r = divrem(gf, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(gf, s0, mul(gf, q, s1))
        t0, t1 = t1, sub(gf, t0, mul(gf, q, t1))
    c = gf.inv(r0[-1])
    g = scale(gf, r0, c)
    s = scale(gf, s0, c)
    t = scale(gf, t0, c)
    if b:
        cof = quo(gf, b, g)
        if len(cof) > 1 and len(s) >= len(cof):
            s = rem(gf, s, cof)
            t = quo(gf, sub(gf, g, mul(gf, s, a)), b)
    return g, s, t


def pow_mod(gf, base, e: int, modpoly) -> tuple[int, ...]:
    """base^e reduced mod modpoly (e >= 0)."""
    result = ONE
    base = rem(gf, base, modpoly)
    while e:
        if e & 1:
            result = rem(gf, mul(gf, result, base), modpoly)
        base = rem(gf, mul(gf, base, base), modpoly)
        e >>= 1
    return result


def is_irreducible(gf, f) -> bool:
    """Irreducibility over gf, by excluding factors of degree <= deg(f)/2.

    Uses gcd(f, x^(q^k) - x) for k = 1 .. deg(f)//2; any reducible f has an
    irreducible factor in that range, so surviving all rounds proves
    irreducibility.
    """
    f = normalize(f)
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    h = X
    for _ in range(d // 2):
        h = pow_mod(gf, h, gf.q, f)
        if len(gcd(gf, sub(gf, h, X), f)) > 1:
            return False
    return True


def xn_minus_c(gf, n: int, c: int) -> tuple[int, ...]:
    """The polynomial x^n - c."""
    return normalize([gf.neg(c)] + [0] * (n - 1) + [1])


def canonical_key(a) -> tuple:
    """Sort key: degree first, then integer encoding of the coefficient vector.

    The integer encoding weighs high-degree coefficients most, so within a
    degree class this is lexicographic on coefficients read from the
    leading term down.
    """
    return (len(a), tuple(reversed(a)))


# -- text / JSON representations ------------------------------------------


def to_str(gf, a, var: str = "x", poly_basis: bool = False) -> str:
    """Terms "c*x^k" in descending order; unit coefficients are elided."""
    if not a:
        return "0"
    terms = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        cstr = gf.element_str(c, poly_basis=poly_basis)
        if " + " in cstr:
            cstr = f"({cstr})"
        if k == 0:
            terms.append(cstr)
        else:
            xk = var if k == 1 else f"{var}^{k}"
            terms.append(xk if c == 1 else f"{cstr}*{xk}")
    return " + ".join(terms)


def to_json(a) -> dict:
    return {"coeffs": list(a)}
