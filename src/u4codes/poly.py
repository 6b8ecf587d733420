"""Dense univariate polynomial arithmetic over a GF instance.

A polynomial is a tuple of int-encoded field elements in ascending order
of degree with no trailing zeros; the zero polynomial is the empty tuple
and its degree is -inf.  Every function takes the field as its first
argument, mirroring the element encoding of the field module.

Over a prime field (m = 1) an element is its own residue mod p, so `mul`
and `divrem` work on polynomials packed into one Python int: coefficient
i sits in lane i, bits [8*w*i, 8*w*(i + 1)), with w bytes per lane (1, 2,
4 or 8 when that suffices, so a lane unpacks as an array item).  Lanes
are wide enough that no lane sum ever carries into its neighbour, and
each lane is reduced mod p only when it is read.

* `mul` is Kronecker substitution (Harvey, "Faster polynomial
  multiplication via multipoint Kronecker substitution", J. Symbolic
  Comput. 2009): pack both operands, take one big-int product, unpack
  each lane mod p.  A lane sums at most min(len a, len b) products, each
  at most (p - 1)^2.
* `divrem` is schoolbook division on one packed remainder with lazy
  reduction: read the top lane mod p for the next quotient coefficient f
  and add (p - f) times the packed divisor under it, which clears that
  lane mod p without borrows.  A lane starts at most p - 1 and gains at
  most (p - 1)^2 from each of at most min(steps, len b) additions.

For m > 1 the encoding of an element is not its residue, so products of
coefficients need the field's tables; those fields keep the list
schoolbook loops.

The lane helpers `_lane_bytes`, `_pack` and `_unpack` also serve two
other modules: `codes._shift_sum` adds the packed idempotent strides of
a prime-field decomposition (`Decomposition._packed_columns`), and
`GF._times` adds packed digit vectors when it builds the tables of an
odd-characteristic extension field.
"""

from __future__ import annotations

import sys
from array import array

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
    out[:len(b)] = map(gf.add, out, b)
    return normalize(out)


def sub(gf, a, b) -> tuple[int, ...]:
    out = list(a)
    out += [0] * (len(b) - len(out))
    out[:len(b)] = map(gf.sub, out, b)
    return normalize(out)


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
    if gf.m == 1:
        return normalize(_mul_packed(gf.p, a, b))
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
    inv_lc = gf.inv(b[-1])
    if gf.m == 1:
        quot, rem = _divrem_packed(gf.p, inv_lc, a, b)
        return normalize(quot), normalize(rem)
    rem = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    fadd, fmul = gf.add, gf.mul
    neg_inv_lc = gf.neg(inv_lc)
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        f = fmul(c, neg_inv_lc)             # minus the quotient coefficient
        quot[k - db] = gf.neg(f)
        for i in range(db + 1):
            rem[k - db + i] = fadd(rem[k - db + i], fmul(f, b[i]))
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
    """Extended Euclid: monic g = gcd(a, b) and s with s*a = g mod b.

    The witness comes out of the remainder sequence already of least
    degree: when neither input divides the other, deg(s) < deg(b) - deg(g)
    (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 3); the other
    witness, (g - s*a)/b, is one exact division away.
    """
    a, b = tuple(a), tuple(b)
    if not a and not b:
        raise ValueError("gcd of two zero polynomials")
    r0, r1 = a, b
    s0, s1 = ONE, ZERO
    while r1:
        q, r = divrem(gf, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(gf, s0, mul(gf, q, s1))
    c = gf.inv(r0[-1])
    return scale(gf, r0, c), scale(gf, s0, c)


def pow_mod(gf, base, e: int, modpoly) -> tuple[int, ...]:
    """base^e reduced mod modpoly (e >= 0), squaring from the top bit down."""
    if e == 0:
        return ONE
    base = rem(gf, base, modpoly)
    result = base
    for bit in bin(e)[3:]:
        result = rem(gf, mul(gf, result, result), modpoly)
        if bit == "1":
            result = rem(gf, mul(gf, result, base), modpoly)
    return result


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


# -- packed lanes over prime fields -----------------------------------------

_LANE_BYTES = (1, 1, 2, 4, 4, 8, 8, 8, 8)      # bytes a bound needs -> lane bytes
_ARRAY_CODES = {array(code).itemsize: code for code in "QLIH"}
_SWAP = sys.byteorder != "little"


def _lane_bytes(bound: int) -> int:
    """Bytes per lane for lane values up to bound: the least of 1, 2, 4 and
    8 that suffices, so that lanes unpack as array items, or beyond that
    the exact byte count."""
    w = (bound.bit_length() + 7) // 8
    return _LANE_BYTES[w] if w <= 8 else w


def _pack(a, w: int) -> int:
    """Coefficients (each below 256^w) as lanes of w bytes, a[0] lowest."""
    if w == 1:
        return int.from_bytes(bytes(a), "little")
    code = _ARRAY_CODES.get(w)
    if code is None:
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a), "little")
    lanes = array(code, a)
    if _SWAP:
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def _unpack(x: int, count: int, w: int, p: int) -> list[int]:
    """The lowest count lanes of w bytes of x (which has no higher ones), mod p."""
    lanes = x.to_bytes(count * w, "little")
    code = _ARRAY_CODES.get(w)
    if code is not None:
        lanes = array(code, lanes)
        if _SWAP:
            lanes.byteswap()
    elif w > 1:
        lanes = [int.from_bytes(lanes[i:i + w], "little") for i in range(0, len(lanes), w)]
    return [c % p for c in lanes]


def _mul_packed(p: int, a, b) -> list[int]:
    w = _lane_bytes(min(len(a), len(b)) * (p - 1) ** 2)
    pa = _pack(a, w)
    # pow_mod squares: pack once, and CPython squares faster than it multiplies
    prod = pa * pa if a is b else pa * _pack(b, w)
    return _unpack(prod, len(a) + len(b) - 1, w, p)


def _divrem_packed(p: int, inv_lc: int, a, b) -> tuple[list[int], list[int]]:
    db = len(b) - 1
    steps = len(a) - db
    w = _lane_bytes((p - 1) + min(steps, len(b)) * (p - 1) ** 2)
    bits, mask = 8 * w, (1 << 8 * w) - 1
    rem = _pack(a, w)
    packed_b = _pack(b, w)
    clear = {}                    # f -> (p - f) * packed_b, made on first use
    quot = [0] * steps
    for k in range(len(a) - 1, db - 1, -1):
        c = (rem >> (bits * k) & mask) % p
        if c:
            f = c * inv_lc % p
            quot[k - db] = f
            t = clear.get(f)
            if t is None:
                t = clear[f] = (p - f) * packed_b
            rem += t << (bits * (k - db))
    return quot, _unpack(rem & ((1 << (bits * db)) - 1), db, w, p)


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
