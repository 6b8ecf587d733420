"""Exact arithmetic in the finite field GF(p^m).

Elements are plain Python ints: the element with power-basis coordinates
(c_0, ..., c_{m-1}) over GF(p) is encoded as c_0 + c_1*p + ... +
c_{m-1}*p^(m-1).  The encoding is a bijection onto range(q), 0 encodes 0
and 1 encodes 1, and for m = 1 it is the identity.

Every field, whatever its size, is served by the same O(q) tables of a
primitive element g: exp[k] = g^k and log[g^k] = k.  Multiplication,
inversion, negation and powers add logarithms.  Addition depends on the
characteristic: for p = 2 the encoding is the bit vector of the
coordinates, so a + b is a XOR b; for odd p it uses Zech logarithms,
g^i + g^j = g^(i + zech[j - i]) with zech[k] = log(1 + g^k) (Lidl &
Niederreiter, Finite Fields).  Subtraction is addition of the negation.
The tables are O(q), so a field with q > MAX_Q = 2^20 is rejected up front.
"""

from __future__ import annotations

import operator

MAX_Q = 2 ** 20     # largest field order served; the tables are O(q)


def is_prime(p: int) -> bool:
    """Trial-division primality test; intended for desk-scale p."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def check_size(p: int, m: int) -> None:
    """Reject GF(p^m) with q > MAX_Q before any work, forming p^m only when cheap."""
    if m > 20 or p > MAX_Q or p ** m > MAX_Q:
        raise ValueError(f"GF({p}^{m}) is too large: q = p^m must be at most 2^20")


def _digits(value: int, p: int, m: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        out.append(value % p)
        value //= p
    return tuple(out)


class GF:
    """The field GF(p^m) = GF(p)[y]/(modulus), with int-encoded elements.

    The modulus is a monic irreducible polynomial of degree m over GF(p),
    given as coefficients in ascending order (constant term first).  When
    omitted it is generated deterministically: the monic irreducible of
    degree m whose coefficient vector has the smallest integer encoding.
    For m = 1 the modulus is the polynomial y and plays no role.

    The modulus need not be primitive (y has order 4 modulo y^2 + 1 over
    GF(3)), so g is the primitive element of least encoding.  `exp` holds
    g^k for 0 <= k < 2(q - 1), two periods, so a sum of two logarithms
    indexes it without reduction; `log[0]` is None.  For odd p, `zech` holds
    two periods too, with None where 1 + g^k = 0, so a difference of
    logarithms indexes it directly (a negative index counts from the end,
    which is the same residue mod q - 1).  `add` and `sub` are bound per
    instance: XOR for p = 2, else Zech addition (of the negation, for sub).
    """

    __slots__ = ("p", "m", "q", "modulus", "exp", "log", "zech", "add", "sub",
                 "_log_neg1")

    def __init__(self, p: int, m: int = 1, modulus: tuple[int, ...] | None = None):
        check_size(p, m)
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree m = {m} must be >= 1")
        self.p = p
        self.m = m
        self.q = p ** m
        if modulus is None:
            modulus = self._default_modulus(p, m)
        else:
            modulus = tuple(modulus)
            self._check_modulus(modulus)
        self.modulus = modulus

        powers = self._powers_of_primitive()
        self.exp = powers + powers
        self.log = [None] * self.q
        for k, a in enumerate(powers):
            self.log[a] = k
        self._log_neg1 = self.log[p - 1]          # -1 encodes as p - 1
        if p == 2:
            self.add = self.sub = operator.xor
        else:
            zech = [None] * (self.q - 1)
            for k, a in enumerate(powers):
                # 1 + a raises coordinate c_0 = a mod p by one, mod p
                one_plus = a + 1 if a % p != p - 1 else a - (p - 1)
                zech[k] = self.log[one_plus]
            self.zech = zech + zech
            self.add, self.sub = self._zech_add, self._zech_sub

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _default_modulus(p: int, m: int) -> tuple[int, ...]:
        if m == 1:
            return (0, 1)
        base = GF(p)
        from .factor import is_irreducible

        for t in range(p ** m):
            cand = _digits(t, p, m) + (1,)
            if is_irreducible(base, cand):
                return cand
        raise RuntimeError("no irreducible modulus found")  # pragma: no cover

    def _check_modulus(self, modulus: tuple[int, ...]) -> None:
        p, m = self.p, self.m
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if any(type(c) is not int or not 0 <= c < p for c in modulus):
            raise ValueError("modulus coefficients must be ints reduced mod p")
        if m > 1:
            from .factor import is_irreducible

            if not is_irreducible(GF(p), modulus):
                raise ValueError("modulus is reducible over GF(p)")

    def _powers_of_primitive(self) -> list[int]:
        """[g^0, ..., g^(q-2)] for the primitive element g of least encoding.

        Each candidate g steps its powers with a fixed map "times g": a * g
        mod p for m = 1, and otherwise _times, the GF(p)-linear map on the
        power-basis digits.
        """
        p, m, q = self.p, self.m, self.q
        for g in range(1, q):
            times_g = (lambda a, g=g: a * g % p) if m == 1 else self._times(g)
            powers = [1]
            a = g
            while a != 1:
                powers.append(a)
                a = times_g(a)
            if len(powers) == q - 1:
                return powers
        raise RuntimeError("no primitive element found")  # pragma: no cover

    def _times(self, g: int):
        """a -> a * g on encodings (m > 1), built from the m images g*y^i mod
        the modulus.  The low h = m // 2 digits of a and the rest each index a
        table of sums of images: for p = 2 the images are encodings and the
        sums XORs; for odd p they are digit vectors packed in lanes of w bytes,
        added without carries and unpacked mod p only for the result.
        """
        from . import poly

        p, m, modulus = self.p, self.m, self.modulus
        digits, images = list(_digits(g, p, m)), []
        for _ in range(m):
            images.append(digits)
            top = digits[-1]                 # y * digits, less top * modulus
            digits = [(c - top * mc) % p for c, mc in zip([0] + digits[:-1], modulus)]
        if p == 2:
            encode, add = self.from_coeffs, operator.xor
        else:
            w = poly._lane_bytes(m * (p - 1) ** 2)
            encode, add = (lambda v: poly._pack(v, w)), operator.add
        h, low = m // 2, p ** (m // 2)
        tables = []
        for part in (images[:h], images[h:]):
            t = [0]
            for v in part:
                e = encode(v)
                t = [add(s, c * e) for c in range(p) for s in t]
            tables.append(t)
        lo, hi = tables
        if p == 2:
            return lambda a: lo[a & low - 1] ^ hi[a >> h]
        weights = [p ** i for i in range(m)]
        return lambda a: sum(map(operator.mul, poly._unpack(lo[a % low] + hi[a // low], m, w, p),
                                 weights))

    # -- arithmetic (add and sub are bound in __init__) -------------------

    def _zech_add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        log = self.log
        i = log[a]
        z = self.zech[log[b] - i]
        return 0 if z is None else self.exp[i + z]

    def _zech_sub(self, a: int, b: int) -> int:
        return self._zech_add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return self.exp[self.log[a] + self._log_neg1] if a else 0

    def mul(self, a: int, b: int) -> int:
        if a and b:
            log = self.log
            return self.exp[log[a] + log[b]]
        return 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self.exp[self.q - 1 - self.log[a]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero field element")
            return 0 if e else 1
        return self.exp[self.log[a] * e % (self.q - 1)]

    # -- element helpers --------------------------------------------------

    def check(self, a: int) -> int:
        """Validate that a is an encoded element of this field."""
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} does not encode an element of {self}")
        return a

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Power-basis coordinates (c_0, ..., c_{m-1}) of an element."""
        return _digits(a, self.p, self.m)

    def from_coeffs(self, cs) -> int:
        out = 0
        mult = 1
        for c in cs:
            out += (int(c) % self.p) * mult
            mult *= self.p
        return out

    def element_str(self, a: int, poly_basis: bool = False, var: str = "y") -> str:
        """Render an element, either as its integer encoding or in the power basis."""
        if not poly_basis or self.m == 1:
            return str(a)
        from . import poly

        return poly.to_str(self, poly.normalize(self.coeffs(a)), var=var)

    # -- equality / display ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF):
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"
