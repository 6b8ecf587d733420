"""The chain ring R = GF(q)[u]/(u^4) and the constacyclic ambients over it.

Two element types live here:

* RingElement      -- c0 + c1*u + c2*u^2 + c3*u^3, with u^4 = 0.
* AmbientElement   -- an element of R[x]/(x^n - lam) for a unit lam of R,
                      stored flat in the oracle's layout (see the class);
                      the defining unit is carried on every value and any
                      operation mixing two ambients is a hard error.

ambient_reciprocal is the substitution x -> x^(-1), an isomorphism onto
the ambient with the inverse unit.

Coordinates are validated only where values enter (the constructors),
never on results of arithmetic.

All values are immutable; operations are pure functions.
"""

from __future__ import annotations

from itertools import repeat

from . import poly
from .errors import AmbientMismatchError, NotAUnitError


class RingElement:
    """An element of R = GF(q)[u]/(u^4), stored as four field coordinates."""

    __slots__ = ("gf", "cs")

    def __init__(self, gf, cs):
        self.gf = gf
        self.cs = _checked(gf, cs)

    @classmethod
    def _of(cls, gf, cs) -> "RingElement":
        """An element from four coordinates already known to be valid."""
        r = object.__new__(cls)
        r.gf, r.cs = gf, tuple(cs)
        return r

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, gf) -> "RingElement":
        return cls(gf, (0, 0, 0, 0))

    @classmethod
    def one(cls, gf) -> "RingElement":
        return cls(gf, (1, 0, 0, 0))

    @classmethod
    def u_pow(cls, gf, k: int) -> "RingElement":
        """u^k; zero for k >= 4."""
        if k < 0:
            raise ValueError("negative power of u")
        cs = [0, 0, 0, 0]
        if k < 4:
            cs[k] = 1
        return cls(gf, cs)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.cs == (0, 0, 0, 0)

    def is_unit(self) -> bool:
        return self.cs[0] != 0

    # -- arithmetic ----------------------------------------------------------

    def _check_same(self, other) -> None:
        if self.gf != other.gf:
            raise AmbientMismatchError("ring elements over different fields")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check_same(other)
        return RingElement._of(self.gf, map(self.gf.add, self.cs, other.cs))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + -other

    def __neg__(self) -> "RingElement":
        return RingElement._of(self.gf, map(self.gf.neg, self.cs))

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check_same(other)
        return RingElement._of(self.gf, conv4(self.gf, self.cs, other.cs))

    def inv(self) -> "RingElement":
        """Inverse of a unit; triangular solve against the u-filtration."""
        a = self.cs
        if a[0] == 0:
            raise NotAUnitError("constant coordinate is zero; not a unit of R")
        gf = self.gf
        b0 = gf.inv(a[0])
        b1 = gf.neg(gf.mul(gf.mul(a[1], b0), b0))
        b2 = gf.neg(gf.mul(gf.add(gf.mul(a[1], b1), gf.mul(a[2], b0)), b0))
        b3 = gf.neg(gf.mul(
            gf.add(gf.add(gf.mul(a[1], b2), gf.mul(a[2], b1)), gf.mul(a[3], b0)), b0))
        return RingElement._of(gf, (b0, b1, b2, b3))

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.gf == other.gf and self.cs == other.cs

    def __hash__(self) -> int:
        return hash(self.cs)

    def __str__(self) -> str:
        return ring_str(self)

    def __repr__(self) -> str:
        return f"RingElement({self.cs})"

    def to_json(self) -> list:
        return list(self.cs)


def _checked(gf, cs) -> tuple[int, int, int, int]:
    """The four coordinates of a ring element, each checked against gf."""
    cs = tuple(cs)
    if len(cs) != 4:
        raise ValueError("a ring element has exactly 4 coordinates")
    for c in cs:
        gf.check(c)
    return cs


def conv4(gf, a, b) -> tuple[int, int, int, int]:
    """Truncated convolution of two 4-coordinate vectors (u^4 = 0)."""
    fadd, fmul = gf.add, gf.mul
    c0 = fmul(a[0], b[0])
    c1 = fadd(fmul(a[0], b[1]), fmul(a[1], b[0]))
    c2 = fadd(fadd(fmul(a[0], b[2]), fmul(a[1], b[1])), fmul(a[2], b[0]))
    c3 = fadd(fadd(fmul(a[0], b[3]), fmul(a[1], b[2])),
              fadd(fmul(a[2], b[1]), fmul(a[3], b[0])))
    return (c0, c1, c2, c3)


def ring_str(r: RingElement, poly_basis: bool = False) -> str:
    """Terms c*u^k in descending order, e.g. "u^2 + 1"."""
    return poly.to_str(r.gf, poly.normalize(r.cs), var="u", poly_basis=poly_basis)


def lam_of(gf, delta: int, alpha: int) -> RingElement:
    """The unit delta + alpha*u^2."""
    return RingElement(gf, (delta, 0, alpha, 0))


class AmbientElement:
    """An element of R[x]/(x^n - lam) as a flat tuple of 4n field ints:
    flat[4i .. 4i+3] are the u^0 .. u^3 coordinates of the x^i coefficient,
    the layout the oracle spans."""

    __slots__ = ("gf", "n", "lam", "flat")

    def __init__(self, gf, n: int, lam: RingElement, coeffs):
        """n coefficients, each a RingElement or four field ints; validated."""
        coeffs = [_checked(gf, c.cs if isinstance(c, RingElement) else c) for c in coeffs]
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(coeffs)}")
        if not lam.is_unit():
            raise ValueError("the defining constant of the ambient must be a unit")
        self.gf, self.n, self.lam = gf, n, lam
        self.flat = tuple(c for cs in coeffs for c in cs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, gf, n: int, lam: RingElement) -> "AmbientElement":
        return cls(gf, n, lam, [(0, 0, 0, 0)] * n)

    @classmethod
    def one(cls, gf, n: int, lam: RingElement) -> "AmbientElement":
        return cls.from_ring_scalar(gf, n, lam, RingElement.one(gf))

    @classmethod
    def from_ring_scalar(cls, gf, n: int, lam: RingElement, r: RingElement) -> "AmbientElement":
        return cls(gf, n, lam, [r] + [(0, 0, 0, 0)] * (n - 1))

    @classmethod
    def x_pow(cls, gf, n: int, lam: RingElement, k: int) -> "AmbientElement":
        r = cls.one(gf, n, lam)
        for _ in range(k):
            r = r.times_x()
        return r

    # -- ambient discipline -------------------------------------------------

    def same_ambient(self, other: "AmbientElement") -> bool:
        return (self.gf == other.gf and self.n == other.n
                and self.lam.cs == other.lam.cs)

    def _require_same(self, other: "AmbientElement") -> None:
        if not isinstance(other, AmbientElement):
            raise TypeError("expected an AmbientElement")
        if not self.same_ambient(other):
            raise AmbientMismatchError(
                f"mixing R[x]/(x^{self.n} - ({self.lam})) with "
                f"R[x]/(x^{other.n} - ({other.lam}))")

    def _with(self, flat, lam=None) -> "AmbientElement":
        """A flat vector known to be valid, in this ambient or in lam's."""
        a = object.__new__(AmbientElement)
        a.gf, a.n, a.lam, a.flat = self.gf, self.n, lam or self.lam, tuple(flat)
        return a

    def coeff(self, i: int) -> tuple[int, int, int, int]:
        """The four u-coordinates of the coefficient of x^i."""
        return self.flat[4 * i:4 * i + 4]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "AmbientElement") -> "AmbientElement":
        self._require_same(other)
        return self._with(map(self.gf.add, self.flat, other.flat))

    def __sub__(self, other: "AmbientElement") -> "AmbientElement":
        return self + -other

    def __neg__(self) -> "AmbientElement":
        return self._with(map(self.gf.neg, self.flat))

    def __mul__(self, other: "AmbientElement") -> "AmbientElement":
        """sum_i a_i * (x^i * b); times_x carries the twist x^n = lam."""
        self._require_same(other)
        out = self._with([0] * (4 * self.n))
        term = other
        for i in range(self.n):
            out = out + term.scale(RingElement._of(self.gf, self.coeff(i)))
            term = term.times_x()
        return out

    def scale(self, r: RingElement) -> "AmbientElement":
        if r.gf != self.gf:
            raise AmbientMismatchError("scaling by a ring element over another field")
        gf, cs = self.gf, r.cs
        return self._with(c for i in range(self.n) for c in conv4(gf, self.coeff(i), cs))

    def times_x(self) -> "AmbientElement":
        """Multiply by x: the lam-twisted cyclic shift of the coefficients."""
        return self._with(conv4(self.gf, self.flat[-4:], self.lam.cs) + self.flat[:-4])

    def is_zero(self) -> bool:
        return not any(self.flat)

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, AmbientElement):
            return NotImplemented
        if not self.same_ambient(other):
            raise AmbientMismatchError(
                "equality across different ambient rings is not defined")
        return self.flat == other.flat

    def __hash__(self) -> int:
        return hash((self.n, self.lam.cs, self.flat))

    def __str__(self) -> str:
        return ambient_str(self)

    def __repr__(self) -> str:
        return f"AmbientElement(n={self.n}, lam={self.lam!r}, {ambient_str(self)})"

    def to_json(self) -> dict:
        it = iter(self.flat)
        return {"n": self.n, "lambda": self.lam.to_json(),
                "coeffs": [list(cs) for cs in zip(it, it, it, it)]}


def ambient_str(a: AmbientElement, poly_basis: bool = False) -> str:
    """Polynomial in x with parenthesized ring coefficients, descending."""
    terms = []
    for k in range(a.n - 1, -1, -1):
        cs = a.coeff(k)
        if cs == (0, 0, 0, 0):
            continue
        cstr = ring_str(RingElement._of(a.gf, cs), poly_basis=poly_basis)
        if k == 0:
            terms.append(cstr)
            continue
        xk = "x" if k == 1 else f"x^{k}"
        if cstr == "1":
            terms.append(xk)
        elif " + " in cstr:
            terms.append(f"({cstr})*{xk}")
        else:
            terms.append(f"{cstr}*{xk}")
    return " + ".join(terms) if terms else "0"


def ambient_reciprocal(a: AmbientElement) -> AmbientElement:
    """The substitution x -> x^(-1), landing in the inverse-unit ambient.

    In R[x]/(x^n - lam^(-1)) one has x^(-1) = lam * x^(n-1), hence
    x^(-i) = lam * x^(n-i) for 0 < i < n; constants are fixed.  This is a
    ring isomorphism between the two ambients (an automorphism when
    lam^(-1) = lam).

    In the flat layout, u-coordinate k of x^1 .. x^(n-1) is the stride
    flat[4 + k::4]; each stride of the result is the reversed strides of a
    convolved with lam's coordinates as in conv4, one strided map per
    nonzero coordinate of lam (none for a coordinate equal to one).
    """
    gf, n, lam_cs = a.gf, a.n, a.lam.cs
    rev = [a.flat[4 * n - 4 + k:3:-4] for k in range(4)]   # x^(n-1) .. x^1
    flat = list(a.flat)
    for k in range(4):
        acc = None
        for j in range(k + 1):
            c = lam_cs[j]
            if c:
                col = rev[k - j] if c == 1 else map(gf.mul, rev[k - j], repeat(c))
                acc = list(col) if acc is None else list(map(gf.add, acc, col))
        flat[4 + k::4] = acc or [0] * (n - 1)
    return a._with(flat, a.lam.inv())
