"""The chain ring R = GF(q)[u]/(u^4) and the quotient rings built on it.

Four element types live here:

* RingElement      -- c0 + c1*u + c2*u^2 + c3*u^3, with u^4 = 0.
* AmbientElement   -- an element of R[x]/(x^n - lam) for a unit lam of R,
                      stored flat in the oracle's layout (see the class);
                      the defining unit is carried on every value and any
                      operation mixing two ambients is a hard error.
* BigQuotientElement -- xi0 + v*xi1 over GF(q)[x]/((x^n - delta)^2) with
                      v^2 = alpha^(-1) * (x^n - delta).
* LocalElement     -- a + v*b over GF(q)[x]/(f^2) with v^2 = omega * f for
                      an irreducible f and a unit omega.

psi_map / psi_inverse realize the coefficient-matrix isomorphism between
the big quotient and the ambient with lam = delta + alpha*u^2 (it fixes
x^i for i < n and sends v to u).  ambient_reciprocal is the substitution
x -> x^(-1), an isomorphism onto the ambient with the inverse unit.

Coordinates are validated only where values enter (the constructors and
ambient_from_json), never on results of arithmetic.

All values are immutable; operations are pure functions.
"""

from __future__ import annotations

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
        self._check_same(other)
        return RingElement._of(self.gf, map(self.gf.sub, self.cs, other.cs))

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
    gf = r.gf
    terms = []
    for k in (3, 2, 1, 0):
        c = r.cs[k]
        if c == 0:
            continue
        cstr = gf.element_str(c, poly_basis=poly_basis)
        if " + " in cstr:
            cstr = f"({cstr})"
        if k == 0:
            terms.append(cstr)
        else:
            uk = "u" if k == 1 else f"u^{k}"
            terms.append(uk if c == 1 else f"{cstr}*{uk}")
    return " + ".join(terms) if terms else "0"


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
        coeffs = [(0, 0, 0, 0)] * n
        r = RingElement.one(gf)
        while k >= n:
            r = r * lam
            k -= n
        coeffs[k] = r
        return cls(gf, n, lam, coeffs)

    @classmethod
    def from_polys(cls, gf, n: int, lam: RingElement, a0, a1=poly.ZERO,
                   a2=poly.ZERO, a3=poly.ZERO) -> "AmbientElement":
        """a0(x) + u*a1(x) + u^2*a2(x) + u^3*a3(x), each a_k of degree < n."""
        parts = (a0, a1, a2, a3)
        for a in parts:
            if len(a) > n:
                raise ValueError("component degree must be below n")
        return cls(gf, n, lam, [[a[i] if i < len(a) else 0 for a in parts]
                                for i in range(n)])

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
        self._require_same(other)
        return self._with(map(self.gf.sub, self.flat, other.flat))

    def __neg__(self) -> "AmbientElement":
        return self._with(map(self.gf.neg, self.flat))

    def __mul__(self, other: "AmbientElement") -> "AmbientElement":
        self._require_same(other)
        gf, n, fadd = self.gf, self.n, self.gf.add
        out = [0] * (4 * n)
        for i in range(n):
            acs = self.coeff(i)
            if acs == (0, 0, 0, 0):
                continue
            for j in range(n):
                bcs = other.coeff(j)
                if bcs == (0, 0, 0, 0):
                    continue
                prod = conv4(gf, acs, bcs)
                k = i + j
                if k >= n:   # x^n = lam
                    prod = conv4(gf, prod, self.lam.cs)
                    k -= n
                out[4 * k:4 * k + 4] = map(fadd, out[4 * k:4 * k + 4], prod)
        return self._with(out)

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
        return {"n": self.n, "lambda": self.lam.to_json(),
                "coeffs": [list(self.coeff(i)) for i in range(self.n)]}


def ambient_from_json(gf, obj) -> AmbientElement:
    lam = RingElement(gf, [int(c) for c in obj["lambda"]])
    coeffs = [[int(c) for c in cs] for cs in obj["coeffs"]]
    return AmbientElement(gf, int(obj["n"]), lam, coeffs)


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
    """
    gf, n, lam_cs = a.gf, a.n, a.lam.cs
    flat = list(a.coeff(0))
    for i in range(n - 1, 0, -1):
        flat.extend(conv4(gf, a.coeff(i), lam_cs))
    return a._with(flat, a.lam.inv())


class BigQuotientElement:
    """xi0 + v*xi1 with xi_i in GF(q)[x]/((x^n - delta)^2), v^2 = alpha^(-1)(x^n - delta)."""

    __slots__ = ("gf", "n", "delta", "alpha", "xi0", "xi1")

    def __init__(self, gf, n: int, delta: int, alpha: int, xi0, xi1=poly.ZERO):
        gf.check(delta)
        gf.check(alpha)
        if delta == 0 or alpha == 0:
            raise ValueError("delta and alpha must be units of the field")
        self.gf = gf
        self.n = n
        self.delta = delta
        self.alpha = alpha
        modsq = _xn_minus_delta_sq(gf, n, delta)
        self.xi0 = poly.rem(gf, poly.normalize(xi0), modsq)
        self.xi1 = poly.rem(gf, poly.normalize(xi1), modsq)

    @classmethod
    def v(cls, gf, n: int, delta: int, alpha: int) -> "BigQuotientElement":
        return cls(gf, n, delta, alpha, poly.ZERO, poly.ONE)

    def _require_same(self, other) -> None:
        if (self.gf, self.n, self.delta, self.alpha) != (
                other.gf, other.n, other.delta, other.alpha):
            raise AmbientMismatchError("mixing elements of different big quotients")

    def __add__(self, other: "BigQuotientElement") -> "BigQuotientElement":
        self._require_same(other)
        return BigQuotientElement(self.gf, self.n, self.delta, self.alpha,
                                  poly.add(self.gf, self.xi0, other.xi0),
                                  poly.add(self.gf, self.xi1, other.xi1))

    def __mul__(self, other: "BigQuotientElement") -> "BigQuotientElement":
        self._require_same(other)
        gf = self.gf
        vsq = poly.scale(gf, poly.xn_minus_c(gf, self.n, self.delta),
                         gf.inv(self.alpha))
        lo = poly.add(gf, poly.mul(gf, self.xi0, other.xi0),
                      poly.mul(gf, vsq, poly.mul(gf, self.xi1, other.xi1)))
        hi = poly.add(gf, poly.mul(gf, self.xi0, other.xi1),
                      poly.mul(gf, self.xi1, other.xi0))
        return BigQuotientElement(gf, self.n, self.delta, self.alpha, lo, hi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigQuotientElement):
            return NotImplemented
        self._require_same(other)
        return self.xi0 == other.xi0 and self.xi1 == other.xi1

    def __hash__(self) -> int:
        return hash((self.n, self.delta, self.alpha, self.xi0, self.xi1))

    def __repr__(self) -> str:
        return f"BigQuotientElement(xi0={self.xi0}, xi1={self.xi1})"


def _xn_minus_delta_sq(gf, n: int, delta: int) -> tuple[int, ...]:
    # (x^n - delta)^2 = x^(2n) - 2*delta*x^n + delta^2
    out = [0] * (2 * n + 1)
    out[0] = gf.mul(delta, delta)
    out[n] = gf.neg(gf.add(delta, delta))
    out[2 * n] = 1
    return tuple(out)


def psi_map(b: BigQuotientElement) -> AmbientElement:
    """The isomorphism onto R[x]/(x^n - (delta + alpha*u^2)).

    Writes xi0 = a0 + alpha^(-1)(x^n - delta)*a2 and xi1 = a1 +
    alpha^(-1)(x^n - delta)*a3 with deg(a_k) < n, and maps to
    sum_k u^k * a_k(x).  It fixes x^i for i < n and sends v to u.
    """
    gf, n = b.gf, b.n
    xnd = poly.xn_minus_c(gf, n, b.delta)
    q0, a0 = poly.divrem(gf, b.xi0, xnd)
    q1, a1 = poly.divrem(gf, b.xi1, xnd)
    a2 = poly.scale(gf, q0, b.alpha)
    a3 = poly.scale(gf, q1, b.alpha)
    lam = lam_of(gf, b.delta, b.alpha)
    return AmbientElement.from_polys(gf, n, lam, a0, a1, a2, a3)


def psi_inverse(a: AmbientElement) -> BigQuotientElement:
    """Inverse of psi_map; requires lam of the form delta + alpha*u^2."""
    gf, n = a.gf, a.n
    d, c1, alpha, c3 = a.lam.cs
    if c1 != 0 or c3 != 0 or alpha == 0:
        raise ValueError("ambient unit is not of the form delta + alpha*u^2")
    comps = [poly.normalize(a.flat[k::4]) for k in range(4)]
    xnd = poly.xn_minus_c(gf, n, d)
    ai = gf.inv(alpha)
    shift = poly.scale(gf, xnd, ai)
    xi0 = poly.add(gf, comps[0], poly.mul(gf, shift, comps[2]))
    xi1 = poly.add(gf, comps[1], poly.mul(gf, shift, comps[3]))
    return BigQuotientElement(gf, n, d, alpha, xi0, xi1)


class LocalRing:
    """K + v*K where K = GF(q)[x]/(f^2), f irreducible, v^2 = omega*f.

    omega must be a unit of K; its inverse is derived here so the ring is
    self-contained.  v has nilpotency index exactly 4 and the ideals of
    the ring form the chain generated by the powers of v.
    """

    __slots__ = ("gf", "f", "d", "fsq", "omega", "omega_inv")

    def __init__(self, gf, f, omega):
        self.gf = gf
        self.f = poly.normalize(f)
        self.d = len(self.f) - 1
        self.fsq = poly.mul(gf, self.f, self.f)
        self.omega = poly.rem(gf, poly.normalize(omega), self.fsq)
        if len(poly.rem(gf, self.omega, self.f)) == 0:
            raise NotAUnitError("omega is not a unit of GF(q)[x]/(f^2)")
        g, s, _ = poly.ext_gcd(gf, self.omega, self.fsq)
        if g != poly.ONE:
            raise NotAUnitError("omega is not a unit of GF(q)[x]/(f^2)")
        self.omega_inv = poly.rem(gf, s, self.fsq)

    def element(self, a, b=poly.ZERO) -> "LocalElement":
        return LocalElement(self, a, b)

    def v(self) -> "LocalElement":
        return LocalElement(self, poly.ZERO, poly.ONE)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalRing):
            return NotImplemented
        return (self.gf, self.f, self.omega) == (other.gf, other.f, other.omega)

    def __hash__(self) -> int:
        return hash((self.f, self.omega))


class LocalElement:
    """a(x) + v*b(x) with both coordinates kept reduced mod f^2."""

    __slots__ = ("ring", "a", "b")

    def __init__(self, ring: LocalRing, a, b=poly.ZERO):
        gf = ring.gf
        self.ring = ring
        self.a = poly.rem(gf, poly.normalize(a), ring.fsq)
        self.b = poly.rem(gf, poly.normalize(b), ring.fsq)

    def _require_same(self, other) -> None:
        if self.ring != other.ring:
            raise AmbientMismatchError("mixing elements of different local rings")

    def __add__(self, other: "LocalElement") -> "LocalElement":
        self._require_same(other)
        gf = self.ring.gf
        return LocalElement(self.ring, poly.add(gf, self.a, other.a),
                            poly.add(gf, self.b, other.b))

    def __mul__(self, other: "LocalElement") -> "LocalElement":
        self._require_same(other)
        gf = self.ring.gf
        vsq = poly.mul(gf, self.ring.omega, self.ring.f)
        lo = poly.add(gf, poly.mul(gf, self.a, other.a),
                      poly.mul(gf, vsq, poly.mul(gf, self.b, other.b)))
        hi = poly.add(gf, poly.mul(gf, self.a, other.b),
                      poly.mul(gf, self.b, other.a))
        return LocalElement(self.ring, lo, hi)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_unit(self) -> bool:
        return local_v_expansion(self)[0] != poly.ZERO

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalElement):
            return NotImplemented
        self._require_same(other)
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.ring.f, self.a, self.b))

    def __repr__(self) -> str:
        return f"LocalElement(a={self.a}, b={self.b})"


def local_v_expansion(e: LocalElement):
    """Unique (t0, t1, t2, t3), each of degree < deg(f), with
    e = t0 + v*t1 + v^2*t2 + v^3*t3.

    Obtained from the f-adic expansion of each coordinate and the relation
    f = v^2 * omega^(-1); e is a unit exactly when t0 is nonzero.
    """
    ring = e.ring
    gf = ring.gf
    out = []
    for xi in (e.a, e.b):
        b1, b0 = poly.divrem(gf, xi, ring.f)
        h = poly.rem(gf, poly.mul(gf, ring.omega_inv, b1), ring.f)
        out.append((b0, h))
    (t0, t2), (t1, t3) = out
    return t0, t1, t2, t3
