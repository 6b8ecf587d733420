"""The paper's theory objects, kept beside the tests that check them.

The runtime builds codes from the CRT idempotents alone; the objects here
are the paper's route to them, used as independent reference:

* BigQuotientElement -- xi0 + v*xi1 over GF(q)[x]/((x^n - delta)^2) with
                        v^2 = alpha^(-1) * (x^n - delta).
* psi_map / psi_inverse -- the coefficient-matrix isomorphism between the
                        big quotient and the ambient with lam = delta +
                        alpha*u^2 (it fixes x^i for i < n and sends v to u).
* LocalRing / LocalElement -- a + v*b over GF(q)[x]/(f^2) with v^2 =
                        omega * f for an irreducible f and a unit omega.
* dual_decomposition -- the decomposition of the inverse-unit ambient.
"""

from __future__ import annotations

from u4codes import AmbientElement, NotAUnitError, compute_decomposition, lam_of, poly


def dual_decomposition(d):
    """The decomposition of R[x]/(x^n - lam^(-1)), in its canonical order."""
    delta2, _, alpha2, _ = d.lam.inv().cs
    return compute_decomposition(d.gf, d.n, delta2, alpha2)


# -- the big quotient and psi ----------------------------------------------------


class BigQuotientElement:
    """xi0 + v*xi1 with xi_i in GF(q)[x]/((x^n - delta)^2), v^2 = alpha^(-1)(x^n - delta)."""

    def __init__(self, gf, n: int, delta: int, alpha: int, xi0, xi1=poly.ZERO):
        self.gf, self.n, self.delta, self.alpha = gf, n, delta, alpha
        modsq = _xn_minus_delta_sq(gf, n, delta)
        self.xi0 = poly.rem(gf, poly.normalize(xi0), modsq)
        self.xi1 = poly.rem(gf, poly.normalize(xi1), modsq)

    @classmethod
    def v(cls, gf, n: int, delta: int, alpha: int) -> "BigQuotientElement":
        return cls(gf, n, delta, alpha, poly.ZERO, poly.ONE)

    def _like(self, xi0, xi1) -> "BigQuotientElement":
        return BigQuotientElement(self.gf, self.n, self.delta, self.alpha, xi0, xi1)

    def __add__(self, other: "BigQuotientElement") -> "BigQuotientElement":
        gf = self.gf
        return self._like(poly.add(gf, self.xi0, other.xi0),
                          poly.add(gf, self.xi1, other.xi1))

    def __mul__(self, other: "BigQuotientElement") -> "BigQuotientElement":
        gf = self.gf
        vsq = poly.scale(gf, poly.xn_minus_c(gf, self.n, self.delta),
                         gf.inv(self.alpha))
        lo = poly.add(gf, poly.mul(gf, self.xi0, other.xi0),
                      poly.mul(gf, vsq, poly.mul(gf, self.xi1, other.xi1)))
        hi = poly.add(gf, poly.mul(gf, self.xi0, other.xi1),
                      poly.mul(gf, self.xi1, other.xi0))
        return self._like(lo, hi)

    def __eq__(self, other) -> bool:
        return ((self.gf, self.n, self.delta, self.alpha, self.xi0, self.xi1)
                == (other.gf, other.n, other.delta, other.alpha, other.xi0, other.xi1))


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
    sum_k u^k * a_k(x).
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
    shift = poly.scale(gf, poly.xn_minus_c(gf, n, d), gf.inv(alpha))
    xi0 = poly.add(gf, comps[0], poly.mul(gf, shift, comps[2]))
    xi1 = poly.add(gf, comps[1], poly.mul(gf, shift, comps[3]))
    return BigQuotientElement(gf, n, d, alpha, xi0, xi1)


# -- the local rings K_j + v K_j --------------------------------------------------


class LocalRing:
    """K + v*K where K = GF(q)[x]/(f^2), f irreducible, v^2 = omega*f.

    omega must be a unit of K; its inverse is derived here.  v has
    nilpotency index exactly 4 and the ideals of the ring form the chain
    generated by the powers of v.
    """

    def __init__(self, gf, f, omega):
        self.gf = gf
        self.f = poly.normalize(f)
        self.d = len(self.f) - 1
        self.fsq = poly.mul(gf, self.f, self.f)
        self.omega = poly.rem(gf, poly.normalize(omega), self.fsq)
        g, s, _ = poly.ext_gcd(gf, self.omega, self.fsq)
        if g != poly.ONE:
            raise NotAUnitError("omega is not a unit of GF(q)[x]/(f^2)")
        self.omega_inv = poly.rem(gf, s, self.fsq)

    def element(self, a, b=poly.ZERO) -> "LocalElement":
        return LocalElement(self, a, b)

    def v(self) -> "LocalElement":
        return LocalElement(self, poly.ZERO, poly.ONE)


class LocalElement:
    """a(x) + v*b(x) with both coordinates kept reduced mod f^2."""

    def __init__(self, ring: LocalRing, a, b=poly.ZERO):
        self.ring = ring
        self.a = poly.rem(ring.gf, poly.normalize(a), ring.fsq)
        self.b = poly.rem(ring.gf, poly.normalize(b), ring.fsq)

    def __add__(self, other: "LocalElement") -> "LocalElement":
        gf = self.ring.gf
        return LocalElement(self.ring, poly.add(gf, self.a, other.a),
                            poly.add(gf, self.b, other.b))

    def __mul__(self, other: "LocalElement") -> "LocalElement":
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
        return self.ring is other.ring and self.a == other.a and self.b == other.b


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
