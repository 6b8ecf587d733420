"""CRT data for R[x]/(x^n - (delta + alpha*u^2)).

For each monic irreducible factor f_j of x^n - delta this computes:

* the cofactor F_j = (x^n - delta)/f_j and a Bezout pair (g_j, h_j) with
  g_j*F_j^2 + h_j*f_j^2 = 1, so h_j = (1 - eps_j)/f_j^2 exactly;
* the primitive idempotent eps_j = g_j*F_j^2 mod (x^n - delta)^2, its
  split eps_j = e0_j + alpha^(-1)(x^n - delta)*e1_j with components of
  degree < n, and the ambient idempotent e_j = e0_j + u^2*e1_j;
* the unit omega_j = alpha^(-1)*F_j mod f_j^2 (with inverse
  alpha*g_j*F_j), which turns GF(q)[x]/(f_j^2) + v*... into a local chain
  ring with v^2 = omega_j*f_j.

On top of the per-factor data sits the reciprocal permutation tau: the
substitution x -> x^(-1) maps e_j onto the primitive idempotent of the
ambient defined by the inverse unit at the monic reciprocal f_j* of f_j,
so tau is read off the factor list alone.  When delta is its own inverse
both ambients share one factorization, tau is an involution on {0..r-1},
and the counts rho (fixed indices) and eps_pairs (swapped pairs) are read
off it; canonical_rearrange then reorders factors into the fixed / pair
representative / pair partner block layout used for self-dual
enumeration.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import poly
from .chainring import AmbientElement, RingElement, lam_of
from .errors import InternalError
from .factor import DEFAULT_SEED, factor_xn_minus_delta
from .field import GF


class FactorData(NamedTuple):
    """Everything attached to one irreducible factor f of x^n - delta."""

    f: tuple[int, ...]
    degree: int
    cofactor: tuple[int, ...]
    g: tuple[int, ...]
    h: tuple[int, ...]
    idempotent: tuple[int, ...]   # representative of degree < 2n
    e0: tuple[int, ...]
    e1: tuple[int, ...]
    e: AmbientElement
    omega: tuple[int, ...]
    omega_inv: tuple[int, ...]


class Decomposition:
    """The CRT data of one ambient: its factors in order and tau.

    A plain class, so that cached_property can store on it; the package
    avoids dataclasses, whose import of inspect, ast and dis costs about
    1 MB resident per process.
    """

    def __init__(self, *, gf: GF, n: int, delta: int, alpha: int,
                 factors: tuple[FactorData, ...], tau: tuple[int, ...],
                 canonical: bool = False):
        self.gf, self.n, self.delta, self.alpha = gf, n, delta, alpha
        self.factors, self.tau, self.canonical = factors, tau, canonical

    def _values(self) -> tuple:
        return (self.gf, self.n, self.delta, self.alpha, self.factors, self.tau, self.canonical)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Decomposition):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    @property
    def r(self) -> int:
        return len(self.factors)

    @property
    def lam(self) -> RingElement:
        return lam_of(self.gf, self.delta, self.alpha)

    @property
    def rho(self) -> int | None:
        """Indices tau fixes; None unless delta is its own inverse."""
        if self.delta == self.gf.inv(self.delta):
            return sum(1 for j, k in enumerate(self.tau) if j == k)
        return None

    @property
    def eps_pairs(self) -> int | None:
        """Index pairs tau swaps; None unless delta is its own inverse."""
        rho = self.rho
        return None if rho is None else (self.r - rho) // 2

    @cached_property
    def _packed_columns(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Over a prime field: lane bytes w and, for each factor, e0_j and e1_j
        (the u^0 and u^2 strides of e_j) packed as lanes of w bytes, wide
        enough for a sum over all r factors.  Built on first use, not in
        set-up; codes._shift_sum adds them.
        """
        w = poly._lane_bytes(self.r * (self.gf.p - 1))
        return w, tuple((poly._pack(fd.e0, w), poly._pack(fd.e1, w)) for fd in self.factors)


def _factor_data(gf, n: int, delta: int, alpha: int, factors) -> tuple[FactorData, ...]:
    xnd = poly.xn_minus_c(gf, n, delta)
    ambient = AmbientElement.zero(gf, n, lam_of(gf, delta, alpha))
    alpha_inv = gf.inv(alpha)
    out = []
    for f in factors:
        cof = poly.quo(gf, xnd, f)
        fsq = poly.mul(gf, f, f)
        cofsq = poly.mul(gf, cof, cof)
        g1, g = poly.ext_gcd(gf, cofsq, fsq)
        if g1 != poly.ONE:
            raise InternalError("cofactor^2 and f^2 are not coprime")
        # Euclid keeps deg g < deg f^2, so deg(g*F^2) < 2n: already reduced
        # mod (x^n - delta)^2; and g*F^2 = 1 mod f^2, so f^2 divides 1 - eps
        eps = poly.mul(gf, g, cofsq)
        h = poly.quo(gf, poly.sub(gf, poly.ONE, eps), fsq)
        q_, e0 = poly.divrem(gf, eps, xnd)
        e1 = poly.scale(gf, q_, alpha)
        flat = [0] * (4 * n)      # e0 and e1 are field elements of degree < n
        flat[0:4 * len(e0):4] = e0
        flat[2:4 * len(e1):4] = e1
        e = ambient._with(flat)
        omega = poly.rem(gf, poly.scale(gf, cof, alpha_inv), fsq)
        omega_inv = poly.rem(gf, poly.scale(gf, poly.mul(gf, g, cof), alpha), fsq)
        out.append(FactorData(f=f, degree=len(f) - 1, cofactor=cof, g=g, h=h,
                              idempotent=eps, e0=e0, e1=e1, e=e,
                              omega=omega, omega_inv=omega_inv))
    return tuple(out)


def compute_tau(gf, delta: int, factors) -> tuple[int, ...]:
    """The index of the monic reciprocal f_j* of each factor f_j (0-based).

    When delta is its own inverse the two ambients share the factor list,
    in the given order, and the permutation is an involution; otherwise it
    maps indices to canonical indices of the inverse-unit decomposition.
    """
    recips = [poly.monic(gf, tuple(reversed(fd.f))) for fd in factors]
    if delta == gf.inv(delta):
        target = [fd.f for fd in factors]
    else:
        target = sorted(recips, key=poly.canonical_key)
    where = {f: k for k, f in enumerate(target)}
    tau = tuple(where.get(f, -1) for f in recips)
    if sorted(tau) != list(range(len(factors))):
        raise InternalError("the reciprocal factors do not permute the factor list")
    return tau


def compute_decomposition(gf, n: int, delta: int, alpha: int,
                          seed: int = DEFAULT_SEED) -> Decomposition:
    """Factor x^n - delta and assemble all CRT data for (delta, alpha)."""
    gf.check(alpha)
    if alpha == 0:
        raise ValueError(f"alpha must be a nonzero element of GF({gf.q})")
    factors = _factor_data(gf, n, delta, alpha,
                           factor_xn_minus_delta(gf, n, delta, seed=seed))
    return Decomposition(gf=gf, n=n, delta=delta, alpha=alpha, factors=factors,
                         tau=compute_tau(gf, delta, factors))


def canonical_rearrange(d: Decomposition) -> Decomposition:
    """Reorder factors into blocks: tau-fixed, pair representatives, partners.

    Fixed indices come first (canonical factor order), then one canonical
    representative per swapped pair, then the partners (their reciprocals)
    in matching order, so tau pairs index rho + i with rho + eps_pairs + i.
    Only defined when delta is its own inverse (tau an involution).
    """
    if d.rho is None:
        raise ValueError(
            "canonical rearrangement requires delta == delta^(-1) so that the "
            "reciprocal permutation acts on a single factor list")

    def key(j):
        return poly.canonical_key(d.factors[j].f)
    fixed = sorted((j for j in range(d.r) if d.tau[j] == j), key=key)
    reps = sorted((min(j, d.tau[j], key=key) for j in range(d.r) if j < d.tau[j]), key=key)
    factors = tuple(d.factors[j] for j in fixed + reps + [d.tau[j] for j in reps])
    return Decomposition(gf=d.gf, n=d.n, delta=d.delta, alpha=d.alpha, factors=factors,
                         tau=compute_tau(d.gf, d.delta, factors), canonical=True)


# -- JSON ------------------------------------------------------------------


def to_json(d: Decomposition) -> dict:
    return {
        "field": {"p": d.gf.p, "m": d.gf.m, "modulus": list(d.gf.modulus)},
        "n": d.n,
        "delta": d.delta,
        "alpha": d.alpha,
        "lambda": d.lam.to_json(),
        "factors": [
            {
                "f": poly.to_json(fd.f),
                "degree": fd.degree,
                "cofactor": poly.to_json(fd.cofactor),
                "g": poly.to_json(fd.g),
                "h": poly.to_json(fd.h),
                "idempotent": poly.to_json(fd.idempotent),
                "e0": poly.to_json(fd.e0),
                "e1": poly.to_json(fd.e1),
                "e": fd.e.to_json(),
                "omega": poly.to_json(fd.omega),
                "omega_inv": poly.to_json(fd.omega_inv),
            }
            for fd in d.factors
        ],
        "tau": list(d.tau),
        "rho": d.rho,
        "eps_pairs": d.eps_pairs,
        "canonical": d.canonical,
    }


def from_json(obj) -> Decomposition:
    """Load a dump of to_json by recomputing it from its field, n, delta and alpha.

    The dump must equal to_json of the recomputation (rearranged when it
    says canonical), which checks every derived value it carries at once;
    its shape (a non-empty factor list, n coefficients per idempotent) is
    checked first, bounding the work by its size.  Factor order is seed-free.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a decomposition dump is a JSON object, not {type(obj).__name__}")
    missing = [k for k in ("n", "field", "delta", "alpha") if k not in obj]
    if missing:
        raise ValueError(f"the dump lacks {', '.join(missing)}")
    n, factors = int(obj["n"]), obj.get("factors")
    try:
        shaped = isinstance(factors, list) and {len(fo["e"]["coeffs"]) for fo in factors} == {n}
    except (KeyError, TypeError):
        shaped = False
    if not shaped:
        raise ValueError(f"the dump does not list idempotents of n = {n} coefficients")
    fld = obj["field"]
    gf = GF(int(fld["p"]), int(fld["m"]), tuple(fld["modulus"]))
    d = compute_decomposition(gf, n, int(obj["delta"]), int(obj["alpha"]))
    if obj.get("canonical"):
        d = canonical_rearrange(d)
    if to_json(d) != obj:
        raise ValueError("the decomposition differs from the one its field, n, delta "
                         "and alpha determine")
    return d
