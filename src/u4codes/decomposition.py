"""CRT data for R[x]/(x^n - (delta + alpha*u^2)).

For each monic irreducible factor f_j of x^n - delta this computes:

* the cofactor F_j = (x^n - delta)/f_j and a Bezout pair (g_j, h_j) with
  g_j*F_j^2 + h_j*f_j^2 = 1;
* the primitive idempotent eps_j = g_j*F_j^2 mod (x^n - delta)^2, its
  split eps_j = e0_j + alpha^(-1)(x^n - delta)*e1_j with components of
  degree < n, and the ambient idempotent e_j = e0_j + u^2*e1_j;
* the unit omega_j = alpha^(-1)*F_j mod f_j^2 (with inverse
  alpha*g_j*F_j), which turns GF(q)[x]/(f_j^2) + v*... into a local chain
  ring with v^2 = omega_j*f_j.

On top of the per-factor data sits the reciprocal permutation tau: the
substitution x -> x^(-1) maps e_j onto one primitive idempotent of the
ambient defined by the inverse unit, and matching images against that
idempotent set pairs the factor indices.  When delta is its own inverse
both ambients share one factorization, tau is an involution on {0..r-1},
and the counts rho (fixed indices) and eps_pairs (swapped pairs) are
defined; canonical_rearrange then reorders indices into the fixed / pair
representative / pair partner block layout used for self-dual
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import poly
from .chainring import (AmbientElement, RingElement, ambient_from_json,
                        ambient_reciprocal, lam_of)
from .errors import InternalError
from .factor import DEFAULT_SEED, Factorization, factor_xn_minus_delta
from .field import GF


@dataclass(frozen=True)
class FactorData:
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


@dataclass(frozen=True)
class Decomposition:
    gf: GF
    n: int
    delta: int
    alpha: int
    factorization: Factorization
    factors: tuple[FactorData, ...]
    tau: tuple[int, ...]
    rho: int | None
    eps_pairs: int | None
    canonical: bool = False

    @property
    def r(self) -> int:
        return len(self.factors)

    @property
    def lam(self) -> RingElement:
        return lam_of(self.gf, self.delta, self.alpha)

    def ambient_one(self) -> AmbientElement:
        return AmbientElement.one(self.gf, self.n, self.lam)

    def ambient_zero(self) -> AmbientElement:
        return AmbientElement.zero(self.gf, self.n, self.lam)


def dual_params(gf, delta: int, alpha: int) -> tuple[int, int]:
    """(delta', alpha') with (delta + alpha*u^2)^(-1) = delta' + alpha'*u^2."""
    d_inv = gf.inv(delta)
    return d_inv, gf.neg(gf.mul(alpha, gf.mul(d_inv, d_inv)))


def _factor_data(gf, n: int, delta: int, alpha: int,
                 fact: Factorization) -> tuple[FactorData, ...]:
    xnd = poly.xn_minus_c(gf, n, delta)
    modsq = poly.mul(gf, xnd, xnd)
    lam = lam_of(gf, delta, alpha)
    alpha_inv = gf.inv(alpha)
    out = []
    for f in fact.factors:
        cof = poly.quo(gf, xnd, f)
        fsq = poly.mul(gf, f, f)
        cofsq = poly.mul(gf, cof, cof)
        g1, g, h = poly.ext_gcd(gf, cofsq, fsq)
        if g1 != poly.ONE:
            raise InternalError("cofactor^2 and f^2 are not coprime")
        eps = poly.rem(gf, poly.mul(gf, g, cofsq), modsq)
        q_, e0 = poly.divrem(gf, eps, xnd)
        e1 = poly.scale(gf, q_, alpha)
        e = AmbientElement.from_polys(gf, n, lam, e0, poly.ZERO, e1, poly.ZERO)
        omega = poly.rem(gf, poly.scale(gf, cof, alpha_inv), fsq)
        omega_inv = poly.rem(gf, poly.scale(gf, poly.mul(gf, g, cof), alpha), fsq)
        out.append(FactorData(f=f, degree=len(f) - 1, cofactor=cof, g=g, h=h,
                              idempotent=eps, e0=e0, e1=e1, e=e,
                              omega=omega, omega_inv=omega_inv))
    return tuple(out)


def _dual_idempotents(d: Decomposition, seed: int = DEFAULT_SEED):
    """Primitive idempotents of R[x]/(x^n - lam^(-1)), in canonical factor order."""
    gf = d.gf
    d2, a2 = dual_params(gf, d.delta, d.alpha)
    if (d2, a2) == (d.delta, d.alpha):
        return [fd.e for fd in d.factors]
    if d2 == d.delta:
        # same factorization of x^n - delta; only the u^2-component rescales
        lam2 = lam_of(gf, d2, a2)
        scale = gf.mul(a2, gf.inv(d.alpha))
        return [AmbientElement.from_polys(gf, d.n, lam2, fd.e0, poly.ZERO,
                                          poly.scale(gf, fd.e1, scale), poly.ZERO)
                for fd in d.factors]
    fact2 = factor_xn_minus_delta(gf, d.n, d2, seed=seed)
    return [fd.e for fd in _factor_data(gf, d.n, d2, a2, fact2)]


def compute_tau(d: Decomposition, seed: int = DEFAULT_SEED) -> tuple[int, ...]:
    """Match e_j(x^(-1)) against the idempotents of the inverse-unit ambient.

    Returns the index permutation (0-based).  When delta is its own
    inverse the two ambients share a factor list and the permutation is an
    involution; in general it maps indices of this decomposition to
    canonical indices of the dual one.
    """
    dual_es = _dual_idempotents(d, seed=seed)
    tau = []
    for fd in d.factors:
        image = ambient_reciprocal(fd.e)
        hit = [k for k, ek in enumerate(dual_es) if ek == image]
        if len(hit) != 1:
            raise InternalError("reciprocal image does not match a unique idempotent")
        tau.append(hit[0])
    return tuple(tau)


def compute_decomposition(gf, n: int, delta: int, alpha: int,
                          seed: int = DEFAULT_SEED) -> Decomposition:
    """Factor x^n - delta and assemble all CRT data for (delta, alpha)."""
    gf.check(alpha)
    if alpha == 0:
        raise ValueError("alpha must be a nonzero field element")
    fact = factor_xn_minus_delta(gf, n, delta, seed=seed)
    factors = _factor_data(gf, n, delta, alpha, fact)
    d = Decomposition(gf=gf, n=n, delta=delta, alpha=alpha,
                      factorization=fact, factors=factors,
                      tau=(), rho=None, eps_pairs=None)
    tau = compute_tau(d, seed=seed)
    rho = eps_pairs = None
    if delta == gf.inv(delta):
        rho, eps_pairs = _involution_counts(tau)
    return replace(d, tau=tau, rho=rho, eps_pairs=eps_pairs)


def _involution_counts(tau) -> tuple[int, int]:
    """(rho, eps_pairs): the fixed points and 2-cycles of an involution."""
    fixed = sum(1 for j, k in enumerate(tau) if j == k)
    return fixed, (len(tau) - fixed) // 2


def dual_decomposition(d: Decomposition, seed: int = DEFAULT_SEED) -> Decomposition:
    """The decomposition of the inverse-unit ambient (d itself if identical)."""
    d2, a2 = dual_params(d.gf, d.delta, d.alpha)
    if (d2, a2) == (d.delta, d.alpha):
        return d
    return compute_decomposition(d.gf, d.n, d2, a2, seed=seed)


def canonical_rearrange(d: Decomposition) -> Decomposition:
    """Reorder indices into blocks: tau-fixed, pair representatives, partners.

    Fixed indices come first (canonical factor order), then one canonical
    representative per swapped pair, then the partners in matching order,
    so index rho + i is paired with index rho + eps_pairs + i.  Only
    defined when delta is its own inverse (tau an involution).
    """
    if d.rho is None:
        raise ValueError(
            "canonical rearrangement requires delta == delta^(-1) so that the "
            "reciprocal permutation acts on a single factor list")

    def key(j):
        return poly.canonical_key(d.factors[j].f)
    fixed = sorted((j for j in range(d.r) if d.tau[j] == j), key=key)
    pairs = [(j, d.tau[j]) if key(j) <= key(d.tau[j]) else (d.tau[j], j)
             for j in range(d.r) if j < d.tau[j]]
    pairs.sort(key=lambda jk: key(jk[0]))
    order = fixed + [j for j, _ in pairs] + [k for _, k in pairs]
    rho, eps = len(fixed), len(pairs)
    new_tau = list(range(rho)) + [rho + eps + i for i in range(eps)] \
        + [rho + i for i in range(eps)]
    fact = Factorization(gf=d.gf, n=d.n, delta=d.delta,
                         factors=tuple(d.factors[j].f for j in order))
    return Decomposition(gf=d.gf, n=d.n, delta=d.delta, alpha=d.alpha,
                         factorization=fact,
                         factors=tuple(d.factors[j] for j in order),
                         tau=tuple(new_tau), rho=rho, eps_pairs=eps,
                         canonical=True)


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
    fld = obj["field"]
    gf = GF(int(fld["p"]), int(fld["m"]), tuple(fld["modulus"]))
    n = int(obj["n"])
    delta = gf.check(int(obj["delta"]))
    alpha = gf.check(int(obj["alpha"]))
    lam = lam_of(gf, delta, alpha)
    factors = []
    for fo in obj["factors"]:
        e = ambient_from_json(gf, fo["e"])
        if e.n != n or e.lam != lam:
            raise ValueError("an idempotent e does not lie in R[x]/(x^n - lambda) "
                             "of the decomposition")
        factors.append(FactorData(
            f=poly.from_json(gf, fo["f"]), degree=int(fo["degree"]),
            cofactor=poly.from_json(gf, fo["cofactor"]),
            g=poly.from_json(gf, fo["g"]), h=poly.from_json(gf, fo["h"]),
            idempotent=poly.from_json(gf, fo["idempotent"]),
            e0=poly.from_json(gf, fo["e0"]), e1=poly.from_json(gf, fo["e1"]),
            e=e, omega=poly.from_json(gf, fo["omega"]),
            omega_inv=poly.from_json(gf, fo["omega_inv"])))
    total = AmbientElement.zero(gf, n, lam)
    for fd in factors:
        total = total + fd.e
    if total != AmbientElement.one(gf, n, lam):
        raise ValueError("the idempotents e_j do not sum to 1")
    tau = tuple(int(t) for t in obj["tau"])
    if sorted(tau) != list(range(len(factors))):
        raise ValueError(f"tau = {list(tau)} is not a permutation of the factor indices")
    rho, eps_pairs = (None if obj.get(key) is None else int(obj[key])
                      for key in ("rho", "eps_pairs"))
    if rho is not None or eps_pairs is not None:
        if any(tau[k] != j for j, k in enumerate(tau)):
            raise ValueError("rho and eps_pairs are given but tau is not an involution")
        fixed, pairs = _involution_counts(tau)
        if rho not in (None, fixed) or eps_pairs not in (None, pairs):
            raise ValueError(f"rho = {rho} and eps_pairs = {eps_pairs} disagree with tau, "
                             f"which has {fixed} fixed points and {pairs} 2-cycles")
    fact = Factorization(gf=gf, n=n, delta=delta,
                         factors=tuple(fd.f for fd in factors))
    return Decomposition(gf=gf, n=n, delta=delta, alpha=alpha,
                         factorization=fact, factors=tuple(factors),
                         tau=tau, rho=rho, eps_pairs=eps_pairs,
                         canonical=bool(obj.get("canonical", False)))
