import dataclasses
import json

import pytest

from u4codes import (GF, AmbientElement, InternalError, RingElement,
                     canonical_rearrange, compute_decomposition, compute_tau,
                     dual_decomposition, dual_params, poly)
from u4codes.chainring import ambient_from_json
from u4codes import decomposition as decomp_mod
from golden import E1, E2, E3, EPS_PAIRS_N7, RHO_N7, TAU_N7, ambient_coeff_tuples


def test_golden_idempotents_n7(dec7):
    assert ambient_coeff_tuples(dec7.factors[0].e) == E1
    assert ambient_coeff_tuples(dec7.factors[1].e) == E2
    assert ambient_coeff_tuples(dec7.factors[2].e) == E3


def test_golden_tau_rho_eps_n7(dec7):
    assert dec7.tau == TAU_N7
    assert dec7.rho == RHO_N7
    assert dec7.eps_pairs == EPS_PAIRS_N7


def test_single_factor_instance(gf4):
    d = compute_decomposition(gf4, 1, 1, 3)
    assert d.r == 1
    assert d.factors[0].idempotent == (1,)
    assert d.factors[0].e == d.ambient_one()
    assert d.tau == (0,)
    assert (d.rho, d.eps_pairs) == (1, 0)


INSTANCES = [
    (GF(2), 7, 1, 1),
    (GF(3), 4, 2, 1),
    (GF(3), 8, 1, 2),
    (GF(2, 2), 5, 2, 3),
    (GF(2, 3), 7, 1, 5),
]


def test_idempotent_identities_in_the_ambient():
    for gf, n, delta, alpha in INSTANCES:
        d = compute_decomposition(gf, n, delta, alpha)
        total = d.ambient_zero()
        for j, fd in enumerate(d.factors):
            total = total + fd.e
            assert fd.e * fd.e == fd.e
            for k, other in enumerate(d.factors):
                if k != j:
                    assert (fd.e * other.e).is_zero()
        assert total == d.ambient_one()


def test_bezout_identity_exact():
    for gf, n, delta, alpha in INSTANCES:
        d = compute_decomposition(gf, n, delta, alpha)
        for fd in d.factors:
            fsq = poly.mul(gf, fd.f, fd.f)
            cofsq = poly.mul(gf, fd.cofactor, fd.cofactor)
            lhs = poly.add(gf, poly.mul(gf, fd.g, cofsq), poly.mul(gf, fd.h, fsq))
            assert lhs == (1,)


def test_idempotent_split_components():
    for gf, n, delta, alpha in INSTANCES:
        d = compute_decomposition(gf, n, delta, alpha)
        xnd = poly.xn_minus_c(gf, n, delta)
        ai = gf.inv(alpha)
        for fd in d.factors:
            assert poly.deg(fd.e0) < n and poly.deg(fd.e1) < n
            rebuilt = poly.add(gf, fd.e0, poly.mul(gf, poly.scale(gf, xnd, ai), fd.e1))
            assert rebuilt == fd.idempotent


def test_omega_is_a_unit_with_the_stated_inverse():
    for gf, n, delta, alpha in INSTANCES:
        d = compute_decomposition(gf, n, delta, alpha)
        xnd = poly.xn_minus_c(gf, n, delta)
        for fd in d.factors:
            fsq = poly.mul(gf, fd.f, fd.f)
            assert poly.rem(gf, poly.mul(gf, fd.omega, fd.omega_inv), fsq) == (1,)
            # alpha^(-1) (x^n - delta) == omega * f in GF(q)[x]/(f^2)
            lhs = poly.rem(gf, poly.scale(gf, xnd, gf.inv(alpha)), fsq)
            assert lhs == poly.rem(gf, poly.mul(gf, fd.omega, fd.f), fsq)


def _reciprocal(gf, f):
    return poly.monic(gf, tuple(reversed(f)))


def test_tau_matches_reciprocal_polynomial_pairing(gf2):
    # two independent ways to pair indices must agree
    d = compute_decomposition(gf2, 15, 1, 1)
    assert d.r == 5
    by_poly = tuple(
        next(k for k, other in enumerate(d.factors)
             if other.f == _reciprocal(gf2, fd.f))
        for fd in d.factors)
    assert d.tau == by_poly
    # involution preserving degrees
    for j, k in enumerate(d.tau):
        assert d.tau[k] == j
        assert d.factors[j].degree == d.factors[k].degree


def test_tau_is_conjugated_under_factor_permutation(dec7):
    perm = (2, 0, 1)
    permuted = dataclasses.replace(
        dec7, factors=tuple(dec7.factors[j] for j in perm))
    tau_p = compute_tau(permuted)
    # tau_p(new_j) = pos(tau(old_j)): conjugation by the permutation
    pos = {old: new for new, old in enumerate(perm)}
    expected = tuple(pos[dec7.tau[perm[j]]] for j in range(3))
    assert tau_p == expected


def test_tau_for_general_delta_pairs_with_the_dual(gf4):
    # delta = y in GF(4): delta^(-1) = y + 1 differs, so tau crosses ambients
    d = compute_decomposition(gf4, 5, 2, 1)
    assert d.rho is None and d.eps_pairs is None
    dd = dual_decomposition(d)
    d2, a2 = dual_params(gf4, 2, 1)
    assert (dd.delta, dd.alpha) == (d2, a2)
    inv = [0] * d.r
    for j, k in enumerate(d.tau):
        inv[k] = j
    assert dd.tau == tuple(inv)
    # factor-level check: tau sends each factor to its monic reciprocal
    for j, k in enumerate(d.tau):
        assert dd.factorization.factors[k] == _reciprocal(gf4, d.factors[j].f)


def test_dual_decomposition_is_self_for_char2_delta1(dec7):
    assert dual_decomposition(dec7) is dec7


def test_canonical_rearrange_n7(dec7):
    dc = canonical_rearrange(dec7)
    assert dc.canonical
    # already in block layout: fixed f1, then the pair (f2, f3)
    assert tuple(fd.f for fd in dc.factors) == tuple(fd.f for fd in dec7.factors)
    assert dc.tau == (0, 2, 1)
    assert (dc.rho, dc.eps_pairs) == (1, 1)


def test_canonical_rearrange_blocks(gf2):
    d = compute_decomposition(gf2, 15, 1, 1)
    dc = canonical_rearrange(d)
    rho, eps = dc.rho, dc.eps_pairs
    assert rho + 2 * eps == dc.r
    for j in range(rho):
        assert dc.tau[j] == j
    for i in range(eps):
        assert dc.tau[rho + i] == rho + eps + i
        assert dc.tau[rho + eps + i] == rho + i
    # the idempotent identity set is permutation-invariant
    total = dc.ambient_zero()
    for fd in dc.factors:
        total = total + fd.e
    assert total == dc.ambient_one()


def test_canonical_rearrange_all_fixed(gf2):
    # x^3 - 1 = (x + 1)(x^2 + x + 1), both self-reciprocal
    d = compute_decomposition(gf2, 3, 1, 1)
    dc = canonical_rearrange(d)
    assert (dc.rho, dc.eps_pairs) == (2, 0)
    assert dc.tau == (0, 1)


def test_canonical_rearrange_requires_self_inverse_delta(gf4):
    d = compute_decomposition(gf4, 5, 2, 1)
    with pytest.raises(ValueError):
        canonical_rearrange(d)


def test_odd_characteristic_delta_minus_one(gf3):
    # delta = 2 = -1 is self-inverse but alpha flips sign in the dual
    d = compute_decomposition(gf3, 4, 2, 1)
    assert d.rho is not None
    for j, k in enumerate(d.tau):
        assert d.tau[k] == j


def test_json_round_trip_and_reverification(dec7):
    blob = json.dumps(decomp_mod.to_json(dec7), sort_keys=True)
    d2 = decomp_mod.from_json(json.loads(blob))
    assert d2.gf == dec7.gf
    assert d2.tau == dec7.tau
    assert (d2.rho, d2.eps_pairs) == (dec7.rho, dec7.eps_pairs)
    for a, b in zip(d2.factors, dec7.factors):
        assert a.f == b.f and a.e == b.e and a.omega == b.omega
    # re-assert the decomposition identities on the reloaded object
    total = d2.ambient_zero()
    for fd in d2.factors:
        total = total + fd.e
        assert fd.e * fd.e == fd.e
    assert total == d2.ambient_one()
    assert compute_tau(d2) == d2.tau


def test_idempotent_identities_in_the_big_quotient():
    # the same identities, checked directly mod (x^n - delta)^2
    for gf, n, delta, alpha in INSTANCES[:3]:
        d = compute_decomposition(gf, n, delta, alpha)
        xnd = poly.xn_minus_c(gf, n, delta)
        modsq = poly.mul(gf, xnd, xnd)
        total = ()
        for j, fd in enumerate(d.factors):
            total = poly.add(gf, total, fd.idempotent)
            sq = poly.rem(gf, poly.mul(gf, fd.idempotent, fd.idempotent), modsq)
            assert sq == fd.idempotent
            for k in range(j + 1, d.r):
                prod = poly.rem(
                    gf, poly.mul(gf, fd.idempotent, d.factors[k].idempotent), modsq)
                assert prod == ()
        assert poly.rem(gf, total, modsq) == (1,)


def test_psi_connects_idempotents_to_their_big_quotient_form(dec7):
    from u4codes import BigQuotientElement, psi_inverse, psi_map
    gf = dec7.gf
    for fd in dec7.factors:
        eps = BigQuotientElement(gf, 7, 1, 1, fd.idempotent)
        assert psi_map(eps) == fd.e
        assert psi_inverse(fd.e) == eps


def test_mismatched_idempotent_raises_internal_error(dec7):
    broken = dataclasses.replace(
        dec7, factors=(dec7.factors[0],) * 3)   # three copies of e1
    with pytest.raises(InternalError):
        compute_tau(broken)


def _break_ambient(obj, how):
    """Spoil the JSON of an ambient element in place."""
    if how == "coordinate out of range":
        obj["coeffs"][0][0] = 2
    elif how == "wrong coefficient count":
        obj["coeffs"].pop()
    elif how == "3-entry ring coefficient":
        obj["coeffs"][1].pop()
    elif how == "non-unit lambda":
        obj["lambda"][0] = 0


@pytest.mark.parametrize("how", ["coordinate out of range", "wrong coefficient count",
                                 "3-entry ring coefficient", "non-unit lambda"])
def test_ambient_boundaries_reject_bad_input(dec7, how):
    gf = dec7.gf
    obj = dec7.factors[1].e.to_json()
    _break_ambient(obj, how)
    with pytest.raises(ValueError):
        AmbientElement(gf, 7, RingElement(gf, obj["lambda"]), obj["coeffs"])
    with pytest.raises(ValueError):
        ambient_from_json(gf, obj)
    blob = decomp_mod.to_json(dec7)
    _break_ambient(blob["factors"][1]["e"], how)
    with pytest.raises(ValueError):
        decomp_mod.from_json(blob)


def test_from_json_rejects_an_idempotent_of_another_ambient(dec7):
    blob = decomp_mod.to_json(dec7)
    blob["factors"][2]["e"]["lambda"] = [1, 1, 1, 0]   # a unit, but not 1 + u^2
    with pytest.raises(ValueError):
        decomp_mod.from_json(blob)


def _break_decomposition(blob, how):
    """Spoil a consistent field of a decomposition's JSON in place."""
    if how == "zeroed idempotent":
        e = blob["factors"][1]["e"]
        e["coeffs"] = [[0, 0, 0, 0] for _ in e["coeffs"]]
    elif how == "tau not a permutation":
        blob["tau"] = [0, 0, 0]
    elif how == "rho disagrees with tau":
        blob["rho"] += 1
    elif how == "eps_pairs disagrees with tau":
        blob["eps_pairs"] += 1


@pytest.mark.parametrize("how", ["zeroed idempotent", "tau not a permutation",
                                 "rho disagrees with tau", "eps_pairs disagrees with tau"])
def test_from_json_rejects_an_inconsistent_decomposition(dec7, how):
    # a zeroed e_2 used to load, and build_code(d, (0, 0, 0)) then claimed
    # log_q_size 28 for a code the oracle spans in dimension 16
    blob = decomp_mod.to_json(dec7)
    _break_decomposition(blob, how)
    with pytest.raises(ValueError):
        decomp_mod.from_json(blob)
