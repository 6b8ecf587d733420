import json
import time

import pytest

from u4codes import (GF, AmbientElement, InternalError, RingElement,
                     canonical_rearrange, compute_decomposition, compute_tau, poly)
from u4codes import decomposition as decomp_mod
from golden import E1, E2, E3, EPS_PAIRS_N7, RHO_N7, TAU_N7, ambient_coeff_tuples
from theory import BigQuotientElement, dual_decomposition, psi_inverse, psi_map


def _one(d):
    return AmbientElement.one(d.gf, d.n, d.lam)


def _zero(d):
    return AmbientElement.zero(d.gf, d.n, d.lam)


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
    assert d.factors[0].e == _one(d)
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
        total = _zero(d)
        for j, fd in enumerate(d.factors):
            total = total + fd.e
            assert fd.e * fd.e == fd.e
            for k, other in enumerate(d.factors):
                if k != j:
                    assert (fd.e * other.e).is_zero()
        assert total == _one(d)


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
    tau_p = compute_tau(dec7.gf, dec7.delta, tuple(dec7.factors[j] for j in perm))
    # tau_p(new_j) = pos(tau(old_j)): conjugation by the permutation
    pos = {old: new for new, old in enumerate(perm)}
    expected = tuple(pos[dec7.tau[perm[j]]] for j in range(3))
    assert tau_p == expected


def test_tau_for_general_delta_pairs_with_the_dual(gf4):
    # delta = y in GF(4): delta^(-1) = y + 1 differs, so tau crosses ambients
    d = compute_decomposition(gf4, 5, 2, 1)
    assert d.rho is None and d.eps_pairs is None
    dd = dual_decomposition(d)
    d2 = gf4.inv(2)
    assert (dd.delta, dd.alpha) == (d2, gf4.neg(gf4.mul(d2, d2)))
    inv = [0] * d.r
    for j, k in enumerate(d.tau):
        inv[k] = j
    assert dd.tau == tuple(inv)
    # factor-level check: tau sends each factor to its monic reciprocal
    for j, k in enumerate(d.tau):
        assert dd.factors[k].f == _reciprocal(gf4, d.factors[j].f)


def test_dual_decomposition_is_self_for_char2_delta1(dec7):
    assert dual_decomposition(dec7) == dec7


def test_canonical_rearrange_n7(dec7):
    dc = canonical_rearrange(dec7)
    assert dc.canonical
    # already in block layout: fixed f1, then the pair (f2, f3)
    assert tuple(fd.f for fd in dc.factors) == tuple(fd.f for fd in dec7.factors)
    assert dc.tau == (0, 2, 1)
    assert (dc.rho, dc.eps_pairs) == (1, 1)


@pytest.mark.parametrize("p, m, n", [(2, 1, 15), (2, 1, 21), (2, 1, 31), (2, 1, 63),
                                     (2, 2, 15), (3, 1, 8)])
def test_canonical_rearrange_blocks(p, m, n):
    # the block layout is not built: it is tau read off the reordered factors
    d = compute_decomposition(GF(p, m), n, 1, 1)
    dc = canonical_rearrange(d)
    rho, eps = dc.rho, dc.eps_pairs
    assert (rho, eps) == (d.rho, d.eps_pairs)
    assert sorted(fd.f for fd in dc.factors) == sorted(fd.f for fd in d.factors)
    assert rho + 2 * eps == dc.r
    for j in range(rho):
        assert dc.tau[j] == j
    for i in range(eps):
        assert dc.tau[rho + i] == rho + eps + i
        assert dc.tau[rho + eps + i] == rho + i
    # the idempotent identity set is permutation-invariant
    total = _zero(dc)
    for fd in dc.factors:
        total = total + fd.e
    assert total == _one(dc)


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
    total = _zero(d2)
    for fd in d2.factors:
        total = total + fd.e
        assert fd.e * fd.e == fd.e
    assert total == _one(d2)
    assert compute_tau(d2.gf, d2.delta, d2.factors) == d2.tau


def test_from_json_rejects_a_dump_without_factors_before_recomputing():
    # n = 20001 would take minutes to factor and decompose; the dump is 90 bytes
    blob = {"field": {"p": 2, "m": 1, "modulus": [0, 1]}, "n": 20001, "delta": 1, "alpha": 1}
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="n = 20001"):
        decomp_mod.from_json(blob)
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("how", ["empty factor list", "factors not a list", "factor without e",
                                 "idempotent one coefficient short"])
def test_from_json_checks_the_shape_of_the_factors(dec7, how):
    blob = decomp_mod.to_json(dec7)
    if how == "empty factor list":
        blob["factors"] = []
    elif how == "factors not a list":
        blob["factors"] = {str(j): fo for j, fo in enumerate(blob["factors"])}
    elif how == "factor without e":
        del blob["factors"][0]["e"]
    else:
        blob["factors"][2]["e"]["coeffs"].pop()
    with pytest.raises(ValueError, match="n = 7"):
        decomp_mod.from_json(blob)


@pytest.mark.parametrize("key", ["n", "field", "delta", "alpha"])
def test_from_json_requires_its_keys(dec7, key):
    blob = decomp_mod.to_json(dec7)
    del blob[key]
    with pytest.raises(ValueError, match=f"lacks {key}"):
        decomp_mod.from_json(blob)


@pytest.mark.parametrize("blob", [{}, {"factors": [{"e": {"coeffs": [0]}}], "n": 1},
                                  [], "dump", None])
def test_from_json_rejects_a_dump_that_is_no_object_or_lacks_keys(blob):
    with pytest.raises(ValueError):
        decomp_mod.from_json(blob)


def test_json_round_trip_of_a_canonical_decomposition(dec7):
    cd = canonical_rearrange(dec7)
    d2 = decomp_mod.from_json(json.loads(json.dumps(decomp_mod.to_json(cd))))
    assert d2.canonical and d2.tau == cd.tau
    assert [fd.e for fd in d2.factors] == [fd.e for fd in cd.factors]


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
    gf = dec7.gf
    for fd in dec7.factors:
        eps = BigQuotientElement(gf, 7, 1, 1, fd.idempotent)
        assert psi_map(eps) == fd.e
        assert psi_inverse(fd.e) == eps


def test_mismatched_idempotent_raises_internal_error(dec7):
    with pytest.raises(InternalError):   # three copies of e1
        compute_tau(dec7.gf, dec7.delta, (dec7.factors[0],) * 3)


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
    elif how == "flipped coordinate in two idempotents":
        for fo in blob["factors"][1:]:
            fo["e"]["coeffs"][0][0] ^= 1


@pytest.mark.parametrize("how", ["zeroed idempotent", "tau not a permutation",
                                 "rho disagrees with tau", "eps_pairs disagrees with tau",
                                 "flipped coordinate in two idempotents"])
def test_from_json_rejects_an_inconsistent_decomposition(dec7, how):
    # a zeroed e_2 used to load, and build_code(d, (0, 0, 0)) then claimed
    # log_q_size 28 for a code the oracle spans in dimension 16; flipping
    # coordinate 0 of e_2 and e_3 keeps the sum 1, and build_code(d, (4, 0, 4))
    # then claimed log_q_size 12 for a code of dimension 16
    blob = decomp_mod.to_json(dec7)
    _break_decomposition(blob, how)
    with pytest.raises(ValueError):
        decomp_mod.from_json(blob)
