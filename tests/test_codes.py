import random

import pytest

from u4codes import (GF, AmbientElement, InvalidIndexError, RingElement,
                     SelfDualUnsupportedError, ambient_reciprocal, build_code,
                     canonical_rearrange, compute_decomposition, dual_code,
                     enumerate_codes, index_count, self_dual_codes,
                     self_dual_indices, span_ideal)
from u4codes.codes import _shift_sum
from golden import SELF_DUAL_GENERATORS, ambient_coeff_tuples
from theory import dual_decomposition


def test_generator_u2(dec7):
    rec = build_code(dec7, (2, 2, 2))
    expected = AmbientElement.from_ring_scalar(
        dec7.gf, 7, dec7.lam, RingElement.u_pow(dec7.gf, 2))
    assert rec.generator == expected
    assert rec.log_q_size == 14


def test_whole_ring_and_zero_code(dec7):
    whole = build_code(dec7, (0, 0, 0))
    assert whole.generator == AmbientElement.one(dec7.gf, 7, dec7.lam)
    assert whole.log_q_size == 4 * 7
    zero = build_code(dec7, (4, 4, 4))
    assert zero.generator.is_zero()
    assert zero.log_q_size == 0


def test_invalid_indices(dec7):
    with pytest.raises(InvalidIndexError):
        build_code(dec7, (1, 2))
    with pytest.raises(InvalidIndexError):
        build_code(dec7, (5, 0, 0))
    with pytest.raises(InvalidIndexError):
        build_code(dec7, (0, -1, 0))
    # non-integer entries are rejected, not truncated to (1, 1, 3)
    for idx in [(1.9, True, "3"), (1, True, 3), (1.0, 1, 3), (1, 1, "3")]:
        with pytest.raises(InvalidIndexError):
            build_code(dec7, idx)


def _strided_shift_sum(d, exps):
    """sum_j u^(l_j) * e_j by one strided map per term and stride."""
    flat = [0] * (4 * d.n)
    for l, fd in zip(exps, d.factors):
        for k in range(l, 4, 2):
            flat[k::4] = map(d.gf.add, flat[k::4], fd.e.flat[k - l::4])
    return flat


@pytest.mark.parametrize("p, n, delta", [(2, 15, 1), (2, 21, 1), (3, 8, 1), (3, 10, 2),
                                         (5, 12, 1), (5, 6, 4), (7, 8, 1), (7, 9, 3),
                                         (17, 16, 1)])
def test_packed_shift_sum_matches_strided_maps(p, n, delta):
    d = compute_decomposition(GF(p), n, delta, 1)
    rng = random.Random(p * n)
    lane_bytes, _ = d._packed_columns
    # GF(17), n = 16: r = 16 linear factors, and r * (p - 1) = 256 needs 2-byte lanes
    assert lane_bytes == (2 if d.r * (p - 1) >= 256 else 1)
    tuples = [(l,) * d.r for l in range(5)] + [
        tuple(rng.randrange(5) for _ in range(d.r)) for _ in range(30)]
    for exps in tuples:
        assert list(_shift_sum(d, exps).flat) == _strided_shift_sum(d, exps)


def test_enumeration_count_order_and_sizes(dec7):
    recs = list(enumerate_codes(dec7))
    assert len(recs) == 125
    assert index_count(dec7) == 125
    indices = [r.index for r in recs]
    assert indices == sorted(indices)
    assert len(set(indices)) == 125
    for r in recs:
        l1, l2, l3 = r.index
        assert r.log_q_size == 28 - (l1 + 3 * (l2 + l3))
    # pairwise distinct generators
    assert len({r.generator for r in recs}) == 125


def test_enumeration_slicing(dec7):
    head = list(enumerate_codes(dec7, limit=7))
    assert [r.index for r in head] == [
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 0, 4), (0, 1, 0), (0, 1, 1)]
    tail = list(enumerate_codes(dec7, start=123))
    assert [r.index for r in tail] == [(4, 4, 3), (4, 4, 4)]
    window = list(enumerate_codes(dec7, start=5, limit=3))
    assert [r.index for r in window] == [(0, 1, 0), (0, 1, 1), (0, 1, 2)]


def test_single_factor_sizes(gf4):
    d = compute_decomposition(gf4, 1, 1, 2)
    recs = list(enumerate_codes(d))
    assert [r.log_q_size for r in recs] == [4, 3, 2, 1, 0]
    assert [gf4.q ** r.log_q_size for r in recs] == [256, 64, 16, 4, 1]


def test_tau_map_on_idempotents(dec7):
    e1, e2, e3 = (fd.e for fd in dec7.factors)
    assert ambient_reciprocal(e1) == e1
    assert ambient_reciprocal(e2) == e3
    assert ambient_reciprocal(e3) == e2


def test_dual_complement_sizes(dec7):
    for rec in enumerate_codes(dec7):
        dual = dual_code(dec7, rec.index)
        assert rec.log_q_size + dual.log_q_size == 28


def test_dual_of_whole_ring_is_zero(dec7):
    dual = dual_code(dec7, (0, 0, 0))
    assert dual.generator.is_zero()
    assert dual.log_q_size == 0
    assert dual_code(dec7, (4, 4, 4)).log_q_size == 28


def test_dual_index_relabeling(dec7):
    # dual generator = reciprocal image of the complementary-exponent generator
    dual = dual_code(dec7, (2, 0, 4))
    comp = build_code(dec7, (2, 4, 0))
    assert dual.generator == ambient_reciprocal(comp.generator)
    # with tau = (1)(2 3) the dual's own index is (2, 0, 4): self-dual point
    assert dual.index == (2, 0, 4)
    assert dual.generator == build_code(dec7, (2, 0, 4)).generator
    # a non-self-dual example: dual of (1, 0, 2) has exponents (3, 2, 4)
    dual2 = dual_code(dec7, (1, 0, 2))
    assert dual2.index == (3, 2, 4)
    assert dual2.generator == ambient_reciprocal(build_code(dec7, (3, 4, 2)).generator)


def test_dual_lives_in_the_inverse_ambient(gf3):
    d = compute_decomposition(gf3, 4, 2, 1)
    dual = dual_code(d, (1, 2))
    assert dual.ambient_lambda == d.lam.inv()
    # in char 2 with delta 1 the ambient is unchanged
    gf2 = GF(2)
    d7 = compute_decomposition(gf2, 7, 1, 1)
    assert dual_code(d7, (1, 2, 3)).ambient_lambda == d7.lam


def test_dual_matches_dual_decomposition_records(gf4):
    d = compute_decomposition(gf4, 5, 2, 3)
    dd = dual_decomposition(d)
    for idx in [(0,) * d.r, (4,) * d.r, tuple((i + 1) % 5 for i in range(d.r))]:
        dual = dual_code(d, idx)
        again = build_code(dd, dual.index)
        assert again.generator == dual.generator
        assert again.log_q_size == dual.log_q_size


def test_duality_is_an_involution_on_codeword_sets(gf3):
    d = compute_decomposition(gf3, 4, 2, 2)
    dd = dual_decomposition(d)
    for idx in [(0, 0), (1, 3), (2, 2), (4, 1)]:
        rec = build_code(d, idx)
        dual = dual_code(d, idx)
        double = dual_code(dd, dual.index)
        assert span_ideal(double.generator).basis == span_ideal(rec.generator).basis


def test_self_dual_golden_generators(dec7):
    dc = canonical_rearrange(dec7)
    recs = list(self_dual_codes(dc))
    assert [r.index for r in recs] == [(2, l, 4 - l) for l in range(5)]
    for rec in recs:
        assert ambient_coeff_tuples(rec.generator) == SELF_DUAL_GENERATORS[rec.index]
        assert rec.log_q_size == 14


def test_self_dual_requires_canonical(dec7):
    with pytest.raises(ValueError):
        list(self_dual_codes(dec7))


def test_self_dual_unsupported_cases(gf3, gf2):
    d = compute_decomposition(gf3, 4, 1, 1)
    with pytest.raises(SelfDualUnsupportedError):
        list(self_dual_indices(d))
    d2 = compute_decomposition(gf2, 7, 1, 1)   # fine
    dc = canonical_rearrange(d2)
    assert len(list(self_dual_indices(dc))) == 5


def test_self_dual_eps_zero(gf2):
    # x^3 - 1: both factors self-reciprocal, so the only self-dual code is <u^2>
    d = canonical_rearrange(compute_decomposition(gf2, 3, 1, 1))
    recs = list(self_dual_codes(d))
    assert len(recs) == 1
    assert recs[0].index == (2, 2)
    expected = AmbientElement.from_ring_scalar(
        d.gf, 3, d.lam, RingElement.u_pow(d.gf, 2))
    assert recs[0].generator == expected


def test_self_dual_stream_is_inside_the_enumeration(dec7):
    dc = canonical_rearrange(dec7)
    all_gens = {r.generator for r in enumerate_codes(dc)}
    for rec in self_dual_codes(dc):
        assert rec.generator in all_gens


def test_record_json(dec7):
    rec = build_code(dec7, (2, 2, 2))
    obj = rec.to_json(self_dual=True)
    assert obj["index"] == [2, 2, 2]
    assert obj["log_q_size"] == 14
    assert obj["lambda"] == [1, 0, 1, 0]
    assert obj["self_dual"] is True
    assert "self_dual" not in rec.to_json()
