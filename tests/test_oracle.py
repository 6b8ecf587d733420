import ast
from pathlib import Path

import pytest

from u4codes import (GF, AmbientElement, AmbientMismatchError, RingElement,
                     build_code, check_constacyclic,
                     check_duality, check_self_dual, compute_decomposition,
                     canonical_rearrange, dual_code, dual_span,
                     enumerate_codes, lam_of, self_dual_codes, span_ideal)
from u4codes import oracle


def test_span_of_unit_and_zero(dec7):
    whole = build_code(dec7, (0, 0, 0))
    assert span_ideal(whole.generator).dim == 28
    zero = build_code(dec7, (4, 4, 4))
    assert span_ideal(zero.generator).dim == 0


def test_span_of_u2(dec7):
    rec = build_code(dec7, (2, 2, 2))
    assert span_ideal(rec.generator).dim == 14


def test_cardinality_all_125(dec7):
    for rec in enumerate_codes(dec7):
        fc = span_ideal(rec.generator)
        assert fc.dim == rec.log_q_size and check_constacyclic(fc)


def test_echelon_basis_is_canonical(dec7):
    # different generators of the same ideal give identical bases
    rec = build_code(dec7, (1, 2, 0))
    g = rec.generator
    x = AmbientElement.x_pow(dec7.gf, 7, dec7.lam, 1)
    lam_scaled = g.scale(dec7.lam)
    assert span_ideal(g).basis == span_ideal(g * x).basis
    assert span_ideal(g).basis == span_ideal(lam_scaled).basis


def test_constacyclic_closure_of_enumerated_codes(dec7):
    for rec in list(enumerate_codes(dec7))[::7]:
        assert check_constacyclic(span_ideal(rec.generator))


def test_non_shift_closed_subspace_detected(gf2):
    # the single word 1 (the span of e_0) is not closed under the shift
    lam_cs = (1, 0, 1, 0)
    vec = tuple([1] + [0] * 27)
    fc = oracle.from_rows(gf2, 7, lam_cs, [vec])
    assert fc.dim == 1
    assert not check_constacyclic(fc)


def test_duality_pairs(dec7):
    for rec in list(enumerate_codes(dec7))[::5]:
        dual = dual_code(dec7, rec.index)
        c = span_ideal(rec.generator)
        cd = span_ideal(dual.generator)
        assert check_duality(c, cd)


def test_duality_fails_for_wrong_pair(dec7):
    c = span_ideal(build_code(dec7, (0, 0, 0)).generator)
    not_dual = span_ideal(build_code(dec7, (2, 2, 2)).generator)
    assert not check_duality(c, not_dual)


def test_whole_ring_vs_zero_code(dec7):
    c = span_ideal(build_code(dec7, (0, 0, 0)).generator)
    z = span_ideal(build_code(dec7, (4, 4, 4)).generator)
    assert check_duality(c, z)
    assert check_duality(z, c)


def test_dual_span_matches_theoretical_dual(dec7):
    for idx in [(0, 0, 0), (1, 2, 3), (2, 2, 2), (4, 0, 1)]:
        rec = build_code(dec7, idx)
        dual = dual_code(dec7, idx)
        fc = span_ideal(rec.generator)
        assert dual_span(fc).basis == span_ideal(dual.generator).basis


def _orthogonal_by_definition(gf, c, dualc):
    """Complementary dimensions and a zero R-inner product on every basis pair."""
    def inner(a, b):
        total = RingElement.zero(gf)
        for k in range(0, len(a), 4):
            total = total + RingElement(gf, a[k:k + 4]) * RingElement(gf, b[k:k + 4])
        return total
    return (c.dim + dualc.dim == 4 * c.n
            and all(inner(a, b).is_zero() for a in c.basis for b in dualc.basis))


@pytest.mark.parametrize("p, m, n, delta, alpha", [
    (2, 1, 7, 1, 1), (3, 1, 8, 2, 1), (2, 2, 3, 1, 2), (3, 2, 4, 2, 1)])
def test_duality_agrees_with_its_definition(rng, p, m, n, delta, alpha):
    gf = GF(p, m)
    d = compute_decomposition(gf, n, delta, alpha)
    outcomes = set()
    for trial in range(8):
        i = tuple(rng.randrange(5) for _ in range(d.r))
        j = i if trial % 2 else tuple(rng.randrange(5) for _ in range(d.r))
        c = span_ideal(build_code(d, i).generator)
        dualc = span_ideal(dual_code(d, j).generator)
        expected = _orthogonal_by_definition(gf, c, dualc)
        assert check_duality(c, dualc) == expected, (i, j)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_self_orthogonality_of_a_self_dual_code(dec7):
    c = span_ideal(build_code(dec7, (2, 1, 3)).generator)
    assert check_duality(c, c)


def test_self_dual_checks(dec7):
    dc = canonical_rearrange(dec7)
    for rec in self_dual_codes(dc):
        assert check_self_dual(rec)
    assert check_self_dual(build_code(dec7, (2, 1, 3)))
    assert not check_self_dual(build_code(dec7, (0, 0, 0)))


def test_exactly_five_self_dual_among_125(dec7):
    hits = [rec.index for rec in enumerate_codes(dec7) if check_self_dual(rec)]
    assert hits == [(2, l, 4 - l) for l in range(5)]


def test_self_dual_check_requires_self_inverse_lambda(gf3):
    d = compute_decomposition(gf3, 4, 2, 1)   # lambda = 2 + u^2, inverse differs
    with pytest.raises(AmbientMismatchError):
        check_self_dual(build_code(d, (2, 2)))


def test_oracle_on_nonprime_field(gf4):
    # delta = 1, alpha = y over GF(4): every check on every code
    d = compute_decomposition(gf4, 3, 1, 2)
    for rec in enumerate_codes(d):
        fc = span_ideal(rec.generator)
        assert fc.dim == rec.log_q_size
        assert check_constacyclic(fc)
        dual = dual_code(d, rec.index)
        assert check_duality(fc, span_ideal(dual.generator))


def test_flatten_convention(gf2):
    # coordinate (i, k) lands in column 4*i + k
    lam = lam_of(gf2, 1, 1)
    a = AmbientElement.from_ring_scalar(gf2, 3, lam, RingElement.u_pow(gf2, 2))
    assert a.flat == (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    b = AmbientElement.x_pow(gf2, 3, lam, 1)
    assert b.flat == (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)


def test_oracle_imports_no_construction_module():
    # the oracle reads the flat layout of ambient elements, never their arithmetic
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    assert "errors" in imported
    assert not imported & {"chainring", "decomposition", "codes"}
