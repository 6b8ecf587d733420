"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Each criterion gathers its failures into a list and prints a single
summary line before asserting, so the verdict is visible in the output
whether or not the run is green.  Stated runtime bounds are asserted
directly.
"""

import json
import random
import time

from u4codes import (GF, AmbientElement, build_code, canonical_rearrange,
                     check_constacyclic, check_duality, check_self_dual,
                     compute_decomposition, dual_code, enumerate_codes,
                     factor_xn_minus_delta, poly, self_dual_codes, span_ideal)
from u4codes import cli
from golden import (E1, E2, E3, EPS_PAIRS_N7, FACTORS_N7, RHO_N7,
                    SELF_DUAL_GENERATORS, TAU_N7, ambient_coeff_tuples)
from theory import BigQuotientElement, LocalRing, psi_inverse, psi_map


def _verdict(num, label, failures, elapsed=None):
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE criterion {num} ({label}): {status}{timing}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_factorization_golden(gf2):
    failures = []
    t0 = time.perf_counter()
    fact = factor_xn_minus_delta(gf2, 7, 1)
    elapsed = time.perf_counter() - t0
    if fact != FACTORS_N7:
        failures.append(f"factors {fact} != {FACTORS_N7}")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, bound is 1s")
    _verdict(1, "factorization golden, n=7 over GF(2)", failures, elapsed)


def test_criterion_2_idempotent_golden(gf2):
    failures = []
    t0 = time.perf_counter()
    d = compute_decomposition(gf2, 7, 1, 1)
    elapsed = time.perf_counter() - t0
    for j, expected in enumerate((E1, E2, E3)):
        got = ambient_coeff_tuples(d.factors[j].e)
        if got != expected:
            failures.append(f"e{j + 1} mismatch: {got}")
    if d.tau != TAU_N7:
        failures.append(f"tau {d.tau} != {TAU_N7}")
    if d.rho != RHO_N7 or d.eps_pairs != EPS_PAIRS_N7:
        failures.append(f"rho/eps_pairs = {d.rho}/{d.eps_pairs}, expected 1/1")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, bound is 1s")
    _verdict(2, "idempotents e1..e3, tau(2)=3, rho=eps=1", failures, elapsed)


def test_criterion_3_enumeration_with_oracle(dec7):
    failures = []
    t0 = time.perf_counter()
    count = 0
    for rec in enumerate_codes(dec7):
        count += 1
        l1, l2, l3 = rec.index
        expected_log = 28 - (l1 + 3 * (l2 + l3))
        if rec.log_q_size != expected_log:
            failures.append(f"size formula at {rec.index}")
        if span_ideal(rec.generator).dim != expected_log:
            failures.append(f"oracle rank at {rec.index}")
    if count != 125:
        failures.append(f"enumerated {count} codes, expected 5^3 = 125")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.3f}s, bound is 10s")
    _verdict(3, "125 codes, |C| by formula and by oracle rank", failures, elapsed)


def test_criterion_4_duality(dec7):
    failures = []
    t0 = time.perf_counter()
    for rec in enumerate_codes(dec7):
        dual = dual_code(dec7, rec.index)
        if rec.log_q_size + dual.log_q_size != 28:
            failures.append(f"|C|*|C_dual| != 2^28 at {rec.index}")
        c = span_ideal(rec.generator)
        cd = span_ideal(dual.generator)
        if not check_duality(c, cd):
            failures.append(f"oracle orthogonality failed at {rec.index}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.3f}s, bound is 30s")
    _verdict(4, "all 125 duals orthogonal with complementary size", failures, elapsed)


def test_criterion_5_self_dual_golden(dec7):
    failures = []
    dc = canonical_rearrange(dec7)
    recs = list(self_dual_codes(dc))
    if [r.index for r in recs] != [(2, l, 4 - l) for l in range(5)]:
        failures.append(f"indices {[r.index for r in recs]}")
    for rec in recs:
        if ambient_coeff_tuples(rec.generator) != SELF_DUAL_GENERATORS[rec.index]:
            failures.append(f"generator mismatch at {rec.index}")
        if not check_self_dual(rec):
            failures.append(f"oracle self-duality failed at {rec.index}")
    _verdict(5, "exactly the five listed self-dual generators", failures)


# (q, m, n); delta and alpha are drawn from the seeded generator below
PROPERTY_INSTANCES = [
    (2, 1, 15),
    (3, 1, 8),
    (3, 1, 4),
    (2, 2, 5),
    (2, 3, 7),
    (2, 2, 3),
]
ORACLE_INDICES_PER_INSTANCE = 50


def _property_failures(gf, n, delta, alpha, rng):
    failures = []
    tag = f"q={gf.q} n={n} delta={delta} alpha={alpha}"
    d = compute_decomposition(gf, n, delta, alpha)

    # idempotent identities, exactly
    total = AmbientElement.zero(gf, n, d.lam)
    for j, fd in enumerate(d.factors):
        total = total + fd.e
        if fd.e * fd.e != fd.e:
            failures.append(f"{tag}: e{j} not idempotent")
        for k in range(j + 1, d.r):
            if not (fd.e * d.factors[k].e).is_zero():
                failures.append(f"{tag}: e{j}*e{k} != 0")
    if total != AmbientElement.one(gf, n, d.lam):
        failures.append(f"{tag}: idempotents do not sum to 1")

    xnd = poly.xn_minus_c(gf, n, delta)
    for j, fd in enumerate(d.factors):
        fsq = poly.mul(gf, fd.f, fd.f)
        cofsq = poly.mul(gf, fd.cofactor, fd.cofactor)
        bez = poly.add(gf, poly.mul(gf, fd.g, cofsq), poly.mul(gf, fd.h, fsq))
        if bez != (1,):
            failures.append(f"{tag}: Bezout identity fails at factor {j}")
        if poly.rem(gf, poly.mul(gf, fd.omega, fd.omega_inv), fsq) != (1,):
            failures.append(f"{tag}: omega_{j} not invertible")
        lhs = poly.rem(gf, poly.scale(gf, xnd, gf.inv(alpha)), fsq)
        if lhs != poly.rem(gf, poly.mul(gf, fd.omega, fd.f), fsq):
            failures.append(f"{tag}: omega_{j}*f != alpha^-1(x^n - delta)")
        # v has nilpotency index exactly 4 in each local ring
        ring = LocalRing(gf, fd.f, fd.omega)
        v = ring.v()
        v2 = v * v
        if (v2 * v).is_zero() or not (v2 * v2).is_zero():
            failures.append(f"{tag}: v nilpotency index != 4 at factor {j}")

    # psi is a homomorphism (spot checks)
    for _ in range(10):
        a = BigQuotientElement(gf, n, delta, alpha,
                               [rng.randrange(gf.q) for _ in range(2 * n)],
                               [rng.randrange(gf.q) for _ in range(2 * n)])
        b = BigQuotientElement(gf, n, delta, alpha,
                               [rng.randrange(gf.q) for _ in range(2 * n)],
                               [rng.randrange(gf.q) for _ in range(2 * n)])
        if psi_map(a * b) != psi_map(a) * psi_map(b):
            failures.append(f"{tag}: psi not multiplicative")
            break
        if psi_map(a + b) != psi_map(a) + psi_map(b):
            failures.append(f"{tag}: psi not additive")
            break
        if psi_inverse(psi_map(a)) != a:
            failures.append(f"{tag}: psi not injective on samples")
            break

    # oracle agreement on random indices
    for _ in range(ORACLE_INDICES_PER_INSTANCE):
        idx = tuple(rng.randrange(5) for _ in range(d.r))
        rec = build_code(d, idx)
        fc = span_ideal(rec.generator)
        if fc.dim != rec.log_q_size:
            failures.append(f"{tag}: cardinality mismatch at {idx}")
        if not check_constacyclic(fc):
            failures.append(f"{tag}: shift closure fails at {idx}")
        dual = dual_code(d, idx)
        if not check_duality(fc, span_ideal(dual.generator)):
            failures.append(f"{tag}: duality fails at {idx}")
    return failures


def test_criterion_6_property_suite():
    failures = []
    rng = random.Random(20260808)
    t0 = time.perf_counter()
    for q, m, n in PROPERTY_INSTANCES:
        gf = GF(q, m) if m > 1 else GF(q)
        delta = rng.randrange(1, gf.q)
        alpha = rng.randrange(1, gf.q)
        failures.extend(_property_failures(gf, n, delta, alpha, rng))
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s, bound is 5 minutes")
    _verdict(6, f"property suite on {len(PROPERTY_INSTANCES)} instances",
             failures, elapsed)


def _cli_outputs(capsys):
    """Outputs backing criteria 1-5, collected through the CLI."""
    n7 = ("--p", "2", "--n", "7", "--delta", "1")
    n7a = n7 + ("--alpha", "1")
    chunks = []
    for argv in (("factor",) + n7 + ("--json",),
                 ("idempotents",) + n7a + ("--json",),
                 ("codes",) + n7a + ("--json",),
                 ("codes",) + n7a + ("--index", "2,2,2", "--json"),
                 ("selfdual",) + n7a + ("--json",)):
        assert cli.main(list(argv)) == 0
        chunks.append(capsys.readouterr().out)
    # the verify report is deterministic except for its wall-clock field
    assert cli.main(list(("verify",) + n7a + ("--json",))) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("elapsed_s")
    chunks.append(json.dumps(report, sort_keys=True))
    return "".join(chunks)


def test_criterion_7_determinism(capsys):
    failures = []
    first = _cli_outputs(capsys)
    second = _cli_outputs(capsys)
    if first != second:
        failures.append("repeated runs differ byte-for-byte")
    with capsys.disabled():
        _verdict(7, "byte-identical JSON across repeated runs", failures)
