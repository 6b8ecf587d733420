"""Tests of the benchmark itself: python3 -m pytest u4bench -q

Each workload's checker runs on a tiny instance (n = 7 over GF(2)) and
must pass the program's outputs, then must reject deliberately corrupted
ones: a wrong index, a flipped coefficient, a wrong size exponent.
"""

from __future__ import annotations

import copy
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from u4codes import oracle, poly  # noqa: E402


class Enum7(workloads.EnumQ2N255):
    n = 7
    setup_reps = 2


class Selfdual7(workloads.SelfdualQ2N31):
    n = 7
    setup_reps = 2


class Verify7(workloads.VerifyQ243N20):
    p, m, n, delta, alpha = 2, 1, 7, 1, 1
    setup_reps = 2


def prepared(cls, seed=5):
    wl = cls(seed)
    d = wl.setup()
    wl.prepare(d)
    return wl, d


def run_ops(wl, d, count):
    tally = run.Tally()
    run.code_pass(wl, d, tally, wl.ops(d), count=count)
    return tally


# -- independent arithmetic ------------------------------------------------------


def test_cyclotomic_degrees_match_known_factorizations():
    assert checks.cyclotomic_degrees(2, 7, 1) == [1, 3, 3]
    assert len(checks.cyclotomic_degrees(2, 255, 1)) == 35
    assert checks.cyclotomic_degrees(2, 31, 1) == [1, 5, 5, 5, 5, 5, 5]
    assert checks.prime_field_order(2, 3) == 2
    assert checks.cyclotomic_degrees(243, 20, 2) == [2, 2, 4, 4, 4, 4]


def test_gf2_arithmetic_and_sympy():
    a, b = 0b1011, 0b111
    assert checks.divmod2(checks.clmul(a, b), b) == (a, 0)
    assert checks.sympy_factors2(7) == sorted([0b11, 0b1011, 0b1101])
    assert checks.monic_reversal2(0b1011) == 0b1101
    assert checks.rank_to_index(5 ** 3 - 1, 3) == (4, 4, 4)
    assert checks.rank_to_index(7, 3) == (0, 1, 2)


# -- each workload's checker passes the program's outputs ------------------------


@pytest.mark.parametrize("cls,count", [(Enum7, 20), (Selfdual7, 8), (Verify7, 10)])
def test_workload_checks_pass_on_program_output(cls, count):
    wl, d = prepared(cls)
    tally = run_ops(wl, d, count)
    problems = tally.problems + wl.finish(d, tally.seen)
    assert (tally.attempted, tally.failed, problems) == (count, 0, [])


@pytest.mark.parametrize("cls", [Enum7, Selfdual7, Verify7])
def test_ops_resume_the_same_sequence_on_a_fresh_decomposition(cls):
    wl, d = prepared(cls)
    whole = [op()[0] for op in itertools.islice(wl.ops(d), 40)]
    for start in (5, 18):          # inside the first stretch, and past it
        resumed = [op()[0] for op in itertools.islice(wl.ops(wl.setup(), start=start),
                                                      40 - start)]
        assert resumed == whole[start:]


def test_enum_streams_stretches_from_fresh_seeded_ranks():
    wl, d = prepared(Enum7)
    ranks = [op()[0] for op in itertools.islice(wl.ops(d), 3 * wl.stretch)]
    stretches = [ranks[i:i + wl.stretch] for i in range(0, len(ranks), wl.stretch)]
    assert all(s == list(range(s[0], s[0] + wl.stretch)) for s in stretches)
    assert len({s[0] for s in stretches}) == 3


def test_untraced_run_reports_the_end_to_end_metrics():
    tally, detail = run.Tally(), {}
    metrics = run.run_untraced(Selfdual7(3), 0.05, tally, detail)
    assert tally.problems == [] and tally.failed == 0
    assert set(metrics) == {"setup_s", "codes_per_s", "peak_rss_mb"}
    assert len(detail["setup_samples_s"]) == Selfdual7.setup_reps


def test_selfdual_finish_confirms_codes_the_timed_phase_missed():
    wl, d = prepared(Selfdual7)
    assert len(wl.round) == 5 + wl.controls
    assert wl.finish(d, seen=set()) == []


@pytest.mark.parametrize("cls", [Enum7, Selfdual7, Verify7])
def test_traced_run_reports_layers_and_restores_the_program(cls):
    originals = (poly.mul, oracle.rref, workloads.serialise, type(d_field()).mul)
    tally, detail = run.Tally(), {}
    metrics = run.run_traced(cls(3), 0.05, tally, detail)
    assert tally.problems == [] and tally.failed == 0
    assert set(metrics) <= set(run.units())
    assert metrics["poly.mul_calls"] > 0 and metrics["field.mul_calls_per_code"] > 0
    assert (poly.mul, oracle.rref, workloads.serialise, type(d_field()).mul) == originals
    if cls is Enum7:
        assert metrics["cli.bytes_per_code"] > 0 and metrics["codes.dual_ms"] > 0
    else:
        assert metrics["oracle.rref_calls"] in (2, 3) and metrics["oracle.span_ms"] > 0


def d_field():
    return workloads.make_field(2, 1)


# -- each check rejects a corrupted output ----------------------------------------


def enum_output(wl, d, rank):
    from u4codes import codes
    rec = list(codes.enumerate_codes(d, start=rank, limit=1))[0]
    return json.loads(workloads.serialise(d, rec, codes.dual_code(d, rec.index)))


def flip(coeffs, pos=0, k=0):
    coeffs[pos][k] ^= 1


@pytest.mark.parametrize("corrupt", [
    lambda o: o["code"]["index"].__setitem__(0, (o["code"]["index"][0] + 1) % 5),
    lambda o: flip(o["code"]["generator"]["coeffs"], 3, 0),
    lambda o: flip(o["code"]["generator"]["coeffs"], 6, 2),
    lambda o: o["code"].__setitem__("log_q_size", o["code"]["log_q_size"] + 1),
    lambda o: o["dual"]["index"].reverse(),
    lambda o: o["dual"].__setitem__("log_q_size", o["dual"]["log_q_size"] - 1),
    lambda o: flip(o["dual"]["generator"]["coeffs"], 5, 1),
    lambda o: o.__setitem__("log_q_product", 27),
    lambda o: o["dual"].__setitem__("lambda", [1, 0, 0, 0]),
])
def test_enum_check_rejects_corruption(corrupt):
    wl, d = prepared(Enum7)
    rank = 38                      # index (1, 2, 3): every exponent distinct
    good = enum_output(wl, d, rank)
    assert wl.expect.problems(rank, good) == []
    bad = copy.deepcopy(good)
    corrupt(bad)
    assert wl.expect.problems(rank, bad)


def test_enum_setup_checks_reject_corruption():
    wl, d = prepared(Enum7)
    fj = copy.deepcopy(wl.factor_json)
    assert checks.idempotent_problems2(7, fj) == []
    fj[1]["idempotent"]["coeffs"][0] ^= 1
    assert checks.idempotent_problems2(7, fj)
    fj = copy.deepcopy(wl.factor_json)
    flip(fj[2]["e"]["coeffs"], 4, 2)
    assert checks.idempotent_problems2(7, fj)
    factors = [fo["f"]["coeffs"] for fo in wl.factor_json]
    sym = checks.sympy_factors2(7)
    assert checks.gf2_factor_problems(factors, 7, sym) == []
    assert checks.gf2_factor_problems([[1, 1], [1, 1, 0, 1], [1, 1, 0, 1]], 7, sym)
    assert checks.factor_degree_problems(factors, 2, 7, 1) == []
    assert checks.factor_degree_problems([[1, 1], [1, 1], [1, 0, 1, 1, 1]], 2, 7, 1)


def test_selfdual_checks_reject_corruption():
    wl, d = prepared(Selfdual7)
    assert checks.self_dual_family_problems(wl.perm, wl.enumerated) == []
    wrong = list(wl.enumerated)
    wrong[0] = (wrong[0][0], 4 - wrong[0][1], wrong[0][2])    # a wrong index
    assert checks.self_dual_family_problems(wl.perm, wrong)
    assert checks.self_dual_family_problems(wl.perm, wl.enumerated[:-1])
    index = wl.enumerated[0]
    control = wl.round[-1]
    expected, n = wl.expected, wl.n
    assert checks.self_dual_verdict_problems(expected, n, index, (index, 2 * n, True)) == []
    assert checks.self_dual_verdict_problems(expected, n, index, (index, 2 * n, False))
    assert checks.self_dual_verdict_problems(expected, n, index, (index, 2 * n + 1, True))
    assert checks.self_dual_verdict_problems(expected, n, index, (control, 2 * n, True))
    assert checks.self_dual_verdict_problems(expected, n, control, (control, 9, True))


def test_selfdual_workload_catches_an_oracle_that_accepts_controls(monkeypatch):
    wl, d = prepared(Selfdual7)
    monkeypatch.setattr(oracle, "check_self_dual", lambda rec: True)
    tally = run_ops(wl, d, len(wl.round))
    assert len(tally.problems) == wl.controls


def test_verify_checks_reject_corruption(monkeypatch):
    wl, d = prepared(Verify7)
    index = (1, 2, 3)
    dim = checks.size_exponent(index, wl.degrees)
    good = {"dim": dim, "dual_dim": 28 - dim, "cardinality": True,
            "constacyclic": True, "duality": True, "pass": True}
    assert checks.verify_report_problems(index, wl.degrees, 7, good) == []
    for key, value in [("dim", dim + 1), ("dual_dim", dim), ("constacyclic", False),
                       ("duality", False), ("pass", False)]:
        assert checks.verify_report_problems(index, wl.degrees, 7, {**good, key: value})
    assert checks.verify_report_problems((2, 2, 3), wl.degrees, 7, good)   # a wrong index
    monkeypatch.setattr(oracle, "check_duality", lambda a, b: True)
    assert len(wl.finish(d, set())) == wl.controls


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "selfdual-q2-n31",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
