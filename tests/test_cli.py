import json
from pathlib import Path

import jsonschema
import pytest

from u4codes import cli

SCHEMA_DIR = Path(cli.__file__).resolve().parent / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


N7 = ("--p", "2", "--n", "7", "--delta", "1")
N7A = N7 + ("--alpha", "1")


def test_factor_text(capsys):
    code, out, _ = run(capsys, "factor", *N7)
    assert code == 0
    assert "f1 = x + 1" in out
    assert "f2 = x^3 + x + 1" in out
    assert "f3 = x^3 + x^2 + 1" in out


def test_factor_length_one(capsys):
    code, out, _ = run(capsys, "factor", "--p", "2", "--n", "1", "--delta", "1")
    assert code == 0
    assert "f1 = x + 1" in out


def test_factor_json_schema(capsys):
    code, out, _ = run(capsys, "factor", *N7, "--json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, load_schema("factorization.schema.json"))
    assert [f["coeffs"] for f in obj["factors"]] == [[1, 1], [1, 1, 0, 1], [1, 0, 1, 1]]


def test_factor_not_coprime_is_a_validation_error(capsys):
    code, out, err = run(capsys, "factor", "--p", "3", "--n", "6", "--delta", "1")
    assert code == 2
    assert out == ""
    assert "error:" in err and "gcd" in err


def test_zero_delta_rejected(capsys):
    code, _, err = run(capsys, "factor", "--p", "3", "--n", "4", "--delta", "0")
    assert code == 2
    assert "delta" in err


def test_idempotents_text(capsys):
    code, out, _ = run(capsys, "idempotents", *N7A)
    assert code == 0
    assert "e = x^6 + (u^2 + 1)*x^5 + x^4 + (u^2 + 1)*x^3 + x^2 + (u^2 + 1)*x + 1" in out
    assert "e = x^4 + x^2 + (u^2 + 1)*x + 1" in out
    assert "e = x^6 + (u^2 + 1)*x^5 + (u^2 + 1)*x^3 + 1" in out
    assert "tau: 1->1, 2->3, 3->2" in out
    assert "rho = 1" in out
    assert "eps_pairs = 1" in out


def test_idempotents_json_round_trips(capsys):
    from u4codes import compute_tau, decomposition as decomp_mod
    code, out, _ = run(capsys, "idempotents", *N7A, "--json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, load_schema("decomposition.schema.json"))
    d = decomp_mod.from_json(obj)
    total = d.ambient_zero()
    for fd in d.factors:
        total = total + fd.e
        assert fd.e * fd.e == fd.e
    assert total == d.ambient_one()
    assert compute_tau(d) == d.tau


def test_codes_stream(capsys):
    code, out, _ = run(capsys, "codes", *N7A)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 125
    assert lines[0].startswith("index=(0,0,0)")
    assert lines[-1].startswith("index=(4,4,4)")


def test_codes_stream_json_schema(capsys):
    code, out, _ = run(capsys, "codes", *N7A, "--json", "--limit", "10")
    assert code == 0
    schema = load_schema("code_record.schema.json")
    lines = out.strip().splitlines()
    assert len(lines) == 10
    for line in lines:
        jsonschema.validate(json.loads(line), schema)


def test_codes_single_index(capsys):
    code, out, _ = run(capsys, "codes", *N7A, "--index", "2,2,2")
    assert code == 0
    assert "generator = u^2" in out
    assert "|C| = 2^14" in out
    assert "product = 2^28" in out


def test_codes_single_index_json(capsys):
    code, out, _ = run(capsys, "codes", *N7A, "--index", "2,2,2", "--json")
    assert code == 0
    obj = json.loads(out)
    schema = load_schema("code_record.schema.json")
    jsonschema.validate(obj["code"], schema)
    jsonschema.validate(obj["dual"], schema)
    assert obj["log_q_product"] == 28


def test_codes_bad_index_length(capsys):
    code, _, err = run(capsys, "codes", *N7A, "--index", "2,2")
    assert code == 2
    assert "length" in err


def test_dual_subcommand(capsys):
    code, out, _ = run(capsys, "dual", *N7A, "--index", "2,0,4")
    assert code == 0
    assert "index=(2,0,4)" in out
    code, _, err = run(capsys, "dual", *N7A)
    assert code == 2
    assert "--index" in err


def test_selfdual_text(capsys):
    code, out, _ = run(capsys, "selfdual", *N7A)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6   # five codes + summary
    assert "generator = u^2" in lines[2]
    assert "5 self-dual codes" in lines[-1]


def test_selfdual_rejected_for_odd_characteristic(capsys):
    code, _, err = run(capsys, "selfdual", "--p", "3", "--n", "4",
                       "--delta", "1", "--alpha", "1")
    assert code == 2
    assert "delta = 1" in err


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", *N7A, "--json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, load_schema("verify_report.schema.json"))
    assert obj["codes"] == 125
    assert obj["cardinality_pass"] == 125
    assert obj["constacyclic_pass"] == 125
    assert obj["duality_pass"] == 125
    assert obj["pass"] is True


def test_verify_index_and_selfdual(capsys):
    code, out, _ = run(capsys, "verify", *N7A, "--scope", "index",
                       "--index", "2,1,3", "--json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, load_schema("verify_report.schema.json"))
    assert obj["dim"] == 14 and obj["dual_dim"] == 14
    assert obj["cardinality"] and obj["constacyclic"] and obj["duality"]
    assert obj["pass"] is True

    code, out, _ = run(capsys, "verify", *N7A, "--scope", "selfdual", "--json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, load_schema("verify_report.schema.json"))
    assert obj["expected"] == 5 and obj["confirmed"] == 5 and obj["pass"] is True


def test_verify_nonprime_field_instance(capsys):
    code, out, _ = run(capsys, "verify", "--p", "2", "--m", "2", "--n", "3",
                       "--delta", "1", "--alpha", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    # x^3 - 1 splits into three linear factors over GF(4), so 5^3 codes
    assert obj["pass"] is True and obj["codes"] == 5 ** 3


def test_enumeration_cap(capsys):
    # r = 9 over GF(2) at n = 73, so 5^9 > 10^6 is refused without --force
    args = ("--p", "2", "--n", "73", "--delta", "1", "--alpha", "1")
    code, _, err = run(capsys, "codes", *args)
    assert code == 2
    assert "cap" in err
    code, out, _ = run(capsys, "codes", *args, "--limit", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize("window", [("--start", "-3", "--limit", "2"),
                                    ("--limit", "-1")], ids=["start", "limit"])
@pytest.mark.parametrize("command", [("codes",), ("verify", "--scope", "all")],
                         ids=["codes", "verify"])
def test_negative_start_or_limit_is_a_validation_error(capsys, command, window):
    # a negative rank would wrap to the last codes; a negative limit emits none
    code, out, err = run(capsys, *command, *N7A, *window)
    assert code == 2
    assert out == ""
    assert "must be" in err


def test_explicit_modulus_and_field_display(capsys):
    code, out, _ = run(capsys, "factor", "--p", "2", "--m", "2", "--modulus", "7",
                       "--n", "5", "--delta", "2", "--field-display")
    assert code == 0
    assert "y" in out
    code, _, err = run(capsys, "factor", "--p", "2", "--m", "2", "--modulus", "6",
                       "--n", "5", "--delta", "2")
    assert code == 2   # 6 encodes y^2 + y, not monic-irreducible material


def test_verify_failure_exits_3(capsys, monkeypatch):
    from u4codes import oracle
    monkeypatch.setattr(oracle, "check_constacyclic", lambda fc: False)
    code, out, _ = run(capsys, "verify", *N7A, "--scope", "index",
                       "--index", "2,2,2", "--json")
    assert code == 3
    obj = json.loads(out)
    assert obj["pass"] is False
    assert obj["constacyclic"] is False


def test_unclosed_span_is_a_verification_failure(capsys, monkeypatch):
    # an oracle span that loses a basis row is no longer an ideal: the closure
    # check reports it as a failed check with exit 3, not as a traceback
    from u4codes import oracle
    rref = oracle.rref
    monkeypatch.setattr(oracle, "rref", lambda gf, rows: tuple(
        part[:-1] for part in rref(gf, rows)))
    code, out, _ = run(capsys, "verify", *N7A, "--scope", "index",
                       "--index", "1,2,3", "--json")
    assert code == 3
    obj = json.loads(out)
    assert obj["pass"] is False
    assert obj["constacyclic"] is False


def test_determinism_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        blob = []
        for argv in (("factor",) + N7 + ("--json",),
                     ("idempotents",) + N7A + ("--json",),
                     ("codes",) + N7A + ("--json",),
                     ("dual",) + N7A + ("--index", "1,2,3", "--json"),
                     ("selfdual",) + N7A + ("--json",)):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            blob.append(out)
        outputs.append("".join(blob))
    assert outputs[0] == outputs[1]


def test_seed_env_var(monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV, "4242")
    parser = cli.build_parser()
    # the env var is read at parser build time through the default
    code, out, _ = run(capsys, "factor", *N7, "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 4242
