import ast
import json
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from u4codes import GF, build_code, cli, compute_decomposition, dual_code

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
    from u4codes import AmbientElement, compute_tau, decomposition as decomp_mod
    code, out, _ = run(capsys, "idempotents", *N7A, "--json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, load_schema("decomposition.schema.json"))
    d = decomp_mod.from_json(obj)
    total = AmbientElement.zero(d.gf, d.n, d.lam)
    for fd in d.factors:
        total = total + fd.e
        assert fd.e * fd.e == fd.e
    assert total == AmbientElement.one(d.gf, d.n, d.lam)
    assert compute_tau(d.gf, d.delta, d.factors) == d.tau


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


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def test_indented_writer_matches_json_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ints = st.integers() | st.booleans()
    scalars = st.none() | ints | st.floats() | st.text()
    # lists of int lists of one length take the writer's column path
    rows = st.integers(0, 4).flatmap(
        lambda k: st.lists(st.lists(ints, min_size=k, max_size=k)
                           | st.tuples(*[st.integers()] * k), max_size=5))
    values = st.recursive(
        scalars | rows,
        lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(st.text(), inner, max_size=4)),
        max_leaves=20)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(values)
    def same_bytes(obj):
        assert cli._indented(obj, "") == _dumps(obj)

    same_bytes()


@pytest.mark.parametrize("obj", [{1: 2}, {"a": {None: 1}}, [{"a": 1, 2.5: 0}]])
def test_indented_writer_rejects_keys_that_are_not_str(obj):
    with pytest.raises(TypeError, match="keys must be str"):
        cli._indented(obj, "")


def test_codes_index_json_is_json_dumps_at_q2_n255(capsys):
    d = compute_decomposition(GF(2), 255, 1, 1)
    idx = [(3 * j) % 5 for j in range(d.r)]
    obj = {"code": build_code(d, idx).to_json(), "dual": dual_code(d, idx).to_json(),
           "log_q_product": 4 * d.n}
    cli._emit_json(obj)
    out = capsys.readouterr().out
    assert out == _dumps(obj) + "\n"
    argv = ("codes", "--p", "2", "--n", "255", "--delta", "1", "--alpha", "1",
            "--index", ",".join(map(str, idx)), "--json")
    assert run(capsys, *argv)[1] == out


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


def test_verify_warns_above_the_oracle_dimension_cap(capsys):
    # 4n = 260 exceeds cli.ORACLE_DIM_WARN; the warning comes before the index
    # is read, so a bad index keeps the check cheap
    args = ("--p", "2", "--delta", "1", "--alpha", "1", "--scope", "index", "--index", "9")
    code, out, err = run(capsys, "verify", "--n", "65", *args)
    assert code == 2 and out == ""
    assert "warning: oracle works in dimension 260" in err
    code, _, err = run(capsys, "verify", "--n", "63", *args)
    assert code == 2
    assert "warning" not in err


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


@pytest.mark.parametrize("modulus", ["-7", "0", "3", "8"])
def test_modulus_outside_degree_m_is_a_validation_error(capsys, modulus):
    # a degree-2 modulus over GF(2) is an integer in [4, 8)
    code, out, err = run(capsys, "factor", "--p", "2", "--m", "2", "--modulus", modulus,
                         "--n", "3", "--delta", "1")
    assert code == 2
    assert out == ""
    assert "does not encode a degree-2 polynomial" in err


@pytest.mark.parametrize("field", [("--p", "1000000016000000063"), ("--p", "2", "--m", "64"),
                                   ("--p", "3", "--m", "30000000", "--modulus", "5")])
def test_oversized_field_is_rejected_before_any_work(capsys, field):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "factor", *field, "--n", "3", "--delta", "1")
    assert time.perf_counter() - t0 < 5    # no trial division, no O(q) tables
    assert code == 2
    assert out == ""
    assert "too large" in err


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


def test_every_exported_name_is_reachable_from_main():
    # the runtime keeps only what the CLI needs: every public name lies in the
    # closure of module-level names that cli.main reaches across the package;
    # class bodies count whole and names are keyed bare, so the closure may
    # over-approximate but never misses a use
    import u4codes
    defs = {}
    for path in Path(u4codes.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defs.setdefault(target.id, []).append(node)
    reached, todo = set(), ["main"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in defs.get(name, ()):
            for sub in ast.walk(node):
                ref = (sub.id if isinstance(sub, ast.Name)
                       else sub.attr if isinstance(sub, ast.Attribute) else None)
                if ref in defs:
                    todo.append(ref)
    assert sorted(set(u4codes.__all__) - reached) == []


def test_the_runtime_imports_only_the_standard_library():
    # pyproject.toml declares `dependencies = []`: every import in the package
    # is relative or names a standard-library module
    import u4codes
    for path in Path(u4codes.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_importing_the_package_leaves_inspect_unloaded():
    # dataclasses imports inspect, ast and dis: about 1 MB resident per process
    code = "import sys, u4codes; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
