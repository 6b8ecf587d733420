"""Command-line front end: factor -> idempotents -> codes -> dual/selfdual -> verify.

Field elements on the command line are integer encodings (c_0 + c_1*p +
... in the power basis); --field-display switches the text rendering to
the polynomial basis.  Text and JSON modes encode the same data; JSON is
emitted with sorted keys so identical configurations produce identical
bytes (the verify report additionally carries a wall-clock "elapsed_s"
field, which is the one value exempt from that guarantee).

Exit codes: 0 success, 2 validation error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import codes as codes_mod
from . import decomposition as decomp_mod
from . import oracle, poly
from .chainring import ambient_str, ring_str
from .factor import DEFAULT_SEED, factor_xn_minus_delta
from .field import GF

SEED_ENV = "U4CODES_SEED"
ENUM_CAP = 10 ** 6          # refuse full enumeration beyond this without --force
ORACLE_DIM_WARN = 256       # warn when flat dimension 4n exceeds this


def _default_seed() -> int:
    try:
        return int(os.environ[SEED_ENV])
    except (KeyError, ValueError):
        return DEFAULT_SEED


def _modulus_from_int(p: int, m: int, value: int) -> tuple[int, ...]:
    digits = []
    v = value
    while v:
        digits.append(v % p)
        v //= p
    if len(digits) != m + 1:
        raise ValueError(
            f"--modulus {value} does not encode a degree-{m} polynomial over GF({p})")
    return tuple(digits)


def _field(args) -> GF:
    modulus = None
    if args.modulus is not None:
        modulus = _modulus_from_int(args.p, args.m, args.modulus)
    return GF(args.p, args.m, modulus)


def _unit(gf: GF, value: int, name: str) -> int:
    gf.check(value)
    if value == 0:
        raise ValueError(f"{name} must be a nonzero element of GF({gf.q})")
    return value


def _parse_index(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--index must be comma-separated integers, got {text!r}")


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _emit_json_line(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _record_text(rec, gf, pb: bool) -> str:
    idx = ",".join(str(l) for l in rec.index)
    return (f"index=({idx}) log_q_size={rec.log_q_size} "
            f"generator = {ambient_str(rec.generator, poly_basis=pb)}")


# -- subcommands --------------------------------------------------------------


def cmd_factor(args) -> int:
    gf = _field(args)
    delta = _unit(gf, args.delta, "delta")
    fact = factor_xn_minus_delta(gf, args.n, delta, seed=args.seed)
    pb = args.field_display
    if args.json:
        obj = {"p": gf.p, "m": gf.m, "modulus": list(gf.modulus),
               "n": fact.n, "delta": fact.delta, "seed": args.seed,
               "count": fact.r, "factors": [
                   {"coeffs": list(f), "degree": len(f) - 1} for f in fact.factors]}
        _emit_json(obj)
    else:
        dstr = gf.element_str(delta, poly_basis=pb)
        print(f"x^{fact.n} - {dstr} over GF({gf.q}): {fact.r} irreducible factors")
        for j, f in enumerate(fact.factors, start=1):
            print(f"  f{j} = {poly.to_str(gf, f, poly_basis=pb)}")
    return 0


def _decomposition(args):
    gf = _field(args)
    delta = _unit(gf, args.delta, "delta")
    alpha = _unit(gf, args.alpha, "alpha")
    return decomp_mod.compute_decomposition(gf, args.n, delta, alpha, seed=args.seed)


def cmd_idempotents(args) -> int:
    d = _decomposition(args)
    if args.json:
        _emit_json(decomp_mod.to_json(d))
        return 0
    gf, pb = d.gf, args.field_display
    print(f"lambda = {ring_str(d.lam, poly_basis=pb)}  (ambient R[x]/(x^{d.n} - lambda))")
    for j, fd in enumerate(d.factors, start=1):
        print(f"j={j}: f = {poly.to_str(gf, fd.f, poly_basis=pb)}")
        print(f"     eps = {poly.to_str(gf, fd.idempotent, poly_basis=pb)}")
        print(f"     e = {ambient_str(fd.e, poly_basis=pb)}")
        print(f"     omega = {poly.to_str(gf, fd.omega, poly_basis=pb)}")
    print("tau: " + ", ".join(f"{j + 1}->{k + 1}" for j, k in enumerate(d.tau)))
    print(f"rho = {d.rho}")
    print(f"eps_pairs = {d.eps_pairs}")
    return 0


def _check_enum_cap(d, args) -> None:
    total = codes_mod.index_count(d)
    if args.limit is None and total > ENUM_CAP and not args.force:
        raise ValueError(
            f"5^{d.r} = {total} codes exceeds the cap of {ENUM_CAP}; "
            f"pass --limit or --force")


def cmd_codes(args) -> int:
    d = _decomposition(args)
    pb = args.field_display
    if args.index is not None:
        idx = codes_mod.validate_index(d, _parse_index(args.index))
        rec = codes_mod.build_code(d, idx)
        dual = codes_mod.dual_code(d, idx)
        if args.json:
            _emit_json({"code": rec.to_json(), "dual": dual.to_json(),
                        "log_q_product": 4 * d.n})
        else:
            q = d.gf.q
            print("code  " + _record_text(rec, d.gf, pb))
            print("dual  " + _record_text(dual, d.gf, pb))
            print(f"dual ambient lambda^(-1) = {ring_str(dual.ambient_lambda, poly_basis=pb)}")
            print(f"|C| = {q}^{rec.log_q_size}, |C^perp| = {q}^{dual.log_q_size}, "
                  f"product = {q}^{4 * d.n}")
        return 0
    _check_enum_cap(d, args)
    start = args.start or 0
    for rec in codes_mod.enumerate_codes(d, start=start, limit=args.limit):
        if args.json:
            _emit_json_line(rec.to_json())
        else:
            print(_record_text(rec, d.gf, pb))
    return 0


def cmd_dual(args) -> int:
    if args.index is None:
        raise ValueError("dual requires --index")
    d = _decomposition(args)
    idx = codes_mod.validate_index(d, _parse_index(args.index))
    dual = codes_mod.dual_code(d, idx)
    if args.json:
        _emit_json({"dual": dual.to_json(), "log_q_product": 4 * d.n})
    else:
        pb = args.field_display
        print("dual  " + _record_text(dual, d.gf, pb))
        print(f"dual ambient lambda^(-1) = {ring_str(dual.ambient_lambda, poly_basis=pb)}")
    return 0


def cmd_selfdual(args) -> int:
    d = decomp_mod.canonical_rearrange(_decomposition(args))
    pb = args.field_display
    count = 0
    for rec in codes_mod.self_dual_codes(d):
        count += 1
        if args.json:
            _emit_json_line(rec.to_json(self_dual=True))
        else:
            print(_record_text(rec, d.gf, pb))
    if not args.json:
        print(f"{count} self-dual codes (5^eps_pairs with eps_pairs = {d.eps_pairs})")
    return 0


def cmd_verify(args) -> int:
    d = _decomposition(args)
    if 4 * d.n > args.warn_dim:
        print(f"warning: oracle works in dimension {4 * d.n}; this may be slow",
              file=sys.stderr)
    t0 = time.perf_counter()
    if args.scope == "index":
        if args.index is None:
            raise ValueError("verify --scope index requires --index")
        idx = codes_mod.validate_index(d, _parse_index(args.index))
        report = _verify_one(d, codes_mod.build_code(d, idx))
    elif args.scope == "selfdual":
        report = _verify_selfdual(d)
    else:
        _check_enum_cap(d, args)
        recs = codes_mod.enumerate_codes(d, start=args.start or 0, limit=args.limit)
        report = _verify_records(d, recs)
    report["scope"] = args.scope
    report["elapsed_s"] = round(time.perf_counter() - t0, 3)
    if args.json:
        _emit_json(report)
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")
    return 0 if report["pass"] else 3


def _verify_one(d, rec) -> dict:
    """Per-check booleans and dimensions for a single code."""
    fc = oracle.span_ideal(rec.generator)
    dual = codes_mod.dual_code(d, rec.index)
    fd = oracle.span_ideal(dual.generator)
    checks = {
        "cardinality": fc.dim == rec.log_q_size,
        "constacyclic": oracle.check_constacyclic(fc) and oracle.check_constacyclic(fd),
        "duality": (oracle.check_duality(fc, fd)
                    and rec.log_q_size + dual.log_q_size == 4 * d.n),
    }
    return {"dim": fc.dim, "dual_dim": fd.dim, **checks,
            "pass": all(checks.values())}


def _verify_records(d, recs) -> dict:
    n_codes = card = shift = dual_ok = 0
    for rec in recs:
        n_codes += 1
        one = _verify_one(d, rec)
        card += one["cardinality"]
        shift += one["constacyclic"]
        dual_ok += one["duality"]
    ok = n_codes == card == shift == dual_ok
    return {"codes": n_codes, "cardinality_pass": card,
            "constacyclic_pass": shift, "duality_pass": dual_ok, "pass": ok}


def _verify_selfdual(d) -> dict:
    dc = decomp_mod.canonical_rearrange(d)
    expected = 5 ** dc.eps_pairs
    confirmed = 0
    count = 0
    for rec in codes_mod.self_dual_codes(dc):
        count += 1
        if oracle.check_self_dual(rec):
            confirmed += 1
    ok = count == expected and confirmed == expected
    return {"expected": expected, "enumerated": count,
            "confirmed": confirmed, "pass": ok}


# -- argument parsing ----------------------------------------------------------


def _add_common(sub, alpha: bool = True) -> None:
    sub.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    sub.add_argument("--m", type=int, default=1, help="extension degree (default 1)")
    sub.add_argument("--modulus", type=int, default=None,
                     help="integer-encoded field modulus (optional)")
    sub.add_argument("--n", type=int, required=True, help="code length")
    sub.add_argument("--delta", type=int, required=True,
                     help="integer-encoded unit delta")
    if alpha:
        sub.add_argument("--alpha", type=int, required=True,
                         help="integer-encoded unit alpha")
    sub.add_argument("--seed", type=int, default=_default_seed(),
                     help=f"PRNG seed (default from ${SEED_ENV} or {DEFAULT_SEED})")
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument("--field-display", action="store_true",
                     help="print field elements in the polynomial basis")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="u4codes",
        description="Constacyclic codes over GF(q)[u]/(u^4): construct, "
                    "enumerate, dualize, verify.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_factor = subs.add_parser("factor", help="factor x^n - delta over GF(q)")
    _add_common(p_factor, alpha=False)
    p_factor.set_defaults(func=cmd_factor)

    p_idem = subs.add_parser("idempotents",
                             help="CRT idempotents, omegas and the reciprocal permutation")
    _add_common(p_idem)
    p_idem.set_defaults(func=cmd_idempotents)

    p_codes = subs.add_parser("codes", help="enumerate codes, or show one with its dual")
    _add_common(p_codes)
    p_codes.add_argument("--index", default=None, help="exponent tuple, e.g. 2,2,2")
    p_codes.add_argument("--start", type=int, default=0,
                         help="lexicographic rank to start from")
    p_codes.add_argument("--limit", type=int, default=None,
                         help="maximum number of codes to emit")
    p_codes.add_argument("--force", action="store_true",
                         help="allow enumerations beyond the safety cap")
    p_codes.set_defaults(func=cmd_codes)

    p_dual = subs.add_parser("dual", help="the dual of one code")
    _add_common(p_dual)
    p_dual.add_argument("--index", default=None, help="exponent tuple of the code")
    p_dual.set_defaults(func=cmd_dual)

    p_sd = subs.add_parser("selfdual", help="all self-dual codes (q = 2^m, delta = 1)")
    _add_common(p_sd)
    p_sd.set_defaults(func=cmd_selfdual)

    p_ver = subs.add_parser("verify", help="independent oracle verification")
    _add_common(p_ver)
    p_ver.add_argument("--scope", choices=("all", "index", "selfdual"), default="all")
    p_ver.add_argument("--index", default=None, help="exponent tuple for --scope index")
    p_ver.add_argument("--start", type=int, default=0)
    p_ver.add_argument("--limit", type=int, default=None)
    p_ver.add_argument("--force", action="store_true")
    p_ver.add_argument("--warn-dim", type=int, default=ORACLE_DIM_WARN,
                       help="warn when the oracle dimension 4n exceeds this")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
