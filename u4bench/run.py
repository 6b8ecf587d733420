"""Benchmark of u4codes, run from the root of a checkout:

    python3 u4bench/run.py --workload NAME --seed N --seconds T --trace 0|1

An untraced run (--trace 0) measures for T seconds in `setup_reps` equal
slices.  Each slice times one set-up of the workload's decomposition and
then runs per-code operations for the rest of the slice with that
decomposition, going on where the previous slice stopped; only one
decomposition is alive at a time.  Spreading the set-ups
over the run samples the host at many moments rather than one (its speed
drifts over tens of seconds).  Each output is checked between operations,
untimed.  The run reports the end-to-end metrics setup_s (median set-up),
codes_per_s (operations done / their summed wall time) and peak_rss_mb
(peak resident memory before the whole-run checks, which may import
sympy).

A traced run (--trace 1) reports the per-layer metrics instead.  It sets up
untraced and then traced, then runs the per-code operations for T/3
seconds in blocks of about BLOCK_S seconds, each block untraced and then
again with spans on every public function of the layers, and finally runs
`count_ops` operations with the
arithmetic kernels counted as well, so the call counts repeat exactly for
a seed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; diagnostics go to stderr, and the whole
result with the trace goes to u4bench/results/.  The exit code is 0 when
every output passed its checks, 1 when one did not, and 2 when the
program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BLOCK_S = 0.5     # untraced seconds of a block of the traced run's interleaved passes


def units() -> dict[str, str]:
    """The unit of every metric, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def host_probe_ms(reps: int = 15) -> float:
    """Median time of a fixed pure-Python kernel.  A diagnostic of host
    speed only: it is neither a metric nor used to adjust one."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tally:
    """Operations attempted and failed, problems found, inputs done."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.seen: set = set()


def timed_setup(wl):
    t0 = time.perf_counter()
    d = wl.setup()
    return time.perf_counter() - t0, d


def timed_setups(wl, reps: int):
    times, d = [], None
    for _ in range(reps):
        d = None                      # one decomposition alive at a time
        dt, d = timed_setup(wl)
        times.append(dt)
    return times, d


def code_pass(wl, d, tally: Tally, ops, seconds: float | None = None,
              count: int | None = None) -> tuple[float, int]:
    """Run operations from ops until their summed wall time reaches
    `seconds`, or `count` of them; return (summed wall time, operations done)."""
    busy, done = 0.0, 0
    for op in ops:
        t0 = time.perf_counter()
        try:
            inp, out = op()
        except Exception as exc:  # a failed operation is counted; the run goes on
            busy += time.perf_counter() - t0
            tally.failed += 1
            tally.problems.append(f"operation failed: {exc!r}")
        else:
            busy += time.perf_counter() - t0
            tally.seen.add(inp)
            tally.problems += wl.check_op(d, inp, out)
        tally.attempted += 1
        done += 1
        if (seconds is not None and busy >= seconds) or (count is not None and done >= count):
            return busy, done
    raise AssertionError("ops() must be endless")  # pragma: no cover


def run_untraced(wl, seconds: float, tally: Tally, detail: dict) -> dict:
    times, busy, done = [], 0.0, 0
    for i in range(wl.setup_reps):
        ops = d = None                # one decomposition alive at a time
        dt, d = timed_setup(wl)
        times.append(dt)
        if i == 0:
            wl.prepare(d)
        # each slice is one set-up and then operations, seconds/setup_reps in all;
        # the operations go on where the previous slice stopped
        ops = wl.ops(d, start=done)
        b, n = code_pass(wl, d, tally, ops, seconds=seconds / wl.setup_reps - dt)
        busy += b
        done += n
    rss = peak_rss_mb()
    tally.problems += wl.finish(d, tally.seen)
    detail.update(setup_samples_s=times, busy_s=busy, ops_done=done)
    return {"setup_s": statistics.median(times),
            "codes_per_s": (done - tally.failed) / busy,
            "peak_rss_mb": rss}


def run_traced(wl, seconds: float, tally: Tally, detail: dict) -> dict:
    import workloads
    from tracer import Tracer
    from u4codes import cli

    extra = [(workloads, "make_field", "field.build", None),
             (workloads, "serialise", "cli.json", len),
             (cli, "_verify_one", "cli.verify_one", None),
             (cli, "_emit_json", "cli.emit_json", None)]
    tr = Tracer()
    reps = wl.setup_reps

    plain, d = timed_setups(wl, reps)
    tr.install(extra)
    traced, d = timed_setups(wl, reps)
    tr.uninstall()
    decomp = "decomposition.compute_decomposition"
    factor = "factor.factor_xn_minus_delta"
    tau = "decomposition.compute_tau"
    ms = 1e3 / reps
    m = {
        "field.build_ms": tr.incl("field.build") * ms,
        "poly.mul_ms": tr.incl("poly.mul") * ms,
        "poly.mul_calls": tr.calls("poly.mul") / reps,
        "poly.divrem_ms": tr.incl("poly.divrem") * ms,
        "poly.divrem_calls": tr.calls("poly.divrem") / reps,
        "factor.factor_ms": tr.incl(factor) * ms,
        "decomposition.crt_ms": (tr.incl(decomp) - tr.edge_incl(decomp, factor)
                                 - tr.edge_incl(decomp, tau)) * ms,
        "decomposition.tau_ms": tr.incl(tau) * ms,
        "trace.setup_overhead_pct":
            (statistics.median(traced) / statistics.median(plain) - 1) * 100,
    }
    detail["setup_trace"] = tr.dump()
    tr.reset()

    # short blocks of operations, each run untraced and then again traced,
    # so that both passes sample the same phases of the host
    wl.prepare(d)
    t_plain = t_traced = 0.0
    n = 0
    while t_plain < seconds / 3:
        b, k = code_pass(wl, d, tally, wl.ops(d, start=n),
                         seconds=min(BLOCK_S, seconds / 3))
        t_plain += b
        tr.install(extra)
        t_traced += code_pass(wl, d, tally, wl.ops(d, start=n), count=k)[0]
        tr.uninstall()
        n += k
    ms = 1e3 / n
    m.update({
        "chainring.reciprocal_ms": tr.incl("chainring.ambient_reciprocal") * ms,
        "codes.build_ms": tr.incl("codes.build_code") * ms,
        "codes.dual_ms": tr.incl("codes.dual_code") * ms,
        "oracle.span_ms": tr.incl("oracle.span_ideal") * ms,
        "oracle.rref_ms": tr.incl("oracle.rref") * ms,
        "oracle.duality_ms": tr.incl("oracle.check_duality") * ms,
        "oracle.constacyclic_ms": tr.incl("oracle.check_constacyclic") * ms,
        "cli.json_ms": tr.incl("cli.json") * ms,
        "trace.overhead_pct": (t_traced / t_plain - 1) * 100,
    })
    detail["code_trace"] = tr.dump()
    detail.update(ops_timed=n, busy_plain_s=t_plain, busy_traced_s=t_traced)
    tr.reset()

    tr.install(extra, count_kernels=True)
    code_pass(wl, d, tally, wl.ops(d), count=wl.count_ops)
    tr.uninstall()
    k = wl.count_ops
    m.update({
        "field.mul_calls_per_code": tr.counts.get("field.mul", 0) / k,
        "field.check_calls_per_code": tr.counts.get("field.check", 0) / k,
        "chainring.conv4_calls_per_code": tr.counts.get("chainring.conv4", 0) / k,
        "oracle.rref_calls": tr.calls("oracle.rref") / k,
        "cli.bytes_per_code": tr.counts.get("cli.json.bytes", 0) / k,
    })
    detail["count_trace"] = tr.dump()

    tally.problems += wl.finish(d, tally.seen)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "u4codes" / "__init__.py").is_file():
        print(f"error: the program under test is missing: no {src}/u4codes",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    unit = units()
    tally = Tally()
    detail = {"host_probe_ms": [host_probe_ms()]}
    run = run_traced if args.trace else run_untraced
    values = run(wl, args.seconds, tally, detail)
    detail["host_probe_ms"].append(host_probe_ms())

    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, "problems": tally.problems[:50],
                               **detail}, indent=1, sort_keys=True) + "\n")
    print(f"host probe: {detail['host_probe_ms'][0]:.3f} / "
          f"{detail['host_probe_ms'][1]:.3f} ms (start / end)", file=sys.stderr)
    for problem in tally.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
