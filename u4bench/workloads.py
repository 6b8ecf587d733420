"""The benchmark's workloads: set-up, per-code operations and their checks.

Each workload does in-process what one CLI command does, on fixed
parameters.  The seed chooses only the inputs handed to the program:
start ranks, index tuples and control indices.

A workload provides
  setup()            a fresh field and decomposition (timed, repeated);
  prepare(d)         untimed data the checks need, from the program's output;
  ops(d, start)      an endless iterator of zero-argument operations, each
                     returning (input, output), from position `start` of one
                     fixed sequence; so a traced pass can repeat a timed one,
                     and a run can go on with a fresh decomposition;
  check_op(d, i, o)  problems with one output (untimed, right after the op);
  finish(d, seen)    problems found by whole-run checks (untimed, after the
                     peak memory is read, so sympy does not raise it).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

from u4codes import cli, codes, decomposition, field, oracle

import checks


def make_field(p: int, m: int):
    """A fresh GF(p^m); a function of its own so a traced run can time it."""
    return field.GF(p, m)


def serialise(d, rec, dual) -> str:
    """What `codes --index ... --json` prints for one code and its dual."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit_json({"code": rec.to_json(), "dual": dual.to_json(),
                        "log_q_product": 4 * d.n})
    return buf.getvalue()


class Workload:
    name = ""
    p = m = n = delta = alpha = 0
    setup_reps = 12    # set-ups, and slices, per run; setup_s is their median
    count_ops = 3      # operations in the traced run's call-count pass

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def q(self) -> int:
        return self.p ** self.m

    def setup(self):
        gf = make_field(self.p, self.m)
        return decomposition.compute_decomposition(gf, self.n, self.delta, self.alpha)

    def prepare(self, d) -> None:
        self.factor_json = decomposition.to_json(d)["factors"]
        self.degrees = [fo["degree"] for fo in self.factor_json]

    def setup_problems(self) -> list[str]:
        k = checks.prime_field_order(self.delta, self.p)
        return checks.factor_degree_problems(
            [fo["f"]["coeffs"] for fo in self.factor_json], self.q, self.n, k)

    def finish(self, d, seen) -> list[str]:
        return self.setup_problems()


class EnumQ2N255(Workload):
    """`codes --index ... --json` in lexicographic stretches, GF(2), n = 255."""

    name = "enum-q2-n255"
    p, m, n, delta, alpha = 2, 1, 255, 1, 1
    stretch = 16       # consecutive ranks streamed from each seeded start

    def prepare(self, d) -> None:
        super().prepare(d)
        self.rng = random.Random(self.seed)
        self.starts: list[int] = []
        self.expect = checks.EnumExpect(self.n, self.factor_json)

    def block_start(self, b: int) -> int:
        """First rank of the b-th stretch, drawn from the upper half of the
        5^r ranks (far more than a stretch consumes)."""
        while len(self.starts) <= b:
            self.starts.append(self.rng.randrange(5 ** len(self.degrees) // 2))
        return self.starts[b]

    def ops(self, d, start=0):
        """Lexicographic stretches of `stretch` codes, each from a seeded rank:
        the cost of a code depends on its index, so many short stretches
        average a run over many index prefixes rather than one."""
        for k in itertools.count(start):
            b, i = divmod(k, self.stretch)
            rank = self.block_start(b) + i
            if i == 0 or k == start:
                stream = codes.enumerate_codes(d, start=rank)

            def op(rank=rank, stream=stream):
                rec = next(stream)
                dual = codes.dual_code(d, rec.index)
                return rank, serialise(d, rec, dual)
            yield op

    def check_op(self, d, rank, text) -> list[str]:
        return self.expect.problems(rank, json.loads(text))

    def finish(self, d, seen) -> list[str]:
        factors = [fo["f"]["coeffs"] for fo in self.factor_json]
        return (self.setup_problems()
                + checks.gf2_factor_problems(factors, self.n, checks.sympy_factors2(self.n))
                + checks.idempotent_problems2(self.n, self.factor_json))


class SelfdualQ2N31(Workload):
    """`verify --scope selfdual`: all 5^3 self-dual codes, GF(2), n = 31."""

    name = "selfdual-q2-n31"
    p, m, n, delta, alpha = 2, 1, 31, 1, 1
    setup_reps = 25   # set-up takes ~12 ms, so many fit in a run
    controls = 3       # seeded non-self-dual codes added to each round

    def setup(self):
        return decomposition.canonical_rearrange(super().setup())

    def prepare(self, d) -> None:
        super().prepare(d)
        self.perm = checks.reciprocal_perm2([fo["f"]["coeffs"] for fo in self.factor_json])
        self.expected = checks.self_dual_set(self.perm)
        self.enumerated = list(codes.self_dual_indices(d))
        rng = random.Random(self.seed)
        controls = []
        while len(controls) < self.controls:
            index = tuple(rng.randrange(5) for _ in range(d.r))
            if index not in self.expected and index not in controls:
                controls.append(index)
        self.round = self.enumerated + controls

    def ops(self, d, start=0):
        for index in itertools.islice(itertools.cycle(self.round), start, None):
            def op(index=index):
                rec = codes.build_code(d, index)
                return index, (rec.index, rec.log_q_size, oracle.check_self_dual(rec))
            yield op

    def check_op(self, d, index, out) -> list[str]:
        return checks.self_dual_verdict_problems(self.expected, self.n, index, out)

    def finish(self, d, seen) -> list[str]:
        problems = self.setup_problems()
        problems += checks.self_dual_family_problems(self.perm, self.enumerated)
        if list(d.tau) != self.perm:
            problems.append(f"tau {list(d.tau)} != reciprocal-factor map {self.perm}")
        # codes of the round the timed phase did not reach are checked here
        for index in self.round:
            if index not in seen:
                rec = codes.build_code(d, index)
                out = (rec.index, rec.log_q_size, oracle.check_self_dual(rec))
                problems += self.check_op(d, index, out)
        return problems


class VerifyQ243N20(Workload):
    """`verify --scope index` on seeded index tuples, GF(3^5), n = 20, delta = -1."""

    name = "verify-q243-n20"
    p, m, n, delta, alpha = 3, 5, 20, 2, 1
    count_ops = 5      # one round
    controls = 2

    def rounds(self, r: int):
        """Rounds of 5 tuples; each position takes every exponent once a round,
        so every round has the same exponent multiset per factor."""
        rng = random.Random(self.seed)
        while True:
            columns = [rng.sample(range(5), 5) for _ in range(r)]
            for k in range(5):
                yield tuple(col[k] for col in columns)

    def ops(self, d, start=0):
        for index in itertools.islice(self.rounds(d.r), start, None):
            def op(index=index):
                return index, cli._verify_one(d, codes.build_code(d, index))
            yield op

    def check_op(self, d, index, report) -> list[str]:
        return checks.verify_report_problems(index, self.degrees, self.n, report)

    def finish(self, d, seen) -> list[str]:
        """Also: a code paired with the dual of another index of the same size
        (two equal-degree exponents swapped) must fail the duality check."""
        problems = self.setup_problems()
        rng = random.Random(self.seed + 1)
        swaps = [(i, j) for i in range(d.r) for j in range(i + 1, d.r)
                 if self.degrees[i] == self.degrees[j]]
        made = 0
        while made < self.controls:
            index = [rng.randrange(5) for _ in range(d.r)]
            i, j = rng.choice(swaps)
            if index[i] == index[j]:
                continue
            other = list(index)
            other[i], other[j] = index[j], index[i]
            fc = oracle.span_ideal(codes.build_code(d, index).generator)
            fd = oracle.span_ideal(codes.dual_code(d, other).generator)
            if oracle.check_duality(fc, fd):
                problems.append(f"{tuple(index)} passes duality against the dual of {tuple(other)}")
            made += 1
        return problems


WORKLOADS = {w.name: w for w in (EnumQ2N255, SelfdualQ2N31, VerifyQ243N20)}
