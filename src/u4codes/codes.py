"""Constacyclic codes over R = GF(q)[u]/(u^4) of length n, via CRT data.

Every ideal of R[x]/(x^n - (delta + alpha*u^2)) is generated by a single
element sum_j u^(l_j) * e_j(x) for a unique exponent tuple (l_1, ..., l_r)
with 0 <= l_j <= 4, and contains q^(sum_j (4 - l_j) * d_j) codewords, so
there are exactly 5^r codes.  The dual of the code with exponents l_j is
generated by sum_j u^(4 - l_j) * e_j(x^(-1)) inside the inverse-unit
ambient.  For q = 2^m and delta = 1 the two ambients coincide and the
self-dual codes are exactly those with l_j = 2 on reciprocal-fixed indices
and complementary exponents on swapped pairs: 5^eps_pairs of them.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import poly
from .chainring import AmbientElement, RingElement, ambient_reciprocal
from .decomposition import Decomposition
from .errors import InvalidIndexError, SelfDualUnsupportedError
from .field import _digits

# Powers of u as exponents run 0..4; u^4 = 0 kills the component.
_MAX_EXP = 4


class CodeRecord(NamedTuple):
    """One code: its exponent tuple, single generator, and size exponent."""

    index: tuple[int, ...]
    generator: AmbientElement
    log_q_size: int

    @property
    def ambient_lambda(self) -> RingElement:
        return self.generator.lam

    def to_json(self, self_dual: bool | None = None) -> dict:
        obj = {
            "index": list(self.index),
            "generator": self.generator.to_json(),
            "log_q_size": self.log_q_size,
            "lambda": self.ambient_lambda.to_json(),
        }
        if self_dual is not None:
            obj["self_dual"] = self_dual
        return obj


def validate_index(d: Decomposition, idx) -> tuple[int, ...]:
    idx = tuple(idx)
    if any(not isinstance(l, int) or isinstance(l, bool) for l in idx):
        raise InvalidIndexError(f"index entries must be integers: {idx}")
    if len(idx) != d.r:
        raise InvalidIndexError(
            f"index has length {len(idx)}, expected r = {d.r}")
    if any(not 0 <= l <= _MAX_EXP for l in idx):
        raise InvalidIndexError(f"index entries must lie in 0..4: {idx}")
    return idx


def _shift_sum(d: Decomposition, exps) -> AmbientElement:
    """sum_j u^(exps_j) * e_j(x).

    Multiplying by u^l moves u-coordinate k of every position to k + l and
    drops what passes u^3, so each term adds onto strides of the flat
    vector (stride k holds u-coordinate k of x^0 .. x^(n-1)).  Each
    e_j = e0_j + u^2 * e1_j has zero u^1 and u^3 coordinates, so term j
    adds e0_j onto stride l and e1_j onto stride l + 2.  Over a prime field
    each stride is a sum of packed lanes (Decomposition._packed_columns),
    unpacked mod p once; extension fields add with strided maps.
    """
    gf, n = d.gf, d.n
    flat = [0] * (4 * n)
    if gf.m == 1:
        w, packed = d._packed_columns
        cols = [0] * 7                    # strides 4 to 6 take what passes u^3
        for l, (e0, e1) in zip(exps, packed):
            cols[l] += e0
            cols[l + 2] += e1
        for k in range(4):
            flat[k::4] = poly._unpack(cols[k], n, w, gf.p)
    else:
        for l, fd in zip(exps, d.factors):
            for k in range(l, 4, 2):
                flat[k::4] = map(gf.add, flat[k::4], fd.e.flat[k - l::4])
    return d.factors[0].e._with(flat)   # every e_j lies in d's ambient


def build_code(d: Decomposition, idx) -> CodeRecord:
    """The code generated by sum_j u^(l_j) * e_j(x)."""
    idx = validate_index(d, idx)
    gen = _shift_sum(d, idx)
    log = sum((_MAX_EXP - l) * fd.degree for l, fd in zip(idx, d.factors))
    return CodeRecord(index=idx, generator=gen, log_q_size=log)


def index_count(d: Decomposition) -> int:
    return 5 ** d.r


def rank_to_index(rank: int, width: int) -> tuple[int, ...]:
    """The rank-th exponent tuple of the given width in lexicographic order
    (the first entry most significant): rank's base-5 digits."""
    return _digits(rank, 5, width)[::-1]


def enumerate_codes(d: Decomposition, start: int = 0,
                    limit: int | None = None) -> Iterator[CodeRecord]:
    """Stream all 5^r codes in lexicographic index order.

    start / limit select a contiguous slice by lexicographic rank, so huge
    index spaces can be walked in pieces without materializing anything.
    """
    if start < 0 or (limit is not None and limit < 0):
        raise ValueError(f"start and limit must be >= 0, got {start} and {limit}")
    total = index_count(d)
    stop = total if limit is None else min(total, start + limit)
    return (build_code(d, rank_to_index(rank, d.r)) for rank in range(start, stop))


def dual_code(d: Decomposition, idx) -> CodeRecord:
    """The dual code, as an ideal of R[x]/(x^n - (delta + alpha*u^2)^(-1)).

    The generator is the reciprocal image of sum_j u^(4 - l_j) * e_j(x);
    the stored index gives the exponent attached to each idempotent of the
    dual ambient in its canonical order.
    """
    idx = validate_index(d, idx)
    gen = ambient_reciprocal(_shift_sum(d, [_MAX_EXP - l for l in idx]))
    dual_idx = [0] * d.r
    for j, k in enumerate(d.tau):
        dual_idx[k] = _MAX_EXP - idx[j]
    log = sum(l * fd.degree for l, fd in zip(idx, d.factors))
    return CodeRecord(index=tuple(dual_idx), generator=gen, log_q_size=log)


def self_dual_indices(d: Decomposition) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of all self-dual codes (q = 2^m, delta = 1 only).

    Requires a canonically rearranged decomposition: l_j = 2 on the rho
    fixed indices, and the partner of each pair representative carries the
    complementary exponent 4 - l.
    """
    if d.gf.p != 2 or d.delta != 1:
        raise SelfDualUnsupportedError(
            "self-dual classification covers q = 2^m with delta = 1 only; "
            f"got q = {d.gf.q}, delta = {d.delta}")
    if not d.canonical:
        raise ValueError("apply canonical_rearrange to the decomposition first")
    rho, eps = d.rho, d.eps_pairs
    for rank in range(5 ** eps):
        mid = rank_to_index(rank, eps)
        yield (2,) * rho + mid + tuple(_MAX_EXP - l for l in mid)


def self_dual_codes(d: Decomposition) -> Iterator[CodeRecord]:
    """Stream the 5^eps_pairs self-dual codes of a rearranged decomposition."""
    for idx in self_dual_indices(d):
        yield build_code(d, idx)
