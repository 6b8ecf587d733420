"""Independent brute-force verification by exact linear algebra over GF(q).

A length-n word over R = GF(q)[u]/(u^4) flattens to a length-4n vector
over GF(q): position i contributes columns 4i .. 4i+3 holding the u^0 ..
u^3 coordinates (u-power-major within each position).  A code becomes an
F_q-subspace in reduced row echelon form, which is canonical, so two
generators of the same ideal produce identical bases.

Everything here is built directly on field arithmetic and flat vectors --
deliberately sharing no ring or CRT machinery with the construction
modules -- so that cardinality, shift-closure, orthogonality and
self-duality checks are genuinely independent evidence.  Orthogonality is
one computation, dual_span; check_duality and check_self_dual compare its
canonical basis with the claimed dual's.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import AmbientMismatchError


class FlatCode(NamedTuple):
    """An F_q-subspace of GF(q)^(4n) in reduced row echelon form."""

    gf: object
    n: int
    lam_cs: tuple[int, int, int, int]
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _conv4(gf, a, b):
    fadd, fmul = gf.add, gf.mul
    return (
        fmul(a[0], b[0]),
        fadd(fmul(a[0], b[1]), fmul(a[1], b[0])),
        fadd(fadd(fmul(a[0], b[2]), fmul(a[1], b[1])), fmul(a[2], b[0])),
        fadd(fadd(fmul(a[0], b[3]), fmul(a[1], b[2])),
             fadd(fmul(a[2], b[1]), fmul(a[3], b[0]))),
    )


def _mul_u_flat(vec) -> tuple[int, ...]:
    out = [0] * len(vec)
    out[1::4], out[2::4], out[3::4] = vec[0::4], vec[1::4], vec[2::4]
    return tuple(out)


def _mul_x_flat(gf, vec, n: int, lam_cs) -> tuple[int, ...]:
    """The lam-twisted cyclic shift: (c_0..c_{n-1}) -> (lam*c_{n-1}, c_0, ..)."""
    wrapped = _conv4(gf, vec[4 * (n - 1):], lam_cs)
    return tuple(wrapped) + vec[:4 * (n - 1)]


def rref(gf, rows) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return (), ()
    ncols = len(work[0])
    fadd, fmul, fneg, finv = gf.add, gf.mul, gf.neg, gf.inv
    pivots = []
    rank = 0
    for col in range(ncols):
        src = None
        for i in range(rank, len(work)):
            if work[i][col]:
                src = i
                break
        if src is None:
            continue
        work[rank], work[src] = work[src], work[rank]
        row = work[rank]
        c = row[col]
        if c != 1:
            ci = finv(c)
            row = [fmul(ci, x) for x in row]
            work[rank] = row
        for i, other in enumerate(work):
            if i != rank and other[col]:
                f = fneg(other[col])
                work[i] = [fadd(x, fmul(f, y)) for x, y in zip(other, row)]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    basis = tuple(tuple(r) for r in work[:rank])
    return basis, tuple(pivots)


def contains(fc: FlatCode, vec) -> bool:
    """Membership: elimination against fc's echelon basis leaves zero."""
    fadd, fmul, fneg = fc.gf.add, fc.gf.mul, fc.gf.neg
    v = list(vec)
    for row, pcol in zip(fc.basis, fc.pivots):
        if v[pcol]:
            f = fneg(v[pcol])
            v = [fadd(x, fmul(f, y)) for x, y in zip(v, row)]
    return not any(v)


def from_rows(gf, n: int, lam_cs, rows) -> FlatCode:
    basis, pivots = rref(gf, rows)
    return FlatCode(gf=gf, n=n, lam_cs=tuple(lam_cs), basis=basis, pivots=pivots)


def span_ideal(g) -> FlatCode:
    """The ideal generated by an ambient element, as a flat subspace.

    Spans the 4n words u^k * x^i * g; check_constacyclic then confirms
    that the result is closed, as an ideal must be.
    """
    gf, n = g.gf, g.n
    lam_cs = g.lam.cs
    rows = []
    vec = g.flat
    for _ in range(n):
        w = vec
        rows.append(w)
        for _ in range(3):
            w = _mul_u_flat(w)
            rows.append(w)
        vec = _mul_x_flat(gf, vec, n, lam_cs)
    return from_rows(gf, n, lam_cs, rows)


def check_constacyclic(fc: FlatCode) -> bool:
    """Closure of the subspace under u and under the lam-twisted cyclic shift.

    A span of u^k * x^i * g that fails is an arithmetic bug, never a
    property of the input; it is reported as a failed check.
    """
    return all(contains(fc, _mul_u_flat(row))
               and contains(fc, _mul_x_flat(fc.gf, row, fc.n, fc.lam_cs))
               for row in fc.basis)


def check_duality(c: FlatCode, dualc: FlatCode) -> bool:
    """dualc is exactly the Euclidean dual of c, a subspace closed under u.

    The dimensions must be complementary (|C| * |C^perp| = q^(4n) over a
    finite chain ring), and dualc's canonical basis must equal dual_span(c)'s.
    """
    if c.n != dualc.n or c.gf != dualc.gf:
        raise AmbientMismatchError("duality check across different lengths or fields")
    if c.dim + dualc.dim != 4 * c.n:
        return False
    return dual_span(c).basis == dualc.basis


def _reverse_u(vec) -> list[int]:
    """Reverse the four u-coordinates within each position."""
    return [vec[i ^ 3] for i in range(len(vec))]   # column 4i + k <-> 4i + 3 - k


def dual_span(fc: FlatCode) -> FlatCode:
    """The Euclidean dual subspace of fc, which must be closed under u.

    Coordinate t of <a, b> in R is the u^3-coordinate of <u^(3-t)*a, b>,
    and u^(3-t)*a lies in fc again; the u^3-coordinate of <a, b> is the
    F_q dot product of a with b's u-coordinates reversed in each position.
    So the dual is that reversal applied to the F_q-nullspace of fc, read
    off its echelon basis: one vector per free column.  The defining unit
    of the dual ambient is the inverse of fc's.  check_constacyclic
    confirms the closure this rests on.
    """
    gf, ncols = fc.gf, 4 * fc.n
    fneg = gf.neg
    pivot_set = set(fc.pivots)
    null_rows = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, pcol in zip(fc.basis, fc.pivots):
            if row[free]:
                vec[pcol] = fneg(row[free])
        null_rows.append(_reverse_u(vec))
    return from_rows(gf, fc.n, _ring_inv_cs(gf, fc.lam_cs), null_rows)


def _ring_inv_cs(gf, a):
    b0 = gf.inv(a[0])
    b1 = gf.neg(gf.mul(gf.mul(a[1], b0), b0))
    b2 = gf.neg(gf.mul(gf.add(gf.mul(a[1], b1), gf.mul(a[2], b0)), b0))
    b3 = gf.neg(gf.mul(
        gf.add(gf.add(gf.mul(a[1], b2), gf.mul(a[2], b1)), gf.mul(a[3], b0)), b0))
    return (b0, b1, b2, b3)


def check_self_dual(rec) -> bool:
    """The span of rec equals the span of its Euclidean dual.

    Only meaningful when the ambient unit is self-inverse (otherwise the
    dual is not even an ideal of the same ambient).
    """
    gf = rec.generator.gf
    lam_cs = rec.generator.lam.cs
    if _ring_inv_cs(gf, lam_cs) != lam_cs:
        raise AmbientMismatchError(
            "self-duality requires a self-inverse ambient unit")
    fc = span_ideal(rec.generator)
    return check_constacyclic(fc) and check_duality(fc, fc)
