"""Checks computed apart from the program under test.

Nothing here imports u4codes.  Every expected value comes from plain
integer arithmetic (cyclotomic cosets, base-5 ranks), from GF(2)
polynomials packed into Python ints (bit i holds the coefficient of x^i),
or from sympy.  The inputs are the program's outputs in their JSON form:
coefficient lists, index lists and the CLI's report dictionaries.

Each check returns a list of problem strings; an empty list means the
output passed.
"""

from __future__ import annotations

import itertools
import warnings

U_EXP = 4   # u^4 = 0, so exponents run over 0..4


# -- plain integers ------------------------------------------------------------


def prime_field_order(delta: int, p: int) -> int:
    """Multiplicative order of delta, an element of the prime field GF(p)."""
    if not 0 < delta < p:
        raise ValueError(f"delta = {delta} is not a unit of GF({p})")
    k, acc = 1, delta % p
    while acc != 1:
        acc = acc * delta % p
        k += 1
    return k


def cyclotomic_degrees(q: int, n: int, k: int) -> list[int]:
    """Sizes of the q-cyclotomic cosets of {1 + k*t} mod n*k, sorted.

    When delta has order k and gcd(q, n) = 1, these are the degrees of the
    irreducible factors of x^n - delta over GF(q).
    """
    modulus = n * k
    todo = {(1 + k * t) % modulus for t in range(n)}
    sizes = []
    while todo:
        s = min(todo)
        orbit = set()
        while s not in orbit:
            orbit.add(s)
            s = s * q % modulus
        todo -= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


def rank_to_index(rank: int, r: int) -> tuple[int, ...]:
    """The rank-th tuple of {0..4}^r in lexicographic order."""
    digits = []
    for _ in range(r):
        rank, digit = divmod(rank, 5)
        digits.append(digit)
    return tuple(reversed(digits))


def size_exponent(index, degrees) -> int:
    """log_q |C| for the code with exponents index: sum (4 - l_j) * d_j."""
    return sum((U_EXP - l) * d for l, d in zip(index, degrees))


def factor_degree_problems(factors, q: int, n: int, k: int) -> list[str]:
    degrees = sorted(len(f) - 1 for f in factors)
    expected = cyclotomic_degrees(q, n, k)
    if degrees != expected:
        return [f"factor degrees {degrees} != cyclotomic coset sizes {expected}"]
    return []


# -- GF(2)[x] packed into ints ------------------------------------------------


def to_bits(coeffs) -> int:
    """Pack a GF(2) coefficient list (ascending) into an int."""
    out = 0
    for i, c in enumerate(coeffs):
        if c not in (0, 1):
            raise ValueError(f"coefficient {c!r} is not an element of GF(2)")
        out |= c << i
    return out


def clmul(a: int, b: int) -> int:
    """Product in GF(2)[x]."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def divmod2(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder in GF(2)[x]."""
    db = b.bit_length() - 1
    quot = 0
    while a.bit_length() - 1 >= db:
        shift = a.bit_length() - 1 - db
        quot |= 1 << shift
        a ^= b << shift
    return quot, a


def reverse_bits(f: int, width: int) -> int:
    return int(format(f, f"0{width}b")[::-1], 2)


def monic_reversal2(f: int) -> int:
    """x^deg(f) * f(1/x); monic over GF(2) because x does not divide f."""
    return reverse_bits(f, f.bit_length())


def reciprocal_perm2(factors) -> list[int]:
    """perm[j] = k with f_k the monic reversal of f_j, over GF(2)."""
    packed = [to_bits(f) for f in factors]
    where = {f: k for k, f in enumerate(packed)}
    return [where.get(monic_reversal2(f), -1) for f in packed]


def sympy_factors2(n: int) -> list[int]:
    """The irreducible factors of x^n - 1 over GF(2), from sympy, packed."""
    import sympy

    x = sympy.Symbol("x")
    with warnings.catch_warnings():
        # sympy 1.13+ warns about its own internal sorting of GF(p) factors
        warnings.simplefilter("ignore", DeprecationWarning)
        _, found = sympy.factor_list(x ** n - 1, modulus=2)
    out = []
    for f, mult in found:
        coeffs = [int(c) % 2 for c in sympy.Poly(f, x, modulus=2).all_coeffs()]
        out.extend([to_bits(reversed(coeffs))] * mult)
    return sorted(out)


def gf2_factor_problems(factors, n: int, sympy_packed) -> list[str]:
    """The factors multiply to x^n - 1 and agree with sympy's list."""
    packed = [to_bits(f) for f in factors]
    product = 1
    for f in packed:
        product = clmul(product, f)
    problems = []
    if product != (1 << n) | 1:
        problems.append(f"factors do not multiply to x^{n} - 1")
    if sorted(packed) != sympy_packed:
        problems.append("factors differ from sympy's factor_list")
    return problems


def ambient_bits(coeffs, n: int) -> tuple[int, int, int, int]:
    """Pack an ambient element's n ring coefficients [c0, c1, c2, c3] into
    four ints, one per u-coordinate, bit i holding position i."""
    if len(coeffs) != n:
        raise ValueError(f"expected {n} ring coefficients, got {len(coeffs)}")
    return tuple(to_bits(c[k] for c in coeffs) for k in range(4))


def idempotent_problems2(n: int, factor_json) -> list[str]:
    """eps_j = 1 mod f_j^2, eps_j = 0 mod ((x^n - 1)/f_j)^2, and
    e_j = (eps_j mod (x^n - 1)) + u^2 * (eps_j div (x^n - 1)), for
    delta = alpha = 1 over GF(2)."""
    xn1 = (1 << n) | 1
    problems = []
    for j, fo in enumerate(factor_json):
        f = to_bits(fo["f"]["coeffs"])
        eps = to_bits(fo["idempotent"]["coeffs"])
        cof, r = divmod2(xn1, f)
        if r:
            problems.append(f"factor {j} does not divide x^{n} - 1")
            continue
        if divmod2(eps, clmul(f, f))[1] != 1:
            problems.append(f"eps_{j} is not 1 mod f_{j}^2")
        if divmod2(eps, clmul(cof, cof))[1] != 0:
            problems.append(f"eps_{j} is not 0 mod the squared cofactor")
        e1, e0 = divmod2(eps, xn1)
        if ambient_bits(fo["e"]["coeffs"], n) != (e0, 0, e1, 0):
            problems.append(f"e_{j} does not split eps_{j}")
    return problems


# -- enum: codes --index ... --json over GF(2), delta = alpha = 1 ---------------


class EnumExpect:
    """What `codes --index ... --json` must print for each code.

    Built from the program's factor list and idempotents e_j (each checked
    by idempotent_problems2); generators are reassembled by shifting the
    u-coordinates of the e_j, duals by reversing positions, so no ring
    arithmetic is shared with the program.  Only for GF(2) with
    delta = alpha = 1, where lambda = lambda^(-1) = 1 + u^2.
    """

    LAMBDA = [1, 0, 1, 0]

    def __init__(self, n: int, factor_json):
        self.n = n
        self.r = len(factor_json)
        self.degrees = [fo["degree"] for fo in factor_json]
        self.e_bits = [ambient_bits(fo["e"]["coeffs"], n) for fo in factor_json]
        self.perm = reciprocal_perm2([fo["f"]["coeffs"] for fo in factor_json])

    def generator(self, index) -> tuple[int, int, int, int]:
        """sum_j u^(l_j) * e_j: u^l moves coordinate k to k + l."""
        out = [0, 0, 0, 0]
        for l, e in zip(index, self.e_bits):
            for k in range(l, 4):
                out[k] ^= e[k - l]
        return tuple(out)

    def reciprocal(self, a) -> tuple[int, int, int, int]:
        """x -> x^(-1): position i moves to n - i, times lambda for i > 0."""
        n = self.n
        rev = [((reverse_bits(c >> 1, n - 1) << 1) | (c & 1)) for c in a]
        rest = ((1 << n) - 1) ^ 1
        # (c0, c1, c2, c3) * (1 + u^2) = (c0, c1, c2 + c0, c3 + c1)
        return (rev[0], rev[1], rev[2] ^ (rev[0] & rest), rev[3] ^ (rev[1] & rest))

    def dual_index(self, index) -> list[int]:
        out = [0] * self.r
        for j, k in enumerate(self.perm):
            out[k] = U_EXP - index[j]
        return out

    def problems(self, rank: int, obj) -> list[str]:
        n, index = self.n, rank_to_index(rank, self.r)
        code, dual = obj["code"], obj["dual"]
        size = size_exponent(index, self.degrees)
        where = f"rank {rank}"
        out = []
        if code["index"] != list(index):
            out.append(f"{where}: index {code['index']} != {list(index)}")
        if code["log_q_size"] != size:
            out.append(f"{where}: log_q_size {code['log_q_size']} != {size}")
        if ambient_bits(code["generator"]["coeffs"], n) != self.generator(index):
            out.append(f"{where}: generator != sum_j u^l_j * e_j")
        if dual["index"] != self.dual_index(index):
            out.append(f"{where}: dual index {dual['index']} != {self.dual_index(index)}")
        if dual["log_q_size"] != U_EXP * n - size:
            out.append(f"{where}: dual log_q_size {dual['log_q_size']} != {U_EXP * n - size}")
        comp = self.generator([U_EXP - l for l in index])
        if ambient_bits(dual["generator"]["coeffs"], n) != self.reciprocal(comp):
            out.append(f"{where}: dual generator != reciprocal of sum_j u^(4-l_j) * e_j")
        if obj["log_q_product"] != U_EXP * n:
            out.append(f"{where}: log_q_product {obj['log_q_product']} != {U_EXP * n}")
        for label, rec in (("code", code), ("dual", dual)):
            if rec["lambda"] != self.LAMBDA or rec["generator"]["lambda"] != self.LAMBDA:
                out.append(f"{where}: {label} lambda != 1 + u^2")
        return out


# -- self-dual family over GF(2), delta = 1 ------------------------------------


def self_dual_set(perm) -> set[tuple[int, ...]]:
    """{l : l_j = 2 where perm fixes j, l_perm(j) = 4 - l_j on swapped pairs}."""
    r = len(perm)
    reps = [j for j in range(r) if j < perm[j]]
    out = set()
    for free in itertools.product(range(5), repeat=len(reps)):
        index = [2] * r
        for j, l in zip(reps, free):
            index[j] = l
            index[perm[j]] = U_EXP - l
        out.add(tuple(index))
    return out


def self_dual_family_problems(perm, enumerated) -> list[str]:
    """The program's enumeration equals the set built from perm, of size 5^eps."""
    problems = []
    r = len(perm)
    if sorted(perm) != list(range(r)) or any(perm[perm[j]] != j for j in range(r)):
        return [f"reciprocal map {perm} is not an involution of the factors"]
    expected = self_dual_set(perm)
    eps = sum(1 for j, k in enumerate(perm) if j < k)
    got = [tuple(i) for i in enumerated]
    if len(expected) != 5 ** eps:
        problems.append(f"|self-dual set| = {len(expected)} != 5^{eps}")
    if len(got) != len(set(got)):
        problems.append("the enumeration repeats an index")
    if set(got) != expected:
        problems.append(f"enumerated set differs from the expected one "
                        f"in {len(set(got) ^ expected)} indices")
    return problems


def self_dual_verdict_problems(expected, n: int, index, out) -> list[str]:
    """out = (record index, log_q_size, oracle verdict) for one checked code."""
    rec_index, log_q_size, verdict = out
    index = tuple(index)
    if tuple(rec_index) != index:
        return [f"{index}: built index {tuple(rec_index)}"]
    if index in expected:
        if log_q_size != 2 * n:
            return [f"{index}: self-dual code with log_q_size {log_q_size} != {2 * n}"]
        if verdict is not True:
            return [f"{index}: self-dual code not confirmed by the oracle"]
    elif verdict is not False:
        return [f"{index}: control code accepted as self-dual"]
    return []


# -- verify --scope index --------------------------------------------------------


def verify_report_problems(index, degrees, n: int, report) -> list[str]:
    """A `verify --scope index` report: predicted dimensions, every check true."""
    dim = size_exponent(index, degrees)
    where = f"{tuple(index)}"
    out = []
    if report["dim"] != dim:
        out.append(f"{where}: oracle dim {report['dim']} != {dim}")
    if report["dual_dim"] != U_EXP * n - dim:
        out.append(f"{where}: dual dim {report['dual_dim']} != {U_EXP * n - dim}")
    for check in ("cardinality", "constacyclic", "duality", "pass"):
        if report[check] is not True:
            out.append(f"{where}: check {check} failed")
    return out
