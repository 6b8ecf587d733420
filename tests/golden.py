"""Frozen expected values for the worked binary instance (n=7, delta=1, alpha=1).

Ring coefficients are (c0, c1, c2, c3) for c0 + c1*u + c2*u^2 + c3*u^3;
ambient elements are listed by ascending power of x.
"""

# x^7 - 1 = (x + 1)(x^3 + x + 1)(x^3 + x^2 + 1), ascending coefficients
FACTORS_N7 = ((1, 1), (1, 1, 0, 1), (1, 0, 1, 1))

_O = (0, 0, 0, 0)
_1 = (1, 0, 0, 0)
_U2P1 = (1, 0, 1, 0)   # u^2 + 1

# e1 = x^6 + (u^2+1)x^5 + x^4 + (u^2+1)x^3 + x^2 + (u^2+1)x + 1
E1 = (_1, _U2P1, _1, _U2P1, _1, _U2P1, _1)
# e2 = x^4 + x^2 + (u^2+1)x + 1
E2 = (_1, _U2P1, _1, _O, _1, _O, _O)
# e3 = x^6 + (u^2+1)x^5 + (u^2+1)x^3 + 1
E3 = (_1, _O, _O, _U2P1, _O, _U2P1, _1)

TAU_N7 = (0, 2, 1)   # reciprocal permutation, 0-based
RHO_N7 = 1
EPS_PAIRS_N7 = 1

# the five self-dual generators g_(2,l,4-l), l = 0..4, ascending in x
SELF_DUAL_GENERATORS = {
    (2, 0, 4): ((1, 0, 1, 0), (1, 0, 0, 0), (1, 0, 1, 0), (0, 0, 1, 0),
                (1, 0, 1, 0), (0, 0, 1, 0), (0, 0, 1, 0)),
    (2, 1, 3): ((0, 1, 1, 1), (0, 1, 1, 1), (0, 1, 1, 0), (0, 0, 1, 1),
                (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 1, 1)),
    (2, 2, 2): ((0, 0, 1, 0), _O, _O, _O, _O, _O, _O),
    (2, 3, 1): ((0, 1, 1, 1), (0, 0, 1, 1), (0, 0, 1, 1), (0, 1, 1, 1),
                (0, 0, 1, 1), (0, 1, 1, 1), (0, 1, 1, 0)),
    (2, 4, 0): ((1, 0, 1, 0), (0, 0, 1, 0), (0, 0, 1, 0), (1, 0, 0, 0),
                (0, 0, 1, 0), (1, 0, 0, 0), (1, 0, 1, 0)),
}


def ambient_coeff_tuples(a):
    """The ((c0,c1,c2,c3), ...) coefficient view of an ambient element's
    flat vector (four u-coordinates per position, ascending in x)."""
    return tuple(a.flat[i:i + 4] for i in range(0, len(a.flat), 4))
