"""Constacyclic codes of length n over GF(q)[u]/(u^4), exactly.

Construction, enumeration and independent verification of all
(delta + alpha*u^2)-constacyclic codes over the chain ring
R = GF(q)[u]/(u^4), their duals, and (for q = 2^m, delta = 1) the
self-dual family.
"""

from .errors import (AmbientMismatchError, InternalError, InvalidIndexError,
                     NotAUnitError, NotCoprimeError, SelfDualUnsupportedError)
from .field import GF
from .factor import DEFAULT_SEED, factor_xn_minus_delta
from .chainring import AmbientElement, RingElement, ambient_reciprocal, lam_of
from .decomposition import (Decomposition, FactorData, canonical_rearrange,
                            compute_decomposition, compute_tau)
from .codes import (CodeRecord, build_code, dual_code, enumerate_codes,
                    index_count, self_dual_codes, self_dual_indices,
                    validate_index)
from .oracle import (FlatCode, check_constacyclic, check_duality, check_self_dual,
                     dual_span, span_ideal)

__version__ = "0.1.0"

__all__ = [
    "GF", "factor_xn_minus_delta", "DEFAULT_SEED",
    "RingElement", "AmbientElement", "lam_of", "ambient_reciprocal",
    "Decomposition", "FactorData", "compute_decomposition", "compute_tau",
    "canonical_rearrange",
    "CodeRecord", "build_code", "enumerate_codes", "index_count",
    "dual_code", "self_dual_codes", "self_dual_indices", "validate_index",
    "FlatCode", "span_ideal", "check_constacyclic",
    "check_duality", "check_self_dual", "dual_span",
    "NotCoprimeError", "NotAUnitError", "AmbientMismatchError",
    "InvalidIndexError", "SelfDualUnsupportedError", "InternalError",
]
