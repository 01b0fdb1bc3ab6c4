"""Exact numerical characters of fat-point subschemes of the projective plane."""

from .lattice import (DivisorClass, FatPointSpec, WeylWord, Decomposition,
                      apply_inverse, canonical_class, clamp_nonneg, cremona_quad,
                      decompose, intersection, is_exceptional, reduce_fundamental)
from .hilbert import (HilbertTable, beta_expected, expected_dim, find_alpha,
                      find_tau, hilbert_polynomial, hilbert_table)

__version__ = "0.1.0"

__all__ = [
    "DivisorClass", "FatPointSpec", "WeylWord", "Decomposition",
    "apply_inverse", "canonical_class", "clamp_nonneg", "cremona_quad",
    "decompose", "intersection", "is_exceptional", "reduce_fundamental",
    "HilbertTable", "beta_expected", "expected_dim", "find_alpha",
    "find_tau", "hilbert_polynomial", "hilbert_table",
]
