"""Symbolic and numeric certification toolkit for the interval-intersection
criterion arising in the Hebey-Vaugon conjecture.

The package splits into exact machinery (algebra, spectral, certify), which
never touches floating point when issuing a verdict, and numeric oracles
(integrals, sphere), which cross-check the exact layer against quadrature
and spherical-harmonic computations.  The cli module drives scans and emits
deterministic reports.
"""

from .algebra import (
    AlgebraError,
    InvalidFactorization,
    NegativeRadicand,
    Polynomial,
    RationalFunction,
    PartialFractionExpansion,
    SqrtEnclosure,
    count_roots_on_ray,
    nonnegative_on_ray,
    partial_fractions,
    sign_with_sqrts,
    sqrt_enclosure,
    sturm_chain,
)
from .spectral import (
    SpectralRangeError,
    SpectralRow,
    check_lemma_poly,
    d_polynomial,
    lemma_polynomial,
    nu_polynomial,
    p2_identity_check,
    spectral_family,
    spectral_row,
)
from .certify import (
    IntervalCertificate,
    SymbolicCertificate,
    certify_at,
    delta_partial_fraction,
    dimension_cover_check,
    smallest_failing_n,
    symbolic_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "InvalidFactorization",
    "NegativeRadicand",
    "Polynomial",
    "RationalFunction",
    "PartialFractionExpansion",
    "SqrtEnclosure",
    "count_roots_on_ray",
    "nonnegative_on_ray",
    "partial_fractions",
    "sign_with_sqrts",
    "sqrt_enclosure",
    "sturm_chain",
    "SpectralRangeError",
    "SpectralRow",
    "check_lemma_poly",
    "d_polynomial",
    "lemma_polynomial",
    "nu_polynomial",
    "p2_identity_check",
    "spectral_family",
    "spectral_row",
    "IntervalCertificate",
    "SymbolicCertificate",
    "certify_at",
    "delta_partial_fraction",
    "dimension_cover_check",
    "smallest_failing_n",
    "symbolic_certificate",
    "__version__",
]
