"""Symbolic and numeric certification toolkit for the interval-intersection
criterion arising in the Hebey-Vaugon conjecture.

The package splits into exact machinery (algebra, spectral, certify), which
never touches floating point when issuing a verdict, and two oracles that
check the identities the criterion rests on: integrals, by Gauss-Legendre
quadrature on math, except the sign of the f^2 coefficient, which it decides
exactly from Beta ratios and spectral's P_2, and sphere, which decides
the S^2 tensor identities exactly on harmonic polynomials and the t^2
coefficient of the annulus curvature exactly from Gauss-Bonnet and the
radial terms.
The cli module drives scans and emits deterministic reports.
"""

__version__ = "0.1.0"
