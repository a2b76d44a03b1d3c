"""Symbolic and numeric certification toolkit for the interval-intersection
criterion arising in the Hebey-Vaugon conjecture.

The package splits into exact machinery (algebra, spectral, certify), which
never touches floating point when issuing a verdict, and numeric oracles
(integrals, sphere), which cross-check the exact layer against quadrature
and spherical-harmonic computations.  The cli module drives scans and emits
deterministic reports.
"""

__version__ = "0.1.0"
