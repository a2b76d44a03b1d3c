"""Closed-form coefficient families attached to each eigencomponent.

For a vanishing order ``omega`` of the Weyl tensor and an index
``k in [1, floor(omega/2)]`` the relevant sphere-Laplacian eigenvalue is

    nu_k = (omega - 2k + 2)(n + omega - 2k)

and the derived quantities are

    d_k      = 4[(n-1)(n-2) nu_k - n(n-2)^2 + (omega+2)^2 (n^2+n+2)]
    u_k/nu_k = (n-3)/(4(n-2)) - [(n-1)^2 + (n-1)(omega+2)^2] / (4(n-2)(nu_k-n+1))
    Delta_k  = (n-2)^2 - d_k u_k / nu_k^2

each built from the two linear factors of the auxiliary polynomial P
(see ClosedForms).  closed_forms writes them once, by ring operations
that work on any dimension argument, and is their only form.  At
n = Polynomial.x() it gives the family of exact polynomials in n
(spectral_family), with u_k/nu_k and Delta_k as numerator/denominator
pairs, which the all-n certificate, the lemma and the coefficient table
read.  At an integer n it gives the integer numerators and denominators
that one (omega, n) cell needs, so a cell never builds the family.

This module also houses the two purely polynomial lemmas used
downstream, both read off closed_forms: the decreasing auxiliary
polynomial P(x) = A x^2 + B x + C whose negativity at x = nu_k yields
Delta_k > 0 on the ray n >= 2 omega + 6 (check_lemma_poly), and
P_2(omega+2) = 4 a0, the f^2 coefficient of the test-function expansion
(p2_value), which the integral and sphere oracles read from here.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Any, NamedTuple

from .algebra import (
    AlgebraError,
    Polynomial,
    RayPositivityWitness,
    nonnegative_on_ray,
)


class SpectralRangeError(AlgebraError):
    """omega too small for a nonempty eigencomponent family."""


_N = Polynomial.x()


class RowForms(NamedTuple):
    """Row k at one dimension n: nu_k, d_k = 4 a(nu_k), and the numerators
    and denominators of u_k/nu_k = b(nu_k) / (4(n-2)(nu_k-n+1)) and
    Delta_k = -P(nu_k) / ((n-2) nu_k (nu_k-n+1)), each of the type of n."""

    k: int
    nu: Any
    d: Any
    u_num: Any
    u_den: Any
    delta_num: Any
    delta_den: Any


class ClosedForms(NamedTuple):
    """The auxiliary polynomial P(x) = a(x) b(x) - (n-2)^3 x (x-n+1)
    = A x^2 + B x + C, with linear factors a(x) = a1 x + a0 and
    b(x) = b1 x + b0:

    a(x) = (n-1)(n-2)x - n(n-2)^2 + (w+2)^2(n^2+n+2)
    b(x) = (n-3)(x-n+1) - (n-1)^2 - (n-1)(w+2)^2

    and the rows k = 1..floor(omega/2), in order, read off them, so that
    P(nu_k) = -delta_num governs the sign of Delta_k.  The x-derivative
    collapses to P'(x) = 2A x + B with A = -(n-2) and
    B = -2n(n-2)^3 + 2(n^2-3n-2)(w+2)^2, and 4 a0 is the f^2 coefficient
    P_2(w+2) = 4(w+2)^2(n^2+n+2) - 4n(n-2)^2."""

    a0: Any
    A: Any
    B: Any
    C: Any
    rows: tuple[RowForms, ...]


def closed_forms(omega: int, n) -> ClosedForms:
    """Every closed form of one omega at dimension n, by ring operations only.

    Generic over n: with Polynomial.x() it gives the polynomial family
    (spectral_family) and the lemma's P; with an int n it gives plain
    integers, which is all one (omega, n) cell needs, so a cell never
    builds the family."""
    w2 = (omega + 2) ** 2
    a1 = (n - 1) * (n - 2)
    a0 = -n * (n - 2) ** 2 + w2 * (n ** 2 + n + 2)
    b1 = n - 3
    b0 = (n - 3) * (-(n - 1)) - (n - 1) ** 2 - w2 * (n - 1)
    cube = (n - 2) ** 3
    # a(x) b(x) - (n-2)^3 (x^2 - (n-1)x), multiplied out in x
    A, B, C = a1 * b1 - cube, a1 * b0 + a0 * b1 + cube * (n - 1), a0 * b0
    rows = []
    for k in range(1, omega // 2 + 1):
        nu = (omega - 2 * k + 2) * (n + (omega - 2 * k))
        shifted = nu - n + 1
        rows.append(RowForms(k=k, nu=nu, d=4 * (a1 * nu + a0),
                             u_num=b1 * nu + b0, u_den=4 * (n - 2) * shifted,
                             delta_num=-((A * nu + B) * nu + C),
                             delta_den=(n - 2) * nu * shifted))
    return ClosedForms(a0=a0, A=A, B=B, C=C, rows=tuple(rows))


@functools.cache
def spectral_family(omega: int) -> tuple[RowForms, ...]:
    """The rows of closed_forms at n = Polynomial.x(), built once per
    omega (no operation mutates a row or its Polynomials, so every caller
    may share them).
    The all-n certificates and the coefficient table read them; a single
    cell evaluates closed_forms at its integer n instead.

    Each pair is already in lowest terms.  With m = omega - 2k + 1 >= 1,
    u_den = 4m(n-2)(n+m) and delta_den = m(m+1)(n-2)(n+m)(n+m-1), and no
    numerator vanishes at a root of its denominator.  b(nu_k) is
    -(m+1)^2 - (omega+2)^2 at n = 2 and (m+1)((omega+2)^2 - m - 1) at
    n = -m, both nonzero; the same substitution leaves P(nu_k) nonzero at
    n = 2, n = -m and n = 1 - m.  The denominators are not monic: their
    leading coefficients are 4m and m(m+1), both positive.
    """
    if omega < 2:
        raise SpectralRangeError(
            f"omega={omega} has an empty eigencomponent family")
    return closed_forms(omega, _N).rows


# ---------------------------------------------------------------------------
# The decreasing auxiliary polynomial P
# ---------------------------------------------------------------------------

class LemmaPolyWitness(NamedTuple):
    omega: int
    ray_start: int
    d_positive: tuple[RayPositivityWitness, ...]
    x_coefficient: RayPositivityWitness
    decreasing: RayPositivityWitness
    value_at_2n: RayPositivityWitness
    per_k: tuple[RayPositivityWitness, ...]


def check_lemma_poly(omega: int) -> tuple[bool, LemmaPolyWitness]:
    """Certify u_k - (n-2)^2 nu_k^2 / d_k < 0 on the ray n >= 2 omega + 6
    for every k, via the auxiliary polynomial route.

    Since (nu_k - n + 1) d_k [ (n-2) u_k/nu_k - (n-2)^3 nu_k/d_k ] expands
    to exactly P(nu_k), and nu_k - n + 1 = m(n+m) > 0, it suffices that
    d_k > 0 and P(nu_k) < 0 on the ray.  -P'(x) = -2A x - B, with
    -A = n - 2 and -B/2 = n(n-2)^3 - (n^2-3n-2)(omega+2)^2, so P is
    decreasing in x for x > 0 once both are proved positive; every nu_k
    is >= 2n, so P(2n) < 0 closes the argument; each P(nu_k) < 0 is also
    certified directly as a belt-and-braces check.
    """
    if omega < 2:
        raise SpectralRangeError(
            f"omega={omega} has an empty eigencomponent family")
    n0 = 2 * omega + 6
    forms = closed_forms(omega, _N)
    ok = True

    d_wits = []
    for row in forms.rows:
        good, w = nonnegative_on_ray(row.d, n0)
        ok = ok and good
        d_wits.append(w)

    # -P'(x) = -2A x - B is positive for all x >= 0 once -A > 0 and -B > 0
    good, x_coefficient_wit = nonnegative_on_ray(-forms.A, n0)
    ok = ok and good
    good, decreasing_wit = nonnegative_on_ray(-forms.B, n0)
    ok = ok and good

    two_n = 2 * _N
    good, at_2n_wit = nonnegative_on_ray(
        -((forms.A * two_n + forms.B) * two_n + forms.C), n0)
    ok = ok and good

    per_k = []
    for row in forms.rows:
        # delta_num = -P(nu_k)
        good, w = nonnegative_on_ray(row.delta_num, n0)
        ok = ok and good
        per_k.append(w)

    return ok, LemmaPolyWitness(omega=omega, ray_start=n0,
                                d_positive=tuple(d_wits),
                                x_coefficient=x_coefficient_wit,
                                decreasing=decreasing_wit,
                                value_at_2n=at_2n_wit,
                                per_k=tuple(per_k))


# ---------------------------------------------------------------------------
# The even quadratic P_2
# ---------------------------------------------------------------------------

def p2_expanded(X: Fraction) -> Polynomial:
    """The four-product definition of P_2 at a rational X, over Q[n]."""
    # with X = omega + 2:
    #   omega - n + 4 = X + 2 - n      2 omega + n + 4 = 2X + n
    #   2 omega + n + 2 = 2X + n - 2   n - 2 omega - 6 = n - 2X - 2
    #   n - 2 omega - 4 = n - 2X
    t1 = (X + (2 - _N)) ** 2 * (2 * X + _N) * (2 * X + (_N - 2))
    t2 = 2 * X * (X + (2 - _N)) * (2 * X + (_N - 2)) * ((_N - 2) - 2 * X)
    t3 = X * X * ((_N) - 2 * X) * ((_N - 2) - 2 * X)
    t4 = _N * (_N + 2) * (2 * X + (_N - 2)) * ((_N - 2) - 2 * X)
    return t1 + t2 + t3 - t4


def p2_identity_check() -> bool:
    """Exact equality of the expanded P_2 with 4 a0 of closed_forms at
    omega = X - 2, which is 4X^2(n^2+n+2) - 4n(n-2)^2.

    Both sides have degree at most 4 in X over Q[n], so agreement at the
    five points X = 0..4 proves the identity.
    """
    return all(p2_expanded(Fraction(X)) == 4 * closed_forms(X - 2, _N).a0
               for X in range(5))


def p2_value(omega: int) -> Polynomial:
    """P_2(omega+2) = 4 a0 as a Polynomial in n."""
    return 4 * closed_forms(omega, _N).a0
