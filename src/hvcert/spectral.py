"""Closed-form coefficient families attached to each eigencomponent.

For a vanishing order ``omega`` of the Weyl tensor and an index
``k in [1, floor(omega/2)]`` the relevant sphere-Laplacian eigenvalue is

    nu_k = (omega - 2k + 2)(n + omega - 2k)

and the derived quantities are

    d_k      = 4[(n-1)(n-2) nu_k - n(n-2)^2 + (omega+2)^2 (n^2+n+2)]
    u_k/nu_k = (n-3)/(4(n-2)) - [(n-1)^2 + (n-1)(omega+2)^2] / (4(n-2)(nu_k-n+1))
    Delta_k  = (n-2)^2 - d_k u_k / nu_k^2

all as exact rational functions of the dimension n, each built from the
two linear factors of the auxiliary polynomial P below.  This module also
houses the two purely polynomial lemmas used downstream: the decreasing
auxiliary polynomial P(x) whose negativity at x = nu_k yields Delta_k > 0
on the ray n >= 2 omega + 6, and the even quadratic P_2 collecting the
f^2 coefficient of the test-function expansion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraError,
    Polynomial,
    RationalFunction,
    RayPositivityWitness,
    nonnegative_on_ray,
)


class SpectralRangeError(AlgebraError):
    """k outside [1, floor(omega/2)] or omega too small."""


def _check_range(omega: int, k: int) -> None:
    if omega < 2:
        raise SpectralRangeError(
            f"omega={omega} has an empty eigencomponent family")
    if not 1 <= k <= omega // 2:
        raise SpectralRangeError(
            f"k={k} outside [1, {omega // 2}] for omega={omega}")


_N = Polynomial.x()


def nu_polynomial(omega: int, k: int) -> Polynomial:
    _check_range(omega, k)
    return (omega - 2 * k + 2) * (_N + (omega - 2 * k))


def d_polynomial(omega: int, k: int) -> Polynomial:
    return 4 * lemma_polynomial(omega).a(nu_polynomial(omega, k))


@dataclass(frozen=True)
class SpectralRow:
    omega: int
    k: int
    nu: Polynomial
    d: Polynomial
    u_over_nu: RationalFunction
    delta: RationalFunction

    @property
    def u(self) -> RationalFunction:
        return self.u_over_nu * RationalFunction.from_polynomial(self.nu)

    def delta_pole_candidates(self) -> tuple[Fraction, ...]:
        """Roots of the three linear factors that can appear in den(Delta_k):
        n = 2 from the (n-2) prefactors, and the roots of nu_k - n + 1 =
        (m)(n+m) and nu_k = (m+1)(n+m-1) with m = omega - 2k + 1."""
        m = self.omega - 2 * self.k + 1
        return (Fraction(2), Fraction(-m), Fraction(1 - m))


def spectral_row(omega: int, k: int) -> SpectralRow:
    lp = lemma_polynomial(omega)
    nu = nu_polynomial(omega, k)
    shifted = nu - _N + 1
    u_over_nu = RationalFunction(lp.b(nu), 4 * (_N - 2) * shifted)
    delta = RationalFunction(-lp.at(nu), (_N - 2) * nu * shifted)
    return SpectralRow(omega=omega, k=k, nu=nu, d=d_polynomial(omega, k),
                       u_over_nu=u_over_nu, delta=delta)


@functools.cache
def spectral_family(omega: int) -> tuple[SpectralRow, ...]:
    """All rows k = 1..floor(omega/2), built once per omega (the rows are
    frozen, so every caller may share them)."""
    if omega < 2:
        raise SpectralRangeError(
            f"omega={omega} has an empty eigencomponent family")
    return tuple(spectral_row(omega, k) for k in range(1, omega // 2 + 1))


# ---------------------------------------------------------------------------
# The decreasing auxiliary polynomial P
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaPolynomial:
    """P(x) = a(x) b(x) - (n-2)^3 x (x-n+1) = A x^2 + B x + C over Q[n],
    with linear factors a(x) = a1 x + a0 and b(x) = b1 x + b0:

    a(x) = (n-1)(n-2)x - n(n-2)^2 + (w+2)^2(n^2+n+2)
    b(x) = (n-3)(x-n+1) - (n-1)^2 - (n-1)(w+2)^2

    Every spectral row is read off them: d_k = 4 a(nu_k),
    u_k/nu_k = b(nu_k) / (4(n-2)(nu_k-n+1)) and
    Delta_k = -P(nu_k) / ((n-2) nu_k (nu_k-n+1)), so U_k = P(nu_k) governs
    the sign of Delta_k.  The x-derivative collapses to the closed form
    P'(x) = -2(n-2)x - 2n(n-2)^3 + 2(n^2-3n-2)(w+2)^2.
    """

    omega: int
    a1: Polynomial
    a0: Polynomial
    b1: Polynomial
    b0: Polynomial
    A: Polynomial
    B: Polynomial
    C: Polynomial

    def a(self, value: Polynomial) -> Polynomial:
        return self.a1 * value + self.a0

    def b(self, value: Polynomial) -> Polynomial:
        return self.b1 * value + self.b0

    def pprime_matches_closed_form(self) -> bool:
        """P'(x) = 2A x + B against the closed form, coefficient by
        coefficient in x."""
        w2 = (self.omega + 2) ** 2
        return (2 * self.A == -2 * (_N - 2)
                and self.B == (-2 * _N * (_N - 2) ** 3
                               + w2 * (2 * (_N ** 2 - 3 * _N - 2))))

    def at(self, value: Polynomial) -> Polynomial:
        """P(value(n)) as a Polynomial in n, by Horner."""
        return (self.A * value + self.B) * value + self.C


@functools.cache
def lemma_polynomial(omega: int) -> LemmaPolynomial:
    w2 = (omega + 2) ** 2
    a1 = (_N - 1) * (_N - 2)
    a0 = -_N * (_N - 2) ** 2 + w2 * (_N ** 2 + _N + 2)
    b1 = _N - 3
    b0 = (_N - 3) * (-(_N - 1)) - (_N - 1) ** 2 - w2 * (_N - 1)
    cube = (_N - 2) ** 3
    # a(x) b(x) - (n-2)^3 (x^2 - (n-1)x), multiplied out in x
    lp = LemmaPolynomial(omega=omega, a1=a1, a0=a0, b1=b1, b0=b0,
                         A=a1 * b1 - cube,
                         B=a1 * b0 + a0 * b1 + cube * (_N - 1), C=a0 * b0)
    if not lp.pprime_matches_closed_form():  # pragma: no cover
        raise AlgebraError("P' does not match its closed form")
    return lp


@dataclass(frozen=True)
class LemmaPolyWitness:
    omega: int
    ray_start: int
    d_positive: tuple[RayPositivityWitness, ...]
    decreasing: RayPositivityWitness
    value_at_2n: RayPositivityWitness
    per_k: tuple[RayPositivityWitness, ...]


def check_lemma_poly(omega: int) -> tuple[bool, LemmaPolyWitness]:
    """Certify u_k - (n-2)^2 nu_k^2 / d_k < 0 on the ray n >= 2 omega + 6
    for every k, via the auxiliary polynomial route.

    Since (nu_k - n + 1) d_k [ (n-2) u_k/nu_k - (n-2)^3 nu_k/d_k ] expands
    to exactly P(nu_k), and nu_k - n + 1 = m(n+m) > 0, it suffices that
    d_k > 0 and P(nu_k) < 0 on the ray.  P is decreasing in x for x > 0
    once n(n-2)^3 >= (n^2-3n-2)(omega+2)^2, and every nu_k is >= 2n, so
    P(2n) < 0 closes the argument; each P(nu_k) < 0 is also certified
    directly as a belt-and-braces check.
    """
    if omega < 2:
        raise SpectralRangeError(
            f"omega={omega} has an empty eigencomponent family")
    n0 = 2 * omega + 6
    lp = lemma_polynomial(omega)
    ok = True

    rows = spectral_family(omega)
    d_wits = []
    for row in rows:
        good, w = nonnegative_on_ray(row.d, n0)
        ok = ok and good
        d_wits.append(w)

    # -P'(x) = 2(n-2)x + 2[n(n-2)^3 - (n^2-3n-2)(omega+2)^2]: positive for
    # all x >= 0 iff the x-free part is nonnegative (x-coefficient is > 0).
    w2 = (omega + 2) ** 2
    decreasing_poly = _N * (_N - 2) ** 3 - w2 * (_N ** 2 - 3 * _N - 2)
    good, decreasing_wit = nonnegative_on_ray(decreasing_poly, n0)
    ok = ok and good

    good, at_2n_wit = nonnegative_on_ray(-lp.at(2 * _N), n0)
    ok = ok and good

    per_k = []
    for row in rows:
        good, w = nonnegative_on_ray(-lp.at(row.nu), n0)
        ok = ok and good
        per_k.append(w)

    return ok, LemmaPolyWitness(omega=omega, ray_start=n0,
                                d_positive=tuple(d_wits),
                                decreasing=decreasing_wit,
                                value_at_2n=at_2n_wit,
                                per_k=tuple(per_k))


# ---------------------------------------------------------------------------
# The even quadratic P_2
# ---------------------------------------------------------------------------

def p2_closed_form(X: Fraction) -> Polynomial:
    """P_2(X) = 4 X^2 (n^2+n+2) - 4 n (n-2)^2, X standing for omega+2."""
    return 4 * X * X * (_N ** 2 + _N + 2) - 4 * _N * (_N - 2) ** 2


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
    """Exact equality of the expanded P_2 with 4X^2(n^2+n+2) - 4n(n-2)^2.

    Both sides have degree at most 4 in X over Q[n], so agreement at the
    five points X = 0..4 proves the identity.
    """
    return all(p2_expanded(Fraction(X)) == p2_closed_form(Fraction(X))
               for X in range(5))


def p2_value(omega: int) -> Polynomial:
    """P_2(omega+2) as a Polynomial in n."""
    return p2_closed_form(Fraction(omega + 2))


# ---------------------------------------------------------------------------
# Sign facts used by the interval certificates
# ---------------------------------------------------------------------------

def d_strictly_decreasing_in_k(omega: int) -> bool:
    """d_k > d_{k+1} on the ray n >= 2 omega + 6, for every adjacent pair."""
    n0 = 2 * omega + 6
    for k in range(1, omega // 2):
        diff = d_polynomial(omega, k) - d_polynomial(omega, k + 1)
        ok, _ = nonnegative_on_ray(diff, n0)
        if not ok:
            return False
    return True


def u_last_negative(omega: int) -> bool:
    """For even omega, u_{omega/2} < 0 for all n >= 2 omega + 6.

    (The numerator of u_{omega/2} is in fact -4 - (n-1)(omega+2)^2 times a
    positive prefactor, so this holds on the whole ray; the check is still
    performed via the generic sign machinery.)
    """
    if omega % 2 != 0:
        raise SpectralRangeError("u_last_negative applies to even omega only")
    n0 = 2 * omega + 6
    u = spectral_row(omega, omega // 2).u
    ok_num, _ = nonnegative_on_ray(-u.num * u.den, n0)
    return ok_num
