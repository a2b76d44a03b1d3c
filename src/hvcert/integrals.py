"""Bubble integrals, best Sobolev constants and the radial test functional.

The one-dimensional integrals

    I_a^b(eps) = int_0^{delta/eps} t^b (1+t^2)^{-a} dt,   I_a^b = lim_{eps->0}

carry every coefficient of the eps-expansion of the Yamabe functional at a
concentrated Aubin bubble.  When 2a - b > 1 the limit has the Beta closed
form I_a^b = Beta((b+1)/2, a - (b+1)/2) / 2; all identity checks here pit
that closed form against adaptive quadrature and against each other
through the integration-by-parts recurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special


class DivergentIntegral(ValueError):
    """Parameters outside the convergence region 2a - b > 1, b > -1."""


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature missed its tolerance; carries the achieved one."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


def i_closed(a: float, b: float) -> float:
    """Exact value of I_a^b via the Euler Beta function."""
    if b <= -1:
        raise DivergentIntegral(f"b={b} <= -1 diverges at 0")
    if 2 * a - b <= 1:
        raise DivergentIntegral(f"2a-b={2 * a - b} <= 1 diverges at infinity")
    return 0.5 * special.beta((b + 1) / 2, a - (b + 1) / 2)


def i_quadrature(a: float, b: float, rel_tol: float = 1e-12) -> float:
    """I_a^b by adaptive quadrature on the substituted compact interval.

    The substitution t = s/(1-s) maps [0, inf) to [0, 1) and keeps the
    integrand bounded for convergent parameters.
    """
    if b <= -1 or 2 * a - b <= 1:
        raise DivergentIntegral(f"(a={a}, b={b}) not convergent")

    def integrand(s):
        t = s / (1 - s)
        return t ** b / (1 + t * t) ** a / (1 - s) ** 2

    value, err = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0,
                                epsrel=rel_tol, limit=200)
    if value != 0 and err / abs(value) > 1e-8:
        raise QuadratureFailure("I_a^b quadrature did not converge",
                                achieved=err / abs(value))
    return value


def i_truncated(a: float, b: float, delta: float, epsilon: float) -> float:
    """I_a^b(eps): the defining integral truncated at t = delta/epsilon."""
    if epsilon <= 0 or delta <= 0:
        raise ValueError("delta and epsilon must be positive")
    upper = delta / epsilon
    value, err = integrate.quad(lambda t: t ** b / (1 + t * t) ** a,
                                0.0, upper, epsabs=0.0, epsrel=1e-12,
                                limit=400)
    return value


def truncation_bound(a: float, b: float, delta: float, epsilon: float) -> float:
    """Upper bound eps^(2a-b-1) / ((2a-b-1) delta^(2a-b-1)) on I_a^b - I_a^b(eps)."""
    e = 2 * a - b - 1
    if e <= 0:
        raise DivergentIntegral("bound requires 2a - b > 1")
    return epsilon ** e / (e * delta ** e)


def recurrence_check(a: float, b: float, rel_tol: float = 1e-12) -> bool:
    """All three integration-by-parts identities at (a, b):

        I_a^b = (b-1)/(2a-b-1) I_a^{b-2}
              = (b-1)/(2a-2)   I_{a-1}^{b-2}
              = (2a-b-3)/(2a-2) I_{a-1}^{b}
    """
    if b < 2:
        raise DivergentIntegral("recurrences need b >= 2")
    if 2 * a - b <= 3:
        # I_{a-1}^b must converge: 2(a-1) - b > 1
        raise DivergentIntegral("I_{a-1}^b member diverges")
    base = i_closed(a, b)
    members = [
        (b - 1) / (2 * a - b - 1) * i_closed(a, b - 2),
        (b - 1) / (2 * a - 2) * i_closed(a - 1, b - 2),
        (2 * a - b - 3) / (2 * a - 2) * i_closed(a - 1, b),
    ]
    return all(abs(m - base) <= rel_tol * abs(base) for m in members)


def rela_shorthand_report(n: int) -> dict:
    """The shorthand 4(n-2) I_n^{n+1} / (I_n^{n-2})^{(n-2)/n} = n, as stated.

    This normalization drops the sphere-volume factors and does not hold;
    the consistent identity is the one verified by inte_identity_check.
    The report records both sides and the (expected) disagreement.
    """
    lhs = 4 * (n - 2) * i_closed(n, n + 1) / i_closed(n, n - 2) ** ((n - 2) / n)
    return {
        "n": n,
        "as_stated_lhs": lhs,
        "as_stated_rhs": float(n),
        "consistent": abs(lhs - n) <= 1e-10 * n,
    }


# ---------------------------------------------------------------------------
# Sphere volumes and best constants
# ---------------------------------------------------------------------------

def sphere_volume(n: int) -> float:
    """Volume of the round unit n-sphere: 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2 * math.pi ** ((n + 1) / 2) / special.gamma((n + 1) / 2)


def best_constant(n: int, p: float) -> float:
    """The sharp Sobolev constant K(n, p) for the embedding gradient ->
    L^{np/(n-p)} norm, in the Aubin-Talenti closed form."""
    if not 1 < p < n:
        raise ValueError(f"need 1 < p < n, got p={p}, n={n}")
    first = (p - 1) / (n - p) * ((n - p) / (n * (p - 1))) ** (1 / p)
    second = (special.gamma(n + 1)
              / (special.gamma(n / p) * special.gamma(n + 1 - n / p)
                 * sphere_volume(n - 1))) ** (1 / n)
    return first * second


def best_constant_l1(n: int) -> float:
    """K(n, 1) = (1/n) (n / omega_{n-1})^{1/n} (the p -> 1 limit case)."""
    return (n / sphere_volume(n - 1)) ** (1 / n) / n


def hardy_constant(n: int, q: float) -> float:
    """K(n, q, -q) = q/(n - q), the sharp constant of the Hardy inequality."""
    if not 0 < q < n:
        raise ValueError(f"need 0 < q < n, got q={q}")
    return q / (n - q)


def k2_inverse_square(n: int) -> float:
    """K(n,2)^{-2} = n(n-2) omega_n^{2/n} / 4."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return n * (n - 2) * sphere_volume(n) ** (2 / n) / 4


def inte_identity_check(n: int, rel_tol: float = 1e-10) -> bool:
    """(n-2)^2 omega_{n-1} I_n^{n+1} (omega_{n-1} I_n^{n-1})^{-(n-2)/n}
    equals K(n,2)^{-2} = n(n-2) omega_n^{2/n}/4."""
    if n < 3:
        raise ValueError("n must be >= 3")
    w = sphere_volume(n - 1)
    left = (n - 2) ** 2 * w * i_closed(n, n + 1) * (w * i_closed(n, n - 1)) ** (-(n - 2) / n)
    right = k2_inverse_square(n)
    return abs(left - right) <= rel_tol * abs(right)


# ---------------------------------------------------------------------------
# Radial concentration profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialProfile:
    """The cut-off Aubin bubble u_eps on the flat ball of radius delta:

        u_eps(r) = (eps/(r^2+eps^2))^((n-2)/2) - (eps/(delta^2+eps^2))^((n-2)/2)
    """

    n: int
    epsilon: float
    delta: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n must be >= 3")
        if not 0 < self.epsilon < self.delta:
            raise ValueError("need 0 < epsilon < delta")

    def value(self, r):
        e, n = self.epsilon, self.n
        p = (n - 2) / 2
        return (e / (r * r + e * e)) ** p - (e / (self.delta ** 2 + e * e)) ** p

    def gradient(self, r):
        """d u_eps / dr = -(n-2) eps^((n-2)/2) r / (r^2 + eps^2)^(n/2)."""
        e, n = self.epsilon, self.n
        return -(n - 2) * e ** ((n - 2) / 2) * r / (r * r + e * e) ** (n / 2)


def _split_points(profile: RadialProfile) -> list[float]:
    pts = []
    s = profile.epsilon
    while s < profile.delta:
        pts.append(s)
        s *= 10
    return pts


def radial_yamabe(profile: RadialProfile) -> float:
    """||grad u_eps||_2^2 / ||u_eps||_N^2 on the flat delta-ball.

    Integrals are radial with measure omega_{n-1} r^{n-1} dr; quadrature
    subdivides at the concentration scales eps, 10 eps, ... so the peak
    near r ~ eps is always resolved.
    """
    n = profile.n
    N = 2 * n / (n - 2)
    w = sphere_volume(n - 1)
    pts = _split_points(profile)

    def grad2(r):
        g = profile.gradient(r)
        return g * g * r ** (n - 1)

    def uN(r):
        return profile.value(r) ** N * r ** (n - 1)

    kwargs = dict(epsabs=0.0, epsrel=1e-12, limit=600, points=pts)
    num, err_n = integrate.quad(grad2, 0.0, profile.delta, **kwargs)
    den, err_d = integrate.quad(uN, 0.0, profile.delta, **kwargs)
    for val, err, name in ((num, err_n, "gradient"), (den, err_d, "norm")):
        if val <= 0 or err / val > 1e-8:
            raise QuadratureFailure(f"{name} integral did not converge",
                                    achieved=err / max(val, 1e-300))
    return (w * num) / (w * den) ** (2 / N)


# ---------------------------------------------------------------------------
# The f^2 coefficient identity and the assembled expansion bracket
# ---------------------------------------------------------------------------

def p2_value_float(n: float, omega: int) -> float:
    """P_2(omega+2) = 4(omega+2)^2(n^2+n+2) - 4n(n-2)^2."""
    X = omega + 2
    return 4 * X * X * (n * n + n + 2) - 4 * n * (n - 2) ** 2


def norme_f2_combination(n: int, omega: int) -> float:
    """The five-integral combination collecting the f^2 coefficient:

        (omega-n+4)^2 I_n^{2w+n+5} + 2(w+2)(omega-n+4) I_n^{2w+n+3}
        + (w+2)^2 I_n^{2w+n+1} - (N-1)(n-2)^2 I_n^{2w+n+3} I_n^{n+1} / I_n^{n-1}
    """
    if n <= 2 * omega + 6:
        raise DivergentIntegral("combination requires n > 2 omega + 6")
    w = omega
    N = 2 * n / (n - 2)
    return ((w - n + 4) ** 2 * i_closed(n, 2 * w + n + 5)
            + 2 * (w + 2) * (w - n + 4) * i_closed(n, 2 * w + n + 3)
            + (w + 2) ** 2 * i_closed(n, 2 * w + n + 1)
            - (N - 1) * (n - 2) ** 2 * i_closed(n, 2 * w + n + 3)
            * i_closed(n, n + 1) / i_closed(n, n - 1))


def norme_f2_check(n: int, omega: int, rel_tol: float = 1e-10) -> dict:
    """Compare the combination with +/- P_2(omega+2)/(4(n-1)(n-2)) I_{n-2}^{n+2w+1}.

    The derivation gives the + sign: the combination equals
    -[n(n-2)^2 - (omega+2)^2(n^2+n+2)]/((n-1)(n-2)) I_{n-2}^{n+2w+1},
    and that bracket is exactly -P_2(omega+2)/4.  Both signs are reported
    so the caller can see which convention a statement matches.
    """
    lhs = norme_f2_combination(n, omega)
    scale = i_closed(n - 2, n + 2 * omega + 1) / (4 * (n - 1) * (n - 2))
    rhs_plus = p2_value_float(n, omega) * scale
    rhs_minus = -rhs_plus
    denom = max(abs(lhs), 1e-300)
    return {
        "n": n,
        "omega": omega,
        "combination": lhs,
        "rhs_plus_p2": rhs_plus,
        "rhs_minus_p2": rhs_minus,
        "matches_plus_p2": abs(lhs - rhs_plus) <= rel_tol * denom,
        "matches_minus_p2": abs(lhs - rhs_minus) <= rel_tol * denom,
    }


@dataclass(frozen=True)
class ExpansionBracket:
    """The braced coefficient of eps^(2 omega + 4) in I_g(phi_eps),
    assembled from four mean-integral statistics of the angular profile f
    and the curvature:

        value = (n-2)^2 curvature_mean + I_S(f)
        I_S(f) = 4(n-1)(n-2) f_h1
                 - [4n(n-2)^2 - 4(omega+2)^2(n^2+n+2)] f_l2
                 - 2(n-2)^2 f_rbar

    A negative value certifies that the functional dips strictly below the
    round-sphere level n(n-2) omega_{n-1}^{2/n} / 4 for small eps.
    """

    n: int
    omega: int
    curvature_mean: float
    f_l2: float
    f_h1: float
    f_rbar: float
    value: float
    logarithmic: bool


def i_s_coefficients(n: float, omega: int) -> tuple[float, float, float]:
    """(h1, l2, rbar) multipliers of the I_S functional."""
    return (4 * (n - 1) * (n - 2),
            -(4 * n * (n - 2) ** 2 - 4 * (omega + 2) ** 2 * (n * n + n + 2)),
            -2 * (n - 2) ** 2)


def expansion_bracket(n: int, omega: int, curvature_mean: float,
                      f_l2: float, f_h1: float, f_rbar: float) -> ExpansionBracket:
    if n < 2 * omega + 6:
        raise ValueError(f"n={n} below the admissible range 2*omega+6")
    ch1, cl2, crbar = i_s_coefficients(n, omega)
    value = ((n - 2) ** 2 * curvature_mean
             + ch1 * f_h1 + cl2 * f_l2 + crbar * f_rbar)
    return ExpansionBracket(n=n, omega=omega, curvature_mean=curvature_mean,
                            f_l2=f_l2, f_h1=f_h1, f_rbar=f_rbar, value=value,
                            logarithmic=(n == 2 * omega + 6))
