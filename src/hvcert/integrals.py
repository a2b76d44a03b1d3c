"""Bubble integrals, best Sobolev constants and the radial test functional.

The one-dimensional integrals

    I_a^b(eps) = int_0^{delta/eps} t^b (1+t^2)^{-a} dt,   I_a^b = lim_{eps->0}

carry every coefficient of the eps-expansion of the Yamabe functional at a
concentrated Aubin bubble.  When 2a - b > 1 the limit has the Beta closed
form I_a^b = Beta((b+1)/2, a - (b+1)/2) / 2.  The float identity checks
here pit that closed form against tanh-sinh quadrature (mpmath) and
against each other through the integration-by-parts recurrences, each at
a fixed relative tolerance.  Gamma values come from `math`, in log space
where they would overflow a float.  The f^2 coefficient identity is
decided exactly instead: the ratio of two integrals whose parameters
differ by integer steps is rational (beta_ratio), and P_2 is read from
spectral.closed_forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import fp, mp

from .spectral import closed_forms

# math.gamma overflows past 171.62
_GAMMA_MAX = 170.0


class DivergentIntegral(ValueError):
    """Parameters outside the convergence region 2a - b > 1, b > -1."""


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature missed its tolerance; carries the achieved one."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


def _quad(f, nodes: list, what: str, dps: int | None = None) -> float:
    """Tanh-sinh quadrature of f over consecutive nodes, failing closed.

    With `dps` the rule runs in mpmath's multiprecision context at that many
    digits, otherwise in its float context.  The error estimate must be at
    most 1e-8 of the value.
    """
    if dps is None:
        value, err = fp.quad(f, nodes, error=True)
    else:
        with mp.workdps(dps):
            value, err = mp.quad(f, nodes, error=True)
        value, err = float(value), float(err)
    if value != 0 and err / abs(value) > 1e-8:
        raise QuadratureFailure(f"{what} quadrature did not converge",
                                achieved=err / abs(value))
    return value


def _decade_nodes(first: float, stop: float) -> list[float]:
    """0, first, 10 first, 100 first, ... below stop, then stop."""
    nodes = [0.0]
    s = first
    while s < stop:
        nodes.append(s)
        s *= 10
    nodes.append(stop)
    return nodes


def i_closed(a: float, b: float) -> float:
    """Exact value of I_a^b via the Euler Beta function.

    B(p, q) = G(p) G(q) / G(a) with p = (b+1)/2, q = a - p.  Up to
    a = 170 every Gamma argument is below 170, where math.gamma is finite
    and accurate to about 1 ulp.  The lgamma form
    exp(lgamma(p) + lgamma(q) - lgamma(a)) would lose about |lgamma(a)| ulp
    (5e-13 relative just past a = 170).  Beyond a = 170 the value is
    mpmath's Beta at int(log10 a) + 30 digits, enough that p + q does not
    round to q, rounded once to a float; below the smallest float it is
    0.0.
    """
    if b <= -1:
        raise DivergentIntegral(f"b={b} <= -1 diverges at 0")
    if 2 * a - b <= 1:
        raise DivergentIntegral(f"2a-b={2 * a - b} <= 1 diverges at infinity")
    p = (b + 1) / 2
    q = a - p
    if a > _GAMMA_MAX:
        with mp.workdps(int(math.log10(a)) + 30):
            return float(mp.beta(p, q) / 2)
    return 0.5 * math.gamma(p) / math.gamma(a) * math.gamma(q)


def i_quadrature(a: float, b: float) -> float:
    """I_a^b by tanh-sinh quadrature on [0, 1] and [1, inf).

    The rule runs at 20 digits, like i_truncated, so its float result and
    error estimate are not limited by the rounding of the integrand.
    """
    if b <= -1 or 2 * a - b <= 1:
        raise DivergentIntegral(f"(a={a}, b={b}) not convergent")
    return _quad(lambda t: t ** b / (1 + t * t) ** a, [0, 1, mp.inf],
                 "I_a^b", 20)


def i_truncated(a: float, b: float, delta: float, epsilon: float) -> float:
    """I_a^b(eps): the defining integral truncated at t = delta/epsilon.

    The interval is split at t = 1, 10, 100, ... so each piece holds a
    decade of the algebraic tail.
    """
    if epsilon <= 0 or delta <= 0:
        raise ValueError("delta and epsilon must be positive")
    return _quad(lambda t: t ** b / (1 + t * t) ** a,
                 _decade_nodes(1.0, delta / epsilon), "I_a^b(eps)", 20)


def truncation_bound(a: float, b: float, delta: float, epsilon: float) -> float:
    """Upper bound eps^(2a-b-1) / ((2a-b-1) delta^(2a-b-1)) on I_a^b - I_a^b(eps)."""
    e = 2 * a - b - 1
    if e <= 0:
        raise DivergentIntegral("bound requires 2a - b > 1")
    return epsilon ** e / (e * delta ** e)


def recurrence_check(a: float, b: float) -> bool:
    """All three integration-by-parts identities at (a, b), each to a
    relative 1e-12:

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
    return all(abs(m - base) <= 1e-12 * abs(base) for m in members)


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

def _log_sphere_volume(n: int) -> float:
    """log omega_n = log 2 + ((n+1)/2) log pi - lgamma((n+1)/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.log(2) + (n + 1) / 2 * math.log(math.pi) - math.lgamma((n + 1) / 2)


def sphere_volume(n: int) -> float:
    """Volume of the round unit n-sphere: 2 pi^((n+1)/2) / Gamma((n+1)/2).

    Computed in log space, so it underflows to 0.0 (for n above about
    1500) rather than overflowing in Gamma.
    """
    return math.exp(_log_sphere_volume(n))


def best_constant(n: int, p: float) -> float:
    """The sharp Sobolev constant K(n, p) for the embedding gradient ->
    L^{np/(n-p)} norm, in the Aubin-Talenti closed form.  The Gamma ratio
    and omega_{n-1} are taken in log space, so K stays finite for large n."""
    if not 1 < p < n:
        raise ValueError(f"need 1 < p < n, got p={p}, n={n}")
    first = (p - 1) / (n - p) * ((n - p) / (n * (p - 1))) ** (1 / p)
    log_second = (math.lgamma(n + 1) - math.lgamma(n / p)
                  - math.lgamma(n + 1 - n / p) - _log_sphere_volume(n - 1))
    return first * math.exp(log_second / n)


def best_constant_l1(n: int) -> float:
    """K(n, 1) = (1/n) (n / omega_{n-1})^{1/n} (the p -> 1 limit case)."""
    return math.exp((math.log(n) - _log_sphere_volume(n - 1)) / n) / n


def hardy_constant(n: int, q: float) -> float:
    """K(n, q, -q) = q/(n - q), the sharp constant of the Hardy inequality."""
    if not 0 < q < n:
        raise ValueError(f"need 0 < q < n, got q={q}")
    return q / (n - q)


def k2_inverse_square(n: int) -> float:
    """K(n,2)^{-2} = n(n-2) omega_n^{2/n} / 4."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return n * (n - 2) * math.exp(2 / n * _log_sphere_volume(n)) / 4


def inte_identity_check(n: int) -> bool:
    """(n-2)^2 omega_{n-1} I_n^{n+1} (omega_{n-1} I_n^{n-1})^{-(n-2)/n}
    equals K(n,2)^{-2} = n(n-2) omega_n^{2/n}/4 to a relative 1e-10."""
    if n < 3:
        raise ValueError("n must be >= 3")
    w = sphere_volume(n - 1)
    left = (n - 2) ** 2 * w * i_closed(n, n + 1) * (w * i_closed(n, n - 1)) ** (-(n - 2) / n)
    right = k2_inverse_square(n)
    return abs(left - right) <= 1e-10 * abs(right)


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


def radial_yamabe(profile: RadialProfile) -> float:
    """||grad u_eps||_2^2 / ||u_eps||_N^2 on the flat delta-ball.

    Integrals are radial with measure omega_{n-1} r^{n-1} dr; quadrature
    subdivides at the concentration scales eps, 10 eps, ... so the peak
    near r ~ eps is always resolved.
    """
    n = profile.n
    N = 2 * n / (n - 2)
    w = sphere_volume(n - 1)
    nodes = _decade_nodes(profile.epsilon, profile.delta)

    def grad2(r):
        g = profile.gradient(r)
        return g * g * r ** (n - 1)

    def uN(r):
        return profile.value(r) ** N * r ** (n - 1)

    num = _quad(grad2, nodes, "gradient")
    den = _quad(uN, nodes, "norm")
    for val, name in ((num, "gradient"), (den, "norm")):
        if val <= 0:
            raise QuadratureFailure(f"{name} integral is not positive",
                                    achieved=math.inf)
    return (w * num) / (w * den) ** (2 / N)


# ---------------------------------------------------------------------------
# The f^2 coefficient identity, decided exactly
# ---------------------------------------------------------------------------

def _gamma_ratio(x: Fraction, x0: Fraction) -> Fraction:
    """Gamma(x) / Gamma(x0) for positive x, x0 an integer apart, by
    Gamma(y + 1) = y Gamma(y)."""
    out = Fraction(1)
    while x0 < x:
        out *= x0
        x0 += 1
    while x < x0:
        out /= x
        x += 1
    return out


def beta_ratio(a: int, b: int, a0: int, b0: int) -> Fraction:
    """I_a^b / I_{a0}^{b0} exactly, for convergent integer parameters
    with b - b0 even (the steps of the integration-by-parts recurrences).

    With p = (b+1)/2, I_a^b = Gamma(p) Gamma(a-p) / (2 Gamma(a)), and each
    Gamma argument differs from its counterpart by an integer, so the
    ratio is a product of rationals.
    """
    for x, y in ((a, b), (a0, b0)):
        if y <= -1 or 2 * x - y <= 1:
            raise DivergentIntegral(f"(a={x}, b={y}) not convergent")
    if (b - b0) % 2:
        raise ValueError(f"b - b0 = {b - b0} is odd")
    p, p0 = Fraction(b + 1, 2), Fraction(b0 + 1, 2)
    return (_gamma_ratio(p, p0) * _gamma_ratio(a - p, a0 - p0)
            / _gamma_ratio(Fraction(a), Fraction(a0)))


def norme_f2_check(n: int, omega: int) -> dict:
    """Decide in exact rationals whether the five-integral combination

        (omega-n+4)^2 I_n^{2w+n+5} + 2(w+2)(omega-n+4) I_n^{2w+n+3}
        + (w+2)^2 I_n^{2w+n+1} - (N-1)(n-2)^2 I_n^{2w+n+3} I_n^{n+1} / I_n^{n-1}

    equals +P_2(omega+2)/(4(n-1)(n-2)) I_{n-2}^{n+2w+1} or its negative.

    The combination over I_{n-2}^{n+2w+1} (combination_ratio) is a sum of
    beta_ratio terms, and P_2(omega+2)/(4(n-1)(n-2)) (plus_p2_ratio) is
    a0/((n-1)(n-2)) with a0 from spectral.closed_forms.  The derivation
    gives the + sign: the combination equals
    -[n(n-2)^2 - (omega+2)^2(n^2+n+2)]/((n-1)(n-2)) I_{n-2}^{n+2w+1},
    and that bracket is exactly -P_2(omega+2)/4.  Both signs are reported
    so the caller can see which convention a statement matches.
    """
    if n <= 2 * omega + 6:
        raise DivergentIntegral("combination requires n > 2 omega + 6")
    w = omega

    def i(b):
        return beta_ratio(n, b, n - 2, n + 2 * w + 1)

    N = Fraction(2 * n, n - 2)
    combination = ((w - n + 4) ** 2 * i(2 * w + n + 5)
                   + 2 * (w + 2) * (w - n + 4) * i(2 * w + n + 3)
                   + (w + 2) ** 2 * i(2 * w + n + 1)
                   - (N - 1) * (n - 2) ** 2 * i(2 * w + n + 3)
                   * beta_ratio(n, n + 1, n, n - 1))
    plus_p2 = Fraction(closed_forms(omega, n).a0, (n - 1) * (n - 2))
    return {
        "n": n,
        "omega": omega,
        "combination_ratio": combination,
        "plus_p2_ratio": plus_p2,
        "matches_plus_p2": combination == plus_p2,
        "matches_minus_p2": combination == -plus_p2,
    }
