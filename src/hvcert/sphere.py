"""Exact oracle on the round 2-sphere.

The tensor identities behind the curvature expansion (trace and
divergence of the b tensor, the Q/B/C mean-integrals, the I_S
functional) are dimension-generic: their derivations use only
Delta phi = nu phi, the constant-curvature relation
R_lijm = s_lj s_im - s_lm s_ij and trace bookkeeping.  This module
decides them exactly on S^2 (n = 3, nu = l(l+1)).  Only the closed forms
(qbc_closed_forms, u_coefficient_from_qbc, i_s_coefficients,
i_s_minimizer_reference) take n, because they are the dimension-generic
formulas the sphere means are compared with.

Every function on S^2 is the restriction of a polynomial in x, y, z
(hvcert.algebra.Polynomial, integer numerators over one denominator), and
a tangential tensor is a mapping from ambient index tuples over range(3)
to such polynomials.  With the tangential projector P = |x|^2 I - x x^T,
which is I - x x^T on S^2 and kills x identically:

* the harmonic of degree l is a homogeneous harmonic polynomial F
  (real_harmonic), and the Gauss formula gives its spherical Hessian
  P D^2F P - l F P;
* the covariant derivative of a tangential tensor is its ambient
  derivative with every slot projected by P;
* the round metric s is P, and indices are raised with the Euclidean
  metric, so a contraction is a sum over ambient indices;
* the mean over S^2 of x^a y^b z^c is
  (a-1)!! (b-1)!! (c-1)!! / (3 . 5 ... (a+b+c+1)) when a, b and c are
  all even, and 0 otherwise (sphere_mean).

So every mean is an exact Fraction.  A residual is the sphere mean of the
square of an identity's defect, which is 0 exactly when the identity holds
on S^2.  Every sum of products (a slot projection sum_a P_ia T_..a.., a
sum of squares, a contraction) is one algebra.dot call, which builds no
partial product or partial sum.

Two identities need no check of their own.  s^{ij} b_ij =
2 (s^{ij} nabla_ij phi + nu phi) / (nu - 2), so the trace residual is
4 / (nu - 2)^2 times the mean square of the defect of the eigenrelation.
The double divergence nabla^{ij} b_ij is the divergence of the
divergence identity's -nabla_j phi, which is -s^{ij} nabla_ij phi =
nu phi.

The annulus check is not one of them: it is specific to 2-sphere slices.
There Gauss-Bonnet makes the total intrinsic curvature of a slice
topological, so the gradient terms B/2 - C/4 of the bracket
B/2 - C/4 - (1 + omega/2)^2 Q drop out and the t^2 coefficient is the
radial part -(1 + omega/2)^2 Q alone (see annulus_curvature_check).  In
the split R = 2K - |A|^2 - H^2 - 2 d_r H, Gauss-Bonnet fixes the integral
of the K term, and the radial terms are closed forms in the zonal b that
zonal_b pulls back to polar coordinates: the t^2 coefficient is an exact
sphere mean, and the mean of R at a finite t is one float Gauss-Legendre
integral over cos theta.

Sign conventions: Delta = -div grad, so the harmonics satisfy
s^{ij} nabla_ij phi = -nu phi with nu = l(l+1).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .algebra import Polynomial, dot
from .integrals import gauss_legendre
from .spectral import closed_forms

X, Y, Z = Polynomial.x(), Polynomial.y(), Polynomial.z()
_ZERO = Polynomial()
_R2 = X ** 2 + Y ** 2 + Z ** 2
# P_ij = |x|^2 delta_ij - x_i x_j
_P = {(i, j): (_R2 if i == j else _ZERO) - a * b
      for i, a in enumerate((X, Y, Z)) for j, b in enumerate((X, Y, Z))}


class ExcludedEigenvalue(ValueError):
    """nu = n - 1 makes the b-tensor denominator vanish (l = 1 on S^2)."""


class NonzeroMean(ValueError):
    """I_S requires a mean-free angular profile."""


# ---------------------------------------------------------------------------
# Sphere means and harmonics
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _double_factorial(k: int) -> int:
    """k!! = k (k - 2) (k - 4) ..., and 1 for k <= 0."""
    return math.prod(range(k, 0, -2))


def sphere_mean(p: Polynomial) -> Fraction:
    """Mean of the polynomial p over the unit sphere S^2: the numerators
    times (a-1)!! (b-1)!! (c-1)!! are summed in integers per total degree
    d, and each sum is divided by (d+1)!! in one Fraction."""
    sums: dict = {}
    for (a, b, c), coeff in p.numerators():
        if not (a % 2 or b % 2 or c % 2):
            d = a + b + c
            sums[d] = sums.get(d, 0) + coeff * (
                _double_factorial(a - 1) * _double_factorial(b - 1)
                * _double_factorial(c - 1))
    return sum((Fraction(t, _double_factorial(d + 1))
                for d, t in sums.items()), Fraction(0)) / p.denominator


@lru_cache(maxsize=None)
def real_harmonic(l: int, m: int):
    """Homogeneous harmonic polynomial of degree l that restricts on S^2 to
    (-1)^a sin^a(theta) P_l^(a)(cos theta) {1, cos a phi, sin a phi}, with
    a = |m| and the second factor chosen by the sign of m.

    That is the real spherical harmonic of degree l, order m, with the
    Condon-Shortley phase and without its irrational normalization: the
    harmonic whose mean square is 1 is this one times
    sqrt((2l+1)(l-a)!/(l+a)!), doubled under the root for m != 0.
    """
    if l < 0 or abs(m) > l:
        raise ValueError(f"invalid harmonic (l={l}, m={m})")
    a = abs(m)
    # |x|^(l-a) P_l^(a)(z/|x|), from
    # P_l(t) = 2^-l sum_k (-1)^k C(l, k) C(2l-2k, l) t^(l-2k)
    zonal = sum((Fraction((-1) ** k * math.comb(l, k)
                          * math.comb(2 * l - 2 * k, l)
                          * math.perm(l - 2 * k, a), 2 ** l)
                 * Z ** (l - 2 * k - a) * _R2 ** k
                 for k in range((l - a) // 2 + 1)), _ZERO)
    # Re (x + iy)^a for m >= 0, Im (x + iy)^a for m < 0
    angular = sum((math.comb(a, j) * (-1) ** (j // 2) * X ** (a - j) * Y ** j
                   for j in range(0 if m >= 0 else 1, a + 1, 2)), _ZERO)
    return (-1) ** a * zonal * angular


class HarmonicSpec(NamedTuple("HarmonicSpec", [("l", int), ("m", int)])):
    """The real spherical harmonic of degree l and order m.  The
    constructor refuses l < 2 (ExcludedEigenvalue) and |m| > l
    (ValueError)."""

    __slots__ = ()

    def __new__(cls, l: int, m: int):
        if l < 2:
            raise ExcludedEigenvalue(
                "degrees l < 2 are excluded (l = 1 hits nu = n - 1; l = 0 "
                "is constant)")
        if abs(m) > l:
            raise ValueError(f"|m| > l for (l={l}, m={m})")
        return super().__new__(cls, l, m)

    @property
    def nu(self) -> int:
        return self.l * (self.l + 1)

    @property
    def poly(self):
        return real_harmonic(self.l, self.m)


# ---------------------------------------------------------------------------
# Tangential tensors: projected ambient calculus
# ---------------------------------------------------------------------------

def _tangential(T: Mapping) -> dict:
    """T with every slot projected by P."""
    for s in range(len(next(iter(T)))):
        T = {I: dot((_P[I[s], a], T[I[:s] + (a,) + I[s + 1:]])
                    for a in range(3)) for I in T}
    return T


def covariant_derivative(T: Mapping) -> dict:
    """nabla_k T_I of a tangential tensor {I: polynomial} ({(): f} for a
    scalar): the ambient derivative d_k T_I with every slot projected.

    For tangent vectors the ambient connection differs from the sphere's
    by a normal term, which T annihilates because T is tangential."""
    return _tangential({(k,) + I: T[I].diff(k) for k in range(3) for I in T})


def _trace(T: Mapping, rest: tuple = ()):
    """s^{ij} T_{ij rest}."""
    return sum((T[(i, i) + rest] for i in range(3)), _ZERO)


def _mean_square(*components) -> Fraction:
    """Sphere mean of the sum of the squares of the components."""
    return sphere_mean(dot((c, c) for c in components))


def sphere_hessian(spec: HarmonicSpec) -> dict:
    """nabla_ij phi = (P D^2F P)_ij - l F P_ij for the homogeneous F of
    degree l (the Gauss formula, with x . DF = l F)."""
    F = spec.poly
    H = _tangential({(i, j): F.diff(i).diff(j) for i in range(3)
                     for j in range(3)})
    return {I: H[I] - spec.l * F * _P[I] for I in H}


@lru_cache(maxsize=None)
def b_tensor(spec: HarmonicSpec) -> MappingProxyType:
    """b_ij = [2 nabla_ij phi + nu phi s_ij] / (nu - 2), the general
    [(n-1) nabla_ij phi + nu phi s_ij] / ((n-2)(nu + 1 - n)) at n = 3.

    Memoized per spec; the mapping is read-only because it is shared.
    """
    H = sphere_hessian(spec)
    scale = Fraction(1, spec.nu - 2)
    return MappingProxyType({I: (2 * H[I] + spec.nu * spec.poly * _P[I])
                             * scale for I in H})


@lru_cache(maxsize=None)
def b_derivative(spec: HarmonicSpec) -> MappingProxyType:
    """nabla_k b_ij of b_tensor(spec), memoized and read-only."""
    return MappingProxyType(covariant_derivative(b_tensor(spec)))


# ---------------------------------------------------------------------------
# Identity checks: residuals are sphere means of squared defects
# ---------------------------------------------------------------------------

def b_trace_residual(spec: HarmonicSpec) -> Fraction:
    """Mean of (s^{ij} b_ij)^2."""
    return _mean_square(_trace(b_tensor(spec)))


def b_divergence_residual(spec: HarmonicSpec) -> Fraction:
    """Mean of |nabla^i b_ij + nabla_j phi|^2."""
    grad = covariant_derivative({(): spec.poly})
    T = b_derivative(spec)
    return _mean_square(*(_trace(T, (j,)) + grad[j,] for j in range(3)))


def qbc_closed_forms(nu, n) -> tuple:
    """(Q_b, B_b, C_b) for a single unit-normalized harmonic:

    Q_b = (n-1)/(n-2) nu/(nu-n+1)
    B_b = -(n-1) Q_b + nu
    C_b = -(n-1) Q_b + (n-1)/(n-2) nu

    Exact for Fraction nu and n, floats otherwise.
    """
    if nu == n - 1:
        raise ExcludedEigenvalue(f"nu = n - 1 = {nu} is excluded")
    Q = (n - 1) / (n - 2) * nu / (nu - n + 1)
    B = -(n - 1) * Q + nu
    C = -(n - 1) * Q + (n - 1) / (n - 2) * nu
    return Q, B, C


def qbc_quadrature(spec: HarmonicSpec) -> tuple[Fraction, Fraction, Fraction]:
    """(Q, B, C) from their defining mean-integrals, for the harmonic
    scaled to mean square 1:

    Q = mean int b_ij b^ij
    B = mean int nabla^i b^jk nabla_j b_ik
    C = mean int nabla^k b^ij nabla_k b_ij
    """
    T = b_derivative(spec)
    means = (_mean_square(*b_tensor(spec).values()),
             sphere_mean(dot((T[k, i, j], T[i, k, j]) for k, i, j in T)),
             _mean_square(*T.values()))
    norm = _mean_square(spec.poly)
    return tuple(m / norm for m in means)


def u_coefficient_from_qbc(nu, n, omega: int):
    """B_b/2 - C_b/4 - (1 + omega/2)^2 Q_b, the quadrature route to u_k.

    Exact for Fraction nu and n, floats otherwise."""
    Q, B, C = qbc_closed_forms(nu, n)
    return B / 2 - C / 4 - (1 + Fraction(omega, 2)) ** 2 * Q


def i_s_coefficients(n, omega: int) -> tuple:
    """(h1, l2, rbar) multipliers of the I_S functional at dimension n:
    4(n-1)(n-2), P_2(omega+2) = 4 a0 of spectral.closed_forms, and
    -2(n-2)^2."""
    return (4 * (n - 1) * (n - 2), 4 * closed_forms(omega, n).a0,
            -2 * (n - 2) ** 2)


def i_s_functional(f, rbar, omega: int) -> Fraction:
    """mean int [c_h1 |nabla f|^2 + c_l2 f^2 + c_rbar f rbar] at n = 3, for
    polynomials f (mean-free) and rbar, with (c_h1, c_l2, c_rbar) the
    multipliers of i_s_coefficients."""
    mean = sphere_mean(f)
    if mean:
        raise NonzeroMean(f"mean of f is {mean}")
    c_h1, c_l2, c_rbar = i_s_coefficients(3, omega)
    grad = covariant_derivative({(): f})
    return sphere_mean(c_h1 * dot((g, g) for g in grad.values())
                       + c_l2 * f ** 2 + c_rbar * f * rbar)


def i_s_minimizer_reference(nu, n, d_value):
    """-(n-2)^4 nu^2 / d_k, the value of I_S at f = c_k nu phi for the
    harmonic phi of mean square 1."""
    return -(n - 2) ** 4 * nu * nu / d_value


# ---------------------------------------------------------------------------
# Annulus scalar-curvature check
# ---------------------------------------------------------------------------

class AnnulusReport(NamedTuple):
    bracket: Fraction                 # B/2 - C/4 - (1 + omega/2)^2 Q
    q_part: Fraction                  # -(1 + omega/2)^2 Q, the radial-term coefficient
    # the exact t^2 coefficient of the mean; None unless gamma == -beta
    t2_coefficient: Fraction | None
    max_relative_deviation: dict      # t -> |mean R/t^2 - bracket|/|bracket| at tau = t
    linear_residual_ratios: tuple[float, ...]  # successive deviation ratios
    max_q_part_deviation: dict        # t -> the same deviation at tau = t against q_part


def _on_meridian(p: Polynomial) -> Polynomial:
    """The normal form of p on the circle y = 0, x^2 + z^2 = 1: y -> 0 and
    x^2 -> 1 - z^2, leaving at most the first power of x.  In lex order
    this is sympy's p.subs(y, 0).rem(x^2 + z^2 - 1)."""
    # x^a z^e = x^(a mod 2) (1 - z^2)^(a // 2) z^e
    return dot((c * X ** (a % 2) * Z ** e, (1 - Z ** 2) ** (a // 2))
               for (a, b, e), c in p.numerators()
               if not b) * Fraction(1, p.denominator)


@lru_cache(maxsize=None)
def zonal_b(l: int) -> tuple:
    """(beta, gamma) = (b_tt, b_pp / sin^2 theta) of the zonal (m = 0) b
    of degree l in the polar coordinates (theta, phi), as polynomials in
    z = cos theta.  The b of the harmonic with mean square 1 is
    sqrt(2l+1) times this one.

    They are the ambient b pulled back at phi = 0, where the point is
    (sin, 0, cos), e_theta = (cos, 0, -sin) and e_phi = (0, sin, 0).  A
    zonal b is invariant under rotations about the z axis, so these are
    its components at every phi, and it is even under y -> -y, so b_tp
    vanishes.  On that circle x^2 = 1 - z^2; b_tt and b_pp / sin^2 = b_yy
    are even in x, so their normal forms on it (_on_meridian) are
    polynomials in z.
    """
    b = b_tensor(HarmonicSpec(l, 0))
    tt = dot(((Z ** 2, b[0, 0]), (-2 * X * Z, b[0, 2]), (X ** 2, b[2, 2])))
    return tuple(_on_meridian(p) for p in (tt, b[1, 1]))


# the amplitudes t of annulus_curvature_check, each a decade below the last
_T_VALUES = (1e-2, 1e-3, 1e-4)


def _shape_terms(k: int, v: float) -> tuple[float, float]:
    """(p(v), v p'(v)) of annulus_mean_curvature, h(v) = 1 + v + v^2/2."""
    h = 1 + v + v * v / 2
    return (k * v * (1 + v) / (2 * h),
            k * v * (1 + 2 * v + v * v / 2) / (2 * h * h))


def annulus_mean_curvature(l: int, omega: int, t: float, r: float) -> float:
    """Mean of the scalar curvature R over the sphere of radius r in
    dr^2 + r^2 (s + tau b + tau^2 bhat), tau = t r^k, k = omega + 2, with
    b the zonal b of degree l scaled to mean square 1 and
    bhat_ij = b_i^m b_mj / 2 (t = 0 gives flat space, mean 0).

    With x = tau beta and y = tau gamma (zonal_b) the slice metric is
    r^2 (h(x) dtheta^2 + h(y) sin^2 theta dphi^2), h(v) = 1 + v + v^2/2.
    Since r d_r x = k x, the shape operator of the slice has eigenvalues
    (1 + p(x))/r and (1 + p(y))/r, with p(v) = k v (1 + v) / (2 h(v)) and
    v p'(v) = k v (1 + 2v + v^2/2) / (2 h(v)^2).  The 2+1 split
    R = 2K - |A|^2 - H^2 - 2 d_r H then gives r^2 R = 2 r^2 K - Psi with

        Psi - 2 = 4S + p(x)^2 + p(y)^2 + S^2 + 2k (x p'(x) + y p'(y)),

    S = p(x) + p(y).  The slice's area element is r^2 w dc dphi with
    c = cos theta and w = sqrt(h(x) h(y)), and Gauss-Bonnet fixes
    int 2K dA = 8 pi, so

        r^2 <R> = -int [(Psi - 2) w + 2 (w - 1)] dc / int w dc

    over c in [-1, 1] on the Gauss-Legendre rule.  Every term of that
    integrand vanishes at tau = 0, and w - 1 is taken as
    (h(x) h(y) - 1)/(w + 1) with h(x) h(y) - 1 expanded, so no O(1) terms
    cancel.  r^2 <R> depends on t and r only through tau.
    """
    k = omega + 2
    # tau times the unit normalization of b
    scale = t * r ** k * math.sqrt(2 * l + 1)
    beta, gamma = ([(m[2], float(a)) for m, a in p.terms()]
                   for p in zonal_b(l))
    num = den = 0.0
    for c, weight in gauss_legendre():
        x, y = (scale * sum(a * c ** j for j, a in p) for p in (beta, gamma))
        (px, dpx), (py, dpy) = _shape_terms(k, x), _shape_terms(k, y)
        S = px + py
        psi = 4 * S + px * px + py * py + S * S + 2 * k * (dpx + dpy)
        # h(x) h(y) - 1
        hh = (x + y) * (1 + (x + y) / 2 + x * y / 2) + (x * y) ** 2 / 4
        w = math.sqrt(1 + hh)
        num += weight * (psi * w + 2 * hh / (w + 1))
        den += weight * w
    return -num / (den * r * r)


def annulus_curvature_check(omega: int = 2, l: int = 2) -> AnnulusReport:
    """The t^2 coefficient of the mean of R over the slices of the
    perturbed annulus (annulus_mean_curvature), exactly, against the
    bracket B/2 - C/4 - (1 + omega/2)^2 Q and its radial part.

    A three-dimensional annulus has two-dimensional spherical slices, and
    the Gauss-Bonnet theorem makes the total intrinsic curvature of a slice
    a topological constant.  The gradient terms B and C live entirely in
    that intrinsic part, so on this annulus the t^2 coefficient of the
    mean is the radial part -(1 + omega/2)^2 Q alone.  With gamma = -beta
    (b is trace-free on the slice), y = -x, so h(x) h(y) = 1 + x^4/4 and
    Psi - 2 = k^2 x^2 / 2 + O(x^4).  Hence the mean of R is
    c2 t^2 r^(2 omega + 2) + O(t^4), with the exact coefficient

        c2 = -(k^2/4) (2l+1) int_{-1}^{1} beta^2 dz
           = -(k^2/2) (2l+1) sphere_mean(beta^2),

    since the sphere mean of z^j is half its integral over [-1, 1].  The
    report holds c2 (None when gamma != -beta, whose check fails), and
    sphere-check passes only when c2 == q_part.  Q, B and C are the closed
    forms, which qbc_quadrature matches exactly.

    The float means at tau = t record the deviation against both
    references.  Against the full bracket it converges to
    |B/2 - C/4| / |bracket| (which equals (Q/2) / |bracket| here, since
    B/2 - C/4 = -Q/2 in this dimension) instead of shrinking with t.
    Against q_part it falls as t^2: for omega = 2, l = 2 it is 1.72e-3,
    1.72e-5 and 1.72e-7 at t = 1e-2, 1e-3 and 1e-4.
    """
    Q, B, C = qbc_closed_forms(Fraction(l * (l + 1)), Fraction(3))
    q_part = -(1 + Fraction(omega, 2)) ** 2 * Q
    bracket = B / 2 - C / 4 + q_part
    beta, gamma = zonal_b(l)
    t2 = None
    if gamma == -beta:
        t2 = (-Fraction((omega + 2) ** 2, 2) * (2 * l + 1)
              * sphere_mean(beta ** 2))

    dev, dev_q = {}, {}
    for t in _T_VALUES:
        mean_R = annulus_mean_curvature(l, omega, t, 1.0)
        for out, ref in ((dev, float(bracket)), (dev_q, float(q_part))):
            out[t] = abs(mean_R - ref * t * t) / abs(ref * t * t)
    ratios = tuple(dev_q[b] / dev_q[a]
                   for a, b in zip(_T_VALUES, _T_VALUES[1:]))
    return AnnulusReport(bracket=bracket, q_part=q_part, t2_coefficient=t2,
                         max_relative_deviation=dev,
                         linear_residual_ratios=ratios,
                         max_q_part_deviation=dev_q)
