"""Exact oracle on the round 2-sphere.

The tensor identities behind the curvature expansion (trace and
divergence of the b tensor, the Q/B/C mean-integrals, the I_S
functional) are dimension-generic: their derivations use only
Delta phi = nu phi, the constant-curvature relation
R_lijm = s_lj s_im - s_lm s_ij and trace bookkeeping.  This module
decides them exactly on S^2 (n = 3, nu = l(l+1)).  Only the closed forms
(qbc_closed_forms, u_coefficient_from_qbc, i_s_minimizer_reference) take
n, because they are the dimension-generic formulas the sphere means are
compared with.

Every function on S^2 is the restriction of a polynomial in x, y, z
(sympy's sparse RING over QQ), and a tangential tensor is a mapping from
ambient index tuples over range(3) to such polynomials.  With the
tangential projector P = |x|^2 I - x x^T, which is I - x x^T on S^2 and
kills x identically:

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
on S^2.

The annulus check is not one of them: it is specific to 2-sphere slices.
There Gauss-Bonnet makes the total intrinsic curvature of a slice
topological, so the gradient terms B/2 - C/4 of the bracket
B/2 - C/4 - (1 + omega/2)^2 Q drop out and the t^2 coefficient is the
radial part -(1 + omega/2)^2 Q alone (see annulus_curvature_check).  Its
metric lives in the polar coordinates (r, THETA, phi), built from the
zonal b that zonal_b pulls back, and its THETA integral is a float
Gauss-Legendre rule.

Sign conventions: Delta = -div grad, so the harmonics satisfy
s^{ij} nabla_ij phi = -nu phi with nu = l(l+1).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

from .integrals import i_s_coefficients

RING, X, Y, Z = ring("x,y,z", QQ)
_AXES = (X, Y, Z)
_R2 = X ** 2 + Y ** 2 + Z ** 2
# P_ij = |x|^2 delta_ij - x_i x_j
_P = {(i, j): (_R2 if i == j else RING.zero) - a * b
      for i, a in enumerate(_AXES) for j, b in enumerate(_AXES)}
THETA = sp.Symbol("theta")


class ExcludedEigenvalue(ValueError):
    """nu = n - 1 makes the b-tensor denominator vanish (l = 1 on S^2)."""


class NonzeroMean(ValueError):
    """I_S requires a mean-free angular profile."""


# ---------------------------------------------------------------------------
# Sphere means and harmonics
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _monomial_mean(exponents: tuple[int, ...]) -> Fraction:
    if any(e % 2 for e in exponents):
        return Fraction(0)
    odd = math.prod(math.prod(range(e - 1, 0, -2)) for e in exponents)
    return Fraction(odd, math.prod(range(3, sum(exponents) + 2, 2)))


def sphere_mean(p) -> Fraction:
    """Mean of the polynomial p over the unit sphere S^2."""
    return sum((Fraction(int(c.numerator), int(c.denominator))
                * _monomial_mean(m) for m, c in p.terms()), Fraction(0))


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
    zonal = sum((QQ((-1) ** k * math.comb(l, k) * math.comb(2 * l - 2 * k, l)
                    * math.perm(l - 2 * k, a), 2 ** l)
                 * Z ** (l - 2 * k - a) * _R2 ** k
                 for k in range((l - a) // 2 + 1)), RING.zero)
    # Re (x + iy)^a for m >= 0, Im (x + iy)^a for m < 0
    angular = sum((math.comb(a, j) * (-1) ** (j // 2) * X ** (a - j) * Y ** j
                   for j in range(0 if m >= 0 else 1, a + 1, 2)), RING.zero)
    return (-1) ** a * zonal * angular


@dataclass(frozen=True)
class HarmonicSpec:
    l: int
    m: int

    def __post_init__(self):
        if self.l < 2:
            raise ExcludedEigenvalue(
                "degrees l < 2 are excluded (l = 1 hits nu = n - 1; l = 0 "
                "is constant)")
        if abs(self.m) > self.l:
            raise ValueError(f"|m| > l for (l={self.l}, m={self.m})")

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
        T = {I: sum((_P[I[s], a] * T[I[:s] + (a,) + I[s + 1:]]
                     for a in range(3)), RING.zero) for I in T}
    return T


def covariant_derivative(T: Mapping) -> dict:
    """nabla_k T_I of a tangential tensor {I: polynomial} ({(): f} for a
    scalar): the ambient derivative d_k T_I with every slot projected.

    For tangent vectors the ambient connection differs from the sphere's
    by a normal term, which T annihilates because T is tangential."""
    return _tangential({(k,) + I: T[I].diff(a)
                        for k, a in enumerate(_AXES) for I in T})


def _trace(T: Mapping, rest: tuple = ()):
    """s^{ij} T_{ij rest}."""
    return sum((T[(i, i) + rest] for i in range(3)), RING.zero)


def _mean_square(*components) -> Fraction:
    """Sphere mean of the sum of the squares of the components."""
    return sphere_mean(sum((c ** 2 for c in components), RING.zero))


def sphere_hessian(spec: HarmonicSpec) -> dict:
    """nabla_ij phi = (P D^2F P)_ij - l F P_ij for the homogeneous F of
    degree l (the Gauss formula, with x . DF = l F)."""
    F = spec.poly
    H = _tangential({(i, j): F.diff(a).diff(b) for i, a in enumerate(_AXES)
                     for j, b in enumerate(_AXES)})
    return {I: H[I] - spec.l * F * _P[I] for I in H}


@lru_cache(maxsize=None)
def b_tensor(spec: HarmonicSpec) -> MappingProxyType:
    """b_ij = [2 nabla_ij phi + nu phi s_ij] / (nu - 2), the general
    [(n-1) nabla_ij phi + nu phi s_ij] / ((n-2)(nu + 1 - n)) at n = 3.

    Memoized per spec; the mapping is read-only because it is shared.
    """
    H = sphere_hessian(spec)
    scale = QQ(1, spec.nu - 2)
    return MappingProxyType({I: (2 * H[I] + spec.nu * spec.poly * _P[I])
                             * scale for I in H})


@lru_cache(maxsize=None)
def b_derivative(spec: HarmonicSpec) -> MappingProxyType:
    """nabla_k b_ij of b_tensor(spec), memoized and read-only."""
    return MappingProxyType(covariant_derivative(b_tensor(spec)))


def _b_divergence(spec: HarmonicSpec) -> dict:
    """nabla^i b_ij as the tangential covector {(j,): polynomial}."""
    T = b_derivative(spec)
    return {(j,): _trace(T, (j,)) for j in range(3)}


# ---------------------------------------------------------------------------
# Identity checks: residuals are sphere means of squared defects
# ---------------------------------------------------------------------------

def laplacian_check(spec: HarmonicSpec) -> Fraction:
    """Mean of (s^{ij} nabla_ij phi + nu phi)^2 (sign convention
    Delta = -div grad makes the trace of the Hessian equal -nu phi)."""
    return _mean_square(_trace(sphere_hessian(spec)) + spec.nu * spec.poly)


def b_trace_residual(spec: HarmonicSpec) -> Fraction:
    """Mean of (s^{ij} b_ij)^2."""
    return _mean_square(_trace(b_tensor(spec)))


def b_divergence_residual(spec: HarmonicSpec) -> Fraction:
    """Mean of |nabla^i b_ij + nabla_j phi|^2."""
    grad = covariant_derivative({(): spec.poly})
    div = _b_divergence(spec)
    return _mean_square(*(div[j] + grad[j] for j in div))


def b_double_divergence_residual(spec: HarmonicSpec) -> Fraction:
    """Mean of (nabla^{ij} b_ij - nu phi)^2: the double divergence
    reproduces the leading curvature part coefficient nu phi."""
    dd = _trace(covariant_derivative(_b_divergence(spec)))
    return _mean_square(dd - spec.nu * spec.poly)


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
    b, T = b_tensor(spec), b_derivative(spec)
    norm = sphere_mean(spec.poly ** 2)
    sums = (sum((b[I] ** 2 for I in b), RING.zero),
            sum((T[k, i, j] * T[i, k, j] for k, i, j in T), RING.zero),
            sum((T[I] ** 2 for I in T), RING.zero))
    return tuple(sphere_mean(s) / norm for s in sums)


def u_coefficient_from_qbc(nu: float, n: int, omega: int) -> float:
    """B_b/2 - C_b/4 - (1 + omega/2)^2 Q_b, the quadrature route to u_k."""
    Q, B, C = qbc_closed_forms(nu, n)
    return B / 2 - C / 4 - (1 + omega / 2) ** 2 * Q


def i_s_functional(f, rbar, omega: int) -> Fraction:
    """mean int [c_h1 |nabla f|^2 + c_l2 f^2 + c_rbar f rbar] at n = 3, for
    polynomials f (mean-free) and rbar, with (c_h1, c_l2, c_rbar) the
    multipliers of integrals.i_s_coefficients."""
    mean = sphere_mean(f)
    if mean:
        raise NonzeroMean(f"mean of f is {mean}")
    c_h1, c_l2, c_rbar = i_s_coefficients(3, omega)
    grad = covariant_derivative({(): f})
    return sphere_mean(c_h1 * sum((g ** 2 for g in grad.values()), RING.zero)
                       + c_l2 * f ** 2 + c_rbar * f * rbar)


def i_s_minimizer_reference(nu, n, d_value):
    """-(n-2)^4 nu^2 / d_k, the value of I_S at f = c_k nu phi for the
    harmonic phi of mean square 1."""
    return -(n - 2) ** 4 * nu * nu / d_value


# ---------------------------------------------------------------------------
# Annulus scalar-curvature check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnulusReport:
    bracket: Fraction                 # B/2 - C/4 - (1 + omega/2)^2 Q
    q_part: Fraction                  # -(1 + omega/2)^2 Q, the radial-term coefficient
    max_relative_deviation: dict      # t -> max over r of |mean R/(t^2 r^{2w+2}) - bracket|/|bracket|
    linear_residual_ratios: tuple[float, ...]  # successive deviation ratios
    max_q_part_deviation: dict        # t -> max over r of the same deviation measured against q_part


def christoffel(g, coords) -> list:
    """Gamma[a][b][c] = Gamma^a_{bc} of the diagonal metric diag(g) in the
    coordinates coords:

    Gamma^a_{bc} = (1/2) g^{aa} (d_b g_ac + d_c g_ab - d_a g_bc)
    """
    dim = range(len(coords))

    def symbol(a, b, c):
        term = sp.Integer(0)
        if a == b:
            term += sp.diff(g[a], coords[c])
        if a == c:
            term += sp.diff(g[a], coords[b])
        if b == c:
            term -= sp.diff(g[b], coords[a])
        return term / (2 * g[a])

    return [[[symbol(a, b, c) for c in dim] for b in dim] for a in dim]


@lru_cache(maxsize=None)
def zonal_b(l: int) -> tuple:
    """(b_tt, b_pp) of the zonal (m = 0) harmonic of degree l, scaled to
    mean square 1, in the polar coordinates (THETA, phi).

    They are sqrt(2l+1) times the ambient b pulled back at phi = 0, where the point is
    (sin, 0, cos), e_theta = (cos, 0, -sin) and e_phi = (0, sin, 0).  A
    zonal b is invariant under rotations about the z axis, so these are
    its components at every phi, and it is even under y -> -y, so b_tp
    vanishes.  On that circle x^2 = 1 - z^2; b_tt and b_pp / x^2 are even
    in x, so reducing by x^2 + z^2 - 1 leaves polynomials in cos THETA.
    """
    b = b_tensor(HarmonicSpec(l, 0))
    circle = X ** 2 + Z ** 2 - 1
    tt = Z ** 2 * b[0, 0] - 2 * X * Z * b[0, 2] + X ** 2 * b[2, 2]
    on_circle = {RING.symbols[2]: sp.cos(THETA)}
    b_tt, b_yy = (p.subs(Y, 0).rem(circle).as_expr().xreplace(on_circle)
                  for p in (tt, b[1, 1]))
    unit = sp.sqrt(2 * l + 1)
    return unit * b_tt, unit * sp.sin(THETA) ** 2 * b_yy


@lru_cache(maxsize=None)
def _annulus_curvature_lambdified(l: int, omega: int):
    """Scalar curvature of dr^2 + r^2(s + t r^{w+2} b + t^2 r^{2(w+2)} bhat)
    for the zonal (m = 0) harmonic of degree l, as a function (t, r, theta).

    The metric is diagonal because the zonal b has no theta-phi component.
    Also returns the area element factor sqrt(g_tt g_pp)/sin(theta).
    """
    t_s, r_s, phi_s = sp.symbols("t r phi", positive=True)
    b_tt, b_pp = zonal_b(l)
    sin2 = sp.sin(THETA) ** 2
    scale = t_s * r_s ** (omega + 2)
    # bhat_ij = (1/2) b_i^k b_kj ; diagonal case
    g_tt = r_s ** 2 * (1 + scale * b_tt + scale ** 2 * b_tt ** 2 / 2)
    g_pp = r_s ** 2 * (sin2 + scale * b_pp + scale ** 2 * b_pp ** 2
                       / (2 * sin2))

    coords = (r_s, THETA, phi_s)
    g = [sp.Integer(1), g_tt, g_pp]       # diagonal entries, phi-independent
    Gamma = christoffel(g, coords)
    R_scalar = sp.Integer(0)
    for bq in range(3):
        c = bq
        ric = sp.Integer(0)
        for a in range(3):
            ric += sp.diff(Gamma[a][bq][c], coords[a])
            ric -= sp.diff(Gamma[a][bq][a], coords[c])
            for dd in range(3):
                ric += Gamma[a][a][dd] * Gamma[dd][bq][c]
                ric -= Gamma[a][c][dd] * Gamma[dd][bq][a]
        R_scalar += ric / g[bq]
    area_factor = sp.sqrt(g_tt * g_pp) / sp.sin(THETA)
    return tuple(sp.lambdify((t_s, r_s, THETA), f, modules="math", cse=True)
                 for f in (R_scalar, area_factor))


# Gauss-Legendre nodes in cos(THETA); the slice integrands are smooth, and
# at 26 nodes the rule's error is far below the rounding of R at t = 1e-4
_NODES = 26


def _legendre(u: float) -> tuple[float, float]:
    """P_NODES(u) and its derivative, by the three-term recurrence."""
    p0, p1 = 1.0, u
    for k in range(2, _NODES + 1):
        p0, p1 = p1, ((2 * k - 1) * u * p1 - (k - 1) * p0) / k
    return p1, _NODES * (u * p1 - p0) / (u * u - 1)


@lru_cache(maxsize=None)
def _gauss_legendre() -> tuple[tuple[float, float], ...]:
    """(node, weight) pairs of the Gauss-Legendre rule on [-1, 1]: Newton's
    method on P_NODES from Tricomi's first guesses, which converges
    quadratically and reaches rounding within six steps."""
    rule = []
    for i in range(_NODES):
        u = math.cos(math.pi * (i + 0.75) / (_NODES + 0.5))
        for _ in range(6):
            p, dp = _legendre(u)
            u -= p / dp
        _, dp = _legendre(u)
        rule.append((u, 2 / ((1 - u * u) * dp * dp)))
    return tuple(rule)


def annulus_mean_curvature(l: int, omega: int, t: float, r: float) -> float:
    """Mean-integral of the scalar curvature over the sphere of radius r
    in the perturbed cone metric (t = 0 gives flat space, mean 0).

    The THETA integral runs in cos(THETA) on the Gauss-Legendre rule,
    whose weights absorb the sin(THETA) of the round measure."""
    f_R, f_area = _annulus_curvature_lambdified(l, omega)
    num = den = 0.0
    for u, w in _gauss_legendre():
        theta = math.acos(u)
        area = w * f_area(t, r, theta)
        num += f_R(t, r, theta) * area
        den += area
    return num / den


def annulus_curvature_check(omega: int = 2, l: int = 2,
                            t_values: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
                            r_values: tuple[float, ...] = (0.5, 0.7, 1.0)
                            ) -> AnnulusReport:
    """Compare mean int_{S(r)} R dsigma_r / (t^2 r^{2 omega + 2}) with the
    bracket B/2 - C/4 - (1 + omega/2)^2 Q over a (t, r) grid.

    A three-dimensional annulus has two-dimensional spherical slices, and
    the Gauss-Bonnet theorem makes the total intrinsic curvature of a slice
    a topological constant.  The gradient terms B and C live entirely in
    that intrinsic part, so on this annulus the exact t^2 coefficient of
    the mean is the radial part -(1 + omega/2)^2 Q alone, and the deviation
    from the full bracket converges to |B/2 - C/4| / |bracket| (which equals
    (Q/2) / |bracket| here, since B/2 - C/4 = -Q/2 in this dimension)
    instead of shrinking with t.  The report therefore records the deviation
    against both references.  Q, B and C are the closed forms, which
    qbc_quadrature matches exactly.

    The q_part deviation shrinks as O(t^2): for omega = 2, l = 2 it is
    1.72e-3 at t = 1e-2 and 1.72e-5 at t = 1e-3.  At t = 1e-4 rounding
    dominates.  R is O(t) pointwise but its mean is O(t^2) (about -12 t^2),
    so the float mean loses digits to cancellation and the deviation reads
    a few 1e-7 rather than the 1.7e-7 of the trend; the digit depends on
    how the evaluation of R is associated.
    """
    Q, B, C = qbc_closed_forms(Fraction(l * (l + 1)), Fraction(3))
    q_part = -(1 + Fraction(omega, 2)) ** 2 * Q
    bracket = B / 2 - C / 4 + q_part
    bracket_f, q_part_f = float(bracket), float(q_part)

    max_dev = {}
    max_dev_q = {}
    for t in t_values:
        devs = []
        devs_q = []
        for r in r_values:
            mean_R = annulus_mean_curvature(l, omega, t, r)
            scale = t * t * r ** (2 * omega + 2)
            devs.append(abs(mean_R - bracket_f * scale) / abs(bracket_f * scale))
            devs_q.append(abs(mean_R - q_part_f * scale)
                          / abs(q_part_f * scale))
        max_dev[t] = max(devs)
        max_dev_q[t] = max(devs_q)
    ts = sorted(t_values, reverse=True)
    ratios = tuple(max_dev_q[b] / max_dev_q[a] for a, b in zip(ts, ts[1:]))
    return AnnulusReport(bracket=bracket, q_part=q_part,
                         max_relative_deviation=max_dev,
                         linear_residual_ratios=ratios,
                         max_q_part_deviation=max_dev_q)
