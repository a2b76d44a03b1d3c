"""Brute-force oracle on the round 2-sphere.

The tensor identities behind the curvature expansion (trace and
divergence of the b tensor, the Q/B/C mean-integrals, the I_S
functional) are dimension-generic: their derivations use only
Delta phi = nu phi, the constant-curvature relation
R_lijm = s_lj s_im - s_lm s_ij and trace bookkeeping.  This module
checks them on S^2 only, where spherical-harmonic quadrature is cheap and
derivatives are available in closed form: every sampled function works
in dimension parameter n = 3, where nu = l(l+1), and samples the one
module-level quadrature grid GRID.  Only the closed forms
(qbc_closed_forms, u_coefficient_from_qbc, i_s_minimizer_reference) take
n, because they are the dimension-generic formulas the quadratures are
compared with.

The annulus check is not one of them: it is specific to 2-sphere slices.
There Gauss-Bonnet makes the total intrinsic curvature of a slice
topological, so the gradient terms B/2 - C/4 of the bracket
B/2 - C/4 - (1 + omega/2)^2 Q drop out and the t^2 coefficient is the
radial part -(1 + omega/2)^2 Q alone (see annulus_curvature_check).

Sign conventions: Delta = -div grad, so the harmonics satisfy
s^{ij} nabla_ij phi = -nu phi with nu = l(l+1).

Coordinates are colatitude THETA and longitude PHI with round metric
s = diag(1, sin^2 theta).  The calculus is derived from that metric:
christoffel(g, coords) gives the Christoffel symbols of a diagonal metric
(the annulus check uses it too), and the gradient, Hessian, nabla b,
both divergences and |nabla f|^2 are one covariant_derivative followed by
contraction with s^{-1}.  The only nonzero symbols of s are
Gamma^theta_{phi phi} = -sin theta cos theta and
Gamma^phi_{theta phi} = Gamma^phi_{phi theta} = cot theta.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np
import sympy as sp

from .integrals import i_s_coefficients

THETA, PHI = sp.symbols("theta phi_c", real=True)
_x = sp.Symbol("x")


class ExcludedEigenvalue(ValueError):
    """nu = n - 1 makes the b-tensor denominator vanish (l = 1 on S^2)."""


class NonzeroMean(ValueError):
    """I_S requires a mean-free angular profile."""


# ---------------------------------------------------------------------------
# Quadrature grid
# ---------------------------------------------------------------------------

class SphereGrid:
    """Gauss-Legendre nodes in cos(theta) crossed with uniform longitudes.

    The grid has n_theta = 2 l_max + 2 Gauss-Legendre nodes and
    n_phi = 4 l_max + 1 longitudes.  It is exact (to rounding) for
    integrands of degree up to 2 n_theta - 1 = 4 l_max + 3 in cos(theta)
    and n_phi - 1 = 4 l_max in the longitude, which covers products of up
    to four harmonics of degree <= l_max.  l_max = 12 covers every degree
    the oracle samples (up to 6) with room to spare.
    """

    l_max = 12

    def __init__(self):
        n_theta = 2 * self.l_max + 2
        n_phi = 4 * self.l_max + 1
        x, w = np.polynomial.legendre.leggauss(n_theta)
        self.theta = np.arccos(x)
        self.theta_weights = w
        self.phi = 2 * math.pi * np.arange(n_phi) / n_phi
        self.phi_weight = 2 * math.pi / n_phi
        # broadcastable meshes: theta along axis 0, phi along axis 1
        self.T = self.theta[:, None] + 0.0 * self.phi[None, :]
        self.P = 0.0 * self.theta[:, None] + self.phi[None, :]
        self._w2d = (self.theta_weights[:, None] * self.phi_weight
                     * np.ones_like(self.phi)[None, :])

    def integrate(self, values: np.ndarray) -> float:
        """Integral over S^2 with the round measure sin(theta) dtheta dphi.

        The sin(theta) factor is absorbed by the Gauss-Legendre weights in
        cos(theta); summation order is fixed for reproducibility.
        """
        return float(np.sum(values * self._w2d))

    def mean(self, values: np.ndarray) -> float:
        return self.integrate(values) / (4 * math.pi)

    def sample(self, expr) -> np.ndarray:
        return self.sample_many((expr,))[0]

    def sample_many(self, exprs: tuple) -> tuple[np.ndarray, ...]:
        """Values of each expression in (theta, phi_c) on the grid."""
        out = _compiled(tuple(exprs))(self.T, self.P)
        return tuple(np.broadcast_to(np.asarray(v, dtype=float),
                                     self.T.shape).copy() for v in out)


GRID = SphereGrid()


@lru_cache(maxsize=None)
def _compiled(exprs: tuple):
    """One numpy function of (theta, phi_c) returning the list of exprs,
    with common subexpressions evaluated once."""
    return sp.lambdify((THETA, PHI), list(exprs), modules="numpy", cse=True)


# ---------------------------------------------------------------------------
# Harmonics
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def real_harmonic(l: int, m: int):
    """Real spherical harmonic of degree l, order m, normalized so the
    mean-integral of its square is 1 (i.e. sqrt(4 pi) times the usual
    orthonormal real harmonic)."""
    if l < 0 or abs(m) > l:
        raise ValueError(f"invalid harmonic (l={l}, m={m})")
    # (-1)^a N sin^a(theta) P_l^(a)(cos theta) {1, cos a phi, sin a phi}
    # with N^2 = (2l+1)(l-a)!/(l+a)!, doubled for m != 0; the sign is the
    # Condon-Shortley phase of the complex harmonic Y_l^a
    a = abs(m)
    legendre = sp.diff(sp.legendre(l, _x), _x, a).subs(_x, sp.cos(THETA))
    norm2 = sp.Integer(2 * l + 1) * sp.factorial(l - a) / sp.factorial(l + a)
    if m == 0:
        angular = sp.Integer(1)
    else:
        norm2 *= 2
        angular = sp.cos(a * PHI) if m > 0 else sp.sin(a * PHI)
    return ((-1) ** a * sp.sqrt(norm2) * sp.sin(THETA) ** a * legendre
            * angular)


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
    def expr(self):
        return real_harmonic(self.l, self.m)


# ---------------------------------------------------------------------------
# Covariant calculus on the round S^2, derived from the metric
# ---------------------------------------------------------------------------

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


# Tensors on S^2 are mappings from index strings over _IDX to components;
# _S is the round metric, _INV its inverse, _GAMMA[l + k + i] = Gamma^l_{ki}.
_IDX = "tp"
_S = {"tt": sp.Integer(1), "tp": sp.Integer(0), "pt": sp.Integer(0),
      "pp": sp.sin(THETA) ** 2}
_INV = {i: 1 / _S[i + i] for i in _IDX}
_GAMMA = {l + k + i: gamma
          for l, plane in zip(_IDX, christoffel((_S["tt"], _S["pp"]),
                                                (THETA, PHI)))
          for k, row in zip(_IDX, plane) for i, gamma in zip(_IDX, row)}


def covariant_derivative(T: Mapping) -> dict:
    """nabla_k T_I of a covariant tensor given by every component {I: expr},
    I running over the index strings of one length over "tp" ("" for a
    scalar); returns {k + I: expr}:

    nabla_k T_{i_1..i_r} = d_k T_{i_1..i_r}
                           - sum_s Gamma^l_{k i_s} T_{i_1..l..i_r}
    """
    out = {}
    for k, x_k in zip(_IDX, (THETA, PHI)):
        for I, component in T.items():
            value = sp.diff(component, x_k)
            for s, i in enumerate(I):
                for l in _IDX:
                    value -= _GAMMA[l + k + i] * T[I[:s] + l + I[s + 1:]]
            out[k + I] = value
    return out


def _trace(T: Mapping, inv: Mapping, rest: str = ""):
    """s^{ij} T_{ij rest}, contracting the first two indices with the
    inverse metric inv (symbolic or sampled)."""
    return sum(inv[i] * T[i + i + rest] for i in _IDX)


def _contract(A: Mapping, B: Mapping, inv: Mapping):
    """A_I B^I, every index raised with the inverse metric inv."""
    return sum(math.prod(inv[i] for i in I) * A[I] * B[I] for I in A)


def gradient_exprs(f) -> tuple:
    """Covector components (nabla_t f, nabla_p f)."""
    return tuple(covariant_derivative({"": f}).values())


def grad_norm2_expr(f):
    """|nabla f|^2 = s^{ij} nabla_i f nabla_j f."""
    grad = covariant_derivative({"": f})
    return _contract(grad, grad, _INV)


def covariant_hessian_exprs(f) -> dict:
    """nabla_ij f = nabla_i (nabla f)_j on the round sphere, as symbolic
    components {tt, tp, pt, pp}."""
    return covariant_derivative(covariant_derivative({"": f}))


def divergence_exprs(spec: HarmonicSpec) -> tuple:
    """(nabla^i b_it, nabla^i b_ip) of b_tensor_exprs(spec)."""
    T = b_derivative_exprs(spec)
    return tuple(_trace(T, _INV, j) for j in _IDX)


def covector_divergence_expr(v: tuple):
    """nabla^j v_j for a covector (v_t, v_p)."""
    return _trace(covariant_derivative(dict(zip(_IDX, v))), _INV)


@lru_cache(maxsize=None)
def b_tensor_exprs(spec: HarmonicSpec) -> MappingProxyType:
    """b_ij = [2 nabla_ij phi + nu phi s_ij] / (nu - 2), the general
    [(n-1) nabla_ij phi + nu phi s_ij] / ((n-2)(nu + 1 - n)) at n = 3.

    Memoized per spec; the mapping is read-only because it is shared.
    """
    nu = spec.nu
    f = spec.expr
    H = covariant_hessian_exprs(f)
    denom = sp.Integer(nu - 2)
    return MappingProxyType({I: (2 * H[I] + nu * f * _S[I]) / denom
                             for I in H})


@lru_cache(maxsize=None)
def b_derivative_exprs(spec: HarmonicSpec) -> MappingProxyType:
    """nabla_k b_ij of b_tensor_exprs(spec), memoized and read-only."""
    return MappingProxyType(covariant_derivative(b_tensor_exprs(spec)))


def _sample(exprs: Mapping) -> dict:
    """{key: values on GRID} of a mapping of expressions."""
    return dict(zip(exprs, GRID.sample_many(tuple(exprs.values()))))


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def laplacian_check(spec: HarmonicSpec) -> float:
    """Max |s^{ij} nabla_ij phi + nu phi| over the grid (sign convention
    Delta = -div grad makes the trace of the Hessian equal -nu phi)."""
    H = _sample(covariant_hessian_exprs(spec.expr))
    resid = _trace(H, _sample(_INV)) + spec.nu * GRID.sample(spec.expr)
    return float(np.max(np.abs(resid)))


def b_trace_residual(spec: HarmonicSpec) -> float:
    """Max |s^{ij} b_ij| over the grid."""
    b = _sample(b_tensor_exprs(spec))
    return float(np.max(np.abs(_trace(b, _sample(_INV)))))


def b_divergence_residual(spec: HarmonicSpec) -> float:
    """Max |nabla^i b_ij + nabla_j phi| over the grid, both components."""
    div_t, div_p = divergence_exprs(spec)
    gt, gp = gradient_exprs(spec.expr)
    rt, rp = GRID.sample_many((sp.expand(div_t + gt), sp.expand(div_p + gp)))
    return float(max(np.max(np.abs(rt)), np.max(np.abs(rp))))


def b_double_divergence_residual(spec: HarmonicSpec) -> float:
    """Max |nabla^{ij} b_ij - nu phi|: the double divergence reproduces the
    leading curvature part coefficient nu phi."""
    dd = covector_divergence_expr(divergence_exprs(spec))
    resid = GRID.sample(sp.expand(dd - spec.nu * spec.expr))
    return float(np.max(np.abs(resid)))


def qbc_closed_forms(nu: float, n: int) -> tuple[float, float, float]:
    """(Q_b, B_b, C_b) for a single unit-normalized harmonic:

    Q_b = (n-1)/(n-2) nu/(nu-n+1)
    B_b = -(n-1) Q_b + nu
    C_b = -(n-1) Q_b + (n-1)/(n-2) nu
    """
    if nu == n - 1:
        raise ExcludedEigenvalue(f"nu = n - 1 = {nu} is excluded")
    Q = (n - 1) / (n - 2) * nu / (nu - n + 1)
    B = -(n - 1) * Q + nu
    C = -(n - 1) * Q + (n - 1) / (n - 2) * nu
    return Q, B, C


def qbc_quadrature(spec: HarmonicSpec) -> tuple[float, float, float]:
    """(Q, B, C) from their defining mean-integrals:

    Q = mean int b_ij b^ij
    B = mean int nabla^i b^jk nabla_j b_ik
    C = mean int nabla^k b^ij nabla_k b_ij
    """
    inv = _sample(_INV)
    b = _sample(b_tensor_exprs(spec))
    T = _sample(b_derivative_exprs(spec))
    T_swapped = {I: T[I[1] + I[0] + I[2:]] for I in T}   # nabla_j b_ik
    return (GRID.mean(_contract(b, b, inv)),
            GRID.mean(_contract(T, T_swapped, inv)),
            GRID.mean(_contract(T, T, inv)))


def u_coefficient_from_qbc(nu: float, n: int, omega: int) -> float:
    """B_b/2 - C_b/4 - (1 + omega/2)^2 Q_b, the quadrature route to u_k."""
    Q, B, C = qbc_closed_forms(nu, n)
    return B / 2 - C / 4 - (1 + omega / 2) ** 2 * Q


def i_s_functional(f, rbar, omega: int) -> float:
    """mean int [c_h1 |nabla f|^2 + c_l2 f^2 + c_rbar f rbar] at n = 3, for
    sympy expressions f (mean-free) and rbar, with (c_h1, c_l2, c_rbar)
    the multipliers of integrals.i_s_coefficients."""
    values = GRID.sample(f)
    mean = GRID.mean(values)
    if abs(mean) > 1e-10:
        raise NonzeroMean(f"mean of f is {mean:.3e}")
    c_h1, c_l2, c_rbar = i_s_coefficients(3, omega)
    integrand = (c_h1 * GRID.sample(grad_norm2_expr(f))
                 + c_l2 * values ** 2
                 + c_rbar * values * GRID.sample(rbar))
    return GRID.mean(integrand)


def i_s_minimizer_reference(nu: float, n: int, omega: int,
                            d_value: float) -> float:
    """-(n-2)^4 nu^2 / d_k, the value of I_S at f = c_k nu phi."""
    return -(n - 2) ** 4 * nu * nu / d_value


# ---------------------------------------------------------------------------
# Annulus scalar-curvature check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnulusReport:
    bracket_quadrature: float
    bracket_closed_form: float
    q_part: float                     # -(1 + omega/2)^2 Q, the radial-term coefficient
    max_relative_deviation: dict      # t -> max over r of |mean R/(t^2 r^{2w+2}) - bracket|/|bracket|
    linear_residual_ratios: tuple[float, ...]  # successive deviation ratios
    max_q_part_deviation: dict        # t -> max over r of the same deviation measured against q_part


@lru_cache(maxsize=None)
def _annulus_curvature_lambdified(l: int, omega: int):
    """Scalar curvature of dr^2 + r^2(s + t r^{w+2} b + t^2 r^{2(w+2)} bhat)
    for the zonal (m = 0) harmonic of degree l, as a function (t, r, theta).

    The metric is diagonal because the zonal b has no theta-phi component.
    Also returns the area element factor sqrt(g_tt g_pp)/sin(theta).
    """
    t_s, r_s = sp.symbols("t r", positive=True)
    spec = HarmonicSpec(l, 0)
    b = b_tensor_exprs(spec)
    # bhat_ij = (1/2) b_i^k b_kj ; diagonal case
    bhat_tt = sp.Rational(1, 2) * b["tt"] ** 2
    bhat_pp = sp.Rational(1, 2) * b["pp"] ** 2 * _INV["p"]
    scale = t_s * r_s ** (omega + 2)
    g_tt = r_s ** 2 * (1 + scale * b["tt"] + scale ** 2 * bhat_tt)
    g_pp = r_s ** 2 * (_S["pp"] + scale * b["pp"] + scale ** 2 * bhat_pp)

    coords = (r_s, THETA, PHI)
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
    f_R = sp.lambdify((t_s, r_s, THETA), R_scalar, modules="numpy", cse=True)
    f_area = sp.lambdify((t_s, r_s, THETA), area_factor, modules="numpy",
                         cse=True)
    return f_R, f_area


def annulus_mean_curvature(l: int, omega: int, t: float, r: float) -> float:
    """Mean-integral of the scalar curvature over the sphere of radius r
    in the perturbed cone metric (t = 0 gives flat space, mean 0)."""
    f_R, f_area = _annulus_curvature_lambdified(l, omega)
    R_vals = np.asarray(f_R(t, r, GRID.theta), dtype=float)
    area_vals = np.asarray(f_area(t, r, GRID.theta), dtype=float)
    num = float(np.sum(R_vals * area_vals * GRID.theta_weights))
    den = float(np.sum(area_vals * GRID.theta_weights))
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
    against both references.

    The q_part deviation shrinks as O(t^2): for omega = 2, l = 2 it is
    1.72e-3 at t = 1e-2 and 1.72e-5 at t = 1e-3.  At t = 1e-4 rounding
    dominates.  R is O(t) pointwise but its mean is O(t^2) (about -12 t^2),
    so the mean loses digits to cancellation and the deviation reads
    4.4e-7 rather than the 1.7e-7 of the trend.  That floor depends on how
    the evaluation of R is associated: without common-subexpression
    elimination it reads 7.3e-7.
    """
    spec = HarmonicSpec(l, 0)
    Q, B, C = qbc_quadrature(spec)
    bracket = B / 2 - C / 4 - (1 + omega / 2) ** 2 * Q
    q_part = -((1 + omega / 2) ** 2) * Q
    Qc, Bc, Cc = qbc_closed_forms(spec.nu, 3)
    bracket_closed = Bc / 2 - Cc / 4 - (1 + omega / 2) ** 2 * Qc

    max_dev = {}
    max_dev_q = {}
    for t in t_values:
        devs = []
        devs_q = []
        for r in r_values:
            mean_R = annulus_mean_curvature(l, omega, t, r)
            scale = t * t * r ** (2 * omega + 2)
            devs.append(abs(mean_R - bracket * scale) / abs(bracket * scale))
            devs_q.append(abs(mean_R - q_part * scale) / abs(q_part * scale))
        max_dev[t] = max(devs)
        max_dev_q[t] = max(devs_q)
    ts = sorted(t_values, reverse=True)
    ratios = tuple(max_dev_q[b] / max_dev_q[a] for a, b in zip(ts, ts[1:]))
    return AnnulusReport(bracket_quadrature=bracket,
                         bracket_closed_form=bracket_closed,
                         q_part=q_part,
                         max_relative_deviation=max_dev,
                         linear_residual_ratios=ratios,
                         max_q_part_deviation=max_dev_q)
