"""Sphere oracle: harmonics, the projected covariant calculus, the b
tensor, the Q/B/C statistics, the I_S functional, and the annulus curvature
check.  Every identity on S^2 is decided exactly, as an equality of
Fractions."""

import json
import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

from hvcert.algebra import (
    AlgebraError,
    Polynomial,
    _multiply_into,
    dot,
    nonnegative_on_ray,
)
from hvcert.cli import main
from hvcert.spectral import p2_value, spectral_family
from hvcert.sphere import (
    _on_meridian,
    X,
    Y,
    Z,
    ExcludedEigenvalue,
    HarmonicSpec,
    NonzeroMean,
    annulus_curvature_check,
    annulus_mean_curvature,
    b_derivative,
    b_divergence_residual,
    b_tensor,
    b_trace_residual,
    i_s_coefficients,
    i_s_functional,
    i_s_minimizer_reference,
    mean_of_products,
    qbc_closed_forms,
    qbc_quadrature,
    real_harmonic,
    sphere_hessian,
    sphere_mean,
    u_coefficient_from_qbc,
    zonal_b,
)

# polar angles for the textbook harmonics; real, so that re and im of
# exp(i phi) simplify
POLAR = sp.symbols("theta phi", real=True)
THETA = sp.Symbol("theta")
# the sympy reference for Polynomial
RING = ring("x,y,z", QQ)[0]


def as_sympy(p):
    """The Polynomial p as an element of RING, built from its terms."""
    return RING.from_dict({m: QQ(c.numerator, c.denominator)
                           for m, c in p.terms()})


def unit_square(l, m):
    """(2l+1)(l-|m|)!/(l+|m|)!, doubled for m != 0: the reciprocal of the
    mean square of real_harmonic(l, m)."""
    a = abs(m)
    return Fraction((2 * l + 1) * math.factorial(l - a) * (2 if m else 1),
                    math.factorial(l + a))


def zonal_b_polar(l):
    """(b_tt, b_pp) of the zonal b of degree l scaled to mean square 1, as
    sympy expressions in THETA, from the ring pair (beta, gamma) of
    zonal_b: b_tt = beta and b_pp = sin^2 gamma at z = cos THETA, times
    sqrt(2l+1)."""
    on_circle = {RING.symbols[2]: sp.cos(THETA)}
    beta, gamma = (sp.sqrt(2 * l + 1)
                   * as_sympy(p).as_expr().xreplace(on_circle)
                   for p in zonal_b(l))
    return beta, sp.sin(THETA) ** 2 * gamma


def on_sphere(p, cos_t, sin_t, cos_p, sin_p):
    """The polynomial p at the point with these polar cosines and sines."""
    x, y, z = RING.symbols
    return as_sympy(p).as_expr().subs(
        {x: sin_t * cos_p, y: sin_t * sin_p, z: cos_t})


# a polynomial as {exponents: coefficient}, with small exponents and
# coefficients that share factors, so that denominators cancel
_FRACTIONS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
_POLYS = st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), _FRACTIONS,
                         max_size=6)


def both(terms):
    """The polynomial with these terms as (Polynomial, RING element)."""
    ours = sum((c * X ** a * Y ** b * Z ** e
                for (a, b, e), c in terms.items()), Polynomial())
    return ours, RING.from_dict({m: QQ(c.numerator, c.denominator)
                                 for m, c in terms.items()})


def assert_same(p, ref):
    # the same terms in the same order: sympy's lex order with x > y > z
    assert p.terms() == [(m, Fraction(int(c.numerator), int(c.denominator)))
                         for m, c in ref.terms()]


def mean_reference(ref):
    """Sphere mean from the surface integral of each monomial,
    2 G((a+1)/2) G((b+1)/2) G((c+1)/2) / G((a+b+c+3)/2) over 4 pi when
    a, b and c are even (G the Gamma function), and 0 otherwise."""
    total = sp.Integer(0)
    for m, c in ref.terms():
        if all(e % 2 == 0 for e in m):
            g = [sp.gamma(sp.Rational(e + 1, 2)) for e in m]
            total += (sp.Rational(int(c.numerator), int(c.denominator))
                      * 2 * g[0] * g[1] * g[2]
                      / sp.gamma(sp.Rational(sum(m) + 3, 2)) / (4 * sp.pi))
    return total


# (f, g, square): the pair of polynomials f and g, or f twice (the same
# object) when square is drawn
_PAIRS = st.lists(st.tuples(_POLYS, _POLYS, st.booleans()), max_size=4)


class TestXYZPoly:
    @settings(max_examples=150, deadline=None)
    @given(_POLYS, _POLYS, _FRACTIONS, st.integers(1, 3), _PAIRS)
    @example({(1, 0, 0): Fraction(1, 2)}, {}, Fraction(1, 3), 2,
             [({(0, 0, 0): Fraction(2, 3), (0, 1, 0): Fraction(5, 4)},
               {(0, 1, 0): Fraction(7, 6)}, False),
              ({}, {(1, 1, 0): Fraction(3)}, False),
              ({(2, 0, 0): Fraction(1, 6), (0, 0, 1): Fraction(-9, 4)},
               {}, True)])
    def test_matches_sympy_ring(self, f, g, c, k, drawn):
        (p, P), (q, Q) = both(f), both(g)
        assert_same(p, P)
        for ours, ref in ((p + q, P + Q), (p - q, P - Q), (-p, -P),
                          (p * q, P * Q), (p ** k, P ** k),
                          (c * p, QQ(c.numerator, c.denominator) * P),
                          (p + c, P + QQ(c.numerator, c.denominator)),
                          (3 - p, 3 - P), (p * 0, P * 0)):
            assert_same(ours, ref)
        x, y, z = RING.gens
        for axis, v in enumerate((x, y, z)):
            assert_same(p.diff(axis), P.diff(v))
        assert_same(_on_meridian(p), P.subs(y, 0).rem(x ** 2 + z ** 2 - 1))
        # sympy's ring refuses 0 ** 0; here it is 1, as for Python numbers
        assert p ** 0 == 1
        assert (p == q) == (P == Q)
        assert (p + q) - q == p
        assert (p * q == q * p) and (p * 2 == p + p)
        assert (p == c) == (P == QQ(c.numerator, c.denominator))
        # dot is the sum of products over the drawn pairs, over mixed
        # denominators, with zero operands, and squares on its own path
        pairs, ref = [], RING(0)
        for a, b, square in drawn:
            u, U = both(a)
            v, V = (u, U) if square else both(b)
            pairs.append((u, v))
            ref += U * V
        assert_same(dot(pairs), ref)
        assert_same(dot(iter(pairs)), ref)
        assert_same(dot([(p, p), (p, q), (q, q)]), P * P + P * Q + Q * Q)
        assert dot([]) == 0

    @settings(max_examples=100, deadline=None)
    @given(_POLYS)
    @example({(2, 0, 0): Fraction(1, 2), (0, 0, 0): Fraction(3)})
    @example({(2, 0, 0): Fraction(1, 2), (0, 0, 1): Fraction(3)})
    @example({(0, 1, 0): Fraction(-1)})
    def test_one_variable_views_fail_closed(self, f):
        # the views that read a polynomial in x alone refuse a y or z
        # term instead of dropping it; repr reads every polynomial
        p, P = both(f)
        assert repr(p).startswith("Polynomial(")
        views = (lambda: p.coeffs, lambda: p.degree, lambda: p.leading,
                 lambda: divmod(p, X + 1), lambda: divmod(X, p),
                 lambda: p // 2, lambda: nonnegative_on_ray(p, 2),
                 lambda: p(Fraction(1, 3)), lambda: str(p))
        if any(m[1] or m[2] for m in P.monoms()):
            for view in views:
                with pytest.raises(AlgebraError):
                    view()
        else:
            coeffs = {m[0]: Fraction(int(c.numerator), int(c.denominator))
                      for m, c in P.terms()}
            degree = max(coeffs, default=-1)
            assert p.degree == degree
            assert p.coeffs == tuple(coeffs.get(i, 0)
                                     for i in range(degree + 1))
            value = P(QQ(1, 3), 0, 0)
            assert p(Fraction(1, 3)) == Fraction(int(value.numerator),
                                                 int(value.denominator))

    @settings(max_examples=60, deadline=None)
    @given(_POLYS)
    def test_sphere_mean_matches_surface_integrals(self, f):
        p, P = both(f)
        mean = sphere_mean(p)
        assert isinstance(mean, Fraction)
        assert sp.Rational(mean.numerator, mean.denominator) == \
            mean_reference(P)

    def test_degree_overflow_fails_closed(self):
        # 16 bits of exponent per variable: the largest degree is 65535,
        # and a product beyond it raises instead of carrying into y
        p = X ** 256
        top = p ** 255 * X ** 255
        assert top.terms() == [((65535, 0, 0), 1)]
        with pytest.raises(OverflowError):
            top * Z
        with pytest.raises(OverflowError):
            p ** 256
        # dot refuses a degree above 65535 on both of its paths, a product
        # and a square, before forming a key that would carry into y
        half = p ** 127 * X ** 255
        assert dot([(half, half), (top, Polynomial([1]))]).terms() == [
            ((65535, 0, 0), 1), ((65534, 0, 0), 1)]
        with pytest.raises(OverflowError):
            dot([(top, Z)])
        high = half * X
        with pytest.raises(OverflowError):
            dot([(high, high)])
        with pytest.raises(ValueError):
            X ** -1


# coefficients of either sign up to about 10^40, over small denominators
_BIG = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 12))
_WIDE_POLYS = st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3),
                              _FRACTIONS | _BIG, max_size=6)
# (f, g, kind): the pair (f, g), the square of f as one object, or f with
# an equal but distinct copy of itself
_MEAN_PAIRS = st.lists(st.tuples(_WIDE_POLYS, _WIDE_POLYS,
                                 st.sampled_from(("pair", "square", "copy"))),
                       max_size=4)
_ONES = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}


class TestMeanOfProducts:
    @settings(max_examples=150, deadline=None)
    @given(_MEAN_PAIRS)
    @example([])
    @example([({}, {(1, 0, 0): Fraction(3)}, "pair"),
              ({(1, 0, 0): Fraction(2, 3)}, {}, "square")])
    # (x^2 + y^2 + z^2)(x^2 - y^2 + z^2): the slots of y^2 z^2 and x^2 y^2
    # cancel to 0 between nonzero neighbours
    @example([(_ONES, {**_ONES, (0, 2, 0): -1}, "pair")])
    # -2 y^2 + x^2: the slot of y^2 is negative below the positive one of
    # x^2, so the digits borrow
    @example([({(0, 1, 0): 2}, {(0, 1, 0): -1}, "pair"),
              ({(1, 0, 0): 1}, {}, "square")])
    def test_matches_surface_integrals(self, drawn):
        # operands of mixed degrees and parity classes, over mixed
        # denominators, zero operands, squares of one object and equal
        # but distinct operands
        pairs, ref = [], RING(0)
        for f, g, kind in drawn:
            p, P = both(f)
            q, Q = {"pair": lambda: both(g), "square": lambda: (p, P),
                    "copy": lambda: both(f)}[kind]()
            pairs.append((p, q))
            ref += P * Q
        mean = mean_of_products(pairs)
        assert isinstance(mean, Fraction)
        assert mean == sphere_mean(dot(pairs))
        assert sp.Rational(mean.numerator, mean.denominator) == \
            mean_reference(ref)
        assert mean_of_products(iter(pairs)) == mean

    def test_sparse_pair_goes_term_by_term(self, monkeypatch):
        # 9 term pairs of degree 4000 against a box of about 4 10^6 slots:
        # the pair is multiplied term by term and no group is packed
        p = X ** 2000 + Y ** 2000 + Z ** 2000
        products = []

        def spy(num, a, b, s):
            products.append((len(a), len(b), s))
            _multiply_into(num, a, b, s)

        def refuse(*args):
            raise AssertionError("a sparse group was packed")

        with monkeypatch.context() as m:
            m.setattr("hvcert.sphere._multiply_into", spy)
            m.setattr("hvcert.sphere._kronecker", refuse)
            assert mean_of_products([(p, p)]) == sphere_mean(dot([(p, p)]))
        assert products == [(3, 3, 1)]
        # beside a dense pair, into the same sums
        pairs = [(p, p), (X, 2 * X), (p, Fraction(1, 3) * Z ** 2000)]
        assert mean_of_products(pairs) == sphere_mean(dot(pairs))
        # a product of degree above 65535 is refused, as by dot
        with pytest.raises(OverflowError):
            mean_of_products([(X ** 65535, Z)])


class TestGridAndHarmonics:
    def test_total_measure(self):
        assert sphere_mean(Polynomial([1])) == 1
        assert sphere_mean(X ** 2 + Y ** 2 + Z ** 2) == 1
        assert sphere_mean(Z ** 2) == Fraction(1, 3)
        assert sphere_mean(X ** 4) == Fraction(1, 5)
        assert sphere_mean(X ** 2 * Y ** 2) == Fraction(1, 15)
        assert sphere_mean(X ** 2 * Y ** 2 * Z ** 2) == Fraction(1, 105)
        assert sphere_mean(X * Y) == sphere_mean(Z ** 3) == 0

    def test_unit_mean_square(self):
        for l in range(2, 7):
            for m in range(-l, l + 1):
                mean = sphere_mean(real_harmonic(l, m) ** 2)
                assert mean * unit_square(l, m) == 1, (l, m)

    def test_orthogonality(self):
        specs = [(l, m) for l in range(2, 7) for m in range(-l, l + 1)]
        for i, a in enumerate(specs):
            for b in specs[i + 1:]:
                product = real_harmonic(*a) * real_harmonic(*b)
                assert sphere_mean(product) == 0, (a, b)

    def test_harmonic_and_homogeneous(self):
        for l in range(7):
            for m in range(-l, l + 1):
                F = real_harmonic(l, m)
                assert sum(F.diff(v).diff(v) for v in range(3)) == 0
                assert {sum(e) for e in as_sympy(F).monoms()} == {l}

    @staticmethod
    def ynm_reference(l, m, theta, phi):
        # the textbook definition: sqrt(4 pi) times Y_l^|m|, or sqrt(2)
        # times its real or imaginary part, with sympy's Condon-Shortley
        # phase
        y = sp.Ynm(l, abs(m), theta, phi).expand(func=True)
        if m > 0:
            y = sp.sqrt(2) * sp.re(y)
        elif m < 0:
            y = sp.sqrt(2) * sp.im(y)
        return sp.sqrt(4 * sp.pi) * y

    def test_closed_form_matches_ynm(self):
        theta, phi = POLAR
        trig = (sp.cos(theta), sp.sin(theta), sp.cos(phi), sp.sin(phi))
        for l in range(5):
            for m in range(-l, l + 1):
                got = sp.sqrt(unit_square(l, m)) * on_sphere(
                    real_harmonic(l, m), *trig)
                diff = got - self.ynm_reference(l, m, theta, phi)
                assert sp.simplify(diff) == 0, (l, m)

    def test_closed_form_matches_ynm_on_grid(self):
        # exactly, at points whose polar cosines and sines are rational
        R = sp.Rational
        points = [((R(3, 5), R(4, 5)), (R(5, 13), R(12, 13))),
                  ((R(-8, 17), R(15, 17)), (R(-7, 25), R(-24, 25)))]
        for (ct, st), (cp, sp_) in points:
            theta = sp.acos(ct)
            phi = sp.acos(cp) if sp_ > 0 else -sp.acos(cp)
            for l in (5, 6):
                for m in range(-l, l + 1):
                    got = sp.sqrt(unit_square(l, m)) * on_sphere(
                        real_harmonic(l, m), ct, st, cp, sp_)
                    diff = got - self.ynm_reference(l, m, theta, phi)
                    assert sp.expand(sp.expand_trig(diff)) == 0, (l, m)

    def test_low_degrees_excluded(self):
        with pytest.raises(ExcludedEigenvalue):
            HarmonicSpec(1, 0)
        with pytest.raises(ExcludedEigenvalue):
            HarmonicSpec(0, 0)

    def test_eigenvalue(self):
        assert HarmonicSpec(2, 1).nu == 6
        assert HarmonicSpec(5, -3).nu == 30


class TestCovariantCalculus:
    def test_laplacian_eigenrelation(self):
        # s^{ij} b_ij = 2 (s^{ij} nabla_ij phi + nu phi) / (nu - 2), so the
        # trace residual is 4 / (nu - 2)^2 times the mean square of the
        # defect of Delta phi = nu phi
        for l in range(2, 7):
            spec = HarmonicSpec(l, min(l, 2))
            assert b_trace_residual(spec) == 0

    def test_residual_detects_a_wrong_eigenvalue(self):
        # the mean of (tr Hess phi + (nu + 1) phi)^2 is mean phi^2, not 0
        spec = HarmonicSpec(3, 2)
        H = sphere_hessian(spec)
        defect = sum(H[i, i] for i in range(3)) + (spec.nu + 1) * spec.poly
        assert sphere_mean(defect ** 2) == sphere_mean(spec.poly ** 2) > 0


class TestBTensor:
    def test_memoized_read_only(self):
        spec = HarmonicSpec(2, 0)
        b = b_tensor(spec)
        assert b_tensor(HarmonicSpec(2, 0)) is b
        with pytest.raises(TypeError):
            b[0, 0] = 0
        with pytest.raises(TypeError):
            b_derivative(spec)[0, 0, 0] = 0

    def test_trace_free(self):
        for l in range(2, 6):
            assert b_trace_residual(HarmonicSpec(l, 1)) == 0

    def test_divergence_identity(self):
        # nabla^i b_ij = -nabla_j phi
        for l in range(2, 6):
            assert b_divergence_residual(HarmonicSpec(l, 1)) == 0

    def test_zonal_slice_trace_free(self):
        for l in range(2, 7):
            beta, gamma = zonal_b(l)
            assert gamma == -beta != 0, l
            assert {m[:2] for m in as_sympy(beta).monoms()} == {(0, 0)}, l

    def test_zonal_pullback_matches_polar_calculus(self):
        # for f(theta) = sqrt(2l+1) P_l(cos theta), the polar Hessian is
        # nabla_tt f = f'' and nabla_pp f = -Gamma^theta_pp f' = sin cos f'
        for l in (2, 3, 4):
            nu = l * (l + 1)
            c, s = sp.cos(THETA), sp.sin(THETA)
            f = sp.sqrt(2 * l + 1) * sp.legendre(l, c)
            b_tt = (2 * sp.diff(f, THETA, 2) + nu * f) / (nu - 2)
            b_pp = (2 * s * c * sp.diff(f, THETA) + nu * f * s ** 2) / (nu - 2)
            got_tt, got_pp = zonal_b_polar(l)
            assert sp.simplify(got_tt - b_tt) == 0, l
            assert sp.simplify(got_pp - b_pp) == 0, l


class TestQBC:
    def test_closed_forms_low_degree(self):
        Q, B, C = qbc_closed_forms(Fraction(6), Fraction(3))     # l = 2 on S^2
        assert (Q, B, C) == (3, 0, 6)
        Q, _, _ = qbc_closed_forms(Fraction(12), Fraction(3))    # l = 3
        assert Q == Fraction(12, 5)
        assert qbc_closed_forms(6, 3) == pytest.approx((3.0, 0.0, 6.0))

    def test_quadrature_matches_closed_forms(self):
        for l in range(2, 6):
            spec = HarmonicSpec(l, 1)
            assert qbc_quadrature(spec) == qbc_closed_forms(
                Fraction(spec.nu), Fraction(3)), l

    def test_order_independent_of_m(self):
        ref = qbc_quadrature(HarmonicSpec(3, 0))
        for m in (1, -2, 3):
            assert qbc_quadrature(HarmonicSpec(3, m)) == ref, m

    def test_u_coefficient_matches_spectral(self):
        # B/2 - C/4 - (1 + w/2)^2 Q equals the rational formula at n = 3
        # exactly, odd omega included
        for omega in (2, 3, 4, 5, 6):
            for row in spectral_family(omega):
                n = Fraction(3)
                expected = row.u_num(n) / row.u_den(n) * row.nu(n)
                got = u_coefficient_from_qbc(row.nu(n), n, omega)
                assert isinstance(got, Fraction)
                assert got == expected, (omega, row.k)


def minimizer_weight(n, omega, nu):
    """c_k = (n-2)^2 / d_k, with d_k at the harmonic's eigenvalue nu."""
    d = 4 * ((n - 1) * (n - 2) * nu - n * (n - 2) ** 2
             + (omega + 2) ** 2 * (n * n + n + 2))
    return Fraction((n - 2) ** 2, d), d


class TestISFunctional:
    def test_f2_multiplier_is_p2(self):
        # read off closed_forms at an integer n, against the polynomial
        for omega in range(2, 21):
            p2 = p2_value(omega)
            for n in (3, *range(2 * omega + 6, 2 * omega + 41)):
                assert i_s_coefficients(n, omega)[1] == p2(n), (n, omega)

    def test_requires_zero_mean(self):
        f = 1 + real_harmonic(2, 0)
        rbar = real_harmonic(2, 0)
        with pytest.raises(NonzeroMean):
            i_s_functional(f, rbar, 2)

    def test_minimizer_value(self):
        # I_S is quadratic in the profile, so the value at c nu phi is the
        # unit-mean-square reference times mean phi^2
        n = 3
        for omega, l in ((2, 2), (4, 2), (4, 4)):
            nu = l * (l + 1)
            c, d = minimizer_weight(n, omega, nu)
            phi = real_harmonic(l, 0)
            value = i_s_functional(c * nu * phi, nu * phi, omega)
            ref = i_s_minimizer_reference(nu, n, Fraction(d))
            assert value == ref * sphere_mean(phi ** 2), (omega, l)

    def test_additive_over_orthogonal_components(self):
        n, omega = 3, 4
        parts = []
        total_f = total_r = Polynomial()
        for l in (2, 3):
            nu = l * (l + 1)
            c, _ = minimizer_weight(n, omega, nu)
            phi = real_harmonic(l, 0)
            total_f += c * nu * phi
            total_r += nu * phi
            parts.append(i_s_functional(c * nu * phi, nu * phi, omega))
        assert i_s_functional(total_f, total_r, omega) == sum(parts)


def annulus_mean_curvature_taylor(l, omega):
    """Exact Taylor coefficients (c0, c1, c2) in t, each divided by
    r^{2w+2}, of the mean scalar curvature over the radius-r sphere of
    dr^2 + g_r, where g_r = r^2 (s + t r^{w+2} b + t^2 r^{2(w+2)} bhat)
    for the zonal harmonic of degree l.

    Independent of the Gauss-Bonnet route in hvcert.sphere, apart from the
    pulled-back zonal b (zonal_b) that both read: the slice
    curvature comes from the Brioschi formula, the radial part from the
    Riccati form R = R_{g_r} - |A|^2 - H^2 - 2 d_r H with A = d_r g_r / 2,
    and the theta-integrals are done exactly by sympy.  Each integrand is
    rational in sin(theta) and cos(theta); with c = cos(theta) and the
    positive s = sin(theta) = sqrt(1 - c^2), int_0^pi f dtheta is
    int_{-1}^{1} f / s dc, which sympy does faster than the theta form.
    """
    t, r = sp.symbols("t r", positive=True)
    b_tt, b_pp = zonal_b_polar(l)
    s = sp.sin(THETA)
    tau = t * r ** (omega + 2)
    E = r ** 2 * (1 + tau * b_tt + tau ** 2 * b_tt ** 2 / 2)
    G = r ** 2 * (s ** 2 + tau * b_pp + tau ** 2 * b_pp ** 2 / (2 * s ** 2))
    area = sp.sqrt(E * G)
    gauss = -sp.diff(sp.diff(G, THETA) / area, THETA) / (2 * area)
    a_t, a_p = sp.diff(E, r) / (2 * E), sp.diff(G, r) / (2 * G)
    H = a_t + a_p
    R = 2 * gauss - (a_t ** 2 + a_p ** 2) - H ** 2 - 2 * sp.diff(H, r)

    sin_s = sp.Symbol("s", positive=True)
    cos_s = sp.Symbol("c", real=True)

    def taylor(f):
        out = []
        for k in range(3):
            if k:
                f = sp.diff(f, t)
            term = f.subs(t, 0).xreplace({s: sin_s, sp.cos(THETA): cos_s})
            term = sp.factor(term / (sp.factorial(k) * sin_s))
            term = term.subs(sin_s, sp.sqrt(1 - cos_s ** 2))
            out.append(sp.integrate(term, (cos_s, -1, 1)))
        return out

    N, D = taylor(R * area), taylor(area)
    c0 = N[0] / D[0]
    c1 = (N[1] - c0 * D[1]) / D[0]
    c2 = (N[2] - c1 * D[1] - c0 * D[2]) / D[0]
    return tuple(sp.simplify(c / r ** (2 * omega + 2)) for c in (c0, c1, c2))


class TestAnnulus:
    # (l, omega, t, r) -> the mean computed by the former route, which
    # built the full 3-dimensional scalar curvature from Christoffel
    # symbols and their derivatives in sympy
    CHRISTOFFEL_REFERENCE = {(2, 2, 0.1, 0.9): -0.06849600190710999,
                             (3, 2, 0.05, 1.0): -0.02484906754436594}

    def test_flat_at_zero_amplitude(self):
        assert abs(annulus_mean_curvature(2, 2, 0.0, 0.7)) < 1e-12

    def test_matches_christoffel_reference(self):
        for args, want in self.CHRISTOFFEL_REFERENCE.items():
            got = annulus_mean_curvature(*args)
            assert got == pytest.approx(want, rel=1e-9, abs=0), args

    def test_depends_only_on_tau(self):
        # r^2 <R>(t, r) == <R>(t r^(omega+2), 1)
        for l, omega, t, r in ((2, 2, 0.1, 0.9), (3, 2, 0.05, 0.7),
                               (2, 3, 0.02, 0.8), (4, 4, 0.01, 1.3)):
            scaled = annulus_mean_curvature(l, omega, t * r ** (omega + 2), 1)
            got = r * r * annulus_mean_curvature(l, omega, t, r)
            assert got == pytest.approx(scaled, rel=1e-12, abs=0), (l, omega)

    def test_t2_coefficient_exact(self):
        # the t^2 coefficient is exactly the radial part -(1 + w/2)^2 Q,
        # and falls short of the full bracket B/2 - C/4 - (1 + w/2)^2 Q
        # by exactly Q/2 (Gauss-Bonnet on the 2-sphere slices)
        omega, l = 2, 2
        c0, c1, c2 = annulus_mean_curvature_taylor(l, omega)
        Q, B, C = (sp.Rational(x.numerator, x.denominator) for x in
                   qbc_closed_forms(Fraction(l * (l + 1)), Fraction(3)))
        radial = -(1 + sp.Rational(omega, 2)) ** 2 * Q
        bracket = B / 2 - C / 4 + radial
        assert (c0, c1) == (0, 0)
        assert c2 == radial == -12
        assert bracket - c2 == -Q / 2

    def test_coefficient_is_q_part(self):
        # two-dimensional slices: Gauss-Bonnet removes the gradient terms,
        # leaving exactly -(1 + omega/2)^2 Q as the t^2 coefficient
        report = annulus_curvature_check(omega=2, l=2)
        assert report.q_part == report.t2_coefficient == -12
        assert report.max_q_part_deviation[1e-3] < 1e-3
        assert report.max_q_part_deviation[1e-4] < 1e-4

    def test_exact_coefficient_over_degrees(self):
        for l in range(2, 6):
            Q, _, _ = qbc_closed_forms(Fraction(l * (l + 1)), Fraction(3))
            for omega in (2, 3, 4):
                report = annulus_curvature_check(omega=omega, l=l)
                assert isinstance(report.t2_coefficient, Fraction)
                assert report.t2_coefficient == report.q_part, (l, omega)
                assert report.q_part == -Fraction(omega + 2, 2) ** 2 * Q

    @pytest.mark.parametrize("pair", [
        lambda beta, gamma: (beta, 2 * gamma),
        lambda beta, gamma: (2 * beta, -2 * beta),
    ], ids=["gamma-not-minus-beta", "beta-scaled"])
    def test_wrong_zonal_b_fails_closed(self, pair, monkeypatch, tmp_path):
        good = zonal_b(2)
        monkeypatch.setattr("hvcert.sphere.zonal_b", lambda l: pair(*good))
        report = annulus_curvature_check(omega=2, l=2)
        assert report.t2_coefficient != report.q_part
        out = tmp_path / "sphere.json"
        assert main(["sphere-check", "--output", str(out)]) == 1
        summary = json.loads(out.read_text())["summary"]
        assert summary["annulus"]["ok"] is False
        assert summary["ok"] is False

    def test_q_part_residual_shrinks_with_t(self):
        # the deviation from q_part is a t^2 law: the t^3 term vanishes, so
        # each decade of t divides it by 100
        report = annulus_curvature_check(omega=2, l=2)
        assert len(report.linear_residual_ratios) == 2
        for ratio in report.linear_residual_ratios:
            assert 0.0095 <= ratio <= 0.0105

    def test_bracket_deviation_is_topologically_forced(self):
        # the deviation from the full B/2 - C/4 - (1+w/2)^2 Q bracket
        # converges to (Q/2)/|bracket| = 1/9 for omega = 2, l = 2
        report = annulus_curvature_check(omega=2, l=2)
        assert report.bracket == Fraction(-27, 2)
        for t in (1e-3, 1e-4):
            assert report.max_relative_deviation[t] == pytest.approx(
                1.0 / 9.0, abs=1e-4)

    def test_other_degree(self):
        # l = 3: Q = 12/5, q_part = -4 Q = -9.6
        report = annulus_curvature_check(omega=2, l=3)
        assert report.q_part == report.t2_coefficient == Fraction(-48, 5)
        assert report.max_q_part_deviation[1e-3] < 1e-3
