"""Eigenvalue family, quadratic-form coefficients, the auxiliary
polynomial route, and the even quadratic P_2.

Expected values for omega in {5, 6, 7} are frozen from an independent
computer-algebra derivation of the same formulas and cross-checked against
the published tables.  (The published omega = 7 table prints the expansion
of Delta_1 under the label Delta_3; the pole locations n = -6, -5 identify
it unambiguously, so the frozen data keys it by pole structure.)
"""

from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hvcert.algebra import InvalidFactorization, Polynomial
from hvcert.certify import delta_partial_fraction, roots_at
from hvcert.cli import RunConfig, cmd_coeffs
from hvcert.spectral import (
    SpectralRangeError,
    check_lemma_poly,
    closed_forms,
    p2_identity_check,
    p2_value,
    spectral_family,
)


def poly(*ascending):
    return Polynomial(ascending)


def family_row(omega, k):
    row = spectral_family(omega)[k - 1]
    assert row.k == k
    return row


N = sp.Symbol("n")
# sympy's field Q(n): every element is kept cancelled to lowest terms
Q_N, N_Q = sp.field("n", sp.QQ)


def to_sympy(p):
    return sum((sp.Rational(c.numerator, c.denominator) * N ** i
                for i, c in enumerate(p.coeffs)), sp.Integer(0))


def to_ring(p):
    """p in the polynomial ring Q[n] under Q_N."""
    return Q_N.ring.from_list([sp.Rational(c.numerator, c.denominator)
                               for c in reversed(p.coeffs)])


def assert_pair_equals(num, den, reference):
    """num/den equals the cancelled reference, by cross-multiplication,
    and den has the degree of its denominator: num/den is in lowest
    terms."""
    assert to_ring(num) * reference.denom == reference.numer * to_ring(den)
    assert den.degree == reference.denom.degree()


class TestEigenvalueFamily:
    def test_nu_values(self):
        assert family_row(5, 1).nu == poly(15, 5)     # 5(n+3)
        assert family_row(5, 2).nu == poly(3, 3)      # 3(n+1)
        assert family_row(6, 1).nu == poly(24, 6)     # 6(n+4)
        assert family_row(6, 2).nu == poly(8, 4)      # 4(n+2)
        assert family_row(7, 1).nu == poly(35, 7)     # 7(n+5)
        assert family_row(7, 2).nu == poly(15, 5)     # 5(n+3)
        assert family_row(7, 3).nu == poly(3, 3)      # 3(n+1)

    def test_family_size_is_floor_half(self):
        for omega in range(2, 21):
            family = spectral_family(omega)
            assert [row.k for row in family] == list(range(1, omega // 2 + 1))

    def test_out_of_range(self):
        with pytest.raises(SpectralRangeError):
            spectral_family(1)
        with pytest.raises(SpectralRangeError):
            check_lemma_poly(1)

    def test_nu_at_least_2n_on_ray(self):
        # every eigencomponent satisfies nu_k >= 2n for n >= 0:
        # nu_k - 2n = (w-2k)(n + w-2k+2) + 2(w-2k) + 4 ... checked directly
        for omega in range(2, 16):
            for k in range(1, omega // 2 + 1):
                diff = family_row(omega, k).nu - poly(0, 2)
                if not diff:  # the last component of even omega
                    continue
                n0 = 2 * omega + 6
                assert diff(n0) >= 0
                assert diff.coeffs[-1] >= 0


class TestDCoefficients:
    def test_d_formula_against_definition(self):
        # d_k = 4[(n-1)(n-2)nu_k - n(n-2)^2 + (w+2)^2(n^2+n+2)]
        n = Polynomial.x()
        for omega in range(2, 21):
            for k in range(1, omega // 2 + 1):
                nu = family_row(omega, k).nu
                expected = 4 * ((n - 1) * (n - 2) * nu - n * (n - 2) ** 2
                                + (omega + 2) ** 2 * (n * n + n + 2))
                assert family_row(omega, k).d == expected

    def test_listed_values(self):
        assert family_row(5, 1).d == 4 * poly(128, 10, 53, 4)
        assert family_row(5, 2).d == 4 * poly(104, 42, 47, 2)
        assert family_row(6, 1).d == 4 * poly(176, 0, 74, 5)
        assert family_row(6, 2).d == 4 * poly(144, 44, 64, 3)
        assert family_row(7, 1).d == 4 * poly(232, -14, 99, 6)
        assert family_row(7, 2).d == 4 * poly(192, 42, 85, 4)
        assert family_row(7, 3).d == 4 * poly(168, 74, 79, 2)

    def test_strictly_decreasing_in_k(self):
        # d_k = 4 a(nu_k) with a linear in x, so d_k - d_{k+1} is
        # 4 (n-1)(n-2) (nu_k - nu_{k+1}), and nu_k - nu_{k+1} has positive
        # coefficients; symbolic_certificate proves the same ordering on
        # the ray with nonnegative_on_ray
        n = Polynomial.x()
        for omega in range(2, 25):
            for k in range(1, omega // 2):
                row, nxt = family_row(omega, k), family_row(omega, k + 1)
                gap = row.nu - nxt.nu
                assert all(c > 0 for c in gap.coeffs), (omega, k)
                assert row.d - nxt.d == 4 * (n - 1) * (n - 2) * gap


class TestUOverNu:
    def check(self, omega, k, num, den):
        # the listed fraction, by cross-multiplication, and the coefficient
        # table prints it over a monic denominator
        row = family_row(omega, k)
        assert row.u_num * den == num * row.u_den
        payload, _ = cmd_coeffs(RunConfig(command="coeffs",
                                          omega=(omega, omega)))
        printed = payload["summary"]["coefficients"][k - 1]["u_over_nu"]
        scale = 1 / den.leading
        assert printed == f"({num * scale}) / ({den * scale})"

    def test_listed_values(self):
        # u_2/nu_2 for omega = 5: (n^2 - 49n + 36) / (8(n-2)(n+2))
        self.check(5, 2, poly(36, -49, 1), 8 * poly(-2, 1) * poly(2, 1))
        # omega = 6: (n^2 - 31n + 18) / (6(n-2)(n+3))
        self.check(6, 2, poly(18, -31, 1), 6 * poly(-2, 1) * poly(3, 1))
        # omega = 7: (3n^2 - 75n + 32) / (16(n-2)(n+4)) for k = 2
        self.check(7, 2, poly(32, -75, 3), 16 * poly(-2, 1) * poly(4, 1))
        # omega = 7: (n^2 - 81n + 68) / (8(n-2)(n+2)) for k = 3
        self.check(7, 3, poly(68, -81, 1), 8 * poly(-2, 1) * poly(2, 1))

    def test_rows_match_definitions(self):
        # u_k/nu_k and Delta_k from their definitions, cancelled by sympy,
        # against the pairs built from the factors of P
        n = N_Q
        for omega in range(2, 21):
            w2 = (omega + 2) ** 2
            for row in spectral_family(omega):
                k = row.k
                nu = (omega - 2 * k + 2) * (n + omega - 2 * k)
                d = 4 * ((n - 1) * (n - 2) * nu - n * (n - 2) ** 2
                         + w2 * (n * n + n + 2))
                u_over_nu = ((n - 3) / (4 * (n - 2))
                             - ((n - 1) ** 2 + (n - 1) * w2)
                             / (4 * (n - 2) * (nu - n + 1)))
                delta = (n - 2) ** 2 - d * u_over_nu / nu
                assert to_ring(row.nu) == nu.numer and nu.denom == 1
                assert to_ring(row.d) == d.numer and d.denom == 1
                assert_pair_equals(row.u_num, row.u_den, u_over_nu)
                assert_pair_equals(row.delta_num, row.delta_den, delta)


class TestDeltaExpansions:
    def check(self, omega, k, poly_part, poles):
        got_part, got_poles = delta_partial_fraction(omega,
                                                     family_row(omega, k))
        assert got_part == poly_part
        assert dict(got_poles) == poles

    def test_omega5_delta2(self):
        self.check(5, 2,
                   Polynomial([F(1076, 3), F(29, 6), F(2, 3)]),
                   {F(2): F(2842, 9), F(-2): F(-1104), F(-1): F(4601, 9)})

    def test_omega6_delta2(self):
        self.check(6, 2,
                   Polynomial([F(892, 3), F(7, 3), F(1, 2)]),
                   {F(2): F(512, 3), F(-3): F(-2028), F(-2): F(1008)})

    def test_omega7_delta2(self):
        self.check(7, 2,
                   Polynomial([F(1413, 5), F(5, 4), F(2, 5)]),
                   {F(2): F(2862, 25), F(-4): F(-3572), F(-3): F(51333, 25)})

    def test_omega7_delta1(self):
        # the expansion with poles at n = -6, -5 (printed under another
        # subscript in the published table)
        self.check(7, 1,
                   Polynomial([F(2708, 21), F(-9, 14), F(2, 7)]),
                   {F(2): F(1755, 49), F(-6): F(-11951, 3),
                    F(-5): F(135809, 49)})

    def test_omega7_delta3(self):
        self.check(7, 3,
                   Polynomial([F(1020), F(61, 6), F(2, 3)]),
                   {F(2): F(810), F(-2): F(-3120), F(-1): F(1425)})

    def test_recombination_is_exact(self):
        # polynomial part plus simple poles, summed by sympy, is Delta_k
        for omega in (5, 6, 7):
            for row in spectral_family(omega):
                poly_part, poles = delta_partial_fraction(omega, row)
                total = to_sympy(poly_part) + sum(
                    sp.Rational(res.numerator, res.denominator)
                    / (N - sp.Rational(r.numerator, r.denominator))
                    for r, res in poles)
                delta = to_sympy(row.delta_num) / to_sympy(row.delta_den)
                assert sp.cancel(total - delta) == 0

    def test_wrong_poles_fail_closed(self):
        row = family_row(7, 1)
        with pytest.raises(InvalidFactorization):
            delta_partial_fraction(7, row._replace(k=2))
        with pytest.raises(InvalidFactorization):
            delta_partial_fraction(9, row)

    def test_pole_candidates_cover_actual_poles(self):
        # the pairs are in lowest terms: with m = omega - 2k + 1, u_num is
        # nonzero at the roots n = 2, -m of u_den, and delta_num at the
        # roots n = 2, -m, 1 - m of delta_den, so each candidate is a pole
        # of Delta_k with a nonzero residue
        for omega in range(2, 61):
            for row in spectral_family(omega):
                m = omega - 2 * row.k + 1
                assert all(row.u_num(F(r)) for r in (2, -m)), (omega, row.k)
                assert all(row.delta_num(F(r)) for r in (2, -m, 1 - m)), \
                    (omega, row.k)
                _, poles = delta_partial_fraction(omega, row)
                assert [root for root, _ in poles] == [2, -m, 1 - m]
                assert all(residue for _, residue in poles)


class TestIntegerClosedForms:
    @given(st.data(), st.integers(min_value=2, max_value=40))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_family_at_integer_n(self, data, omega):
        # closed_forms at an int n against the polynomial family evaluated
        # at Fraction(n), and roots_at, which reads the integer rows
        n = data.draw(st.integers(min_value=2 * omega + 6, max_value=5000))
        nf = F(n)
        forms = closed_forms(omega, n)
        family = spectral_family(omega)
        assert len(forms.rows) == len(family)
        for row, fam, pair in zip(forms.rows, family, roots_at(omega, n)):
            assert all(type(v) is int for v in row)
            assert all(type(getattr(pair, field)) is int
                       for field in pair._fields)
            u_over_nu2 = fam.u_num(nf) / (fam.u_den(nf) * fam.nu(nf))
            delta = fam.delta_num(nf) / fam.delta_den(nf)
            assert row.d == fam.d(nf) == pair.d
            assert F(row.u_num, row.u_den * row.nu) == u_over_nu2
            assert F(pair.u2_num, pair.u2_den) == u_over_nu2
            assert F(row.delta_num, row.delta_den) == delta
            assert F(pair.delta_num, pair.delta_den) == delta


class TestLemmaPolynomial:
    def test_derivative_closed_form(self):
        # P'(x) = 2A x + B against -2(n-2)x - 2n(n-2)^3
        # + 2(n^2-3n-2)(w+2)^2, coefficient by coefficient in x, over Q[n]
        # and at integer n
        n = Polynomial.x()
        for omega in range(2, 21):
            w2 = (omega + 2) ** 2
            for dim in (n, 2 * omega + 6, 1000):
                forms = closed_forms(omega, dim)
                assert 2 * forms.A == -2 * (dim - 2)
                assert forms.B == (-2 * dim * (dim - 2) ** 3
                                   + 2 * w2 * (dim ** 2 - 3 * dim - 2))

    def test_value_at_nu_matches_rows(self):
        # P(nu_k) = (nu_k - n + 1) d_k [(n-2) u_k/nu_k - (n-2)^3 nu_k/d_k]
        for omega in (2, 5, 9):
            forms = closed_forms(omega, Polynomial.x())
            for row in spectral_family(omega):
                p_at_nu = (forms.A * row.nu + forms.B) * row.nu + forms.C
                assert p_at_nu == -row.delta_num
                for n in (F(7), F(30), F(101, 3)):
                    nu, d = row.nu(n), row.d(n)
                    u_over_nu = row.u_num(n) / row.u_den(n)
                    expected = (nu - n + 1) * d * ((n - 2) * u_over_nu
                                                   - (n - 2) ** 3 * nu / d)
                    assert p_at_nu(n) == expected

    def test_certified_for_all_omega(self):
        for omega in range(2, 16):
            ok, witness = check_lemma_poly(omega)
            assert ok, f"omega={omega}"
            assert witness.ray_start == 2 * omega + 6
            # -P' = 2(n-2)x - B: both of its x-coefficients are proved
            assert witness.x_coefficient.positive
            assert witness.decreasing.positive
            assert witness.value_at_2n.positive

    def test_numeric_sanity(self):
        # the certified inequality u_k < (n-2)^2 nu_k^2 / d_k at a point
        for omega in (4, 9, 15):
            n = F(2 * omega + 6)
            for row in spectral_family(omega):
                u = row.u_num(n) / row.u_den(n) * row.nu(n)
                bound = (n - 2) ** 2 * row.nu(n) ** 2 / row.d(n)
                assert u < bound


class TestP2:
    def test_identity(self):
        assert p2_identity_check()

    def test_values(self):
        # P_2(w+2) = 4(w+2)^2 (n^2+n+2) - 4n(n-2)^2
        for omega in (2, 5, 9):
            w2 = (omega + 2) ** 2
            expected = poly(8 * w2, 4 * w2 - 16, 4 * w2 + 16, -4)
            assert p2_value(omega) == expected

    def test_positive_at_large_n_small_omega(self):
        p = p2_value(3)
        assert p(F(10)) > 0
        assert p(F(1000)) < 0   # cubic term dominates eventually
