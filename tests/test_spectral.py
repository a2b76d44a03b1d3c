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

from hvcert.algebra import Polynomial, RationalFunction
from hvcert.certify import delta_partial_fraction
from hvcert.spectral import (
    SpectralRangeError,
    check_lemma_poly,
    d_polynomial,
    d_strictly_decreasing_in_k,
    lemma_polynomial,
    nu_polynomial,
    p2_identity_check,
    p2_value,
    spectral_family,
    spectral_row,
    u_last_negative,
)


def poly(*ascending):
    return Polynomial(ascending)


class TestEigenvalueFamily:
    def test_nu_values(self):
        assert nu_polynomial(5, 1) == poly(15, 5)     # 5(n+3)
        assert nu_polynomial(5, 2) == poly(3, 3)      # 3(n+1)
        assert nu_polynomial(6, 1) == poly(24, 6)     # 6(n+4)
        assert nu_polynomial(6, 2) == poly(8, 4)      # 4(n+2)
        assert nu_polynomial(7, 1) == poly(35, 7)     # 7(n+5)
        assert nu_polynomial(7, 2) == poly(15, 5)     # 5(n+3)
        assert nu_polynomial(7, 3) == poly(3, 3)      # 3(n+1)

    def test_family_size_is_floor_half(self):
        for omega in range(2, 21):
            assert len(spectral_family(omega)) == omega // 2

    def test_out_of_range(self):
        with pytest.raises(SpectralRangeError):
            spectral_row(5, 3)
        with pytest.raises(SpectralRangeError):
            spectral_family(1)

    def test_nu_at_least_2n_on_ray(self):
        # every eigencomponent satisfies nu_k >= 2n for n >= 0:
        # nu_k - 2n = (w-2k)(n + w-2k+2) + 2(w-2k) + 4 ... checked directly
        for omega in range(2, 16):
            for k in range(1, omega // 2 + 1):
                diff = nu_polynomial(omega, k) - poly(0, 2)
                if diff.is_zero():       # the last component of even omega
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
                nu = nu_polynomial(omega, k)
                expected = 4 * ((n - 1) * (n - 2) * nu - n * (n - 2) ** 2
                                + (omega + 2) ** 2 * (n * n + n + 2))
                assert d_polynomial(omega, k) == expected

    def test_listed_values(self):
        assert d_polynomial(5, 1) == 4 * poly(128, 10, 53, 4)
        assert d_polynomial(5, 2) == 4 * poly(104, 42, 47, 2)
        assert d_polynomial(6, 1) == 4 * poly(176, 0, 74, 5)
        assert d_polynomial(6, 2) == 4 * poly(144, 44, 64, 3)
        assert d_polynomial(7, 1) == 4 * poly(232, -14, 99, 6)
        assert d_polynomial(7, 2) == 4 * poly(192, 42, 85, 4)
        assert d_polynomial(7, 3) == 4 * poly(168, 74, 79, 2)

    def test_strictly_decreasing_in_k(self):
        for omega in range(2, 16):
            assert d_strictly_decreasing_in_k(omega)


class TestUOverNu:
    def test_listed_values(self):
        # u_2/nu_2 for omega = 5: (n^2 - 49n + 36) / (8(n-2)(n+2))
        row = spectral_row(5, 2)
        expected = RationalFunction(poly(36, -49, 1),
                                    8 * poly(-2, 1) * poly(2, 1))
        assert row.u_over_nu == expected
        # omega = 6: (n^2 - 31n + 18) / (6(n-2)(n+3))
        row = spectral_row(6, 2)
        expected = RationalFunction(poly(18, -31, 1),
                                    6 * poly(-2, 1) * poly(3, 1))
        assert row.u_over_nu == expected
        # omega = 7: (3n^2 - 75n + 32) / (16(n-2)(n+4)) for k = 2
        row = spectral_row(7, 2)
        expected = RationalFunction(poly(32, -75, 3),
                                    16 * poly(-2, 1) * poly(4, 1))
        assert row.u_over_nu == expected
        # omega = 7: (n^2 - 81n + 68) / (8(n-2)(n+2)) for k = 3
        row = spectral_row(7, 3)
        expected = RationalFunction(poly(68, -81, 1),
                                    8 * poly(-2, 1) * poly(2, 1))
        assert row.u_over_nu == expected

    def test_rows_match_definitions(self):
        # u_k/nu_k and Delta_k from their definitions, by RationalFunction
        # arithmetic, against the rows built from the factors of P
        n = Polynomial.x()
        for omega in range(2, 21):
            w2 = (omega + 2) ** 2
            for row in spectral_family(omega):
                nu = row.nu
                d = 4 * ((n - 1) * (n - 2) * nu - n * (n - 2) ** 2
                         + w2 * (n * n + n + 2))
                u_over_nu = (RationalFunction(n - 3, 4 * (n - 2))
                             - RationalFunction((n - 1) ** 2 + (n - 1) * w2,
                                                4 * (n - 2) * (nu - n + 1)))
                delta = (RationalFunction((n - 2) ** 2)
                         - RationalFunction(d) * u_over_nu / RationalFunction(nu))
                assert row.u_over_nu == u_over_nu, (omega, row.k)
                assert row.delta == delta, (omega, row.k)

    def test_u_last_negative_even_omega(self):
        for omega in range(2, 16, 2):
            assert u_last_negative(omega)
        with pytest.raises(SpectralRangeError):
            u_last_negative(5)


class TestDeltaExpansions:
    def check(self, omega, k, poly_part, poles):
        exp = delta_partial_fraction(spectral_row(omega, k))
        assert exp.polynomial_part == poly_part
        assert dict(exp.simple_poles) == poles

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
        for omega in (5, 6, 7):
            for row in spectral_family(omega):
                exp = delta_partial_fraction(row)
                assert exp.recombine() == row.delta

    def test_pole_candidates_cover_actual_poles(self):
        for omega in range(2, 16):
            for row in spectral_family(omega):
                candidates = set(row.delta_pole_candidates())
                exp = delta_partial_fraction(row)
                assert {r for r, _ in exp.simple_poles} <= candidates


class TestLemmaPolynomial:
    def test_derivative_closed_form(self):
        for omega in range(2, 21):
            assert lemma_polynomial(omega).pprime_matches_closed_form()

    def test_value_at_nu_matches_rows(self):
        # P(nu_k) = (nu_k - n + 1) d_k [(n-2) u_k/nu_k - (n-2)^3 nu_k/d_k]
        for omega in (2, 5, 9):
            lp = lemma_polynomial(omega)
            for row in spectral_family(omega):
                p_at_nu = lp.at(row.nu)
                for n in (F(7), F(30), F(101, 3)):
                    nu, d = row.nu(n), row.d(n)
                    expected = (nu - n + 1) * d * ((n - 2) * row.u(n) / nu
                                                   - (n - 2) ** 3 * nu / d)
                    assert p_at_nu(n) == expected

    def test_certified_for_all_omega(self):
        for omega in range(2, 16):
            ok, witness = check_lemma_poly(omega)
            assert ok, f"omega={omega}"
            assert witness.ray_start == 2 * omega + 6
            assert witness.value_at_2n.positive

    def test_numeric_sanity(self):
        # the certified inequality u_k < (n-2)^2 nu_k^2 / d_k at a point
        for omega in (4, 9, 15):
            n = F(2 * omega + 6)
            for row in spectral_family(omega):
                u = row.u(n)
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
