"""Interval certificates: per-dimension root intervals, the all-n symbolic
certificate, scans, and the omega = 16 breakdown."""

from fractions import Fraction as F

import pytest

from hvcert import certify
from hvcert.algebra import Polynomial, RationalFunction
from hvcert.certify import (
    MuBranch,
    certify_at,
    dimension_cover_check,
    roots_at,
    scan,
    symbolic_certificate,
    trinomial_value,
)
from hvcert.spectral import spectral_family


def sample_dimensions(omega, count=6):
    lo = 2 * omega + 6
    step = max(1, (400 - lo) // count)
    return list(range(lo, 401, step))[:count] + [400]


class TestRootPairs:
    def test_root_ordering(self):
        for omega in range(3, 16):
            for n in (2 * omega + 6, 2 * omega + 50, 400):
                for pair in roots_at(omega, n):
                    assert pair.x_upper < pair.y_lower
                    assert pair.x_lower <= pair.x_upper
                    assert pair.y_lower <= pair.y_upper

    def test_roots_solve_trinomial(self):
        # x_k and y_k bracket the sign change of the trinomial in c
        omega, n = 5, 20
        for pair, row in zip(roots_at(omega, n), spectral_family(omega)):
            d = row.d(F(n))
            u_over_nu2 = row.u_over_nu(F(n)) / row.nu(F(n))
            inside = (pair.x_upper + pair.y_lower) / 2
            assert trinomial_value(d, u_over_nu2, F(n), inside) < 0
            outside = pair.y_upper * 2 + 1
            assert trinomial_value(d, u_over_nu2, F(n), outside) > 0

    def test_refinement_narrows(self):
        pair = roots_at(6, 30)[0]
        refined = pair.refined(F(1, 10 ** 60))
        assert refined.x_upper - refined.x_lower <= pair.x_upper - pair.x_lower


class TestCertifyAt:
    def test_certified_cells_across_omegas(self):
        for omega in range(3, 16):
            for n in sample_dimensions(omega):
                cert = certify_at(omega, n)
                assert cert.status == "certified", (omega, n)
                assert cert.nonempty
                assert cert.chosen_c is not None

    def test_chosen_c_validates_exactly(self):
        for omega, n in ((3, 12), (7, 40), (12, 200), (15, 400)):
            cert = certify_at(omega, n)
            for row in spectral_family(omega):
                d = row.d(F(n))
                u_over_nu2 = row.u_over_nu(F(n)) / row.nu(F(n))
                assert trinomial_value(d, u_over_nu2, F(n),
                                       cert.chosen_c) < 0

    def test_chosen_c_inside_all_intervals(self):
        cert = certify_at(7, 40)
        for pair in cert.pairs:
            assert pair.x_upper < cert.chosen_c < pair.y_lower

    def test_covered_branch_shortcut(self):
        cert = certify_at(5, 100,
                          mu_branch=MuBranch.DEG_AT_LEAST_OMEGA_PLUS_ONE)
        assert cert.status == "covered_by_prior_branch"
        assert cert.chosen_c == 0
        assert cert.nonempty

    def test_dimension_below_ray_rejected(self):
        with pytest.raises(ValueError):
            certify_at(5, 15)


class TestSymbolicCertificate:
    def test_succeeds_for_three_through_fifteen(self):
        for omega in range(3, 16):
            cert = symbolic_certificate(omega)
            assert cert.ok, f"omega={omega}"
            assert cert.failure is None
            assert cert.valid_from == 2 * omega + 6
            assert len(cert.lower_bounds) == omega // 2

    def test_implies_numeric_certificates(self):
        # spot check: the all-n certificate is confirmed cell by cell
        for omega in (3, 8, 15):
            for n in sample_dimensions(omega, count=4):
                assert certify_at(omega, n).nonempty

    def test_sixteen_fails_on_a_pair(self):
        cert = symbolic_certificate(16)
        assert not cert.ok
        assert cert.failure is not None
        assert cert.failure[0] == "pair"

    def test_unproved_denominator_sign_fails(self, monkeypatch):
        # Delta = n^2 - 1/(n-20) has the pole n = 20 on the ray n >= 12:
        # Delta - n^2 = -1/(n-20) changes sign there, so the lower bound
        # Delta > n^2 must not be reported as proved
        class RowWithPoleOnRay:
            omega, k, d = 3, 1, Polynomial([1])
            delta = RationalFunction(Polynomial([-1, 0, -20, 1]),
                                     Polynomial([-20, 1]))

            def delta_pole_candidates(self):
                return (F(20),)

        monkeypatch.setattr(certify, "spectral_family",
                            lambda omega: (RowWithPoleOnRay(),))
        cert = symbolic_certificate(3)
        assert not cert.ok
        assert cert.failure == ("lower_bound", 3, 1)

    def test_lower_bound_structure(self):
        cert = symbolic_certificate(5)
        for lb in cert.lower_bounds:
            assert lb.a > 0
            assert lb.witness.positive


class TestOmegaSixteen:
    def test_certified_just_below_threshold(self):
        assert certify_at(16, 1858).status == "certified"

    def test_empty_at_threshold(self):
        cert = certify_at(16, 1859)
        assert cert.status == "empty"
        assert not cert.nonempty
        assert cert.chosen_c is None


class TestScan:
    def test_small_scan_contents(self):
        report = scan(range(5, 7), range(16, 41))
        assert all(e.status == "certified" for e in report.entries)
        assert report.failures == ()
        # cells below the ray start are skipped
        assert all(e.n >= 2 * e.omega + 6 for e in report.entries)

    def test_deterministic(self):
        a = scan(range(4, 6), range(14, 30))
        b = scan(range(4, 6), range(14, 30))
        assert a.entries == b.entries
        assert a.summary == b.summary

    def test_failure_listing(self):
        report = scan([16], range(1857, 1861))
        assert (16, 1859) in report.failures
        assert (16, 1860) in report.failures
        assert (16, 1857) not in report.failures


class TestDimensionCover:
    def test_cover_boundary(self):
        assert dimension_cover_check(37)
        assert not dimension_cover_check(38)
