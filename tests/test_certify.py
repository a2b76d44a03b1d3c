"""Interval certificates: per-dimension root intervals, the all-n symbolic
certificate, and the omega = 16 breakdown.  Scans run through hvcert.cli
and are tested in test_cli.py."""

import json
from fractions import Fraction as F

import pytest

from hvcert import certify
from hvcert.algebra import Polynomial, nonnegative_on_ray
from hvcert.certify import (
    InternalConsistencyError,
    certify_at,
    delta_partial_fraction,
    dimension_cover_check,
    roots_at,
    symbolic_certificate,
    trinomial_value,
)
from hvcert.cli import main
from hvcert.spectral import closed_forms, spectral_family


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
            u_over_nu2 = row.u_num(F(n)) / (row.u_den(F(n)) * row.nu(F(n)))
            inside = (pair.x_upper + pair.y_lower) / 2
            assert trinomial_value(d, u_over_nu2, F(n), inside) < 0
            outside = pair.y_upper * 2 + 1
            assert trinomial_value(d, u_over_nu2, F(n), outside) > 0


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
                u_over_nu2 = row.u_num(F(n)) / (row.u_den(F(n)) * row.nu(F(n)))
                assert trinomial_value(d, u_over_nu2, F(n),
                                       cert.chosen_c) < 0

    def test_chosen_c_inside_all_intervals(self):
        cert = certify_at(7, 40)
        for pair in cert.pairs:
            assert pair.x_upper < cert.chosen_c < pair.y_lower

    def test_cells_never_build_the_family(self, monkeypatch):
        # a cell evaluates the closed forms at its integer n; the
        # polynomial family serves only the all-n certificate and coeffs
        def unavailable(omega):
            raise AssertionError("a cell built the spectral family")

        monkeypatch.setattr(certify, "spectral_family", unavailable)
        assert certify_at(5, 20).status == "certified"
        assert certify_at(16, 1858).status == "certified"
        assert certify_at(16, 1859).status == "empty"

    def test_nonpositive_delta_fails_closed(self, monkeypatch):
        forms = closed_forms(5, 20)
        first = forms.rows[0]
        flipped = forms._replace(rows=(
            first._replace(delta_num=-first.delta_num),) + forms.rows[1:])
        monkeypatch.setattr(certify, "closed_forms", lambda omega, n: flipped)
        with pytest.raises(InternalConsistencyError):
            certify_at(5, 20)

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
            delta_num = Polynomial([-1, 0, -20, 1])
            delta_den = Polynomial([-20, 1])

            def delta_pole_candidates(self):
                return (F(20),)

        monkeypatch.setattr(certify, "spectral_family",
                            lambda omega: (RowWithPoleOnRay(),))
        cert = symbolic_certificate(3)
        assert not cert.ok
        assert cert.failure == ("lower_bound", 3, 1)

    def test_unproved_d_order_fails(self, monkeypatch):
        # omega = 5's rows relabelled k = 2, 1, so d_1 < d_2: the pair
        # checks take only i < j and scale by d_i, d_j, which is sound only
        # when d_1 > d_2 > 0 is proved on the ray
        class Relabelled:
            def __init__(self, row, k):
                self.omega, self.k = row.omega, k
                self.d = row.d
                self.delta_num, self.delta_den = row.delta_num, row.delta_den
                self.delta_pole_candidates = row.delta_pole_candidates

        first, second = spectral_family(5)
        monkeypatch.setattr(
            certify, "spectral_family",
            lambda omega: (Relabelled(first, 2), Relabelled(second, 1)))
        cert = symbolic_certificate(5)
        assert not cert.ok
        assert cert.failure == ("d_order", 5, 1)

    def test_lower_bound_structure(self):
        cert = symbolic_certificate(5)
        for lb in cert.lower_bounds:
            assert lb.a > 0
            assert lb.witness.positive

    def test_lower_bound_matches_partial_fractions(self, monkeypatch):
        # (a, b) is read off the quotient of Delta's numerator by its
        # denominator; the reference is the polynomial part of the
        # partial-fraction expansion, and the numerator proved positive is
        # a positive multiple of the numerator of Delta - a (n + b/(2a))^2
        # over delta_den, built from the row's polynomial pair
        proved = []

        def recording(p, n0):
            proved.append(p)
            return nonnegative_on_ray(p, n0)

        monkeypatch.setattr(certify, "nonnegative_on_ray", recording)
        n = Polynomial.x()
        for omega in range(3, 25):
            proved.clear()
            cert = symbolic_certificate(omega)
            assert len(cert.lower_bounds) == omega // 2, omega
            rows = {row.k: row for row in spectral_family(omega)}
            for lb in cert.lower_bounds:
                row = rows[lb.k]
                poly, _ = delta_partial_fraction(row)
                assert (lb.a, lb.b) == (poly.coeffs[2], poly.coeffs[1])
                square = (n + lb.b / (2 * lb.a)) ** 2
                ref = row.delta_num - square.scale(lb.a) * row.delta_den
                assert any(p.degree == ref.degree
                           and p.scale(ref.leading / p.leading) == ref
                           and ref.leading / p.leading > 0
                           for p in proved), (omega, lb.k)


class TestOmegaSixteen:
    def test_certified_just_below_threshold(self):
        assert certify_at(16, 1858).status == "certified"

    def test_empty_at_threshold(self):
        cert = certify_at(16, 1859)
        assert cert.status == "empty"
        assert not cert.nonempty
        assert cert.chosen_c is None

    def test_one_trinomial_pass_per_certified_cell(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return trinomial_value(*args)

        monkeypatch.setattr(certify, "trinomial_value", counting)
        assert certify_at(16, 1858).status == "certified"
        assert len(calls) == len(spectral_family(16)) == 8

    def test_loose_enclosures_fail_closed(self, monkeypatch, capsys):
        # the gap at (16, 1858) is 2e-10: enclosures of width 1/10 cannot
        # separate it, and the cell is left undecided rather than refined
        monkeypatch.setattr(certify, "_WIDTH", F(1, 10))
        cert = certify_at(16, 1858)
        assert cert.status == "undecided"
        assert cert.chosen_c is None and not cert.nonempty
        assert certify_at(16, 1859).status == "empty"
        assert main(["certify", "--omega", "16", "--n", "1858..1859",
                     "--jobs", "1"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["summary"]["undecided_cells"] == [[16, 1858]]


class TestDimensionCover:
    def test_cover_boundary(self):
        assert dimension_cover_check(37)
        assert not dimension_cover_check(38)
