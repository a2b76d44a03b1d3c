"""Interval certificates: per-dimension root intervals, the all-n symbolic
certificate, and the omega = 16 breakdown.  Scans run through hvcert.cli
and are tested in test_cli.py."""

import hashlib
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvcert import certify
from hvcert.algebra import Polynomial, nonnegative_on_ray, sqrt_enclosure
from hvcert.certify import (
    InternalConsistencyError,
    certify_at,
    delta_partial_fraction,
    dimension_cover_check,
    roots_at,
    scaled_trinomial,
    symbolic_certificate,
)
from hvcert.cli import main
from hvcert.spectral import closed_forms, spectral_family


def trinomial_value(d, u_over_nu2, n, c):
    """d/(2(n-2)) c^2 - (n-2) c + (n-2) u/(2 nu^2) in Fractions: the exact
    reference for certify's integer trinomial check."""
    return d / (2 * (n - 2)) * c * c - (n - 2) * c + F(n - 2) * u_over_nu2 / 2


def bounds(pair):
    """(x_lower, x_upper, y_lower, y_upper): the enclosures of the roots
    m (m -/+ sqrt(Delta_k)) / d_k, m = n - 2, rebuilt as Fractions from the
    pair's integer sqrt bounds sqrt_lo/sqrt_den and sqrt_hi/sqrt_den."""
    m, den = pair.n - 2, pair.sqrt_den

    def root(sign, sqrt_num):
        return F(m * (m * den + sign * sqrt_num), pair.d * den)

    return (root(-1, pair.sqrt_hi), root(-1, pair.sqrt_lo),
            root(1, pair.sqrt_lo), root(1, pair.sqrt_hi))


def sign(v):
    return (v > 0) - (v < 0)


def sample_dimensions(omega, count=6):
    lo = 2 * omega + 6
    step = max(1, (400 - lo) // count)
    return list(range(lo, 401, step))[:count] + [400]


class TestRootPairs:
    def test_root_ordering(self):
        for omega in range(3, 16):
            for n in (2 * omega + 6, 2 * omega + 50, 400):
                for pair in roots_at(omega, n):
                    x_lower, x_upper, y_lower, y_upper = bounds(pair)
                    assert x_upper < y_lower
                    assert x_lower <= x_upper
                    assert y_lower <= y_upper

    def test_roots_solve_trinomial(self):
        # x_k and y_k bracket the sign change of the trinomial in c
        omega, n = 5, 20
        for pair, row in zip(roots_at(omega, n), spectral_family(omega)):
            d = row.d(F(n))
            u_over_nu2 = row.u_num(F(n)) / (row.u_den(F(n)) * row.nu(F(n)))
            _, x_upper, y_lower, y_upper = bounds(pair)
            inside = (x_upper + y_lower) / 2
            assert trinomial_value(d, u_over_nu2, F(n), inside) < 0
            outside = y_upper * 2 + 1
            assert trinomial_value(d, u_over_nu2, F(n), outside) > 0

    def test_square_delta_encloses_exactly(self, monkeypatch):
        # a row whose Delta is the square 9/4 (given as 18/8, not in lowest
        # terms): the integer enclosure collapses to lo == hi over isqrt(q)
        # and gives the bounds and midpoints of the exact root 3/2
        forms = closed_forms(5, 20)
        first = forms.rows[0]
        square = forms._replace(rows=(
            first._replace(delta_num=18, delta_den=8),) + forms.rows[1:])
        monkeypatch.setattr(certify, "closed_forms", lambda omega, n: square)
        pair = roots_at(5, 20)[0]
        assert (pair.sqrt_lo, pair.sqrt_hi, pair.sqrt_den) == (3, 3, 2)
        assert (pair.delta_num, pair.delta_den) == (9, 4)
        assert sqrt_enclosure(9, 4, certify._GRID) == (3, 3, 2)
        base, rc = F(18 ** 2, first.d), F(18, first.d)
        x_lower, x_upper, y_lower, y_upper = bounds(pair)
        assert x_lower == x_upper == base - rc * F(3, 2)
        assert y_lower == y_upper == base + rc * F(3, 2)
        scale = 2 * pair.sqrt_den * pair.d
        assert [den for _, den in pair.midpoints()] == [scale, scale]
        assert [F(*mid) for mid in pair.midpoints()] == [
            base - rc * F(3, 2), base + rc * F(3, 2)]


class TestIntegerKernel:
    @given(st.data(), st.integers(min_value=2, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_reference(self, data, omega):
        # the reference is the polynomial family at Fraction(n) and
        # sqrt_enclosure of that Fraction, never the integer rows roots_at
        # reads
        n = data.draw(st.integers(min_value=2 * omega + 6, max_value=5000))
        nf, m = F(n), F(n - 2)
        cert = certify_at(omega, n)
        family = spectral_family(omega)
        assert [pair.k for pair in cert.pairs] == [row.k for row in family]
        for pair, row in zip(cert.pairs, family):
            d = row.d(nf)
            u_over_nu2 = row.u_num(nf) / (row.u_den(nf) * row.nu(nf))
            delta = row.delta_num(nf) / row.delta_den(nf)
            lo, hi, den = sqrt_enclosure(delta.numerator, delta.denominator,
                                         certify._GRID)
            lower, upper = F(lo, den), F(hi, den)
            base, rc = m * m / d, m / d
            x_lower, x_upper = base - rc * upper, base - rc * lower
            y_lower, y_upper = base + rc * lower, base + rc * upper
            assert bounds(pair) == (x_lower, x_upper, y_lower, y_upper)
            assert [F(*mid) for mid in pair.midpoints()] == [
                (x_lower + x_upper) / 2, (y_lower + y_upper) / 2]
            # rationals inside ]x_upper, y_lower[, outside it on both
            # sides, and anywhere in a window around the roots
            t = data.draw(st.fractions(min_value=0, max_value=1,
                                       max_denominator=10 ** 9))
            span = y_upper - x_lower
            cs = [x_upper + t * (y_lower - x_upper),
                  x_lower - t * span - F(1, 10 ** 6),
                  y_upper + t * span + F(1, 10 ** 6),
                  x_lower - span + 3 * t * span]
            for c in cs:
                assert sign(scaled_trinomial(pair, c.numerator,
                                             c.denominator)) == sign(
                    trinomial_value(d, u_over_nu2, nf, c)), (omega, n, c)
            if cert.chosen_c is not None:
                assert trinomial_value(d, u_over_nu2, nf, cert.chosen_c) < 0


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
            _, x_upper, y_lower, _ = bounds(pair)
            assert x_upper < cert.chosen_c < y_lower

    def test_midpoint_rounded_in_integers(self, monkeypatch):
        # the 12 threshold cells keep their verdicts and chosen c (sha256
        # of "n status c" lines) with Fraction.limit_denominator
        # unavailable: the candidate midpoint is rounded without it
        def refuse(self, max_denominator=1000000):
            raise AssertionError("limit_denominator called")

        monkeypatch.setattr(F, "limit_denominator", refuse)
        lines = [f"{c.n} {c.status} {c.chosen_c}"
                 for c in (certify_at(16, n) for n in range(1853, 1865))]
        assert lines[0] == "1853 certified 11343015/950866692521"
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "ee52afcb8d7ecfbd8c5795eea7d9021f2c5e812aeb3bb179ad2f829af44964ab")

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

    def test_proofs_are_fixed(self):
        # every lower bound (k, a_k, b_k) and pair check (i, j and the
        # rational sqrt(a) bounds) of omega = 3..16 with its witness
        # method and root count, byte for byte: the report pins only the
        # failure tuple.  All 180 proved inequalities fire the shifted-
        # coefficient test; the one Sturm witness is omega = 16's failing
        # pair (1, 7), with one root on the ray.  A pair check's witness
        # is for the pair bound itself, whose value at n0 = 38
        # test_failing_witness_is_the_pair_bound pins; a lower bound's
        # witness is for a positive multiple of its inequality.  Here only
        # the sign of the Sturm witness's value at n0 is checked
        certs = [symbolic_certificate(omega) for omega in range(3, 17)]
        lines, witnesses = [], []
        for cert in certs:
            for lb in cert.lower_bounds:
                w = lb.witness
                lines.append(f"{cert.omega} lb {lb.k} {lb.a} {lb.b}"
                             f" {w.method} {w.root_count}")
                witnesses.append(w)
            for pc in cert.pair_checks:
                w = pc.witness
                lines.append(f"{cert.omega} pair {pc.i} {pc.j}"
                             f" {pc.lb_i_sqrt_a} {pc.lb_j_sqrt_a}"
                             f" {w.method} {w.root_count}")
                witnesses.append(w)

        assert len(lines) == 181
        assert [line for line in lines if "sturm" in line] == [
            "16 pair 1 7 88388347648318440550105545263/"
            "250000000000000000000000000000 88388347648318440550105545263/"
            "125000000000000000000000000000 sturm 1"]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "e835af9bdae53b7141f99412cb7420c12cb9b8ec0c7af70a06208d0c389b67a2")
        assert [w.positive for w in witnesses] == [True] * 180 + [False]
        sturm = witnesses[-1]
        assert sturm.sample_point == 38 and sturm.sample_value > 0

    def test_failing_witness_is_the_pair_bound(self):
        # the Sturm witness of omega = 16's failing pair (1, 7) holds the
        # value at n0 = 38 of the lower bound of E_17 itself,
        # (n-2)(d_7 - d_1) + d_7 lin_1 + d_1 lin_7, lin_k the record's
        # lower bound of sqrt(a_k) times n + b_k/(2 a_k), in Fractions from
        # the records and the family rows
        cert = symbolic_certificate(16)
        check = cert.pair_checks[-1]
        assert (check.i, check.j) == (1, 7)
        lbs = {lb.k: lb for lb in cert.lower_bounds}
        rows = {row.k: row for row in spectral_family(16)}
        n = F(38)
        d_1, d_7 = rows[1].d(n), rows[7].d(n)
        lin_1 = check.lb_i_sqrt_a * (n + lbs[1].b / (2 * lbs[1].a))
        lin_7 = check.lb_j_sqrt_a * (n + lbs[7].b / (2 * lbs[7].a))
        assert check.witness.sample_point == n
        assert check.witness.sample_value == (
            (n - 2) * (d_7 - d_1) + d_7 * lin_1 + d_1 * lin_7)

    def test_proved_polynomials_are_fixed(self, monkeypatch):
        # every polynomial the all-n certificates of omega = 3..16 hand to
        # nonnegative_on_ray, in call order, as its primitive part (the
        # integer numerators over their positive gcd) and ray start: the
        # lower bounds and their denominators, the d-order gaps and the
        # pair bounds, each fixed up to a positive factor, coefficient for
        # coefficient
        calls = []

        def recording(p, n0):
            cs = p.int_coeffs()
            g = math.gcd(*cs)
            calls.append(repr(([c // g for c in cs], n0)))
            return nonnegative_on_ray(p, n0)

        monkeypatch.setattr(certify, "nonnegative_on_ray", recording)
        for omega in range(3, 17):
            symbolic_certificate(omega)
        assert len(calls) == 307
        assert hashlib.sha256("\n".join(calls).encode()).hexdigest() == (
            "c995436f3e94ad118975a74a13b95c430f28b0784731ef2c53dc150cdc7d3b1c")

    @given(st.data(), st.integers(min_value=3, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_pair_terms_agree_on_ray_and_cell(self, data, omega):
        # the all-n certificate reads _pair_terms on Polynomials in n and
        # a cell reads it on the cell's integers: (A, c_i, c_j) built from
        # the family rows with m = n - 2 as a Polynomial, evaluated at n,
        # are the cell's integer terms for every ordered pair i != j
        n = data.draw(st.integers(min_value=2 * omega + 6, max_value=3000))
        m = Polynomial.x() - 2
        rows, pairs = spectral_family(omega), roots_at(omega, n)
        for i, (row_i, pair_i) in enumerate(zip(rows, pairs)):
            for j, (row_j, pair_j) in enumerate(zip(rows, pairs)):
                if i == j:
                    continue
                ray = certify._pair_terms(m, row_i.d, row_j.d)
                cell = certify._pair_terms(n - 2, pair_i.d, pair_j.d)
                assert [term(n) for term in ray] == list(cell), (omega, n,
                                                                 i, j)

    def test_decided_without_fraction_arithmetic(self, monkeypatch):
        # the all-n certificates and exact emptiness compute in integers:
        # with every arithmetic and comparison operator of Fraction
        # raising, omega = 3..16 and the cell (16, 1859) still reach their
        # verdicts.  Constructing a Fraction (a record's a, b and sqrt(a)
        # bound, a Sturm witness's n0 and value) stays allowed
        def refuse(name):
            def refused(*args):
                raise AssertionError(f"Fraction.{name} called")
            return refused

        for op in ("add", "sub", "mul", "truediv", "floordiv", "mod",
                   "divmod", "pow"):
            for name in (f"__{op}__", f"__r{op}__"):
                monkeypatch.setattr(F, name, refuse(name))
        for name in ("__neg__", "__pos__", "__abs__", "__eq__", "__lt__",
                     "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(F, name, refuse(name))
        failures = [symbolic_certificate(omega).failure
                    for omega in range(3, 17)]
        status = certify_at(16, 1859).status
        monkeypatch.undo()
        assert failures == [None] * 13 + [("pair", 16, 1, 7)]
        assert status == "empty"

    def test_unproved_denominator_sign_fails(self, monkeypatch):
        # Delta = n^2 - 1/(n-20) has the pole n = 20 on the ray n >= 12:
        # Delta - n^2 = -1/(n-20) changes sign there, so the lower bound
        # Delta > n^2 must not be reported as proved
        class RowWithPoleOnRay:
            k, d = 1, Polynomial([1])
            delta_num = Polynomial([-1, 0, -20, 1])
            delta_den = Polynomial([-20, 1])

        monkeypatch.setattr(certify, "spectral_family",
                            lambda omega: (RowWithPoleOnRay(),))
        cert = symbolic_certificate(3)
        assert not cert.ok
        assert cert.failure == ("lower_bound", 3, 1)

    def test_unproved_d_order_fails(self, monkeypatch):
        # omega = 5's rows relabelled k = 2, 1, so d_1 < d_2: the pair
        # checks take only i < j and scale by d_i, d_j, which is sound only
        # when d_1 > d_2 > 0 is proved on the ray
        first, second = spectral_family(5)
        monkeypatch.setattr(
            certify, "spectral_family",
            lambda omega: (first._replace(k=2), second._replace(k=1)))
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
                poly, _ = delta_partial_fraction(omega, row)
                assert (lb.a, lb.b) == (poly.coeffs[2], poly.coeffs[1])
                square = (n + lb.b / (2 * lb.a)) ** 2
                ref = row.delta_num - square * lb.a * row.delta_den
                assert any(p.degree == ref.degree
                           and p * (ref.leading / p.leading) == ref
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

        def counting(pair, p, q):
            calls.append(pair.k)
            return scaled_trinomial(pair, p, q)

        monkeypatch.setattr(certify, "scaled_trinomial", counting)
        assert certify_at(16, 1858).status == "certified"
        assert len(calls) == len(spectral_family(16)) == 8
        assert sorted(calls) == list(range(1, 9))

    def test_rejected_trinomial_fails_closed(self, monkeypatch, capsys):
        # a candidate that one k's check rejects is not certified, and the
        # cell is left undecided rather than retried
        def rejecting(pair, p, q):
            return 1 if pair.k == 3 else scaled_trinomial(pair, p, q)

        monkeypatch.setattr(certify, "scaled_trinomial", rejecting)
        cert = certify_at(16, 1858)
        assert cert.status == "undecided"
        assert cert.chosen_c is None and not cert.nonempty
        assert main(["certify", "--omega", "16", "--n", "1858",
                     "--jobs", "1"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["summary"]["undecided_cells"] == [[16, 1858]]

    def test_overlapping_pair_decided_first(self, monkeypatch):
        # at (16, 1859) the enclosures of y_1 and x_7 overlap; that pair is
        # decided first and proves the cell empty by itself.  Over the
        # band around the threshold the status still agrees with the
        # signs of every pair, decided in any order
        pair_sign = certify._pair_sign
        calls = []

        def counting(pairs, i, j, n):
            calls.append((i, j))
            return pair_sign(pairs, i, j, n)

        monkeypatch.setattr(certify, "_pair_sign", counting)
        assert certify_at(16, 1859).status == "empty"
        assert calls == [(0, 6)]
        for n in range(1853, 1865):
            cert = certify_at(16, n)
            q = len(cert.pairs)
            nonempty = all(pair_sign(cert.pairs, i, j, n) > 0
                           for i in range(q) for j in range(q) if i != j)
            assert cert.status == ("certified" if nonempty else "empty"), n

    def test_loose_enclosures_fail_closed(self, monkeypatch, capsys):
        # the gap at (16, 1858) is 2e-10: enclosures of width 1/10 cannot
        # separate it, and the cell is left undecided rather than refined.
        # Its exact pairwise signs are all positive: each of the 8 * 7
        # ordered pairs is decided once, the overlapping one included
        monkeypatch.setattr(certify, "_GRID", 10)
        pair_sign = certify._pair_sign
        calls = []

        def counting(pairs, i, j, n):
            calls.append((i, j))
            return pair_sign(pairs, i, j, n)

        monkeypatch.setattr(certify, "_pair_sign", counting)
        cert = certify_at(16, 1858)
        assert cert.status == "undecided"
        assert cert.chosen_c is None and not cert.nonempty
        assert sorted(calls) == [(i, j) for i in range(8) for j in range(8)
                                 if i != j]
        calls.clear()
        assert certify_at(16, 1859).status == "empty"
        assert len(calls) == len(set(calls))
        assert main(["certify", "--omega", "16", "--n", "1858..1859",
                     "--jobs", "1"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["summary"]["undecided_cells"] == [[16, 1858]]


class TestDimensionCover:
    def test_cover_boundary(self):
        assert dimension_cover_check(37)
        assert not dimension_cover_check(38)
