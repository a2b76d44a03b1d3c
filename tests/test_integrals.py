"""Bubble integrals I_a^b, sharp constants, the concentration limit, and
the exact f^2 coefficient identity."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy as sp
from hypothesis import assume, example, given
from hypothesis import strategies as st

from hvcert import integrals
from hvcert.integrals import (
    DivergentIntegral,
    QuadratureFailure,
    RadialProfile,
    best_constant,
    best_constant_l1,
    beta_ratio,
    hardy_constant,
    i_closed,
    i_quadrature,
    i_truncated,
    inte_identity_check,
    k2_inverse_square,
    norme_f2_check,
    radial_yamabe,
    recurrence_check,
    rela_shorthand_report,
    sphere_volume,
    truncation_bound,
)
from hvcert.cli import main


class TestBubbleIntegrals:
    def test_closed_form_against_quadrature(self):
        for a in range(2, 13):
            for b in range(0, 2 * a - 2, 2):
                closed = i_closed(a, b)
                quad = i_quadrature(a, b)
                assert abs(closed - quad) <= 1e-10 * abs(closed), (a, b)

    def test_known_value(self):
        # I_1^0 = int dt/(1+t^2) = pi/2, but a=1, b=0 needs 2a-b>1: ok
        assert abs(i_closed(1, 0) - math.pi / 2) < 1e-14

    def test_divergence_guards(self):
        with pytest.raises(DivergentIntegral):
            i_closed(2, -1)
        with pytest.raises(DivergentIntegral):
            i_closed(2, 3)    # 2a-b = 1 diverges at infinity

    def test_recurrences(self):
        for a in range(4, 13):
            for b in range(2, 2 * a - 4, 2):
                assert recurrence_check(a, b), (a, b)

    def test_recurrence_guards(self):
        with pytest.raises(DivergentIntegral):
            recurrence_check(5, 0)
        with pytest.raises(DivergentIntegral):
            recurrence_check(3, 3)

    def test_truncation_bound(self):
        # |I_a^b - I_a^b(eps)| <= eps^{2a-b-1} / ((2a-b-1) delta^{2a-b-1})
        for a, b in ((4, 2), (6, 5), (8, 3)):
            for eps in (1e-1, 1e-2, 1e-3):
                tail = i_closed(a, b) - i_truncated(a, b, 1.0, eps)
                bound = truncation_bound(a, b, 1.0, eps)
                # the subtraction floor is ~1e-16 of the full integral
                floor = 1e-15 * i_closed(a, b)
                assert -floor <= tail <= bound * (1 + 1e-9) + floor

    def test_truncated_approaches_full(self):
        full = i_closed(5, 4)
        gaps = [full - i_truncated(5, 4, 1.0, eps)
                for eps in (1e-1, 1e-2, 1e-3)]
        assert gaps[0] > gaps[1] > gaps[2] >= 0

    @pytest.mark.parametrize("case", ["i_quadrature", "i_truncated",
                                      "radial_yamabe"])
    def test_large_error_estimate_fails_closed(self, monkeypatch, case):
        # each quadrature reports (value, error estimate); an estimate of
        # the size of the value must raise, never return the value
        monkeypatch.setattr(integrals.mp, "quad",
                            lambda f, nodes, error: (mpmath.mpf(1), mpmath.mpf(1)))
        monkeypatch.setattr(integrals.fp, "quad",
                            lambda f, nodes, error: (1.0, 1.0))
        run = {"i_quadrature": lambda: i_quadrature(4, 2),
               "i_truncated": lambda: i_truncated(4, 2, 1.0, 1e-2),
               "radial_yamabe": lambda: radial_yamabe(RadialProfile(5, 1e-3, 1.0))}
        with pytest.raises(QuadratureFailure) as failure:
            run[case]()
        assert failure.value.achieved == 1.0


# Multiples of 1/64: p = (b+1)/2 and q = a - p are then exact floats, so
# the comparison measures the Gamma evaluation rather than the rounding of
# a - (b+1)/2, which alone costs about q psi(q) ulp (1e-13 near q = 170).
# a <= 170 takes math.gamma directly, 170 < a <= 2700 mpmath's Beta.
@st.composite
def convergent_pair(draw):
    num_a = draw(st.one_of(st.integers(33, 170 * 64),
                           st.integers(170 * 64 + 1, 2700 * 64)))
    num_b = draw(st.integers(-63, 2 * num_a - 65))   # b > -1, 2a - b > 1
    return num_a / 64, num_b / 64


class TestClosedFormAccuracy:
    @given(convergent_pair())
    @example((170.0, 0.0))
    @example((170.015625, 3.0))
    @example((171.0, 1.0))
    @example((341.5, 0.5))
    @example((1859.0, 3.0))
    @example((1000.0, 1000.0))
    def test_matches_mpmath_beta(self, pair):
        a, b = pair
        with mpmath.workdps(40):
            p = (mpmath.mpf(b) + 1) / 2
            reference = mpmath.beta(p, a - p) / 2
        assume(reference >= sys.float_info.min)   # a normal float
        got = i_closed(a, b)
        assert abs(got - reference) <= 1e-13 * reference, (a, b)

    @pytest.mark.parametrize("a, b", [(2706.0, 3.0), (5000.0, 9998.5),
                                      (20000.0, 21.0), (1e5, 7.0),
                                      (1e300, 3.0)])
    def test_mpmath_beta_past_multiplication(self, a, b):
        # past a = 170 the value is mpmath's Beta; at a = 1e300 it is about
        # 5e-601 and underflows to 0.0.  The reference needs more than
        # log10(a) digits, or p + q rounds to q and Beta(p, q) to Gamma(p).
        with mpmath.workdps(340):
            p = (mpmath.mpf(b) + 1) / 2
            reference = mpmath.beta(p, a - p) / 2
        got = i_closed(a, b)
        if reference < sys.float_info.min:
            assert got == float(reference) == 0.0
        else:
            assert abs(got - reference) <= 1e-13 * reference


class TestConstants:
    def test_sphere_volumes(self):
        assert abs(sphere_volume(1) - 2 * math.pi) < 1e-14
        assert abs(sphere_volume(2) - 4 * math.pi) < 1e-13
        assert abs(sphere_volume(3) - 2 * math.pi ** 2) < 1e-13

    def test_best_constant_l1_limit(self):
        # K(n, p) -> K(n, 1) as p -> 1
        for n in (3, 5, 8):
            assert abs(best_constant(n, 1.0001) - best_constant_l1(n)) < 1e-3

    def test_hardy(self):
        assert hardy_constant(5, 2) == pytest.approx(2 / 3)
        with pytest.raises(ValueError):
            hardy_constant(3, 3)

    def test_k2_inverse_square_matches_best_constant(self):
        # K(n,2)^{-2} from the closed form equals 1/K(n,2)^2
        for n in range(3, 10):
            assert k2_inverse_square(n) == pytest.approx(
                best_constant(n, 2) ** -2, rel=1e-12)


class TestLargeDimension:
    """n in the thousands is the paper's regime (omega = 16 fails from
    n = 1859): the constants stay finite and agree with 50-digit values."""

    @pytest.mark.parametrize("n", [3, 50, 171, 400, 2000])
    def test_against_mpmath(self, n):
        with mpmath.workdps(50):
            def omega(m):
                h = mpmath.mpf(m + 1) / 2
                return 2 * mpmath.pi ** h / mpmath.gamma(h)

            want_volume = omega(n)
            want_k2 = n * (n - 2) * omega(n) ** (mpmath.mpf(2) / n) / 4
            want_k = (mpmath.sqrt(mpmath.mpf(n - 2) / n) / (n - 2)
                      * (mpmath.gamma(n + 1)
                         / (mpmath.gamma(mpmath.mpf(n) / 2)
                            * mpmath.gamma(mpmath.mpf(n) / 2 + 1)
                            * omega(n - 1))) ** (mpmath.mpf(1) / n))
            want_l1 = (n / omega(n - 1)) ** (mpmath.mpf(1) / n) / n
        for got, want in ((k2_inverse_square(n), want_k2),
                          (best_constant(n, 2), want_k),
                          (best_constant_l1(n), want_l1)):
            assert math.isfinite(got)
            assert abs(got - want) <= 1e-12 * want, n
        if want_volume >= sys.float_info.min:
            assert abs(sphere_volume(n) - want_volume) <= 1e-12 * want_volume
        else:
            assert sphere_volume(n) == 0.0   # omega_2000 ~ 1e-2068 underflows


class TestInteIdentity:
    def test_holds_for_all_n(self):
        for n in range(3, 13):
            assert inte_identity_check(n)

    def test_shorthand_is_inconsistent(self):
        # the volume-factor-free shorthand does not hold; the report says so
        report = rela_shorthand_report(6)
        assert not report["consistent"]
        assert report["as_stated_lhs"] != pytest.approx(
            report["as_stated_rhs"], rel=1e-3)


class TestConcentration:
    def test_within_two_percent(self):
        for n in range(4, 9):
            value = radial_yamabe(RadialProfile(n, 1e-3, 1.0))
            target = k2_inverse_square(n)
            assert abs(value - target) <= 0.02 * target, n

    def test_monotone_in_epsilon(self):
        n = 5
        target = k2_inverse_square(n)
        errors = [abs(radial_yamabe(RadialProfile(n, eps, 1.0)) - target)
                  for eps in (1e-1, 1e-2, 1e-3)]
        assert errors[0] > errors[1] > errors[2]

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            RadialProfile(2, 1e-3, 1.0)
        with pytest.raises(ValueError):
            RadialProfile(5, 2.0, 1.0)


class TestF2Coefficient:
    def test_matches_plus_p2(self):
        for n, omega in ((16, 3), (20, 5), (30, 9)):
            report = norme_f2_check(n, omega)
            assert report["matches_plus_p2"], (n, omega)
            assert report["combination_ratio"] == report["plus_p2_ratio"] != 0

    def test_does_not_match_minus_p2(self):
        for n, omega in ((16, 3), (20, 5), (30, 9)):
            report = norme_f2_check(n, omega)
            assert not report["matches_minus_p2"], (n, omega)

    def test_plus_p2_identity_symbolic(self):
        # every I_a^b by its Beta closed form, reduced by gammasimp: the
        # combination over I_{n-2}^{n+2w+1} is +P_2(w+2)/(4(n-1)(n-2))
        # identically in n and omega
        n, w = sp.symbols("n omega", positive=True)

        def i(a, b):
            p = (b + 1) / sp.Integer(2)
            return sp.gamma(p) * sp.gamma(a - p) / (2 * sp.gamma(a))

        N = 2 * n / (n - 2)
        combination = ((w - n + 4) ** 2 * i(n, 2 * w + n + 5)
                       + 2 * (w + 2) * (w - n + 4) * i(n, 2 * w + n + 3)
                       + (w + 2) ** 2 * i(n, 2 * w + n + 1)
                       - (N - 1) * (n - 2) ** 2 * i(n, 2 * w + n + 3)
                       * i(n, n + 1) / i(n, n - 1))
        ratio = sp.gammasimp(combination / i(n - 2, n + 2 * w + 1))
        p2 = 4 * (w + 2) ** 2 * (n * n + n + 2) - 4 * n * (n - 2) ** 2
        assert sp.cancel(ratio - p2 / (4 * (n - 1) * (n - 2))) == 0
        assert sp.cancel(ratio + p2 / (4 * (n - 1) * (n - 2))) != 0

    def test_combination_requires_convergence(self):
        with pytest.raises(DivergentIntegral):
            norme_f2_check(12, 3)   # n = 2 omega + 6 diverges

    def test_flipped_p2_fails_closed(self, monkeypatch, tmp_path):
        # a P_2 of the wrong sign must match the refuted -P_2 form and
        # make the integrals command fail
        good = integrals.closed_forms

        def flipped(omega, n):
            forms = good(omega, n)
            return forms._replace(a0=-forms.a0)

        monkeypatch.setattr("hvcert.integrals.closed_forms", flipped)
        for n, omega in ((16, 3), (20, 5), (30, 9)):
            report = norme_f2_check(n, omega)
            assert not report["matches_plus_p2"], (n, omega)
            assert report["matches_minus_p2"], (n, omega)
        out = tmp_path / "integrals.json"
        assert main(["integrals", "--seed", "1", "--output", str(out)]) == 1
        summary = json.loads(out.read_text())["summary"]
        assert summary["ok"] is False
        assert all(pair == {"matches_plus_p2": False, "matches_minus_p2": True}
                   for pair in summary["norme_f2"].values())


class TestBetaRatio:
    @pytest.mark.parametrize("a, b, a0, b0", [
        (16, 27, 14, 23), (20, 36, 20, 34), (30, 31, 30, 29), (7, 3, 9, 5),
    ])
    def test_matches_float_closed_form(self, a, b, a0, b0):
        exact = beta_ratio(a, b, a0, b0)
        assert isinstance(exact, Fraction)
        assert float(exact) == pytest.approx(
            i_closed(a, b) / i_closed(a0, b0), rel=1e-13)

    def test_guards(self):
        with pytest.raises(DivergentIntegral):
            beta_ratio(4, 7, 4, 5)      # 2a - b = 1
        with pytest.raises(DivergentIntegral):
            beta_ratio(4, 5, 4, -1)     # b0 = -1
        with pytest.raises(ValueError):
            beta_ratio(4, 4, 4, 5)      # Gamma arguments half a step apart


class TestImports:
    """The oracles run without numpy or scipy: the integral oracle on math
    and mpmath, the sphere oracle on sympy and math."""

    @pytest.mark.parametrize("code", [
        "import hvcert.integrals",
        "from hvcert.cli import main; "
        "assert main(['integrals', '--seed', '1', '--output', sys.argv[1]]) == 0",
        "import hvcert.sphere",
        "from hvcert.cli import main; "
        "assert main(['sphere-check', '--output', sys.argv[1]]) == 0",
    ], ids=["import", "integrals-command", "sphere-import",
            "sphere-check-command"])
    def test_no_scipy_or_numpy(self, tmp_path, code):
        src = str(Path(integrals.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        script = (f"import sys; {code}; import json; print(json.dumps(sorted("
                  "m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy'))))")
        done = subprocess.run([sys.executable, "-c", script,
                               str(tmp_path / "report.json")],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        assert json.loads(done.stdout.splitlines()[-1]) == []
