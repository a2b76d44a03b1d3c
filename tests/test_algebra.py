"""Exact polynomial arithmetic, partial fractions, Sturm positivity,
and square-root enclosures."""

import decimal
import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hvcert.algebra import (
    AlgebraError,
    InvalidFactorization,
    NegativeRadicand,
    PartialFractionExpansion,
    Polynomial,
    RationalFunction,
    count_roots_on_ray,
    nonnegative_on_ray,
    partial_fractions,
    sign_with_sqrts,
    sqrt_enclosure,
    sturm_chain,
)

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 4)


def poly(*cs):
    return Polynomial(cs)


class TestPolynomial:
    def test_zero_degree(self):
        assert Polynomial().degree == -1
        assert poly(0, 0).is_zero()

    def test_arithmetic(self):
        p = poly(1, 2, 3)
        q = poly(-1, 1)
        assert p + q == poly(0, 3, 3)
        assert p * q == poly(-1, -1, -1, 3)
        assert (p - p).is_zero()

    def test_divmod_reconstructs(self):
        p = poly(2, 0, 0, 5, 1)
        d = poly(1, 3, 1)
        q, r = p.divmod(d)
        assert q * d + r == p
        assert r.degree < d.degree

    def test_evaluation_and_derivative(self):
        p = poly(1, -3, 2)   # 2n^2 - 3n + 1
        assert p(Fraction(1, 2)) == 0
        assert p.derivative() == poly(-3, 4)

    def test_shift(self):
        p = poly(0, 0, 1)    # n^2
        shifted = p.shift(3)  # (n+3)^2
        assert shifted == poly(9, 6, 1)

    @given(st.lists(rationals, max_size=6), st.lists(rationals, max_size=6),
           rationals)
    @settings(max_examples=200, deadline=None)
    def test_product_evaluation_homomorphism(self, a, b, x):
        p, q = Polynomial(a), Polynomial(b)
        assert (p * q)(x) == p(x) * q(x)

    def test_str_matches_table_style(self):
        p = Polynomial([Fraction(1076, 3), Fraction(29, 6), Fraction(2, 3)])
        assert str(p) == "2/3*n^2 + 29/6*n + 1076/3"


class TestRationalFunction:
    def test_normalization_cancels_common_factors(self):
        num = poly(-1, 0, 1)          # (n-1)(n+1)
        den = poly(-1, 1) * poly(2, 1)  # (n-1)(n+2)
        f = RationalFunction(num, den)
        assert f.num == poly(1, 1)
        assert f.den == poly(2, 1)

    def test_denominator_made_monic(self):
        f = RationalFunction(poly(1), poly(0, 2))
        assert f.den.leading == 1

    @given(st.lists(rationals, min_size=1, max_size=4),
           st.lists(rationals, min_size=2, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_add_sub_roundtrip(self, a, b):
        den = Polynomial(b)
        if den.is_zero():
            return
        f = RationalFunction(Polynomial(a), den)
        g = RationalFunction(poly(1, 1), poly(3, 0, 1))
        assert (f + g) - g == f


class TestPartialFractions:
    def test_three_pole_reconstruction(self):
        den = (Polynomial.linear_root(2) * Polynomial.linear_root(-2)
               * Polynomial.linear_root(-1))
        f = RationalFunction(poly(2, 0, 0, 1), den)
        exp = partial_fractions(f, [Polynomial.linear_root(2),
                                    Polynomial.linear_root(-2),
                                    Polynomial.linear_root(-1)])
        assert exp.recombine() == f

    def test_rejects_wrong_factors(self):
        f = RationalFunction(poly(1), poly(-1, 0, 1))
        with pytest.raises(InvalidFactorization):
            partial_fractions(f, [Polynomial.linear_root(1),
                                  Polynomial.linear_root(2)])

    def test_rejects_repeated_factors(self):
        f = RationalFunction(poly(1), poly(1, 2, 1))
        with pytest.raises(InvalidFactorization):
            partial_fractions(f, [Polynomial.linear_root(-1),
                                  Polynomial.linear_root(-1)])

    def test_residue_lookup(self):
        f = RationalFunction(poly(1), poly(0, 1) * poly(-1, 1))
        exp = partial_fractions(f, [Polynomial.linear_root(0),
                                    Polynomial.linear_root(1)])
        assert exp.residue_at(0) == -1
        assert exp.residue_at(1) == 1

    @given(st.lists(rationals, min_size=1, max_size=8),
           st.lists(st.integers(min_value=-20, max_value=20),
                    min_size=1, max_size=4, unique=True))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_random(self, num_cs, roots):
        num = Polynomial(num_cs)
        if num.is_zero():
            return
        den = Polynomial([1])
        for r in roots:
            den = den * Polynomial.linear_root(r)
        if num.degree - den.degree > 2:
            return
        f = RationalFunction(num, den)
        # normalization may cancel a factor; skip those draws
        if f.den.degree != den.degree:
            return
        exp = partial_fractions(f, [Polynomial.linear_root(r) for r in roots])
        assert exp.recombine() == f


class TestRayPositivity:
    def test_sturm_root_count(self):
        p = poly(0, -1, 0, 1)        # n(n-1)(n+1)
        assert count_roots_on_ray(p, Fraction(-2)) == 3
        assert count_roots_on_ray(p, Fraction(1, 2)) == 1
        assert count_roots_on_ray(p, Fraction(2)) == 0

    def test_sturm_chain_ends_with_constant(self):
        chain = sturm_chain(poly(-2, 0, 1))
        assert chain[-1].degree <= 0

    def test_positive_polynomial(self):
        ok, wit = nonnegative_on_ray(poly(1, 0, 1), 0)
        assert ok
        assert wit.positive

    def test_detects_sign_change(self):
        ok, _ = nonnegative_on_ray(poly(-10, 1), 0)   # n - 10 < 0 near 0
        assert not ok

    def test_root_at_endpoint_fails_strictness(self):
        # the decision is strict positivity on the closed ray
        ok, _ = nonnegative_on_ray(poly(0, 1), 0)
        assert not ok
        ok, _ = nonnegative_on_ray(poly(0, 1), 1)
        assert ok

    @given(st.lists(st.integers(min_value=-50, max_value=50),
                    min_size=1, max_size=7),
           st.integers(min_value=-5, max_value=30))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_dense_sampling(self, cs, n0):
        p = Polynomial(cs)
        if p.is_zero():
            return
        ok, _ = nonnegative_on_ray(p, n0)
        samples = [n0 + Fraction(i, 10) for i in range(0, 10001, 7)]
        sampled_ok = all(p(s) >= 0 for s in samples)
        if ok:
            assert sampled_ok
        # leading coefficient controls the tail beyond any sample window
        if not ok and sampled_ok:
            assert min(p(s) for s in samples) >= 0


class TestSqrtEnclosure:
    def test_perfect_square(self):
        enc = sqrt_enclosure(Fraction(9, 4), Fraction(1, 10 ** 20))
        assert enc.lower == enc.upper == Fraction(3, 2)

    def test_bracketing(self):
        enc = sqrt_enclosure(2, Fraction(1, 10 ** 30))
        assert enc.lower ** 2 < 2 < enc.upper ** 2
        assert enc.upper - enc.lower <= Fraction(1, 10 ** 30)

    def test_negative_radicand(self):
        with pytest.raises(NegativeRadicand):
            sqrt_enclosure(-1, Fraction(1, 100))

    @given(st.fractions(min_value=Fraction(1, 1000), max_value=10 ** 6,
                        max_denominator=10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_random_bracketing(self, x):
        enc = sqrt_enclosure(x, Fraction(1, 10 ** 15))
        assert enc.lower >= 0
        assert enc.lower ** 2 <= x <= enc.upper ** 2
        assert enc.upper - enc.lower <= Fraction(1, 10 ** 15)

    @given(st.fractions(min_value=0, max_value=10 ** 6,
                        max_denominator=10 ** 6),
           st.integers(min_value=0, max_value=30))
    @settings(max_examples=200, deadline=None)
    def test_endpoints_on_decimal_grid(self, x, k):
        # lower = floor(sqrt(x) 10^k) / 10^k, with the floor taken from an
        # 80-digit decimal square root rather than an integer square root
        assume(not (math.isqrt(x.numerator) ** 2 == x.numerator
                    and math.isqrt(x.denominator) ** 2 == x.denominator))
        enc = sqrt_enclosure(x, Fraction(1, 10 ** k))
        assert enc.upper - enc.lower == Fraction(1, 10 ** k)
        ctx = decimal.Context(prec=80)
        root = ctx.sqrt(ctx.divide(decimal.Decimal(x.numerator),
                                   decimal.Decimal(x.denominator)))
        floor = int(ctx.scaleb(root, k).to_integral_value(decimal.ROUND_FLOOR))
        assert enc.lower == Fraction(floor, 10 ** k)


small_rationals = st.fractions(min_value=-100, max_value=100,
                               max_denominator=100)
radicands = st.fractions(min_value=0, max_value=100, max_denominator=100)


def sympy_sign(constant, terms):
    """Sign of constant + sum c sqrt(x): sympy's equals(0) for ties, then
    a 60-digit evaluation."""
    expr = sp.Rational(constant.numerator, constant.denominator)
    for c, x in terms:
        c, x = Fraction(c), Fraction(x)
        expr += (sp.Rational(c.numerator, c.denominator)
                 * sp.sqrt(sp.Rational(x.numerator, x.denominator)))
    if expr.equals(0):
        return 0
    value = expr.evalf(60)
    return 1 if value > 0 else -1 if value < 0 else 0


class TestSignWithSqrts:
    def test_plain_rational(self):
        assert sign_with_sqrts(Fraction(5), []) == 1
        assert sign_with_sqrts(Fraction(-5), []) == -1
        assert sign_with_sqrts(Fraction(0), []) == 0

    def test_sqrt_two_plus_sqrt_three(self):
        # sqrt 2 + sqrt 3 = 3.14626... straddles pi
        assert sign_with_sqrts(Fraction(-31459, 10000),
                               [(Fraction(1), Fraction(2)),
                                (Fraction(1), Fraction(3))]) == 1
        assert sign_with_sqrts(Fraction(-31463, 10000),
                               [(Fraction(1), Fraction(2)),
                                (Fraction(1), Fraction(3))]) == -1

    def test_exact_cancellation(self):
        # 3/2 - sqrt(9/4) = 0, decidable because the radicand is square
        assert sign_with_sqrts(Fraction(3, 2),
                               [(Fraction(-1), Fraction(9, 4))]) == 0

    def test_irrational_tie_is_zero(self):
        # sqrt(2) - sqrt(2) is an exact tie, decided by squaring
        assert sign_with_sqrts(Fraction(0),
                               [(Fraction(1), Fraction(2)),
                                (Fraction(-1), Fraction(2))]) == 0

    def test_tie_across_radicand_encodings_is_zero(self):
        # sqrt(8) - 2 sqrt(2) and sqrt(1/2) - sqrt(2)/2 with distinct
        # radicands, in both orders
        assert sign_with_sqrts(0, [(1, 8), (-2, 2)]) == 0
        assert sign_with_sqrts(0, [(-2, 2), (1, 8)]) == 0
        assert sign_with_sqrts(0, [(1, Fraction(1, 2)),
                                   (Fraction(-1, 2), 2)]) == 0

    def test_three_radicals_rejected(self):
        with pytest.raises(AlgebraError):
            sign_with_sqrts(0, [(1, 2), (1, 3), (1, 5)])

    @given(small_rationals,
           st.lists(st.tuples(small_rationals.filter(bool),
                              radicands.filter(bool)), max_size=2),
           st.integers(min_value=0, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_sympy(self, constant, terms, digits):
        # digits > 0 replaces the constant by a rational near
        # -sum c sqrt(x), so the squarings decide near-ties
        if digits:
            near = sum(float(c) * math.sqrt(x) for c, x in terms)
            constant = -Fraction(near).limit_denominator(10 ** digits)
        assert sign_with_sqrts(constant, terms) == sympy_sign(constant, terms)

    @given(small_rationals.filter(bool),
           st.fractions(min_value=Fraction(1, 100), max_value=100,
                        max_denominator=100),
           radicands.filter(bool), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_constructed_ties_are_zero(self, c, m, x, swap):
        # c sqrt(m^2 x) - c m sqrt(x) = 0
        terms = [(c, m * m * x), (-c * m, x)]
        if swap:
            terms.reverse()
        assert sympy_sign(0, terms) == 0
        assert sign_with_sqrts(0, terms) == 0
        # a rational root against the constant: c m - c sqrt(m^2) = 0
        assert sign_with_sqrts(c * m, [(-c, m * m)]) == 0

    def test_tight_but_decidable(self):
        # 665857/470832 is a continued-fraction convergent of sqrt 2;
        # the gap is ~1e-12 yet the sign is still resolved exactly
        assert sign_with_sqrts(Fraction(-665857, 470832),
                               [(Fraction(1), Fraction(2))]) == -1
