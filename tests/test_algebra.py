"""Exact polynomial arithmetic, partial fractions, Sturm positivity,
square-root enclosures and exact signs of sums of square roots."""

import decimal
import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hvcert.algebra import (
    _shifted_numerators,
    _sturm_numerators,
    AlgebraError,
    InvalidFactorization,
    NegativeRadicand,
    Polynomial,
    best_rational,
    count_roots_on_ray,
    dot,
    nonnegative_on_ray,
    partial_fractions,
    sign_with_sqrts,
    sqrt_enclosure,
)
from hvcert.certify import _pair_sign, roots_at

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 4)
# small integers too, so that a divisor's leading coefficient often
# divides the dividend's
coefficients = st.one_of(st.integers(min_value=-6, max_value=6), rationals)


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

    @given(st.lists(coefficients, max_size=9),
           st.lists(coefficients, max_size=5),
           coefficients.filter(bool))
    @example([], [3], 7)                       # zero dividend
    @example([1, 2, 3], [], Fraction(-2, 3))   # constant divisor
    @example([5, Fraction(1, 2)], [1, 0, 4], -3)   # divisor of higher degree
    @example([7, 0, -4, 9, 2], [Fraction(3, 5), 1], Fraction(-6, 7))
    @settings(max_examples=300, deadline=None)
    def test_divmod_matches_references(self, dividend, divisor, lead):
        # divisor ends in a nonzero leading coefficient of either sign,
        # monic or not; quotient and remainder are structurally equal to
        # Fraction long division and to sympy's division over QQ
        p, d = Polynomial(dividend), Polynomial(divisor + [lead])
        q, r = p.divmod(d)
        assert (q, r) == reference_divmod(p, d)
        sp_q, sp_r = (sp.Poly(to_sympy(p), N, domain=sp.QQ)
                      .div(sp.Poly(to_sympy(d), N, domain=sp.QQ)))
        assert (q, r) == (from_sympy(sp_q), from_sympy(sp_r))
        assert r.degree < d.degree

    def test_kernel_builds_no_fraction(self, monkeypatch):
        # division, dot, the Sturm chain and the shifted-coefficient ray
        # test run on integer numerators: on polynomials built beforehand,
        # and an int or a Fraction n0, none of them constructs a Fraction
        n = Polynomial.x()
        p = (Fraction(3, 7) * n ** 2 - 5) * (n - Fraction(9, 2)) * (n + 11)
        d = Fraction(-4, 3) * n ** 2 + n - Fraction(1, 5)
        positive = Fraction(2, 9) * n ** 3 - 7 * n + Fraction(1, 3)
        half = Fraction(77, 2)
        cs = p.int_coeffs()
        calls = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        built = {}
        for name, call in [
                ("divmod", lambda: p.divmod(d)),
                ("dot", lambda: dot([(p, d), (d, d), (positive, p)])),
                ("_sturm_numerators", lambda: _sturm_numerators(cs)),
                ("nonnegative_on_ray int", lambda: nonnegative_on_ray(
                    positive, 38)),
                ("nonnegative_on_ray Fraction", lambda: nonnegative_on_ray(
                    positive, half))]:
            calls.clear()
            result = call()
            built[name] = len(calls)
            if name.startswith("nonnegative_on_ray"):
                assert result[1].method == "shifted-coefficients"
        monkeypatch.undo()
        assert built == dict.fromkeys(built, 0)
        # p has four distinct real roots, so every remainder step ran
        assert len(_sturm_numerators(cs)) == 5

    def test_evaluation_and_derivative(self):
        p = poly(1, -3, 2)   # 2n^2 - 3n + 1
        assert p(Fraction(1, 2)) == 0
        assert p.derivative() == poly(-3, 4)

    def test_shift(self):
        # n^2 -> (n+3)^2, and n^2 -> (n+1/2)^2 = (4n^2 + 4n + 1)/4
        assert _shifted_numerators([0, 0, 1], 3) == ([9, 6, 1], 1)
        assert _shifted_numerators([0, 0, 1], Fraction(1, 2)) == (
            [1, 4, 4], 4)

    @given(st.lists(rationals, max_size=9), rationals)
    @settings(max_examples=150, deadline=None)
    def test_shift_matches_sympy(self, cs, a):
        # degree <= 8 and a Fraction shift: p(n + a) is the numerators
        # over scale times the denominator of p
        p = Polynomial(cs)
        shifted, scale = _shifted_numerators(p.int_coeffs(), a)
        assert scale > 0
        got = sum((sp.Integer(c) * N ** i for i, c in enumerate(shifted)),
                  sp.Integer(0)) / (scale * p.denominator)
        a_sym = sp.Rational(a.numerator, a.denominator)
        expected = sp.expand(to_sympy(p).subs(N, N + a_sym))
        assert sp.expand(got - expected) == 0

    def test_unhashable(self):
        # Polynomial([3]) == 3, so a hash unequal to hash(3) would break
        # set and dict lookups, so the class has no hash
        with pytest.raises(TypeError):
            hash(Polynomial([3]))

    @given(st.lists(rationals, max_size=6), st.lists(rationals, max_size=6),
           rationals)
    @settings(max_examples=200, deadline=None)
    def test_product_evaluation_homomorphism(self, a, b, x):
        p, q = Polynomial(a), Polynomial(b)
        assert (p * q)(x) == p(x) * q(x)

    def test_floats_refused(self):
        # no float reaches the exact type, as a coefficient or an operand
        x = Polynomial.x()
        for make in (lambda: Polynomial([0.5]), lambda: x * 0.5,
                     lambda: 0.5 * x, lambda: x + 0.5, lambda: 0.5 - x,
                     lambda: nonnegative_on_ray(x, 0.5), lambda: x(0.5)):
            with pytest.raises(TypeError):
                make()

    def test_degree_guard_covers_the_constructor(self):
        # x^65535 is the largest power a key holds; a longer coefficient
        # list raises instead of carrying into the exponent of y
        top = Polynomial([0] * 65535 + [1])
        assert top == Polynomial.x() ** 65535 and top.degree == 65535
        with pytest.raises(OverflowError):
            Polynomial([0] * 65536 + [1])

    def test_str_matches_table_style(self):
        p = Polynomial([Fraction(1076, 3), Fraction(29, 6), Fraction(2, 3)])
        assert str(p) == "2/3*n^2 + 29/6*n + 1076/3"


N = sp.Symbol("n")


def linear(root):
    """The monic linear polynomial n - root."""
    return Polynomial([-Fraction(root), 1])


def to_sympy(p):
    return sum((sp.Rational(c.numerator, c.denominator) * N ** i
                for i, c in enumerate(p.coeffs)), sp.Integer(0))


def from_sympy(poly):
    """The Polynomial of a sympy Poly in N over QQ."""
    return Polynomial([Fraction(int(c.p), int(c.q))
                       for c in reversed(poly.all_coeffs())])


def reference_divmod(p, d):
    """Long division on the Fraction coefficients, the way
    Polynomial.divmod divided before it moved to integer
    pseudo-division."""
    rem, b = list(p.coeffs), d.coeffs
    deg = len(b) - 1
    q = [Fraction(0)] * max(0, len(rem) - deg)
    for i in range(len(rem) - 1, deg - 1, -1):
        if rem[i] == 0:
            continue
        f = rem[i] / b[-1]
        q[i - deg] = f
        for j, c in enumerate(b):
            rem[i - deg + j] -= f * c
    return Polynomial(q), Polynomial(rem)


def assert_matches_sympy(num, den, expansion):
    # the polynomial part is sympy's quotient, and each residue is
    # (n - r) num/den at n = r after sympy cancels the common factor
    poly_part, poles = expansion
    f = to_sympy(num) / to_sympy(den)
    assert sp.expand(to_sympy(poly_part) - sp.div(to_sympy(num),
                                                  to_sympy(den), N)[0]) == 0
    for r, residue in poles:
        r_sym = sp.Rational(r.numerator, r.denominator)
        expected = sp.cancel(f * (N - r_sym)).subs(N, r_sym)
        assert expected == sp.Rational(residue.numerator,
                                       residue.denominator), r


class TestPartialFractions:
    def test_three_pole_reconstruction(self):
        den = linear(2) * linear(-2) * linear(-1)
        num = poly(2, 0, 0, 1)
        exp = partial_fractions(num, den, [2, -2, -1])
        assert_matches_sympy(num, den, exp)

    def test_rejects_wrong_factors(self):
        with pytest.raises(InvalidFactorization):
            partial_fractions(poly(1), poly(-1, 0, 1), [1, 2])

    def test_rejects_repeated_factors(self):
        with pytest.raises(InvalidFactorization):
            partial_fractions(poly(1), poly(1, 2, 1), [-1, -1])

    def test_rejects_missing_roots(self):
        # n^2 + 1 has no rational root to name, and n^2 - 1 has two
        with pytest.raises(InvalidFactorization):
            partial_fractions(poly(1), poly(1, 0, 1), [])
        with pytest.raises(InvalidFactorization):
            partial_fractions(poly(1), poly(-1, 0, 1), [1])

    @pytest.mark.parametrize("num, den, roots", [
        (poly(0, 0, 0, 0, 1), poly(0, 1), [0]),            # n^4 / n
        (poly(1, 0, 0, 0, 0, 1), poly(-1, 0, 1), [1, -1]),  # (n^5+1)/(n^2-1)
    ])
    def test_degree_excess_three_roundtrip(self, num, den, roots):
        # the polynomial part takes any degree: it times den plus each
        # residue times den/(n - r) gives num back
        poly_part, poles = partial_fractions(num, den, roots)
        assert poly_part.degree == 3
        assert poly_part * den + sum(
            (residue * (den // linear(r)) for r, residue in poles),
            Polynomial()) == num
        assert_matches_sympy(num, den, (poly_part, poles))

    def test_non_monic_denominator(self):
        # 1/(2n) has residue 1/2 at n = 0; scaling num and den together
        # leaves the expansion unchanged
        assert partial_fractions(poly(1), poly(0, 2), [0]) == (
            poly(), ((0, Fraction(1, 2)),))
        num, den = poly(2, 0, 0, 1), linear(2) * linear(-1)
        assert (partial_fractions(num * -3, den * -3, [2, -1])
                == partial_fractions(num, den, [2, -1]))

    def test_residue_lookup(self):
        _, poles = partial_fractions(poly(1), poly(0, 1) * poly(-1, 1),
                                     [0, 1])
        assert dict(poles)[0] == -1
        assert dict(poles)[1] == 1

    @given(st.lists(rationals, min_size=1, max_size=8),
           st.lists(st.integers(min_value=-20, max_value=20),
                    min_size=1, max_size=4, unique=True),
           rationals.filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_random(self, num_cs, roots, scale):
        # every draw, a numerator sharing a root with den and one of any
        # degree excess included: a shared root's pole gets residue 0; den
        # carries a nonzero leading coefficient
        num = Polynomial(num_cs)
        den = Polynomial([scale])
        for r in roots:
            den = den * linear(r)
        assert_matches_sympy(num, den, partial_fractions(num, den, roots))


class TestRayPositivity:
    def test_sturm_root_count(self):
        p = poly(0, -1, 0, 1)        # n(n-1)(n+1)
        assert count_roots_on_ray(p, Fraction(-2)) == 3
        assert count_roots_on_ray(p, Fraction(1, 2)) == 1
        assert count_roots_on_ray(p, Fraction(2)) == 0

    def test_root_count_not_square_free(self):
        # (n-1)^3 (n-3)^2 (n^2+1): repeated roots and a complex pair; the
        # count is of distinct roots, an endpoint root included
        n = Polynomial.x()
        p = (n - 1) ** 3 * (n - 3) ** 2 * (n * n + 1)
        for n0, expected in [(0, 2), (1, 2), (2, 1), (Fraction(5, 2), 1),
                             (3, 1), (4, 0)]:
            assert count_roots_on_ray(p, n0) == expected, n0

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("n0", [0, 7, Fraction(-5, 3)])
    def test_root_count_of_a_power(self, k, n0):
        # (n - n0)^k: its only root is the endpoint, however repeated
        p = linear(n0) ** k
        assert count_roots_on_ray(p, n0) == 1
        assert count_roots_on_ray(p, n0 - 1) == 1
        assert count_roots_on_ray(p, n0 + Fraction(1, 2)) == 0
        ok, wit = nonnegative_on_ray(p, n0)
        assert not ok and wit.sample_value == 0

    def test_sturm_chain_ends_with_constant(self):
        chain = _sturm_numerators([-2, 0, 1])
        assert len(chain[-1]) == 1

    @given(st.lists(st.integers(min_value=-20, max_value=20), max_size=9),
           st.lists(st.integers(min_value=-6, max_value=6), max_size=8),
           st.one_of(st.fractions(min_value=-10, max_value=10,
                                  max_denominator=20),
                     st.integers(min_value=-6, max_value=6)),
           st.fractions(min_value=-10, max_value=10,
                        max_denominator=12).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_root_count_matches_sympy(self, cs, roots, n0, scale):
        # degree <= 8, integer coefficients times a rational scale; the
        # integer roots, some of them repeated, put roots at and near an
        # integer n0.  Both sides count distinct roots on [n0, oo).
        p = Polynomial(cs)
        for r in roots:
            if p.degree >= 8:
                break
            p = p * linear(r)
        p = p * scale
        assume(not p.is_zero())
        # every chain member is primitive: coprime integer coefficients
        for member in _sturm_numerators(p.int_coeffs()):
            assert math.gcd(*member) == 1
        n0 = Fraction(n0)
        expected = sp.Poly(to_sympy(p), N).count_roots(
            sp.Rational(n0.numerator, n0.denominator), None)
        assert count_roots_on_ray(p, n0) == expected
        # p(n0 + t) with a negative coefficient or a zero constant term
        # falls to Sturm; the witness holds this root count, n0 and p(n0),
        # and the verdict follows from them
        ok, wit = nonnegative_on_ray(p, n0)
        if wit.method == "sturm":
            assert (wit.root_count, wit.sample_point) == (expected, n0)
            assert wit.sample_value == p(n0)
            assert ok == wit.positive == (expected == 0 and p(n0) > 0)

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


def is_square(x):
    """x = p/q, in lowest terms, is the square of a rational."""
    return (math.isqrt(x.numerator) ** 2 == x.numerator
            and math.isqrt(x.denominator) ** 2 == x.denominator)


class TestSqrtEnclosure:
    def test_perfect_square(self):
        # a square collapses to lo == hi over isqrt(q), whatever the grid
        assert sqrt_enclosure(9, 4, 10 ** 20) == (3, 3, 2)

    def test_bracketing(self):
        lo, hi, den = sqrt_enclosure(2, 1, 10 ** 30)
        assert Fraction(lo, den) ** 2 < 2 < Fraction(hi, den) ** 2
        assert (hi - lo, den) == (1, 10 ** 30)

    def test_negative_radicand(self):
        with pytest.raises(NegativeRadicand):
            sqrt_enclosure(-1, 1, 100)

    @given(st.one_of(
               st.fractions(min_value=0, max_value=10 ** 6,
                            max_denominator=10 ** 6),
               st.fractions(min_value=0, max_value=10 ** 3,
                            max_denominator=10 ** 3).map(lambda r: r * r)),
           st.integers(min_value=1, max_value=10 ** 40))
    @settings(max_examples=300, deadline=None)
    def test_random_bracketing(self, x, grid):
        # squares give lo == hi over isqrt(q); any other radicand is
        # strictly inside one step 1/grid
        lo, hi, den = sqrt_enclosure(x.numerator, x.denominator, grid)
        assert 0 <= lo <= hi
        if is_square(x):
            assert lo == hi and den == math.isqrt(x.denominator)
            assert Fraction(lo, den) ** 2 == x
        else:
            assert (hi - lo, den) == (1, grid)
            assert Fraction(lo, den) ** 2 < x < Fraction(hi, den) ** 2

    @given(st.fractions(min_value=0, max_value=10 ** 6,
                        max_denominator=10 ** 6),
           st.integers(min_value=0, max_value=30))
    @settings(max_examples=200, deadline=None)
    def test_endpoints_on_decimal_grid(self, x, k):
        # lo = floor(sqrt(x) 10^k) on den = 10^k, with the floor taken
        # from an 80-digit decimal square root rather than an integer
        # square root
        assume(not is_square(x))
        lo, hi, den = sqrt_enclosure(x.numerator, x.denominator, 10 ** k)
        assert (hi - lo, den) == (1, 10 ** k)
        ctx = decimal.Context(prec=80)
        root = ctx.sqrt(ctx.divide(decimal.Decimal(x.numerator),
                                   decimal.Decimal(x.denominator)))
        floor = int(ctx.scaleb(root, k).to_integral_value(decimal.ROUND_FLOOR))
        assert lo == floor


def limited(num, den, bound):
    f = Fraction(num, den).limit_denominator(bound)
    return f.numerator, f.denominator


sizes = st.one_of(st.integers(1, 40), st.integers(1, 2 ** 64),
                  st.integers(1, 2 ** 140))


class TestBestRational:
    def test_small_grid(self):
        # every num, den and bound of a small box: zero and negative
        # numerators, unreduced input, den <= bound, and bound 1
        for num in range(-40, 41):
            for den in range(1, 17):
                for bound in range(1, 19):
                    assert best_rational(num, den, bound) == limited(
                        num, den, bound), (num, den, bound)

    @given(st.integers(-2 ** 140, 2 ** 140), sizes, sizes,
           st.sampled_from([1, 1, 2, 6, 2 ** 40 + 1]))
    @example(3, 2, 1, 1)        # 3/2 ties between 1 and 2: the floor
    @example(-3, 2, 1, 3)       # -9/6 ties between -2 and -1
    @example(0, 7, 1, 5)
    @example(-2, 3, 3, 6)       # den <= bound once reduced
    @example(2 ** 140 - 1, 2 ** 139 + 1, 10 ** 40, 1)
    @settings(max_examples=400, deadline=None)
    def test_matches_limit_denominator(self, num, den, bound, common):
        # ~140-bit numerators and denominators, as the report midpoints
        # are, with a common factor or without
        assert best_rational(num * common, den * common, bound) == limited(
            num, den, bound)


small_rationals = st.fractions(min_value=-100, max_value=100,
                               max_denominator=100)
radicands = st.fractions(min_value=0, max_value=100, max_denominator=100)


def reference_sign(v):
    return (v > 0) - (v < 0)


def reference_sign_with_sqrt(b, c, x):
    """Exact sign of b + c*sqrt(x) for x > 0: when b and c*sqrt(x) have
    opposite signs, the larger of b^2 and c^2 x wins."""
    sb, sc = reference_sign(b), reference_sign(c)
    if sb == 0 or sb == sc:
        return sc
    if sc == 0:
        return sb
    return sb * reference_sign(b * b - c * c * x)


def reference_sign_with_sqrts(constant, sqrt_terms):
    """The Fraction sign_with_sqrts that hvcert.algebra had before its
    integer kernel, kept as the reference: the same code, with the
    module's _as_fraction spelled Fraction, _sign reference_sign and
    _sign_with_sqrt reference_sign_with_sqrt."""
    if len(sqrt_terms) > 2:
        raise AlgebraError("at most two radicals are supported")
    constant = Fraction(constant)
    terms = [(Fraction(c), Fraction(x)) for c, x in sqrt_terms]
    if any(x < 0 for _, x in terms):
        raise NegativeRadicand("negative radicand")
    terms = [(c, x) for c, x in terms if c != 0 and x != 0]
    if not terms:
        return reference_sign(constant)
    (c1, x1), *rest = terms
    first = reference_sign_with_sqrt(constant, c1, x1)
    if not rest:
        return first
    c2, x2 = rest[0]
    second = reference_sign(c2)
    if first == 0 or first == second:
        return second
    # opposite signs: compare (A + c_1 sqrt(x_1))^2 with c_2^2 x_2
    return first * reference_sign_with_sqrt(constant * constant + c1 * c1 * x1
                                            - c2 * c2 * x2, 2 * constant * c1,
                                            x1)


def reference_pair_sign(pairs, i, j, n):
    """certify._pair_sign as it was: Delta_i and Delta_j as Fractions."""
    pi, pj = pairs[i], pairs[j]
    return reference_sign_with_sqrts((n - 2) * (pj.d - pi.d), [
        (pj.d, Fraction(pi.delta_num, pi.delta_den)),
        (pi.d, Fraction(pj.delta_num, pj.delta_den))])


# ints and Fractions, zero among them; radicands zero, integer, rational
# and rational squares
mixed = st.one_of(st.integers(-60, 60), small_rationals)
mixed_radicands = st.one_of(st.integers(0, 60), radicands,
                            small_rationals.map(lambda v: v * v))


@st.composite
def sqrt_sums(draw):
    """(kind, constant, terms) with at most two radicals: a free constant,
    a rational near -sum c sqrt(x), so that the squarings decide near
    ties, or an exact tie, with radicals that cancel each other or square
    radicands that cancel the constant."""
    kind = draw(st.sampled_from(("free", "near", "tie")))
    if kind != "tie":
        terms = draw(st.lists(st.tuples(mixed, mixed_radicands), max_size=2))
        if kind == "free":
            return kind, draw(mixed), terms
        near = sum(float(c) * math.sqrt(x) for c, x in terms)
        digits = draw(st.integers(min_value=0, max_value=9))
        return kind, -Fraction(near).limit_denominator(10 ** digits), terms
    c, c2, x = draw(mixed), draw(mixed), draw(mixed_radicands)
    positive = small_rationals.filter(lambda v: v > 0)
    m, m2 = draw(positive), draw(positive)
    shape = draw(st.sampled_from(("radicals", "square", "squares")))
    if shape == "radicals":       # c sqrt(m^2 x) - c m sqrt(x)
        constant, terms = 0, [(c, m * m * x), (-c * m, x)]
    elif shape == "square":       # c m - c sqrt(m^2)
        constant, terms = c * m, [(-c, m * m)]
    else:     # -(c m + c2 m2) + c sqrt(m^2) + c2 sqrt(m2^2)
        constant, terms = -(c * m + c2 * m2), [(c, m * m), (c2, m2 * m2)]
    if draw(st.booleans()):
        terms.reverse()
    return kind, constant, terms


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

    def test_negative_radicand_rejected(self):
        for terms in ([(1, -2)], [(0, Fraction(-1, 3))], [(1, 2), (1, -1)]):
            with pytest.raises(NegativeRadicand):
                sign_with_sqrts(1, terms)
            with pytest.raises(NegativeRadicand):
                reference_sign_with_sqrts(1, terms)

    @given(sqrt_sums())
    @example(("free", Fraction(-7, 3), []))
    @example(("free", -4, [(0, 5), (3, 0)]))               # zero terms only
    @example(("free", 2, [(Fraction(-1, 2), 16), (0, 3)]))  # 2 - sqrt(16)/2
    @example(("tie", 0, [(1, 8), (-2, 2)]))
    @example(("tie", Fraction(-5, 6),
              [(1, Fraction(1, 4)), (1, Fraction(1, 9))]))
    @settings(max_examples=300, deadline=None)
    def test_integer_kernel_matches_fraction_reference(self, case):
        # the integer kernel and the Fraction code it replaced agree on
        # ints and Fractions, zero coefficients and radicands, square
        # radicands, negative constants, near ties and exact ties
        kind, constant, terms = case
        expected = reference_sign_with_sqrts(constant, terms)
        assert sign_with_sqrts(constant, terms) == expected
        if kind == "tie":
            assert expected == 0

    def test_pair_sign_matches_reference_at_threshold(self):
        # every ordered pair of the omega = 16 cells around the threshold
        # n = 1859, where one pair (y_1 against x_7) changes sign
        signs = []
        for n in range(1853, 1865):
            pairs = roots_at(16, n)
            for i in range(len(pairs)):
                for j in range(len(pairs)):
                    if i != j:
                        sign = _pair_sign(pairs, i, j, n)
                        assert sign == reference_pair_sign(pairs, i, j, n)
                        signs.append(sign)
        assert signs.count(-1) == 6 and signs.count(0) == 0

    @given(st.integers(min_value=2, max_value=40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pair_sign_matches_reference(self, omega, data):
        n = data.draw(st.integers(min_value=2 * omega + 6, max_value=5000))
        pairs = roots_at(omega, n)
        for i in range(len(pairs)):
            for j in range(len(pairs)):
                if i != j:
                    assert _pair_sign(pairs, i, j, n) == reference_pair_sign(
                        pairs, i, j, n), (omega, n, i, j)
