"""Exact rational algebra in one indeterminate.

Everything downstream (coefficient families, interval certificates, the
all-dimension positivity proofs) is built on the one polynomial type here:
dense polynomials over ``fractions.Fraction``.  A rational function is a
pair (num, den) of them.  Also here: partial-fraction decompositions of
such a pair whose den has distinct rational roots, integer square-root
enclosures, exact signs of sums of square roots, and root counts and
strict positivity on a ray ``[n0, +oo)``, both read off the Taylor shift
p(n0 + t) with at most one Sturm chain.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int]


class AlgebraError(ValueError):
    """Base class for structured algebra errors."""


class InvalidFactorization(AlgebraError):
    """The supplied roots are not the distinct roots of the denominator."""


class NegativeRadicand(AlgebraError):
    """sqrt_enclosure or sign_with_sqrts given a negative radicand."""


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Polynomial:
    """Dense univariate polynomial with Fraction coefficients.

    Coefficients are stored in ascending order (index = degree).  The zero
    polynomial is represented by an empty coefficient tuple and reports
    degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial([0, 1])

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise AlgebraError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return -(self - other)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise AlgebraError("negative polynomial power")
        result = Polynomial([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @staticmethod
    def _coerce(other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial([other])
        return NotImplemented

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise AlgebraError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] / lead
            q[i - d] = f
            for j, c in enumerate(other.coeffs):
                rem[i - d + j] -= f * c
        return Polynomial(q), Polynomial(rem)

    def __divmod__(self, other):
        return self.divmod(self._coerce(other))

    def __floordiv__(self, other):
        return self.divmod(self._coerce(other))[0]

    def __mod__(self, other):
        return self.divmod(self._coerce(other))[1]

    def scale(self, c: RationalLike) -> "Polynomial":
        c = _as_fraction(c)
        return Polynomial([a * c for a in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, a: RationalLike) -> "Polynomial":
        """Return p(x + a), by a Taylor shift: synthetic division by x - a,
        repeated on each quotient, leaves the coefficients of p(x + a) in
        place, lowest first."""
        a = _as_fraction(a)
        cs = list(self.coeffs)
        for i in range(len(cs) - 1):
            for j in range(len(cs) - 2, i - 1, -1):
                cs[j] += a * cs[j + 1]
        return Polynomial(cs)

    def primitive(self) -> "Polynomial":
        """Divide out the rational content; sign of the leading coefficient
        is preserved.  Used to tame coefficient growth in Sturm chains."""
        if self.is_zero():
            return self
        num_gcd = 0
        den_lcm = 1
        for c in self.coeffs:
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        factor = Fraction(den_lcm, num_gcd)
        return self.scale(factor)

    # -- evaluation ----------------------------------------------------

    def __call__(self, x):
        result = 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    # -- formatting ----------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                var = "n" if i == 1 else f"n^{i}"
                term = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


SimplePoles = tuple[tuple[Fraction, Fraction], ...]


def partial_fractions(num: Polynomial, den: Polynomial,
                      roots: Sequence[RationalLike]
                      ) -> tuple[Polynomial, SimplePoles]:
    """Decompose num/den into its polynomial part plus simple fractions,
    given den.degree distinct roots of den.

    Returns (num // den, simple_poles), where simple_poles holds pairs
    (root, residue) meaning residue/(n - root), in the order of roots.
    Those roots are then every root of den, each simple, so the residue at
    r is num(r)/den'(r), zero where num shares the root; den need not be
    monic, and num may exceed den in degree by any amount.
    """
    roots = [_as_fraction(r) for r in roots]
    if (len(roots) != den.degree or len(set(roots)) != len(roots)
            or any(den(r) for r in roots)):
        raise InvalidFactorization(
            f"the roots are not {den.degree} distinct roots of {den}")
    slope = den.derivative()
    return num // den, tuple((r, num(r) / slope(r)) for r in roots)


# ---------------------------------------------------------------------------
# Square-root enclosures
# ---------------------------------------------------------------------------

def sqrt_enclosure(p: int, q: int, grid: int) -> tuple[int, int, int]:
    """Integer bounds lo/den <= sqrt(p/q) <= hi/den for p/q >= 0 in lowest
    terms, q > 0 and grid >= 1.  A rational square gives lo = hi =
    isqrt(p) over den = isqrt(q).  Otherwise den = grid, lo = s and
    hi = s + 1 with s = isqrt(floor(p grid^2 / q)), so hi - lo = 1."""
    if p < 0:
        raise NegativeRadicand(f"negative radicand {p}/{q}")
    pn, pd = math.isqrt(p), math.isqrt(q)
    if pn * pn == p and pd * pd == q:
        return pn, pn, pd
    s = math.isqrt(p * grid * grid // q)
    return s, s + 1, grid


# ---------------------------------------------------------------------------
# Best rational approximation
# ---------------------------------------------------------------------------

def best_rational(num: int, den: int, bound: int) -> tuple[int, int]:
    """The coprime (p, q) of Fraction(num, den).limit_denominator(bound),
    for den >= 1 and bound >= 1, in integers.

    limit_denominator walks the convergents of num/den up from 0; this
    walks them down from num/den, which is short when bound is a few
    digits below den.  The convergent before num/den has denominator
    min(v, den - v), v = num^-1 mod den, since the expansion ends in a
    partial quotient >= 2; Euclid steps on the denominators then reach
    the last convergent p1/q1 with q1 <= bound and the one before it,
    p0/q0.  The answer is the closer of p1/q1 and the semiconvergent
    (p0 + k p1)/(q0 + k q1), k = (bound - q0) // q1, ties going to p1/q1,
    as in limit_denominator."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if den <= bound:
        return num, den
    v = pow(num, -1, den)
    q1 = min(v, den - v)
    p1, r = divmod(num * q1, den)
    if r != 1:
        p1 += 1  # num q1 = p1 den - 1; at den = 2 both hold, keep the floor
    p_hi, q_hi = num, den
    while True:
        a = q_hi // q1
        p0, q0 = p_hi - a * p1, q_hi - a * q1
        if q1 <= bound:
            break
        p_hi, q_hi, p1, q1 = p1, q1, p0, q0
    k = (bound - q0) // q1
    p, q = p0 + k * p1, q0 + k * q1
    if abs(num * q1 - den * p1) * q <= abs(num * q - den * p) * q1:
        return p1, q1
    return p, q


# ---------------------------------------------------------------------------
# Positivity on a ray
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RayPositivityWitness:
    """Evidence backing a nonnegative_on_ray verdict.

    method is "shifted-coefficients" when the fast sufficient test fired
    (all coefficients of p(n0 + t) nonnegative, constant term positive),
    or "sturm" with the root count of p on [n0, oo) and p(n0).
    """

    method: str
    positive: bool
    root_count: int | None = None
    sample_point: Fraction | None = None
    sample_value: Fraction | None = None


def sturm_chain(p: Polynomial) -> list[Polynomial]:
    """Sturm sequence of p, with primitive scaling of every remainder.

    Scaling each remainder by a positive rational preserves the sign
    pattern, so root counts are unaffected while coefficients stay small.
    """
    chain = [p.primitive()]
    d = p.derivative()
    if not d.is_zero():
        chain.append(d.primitive())
        while True:
            r = -(chain[-2] % chain[-1])
            if r.is_zero():
                break
            chain.append(r.primitive())
    return chain


def _sign_variations(values: Iterable[int]) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _count_roots_from_zero(q: Polynomial) -> int:
    """Number of distinct real roots of a nonzero q in [0, +oo).

    A root at 0 is a run of zero low coefficients; once it is stripped,
    every Sturm chain member is a multiple of gcd(q, q'), which is nonzero
    at 0, so the chain counts the distinct roots in (0, +oo) of a q that
    need not be square-free.  A member's value at 0 is its constant term.
    """
    low = next(i for i, c in enumerate(q.coeffs) if c)
    chain = sturm_chain(Polynomial(q.coeffs[low:]))
    at_zero = _sign_variations(_sign(r.coeffs[0]) for r in chain)
    at_inf = _sign_variations(_sign(r.leading) for r in chain)
    return at_zero - at_inf + (low > 0)


def count_roots_on_ray(p: Polynomial, n0: RationalLike) -> int:
    """Number of distinct real roots of p in [n0, +oo), counted as the
    roots of p(n0 + t) in t >= 0 with one Sturm chain."""
    n0 = _as_fraction(n0)
    if p.is_zero():
        raise AlgebraError("root count of the zero polynomial")
    return _count_roots_from_zero(p.shift(n0))


def nonnegative_on_ray(p: Polynomial,
                       n0: RationalLike) -> tuple[bool, RayPositivityWitness]:
    """Decide whether p(n) > 0 for every real n >= n0 (strict positivity;
    the permissive name matches the negated-inequality call sites).

    Both tests read q(t) = p(n0 + t), shifted once.  q(0) > 0 with no
    negative coefficient is a fast sufficient certificate; the complete
    fallback counts the roots of q in t >= 0 with one Sturm chain.
    """
    n0 = _as_fraction(n0)
    if p.is_zero():
        raise AlgebraError("positivity query on the zero polynomial")
    shifted = p.shift(n0)
    value_at_n0 = shifted.coeffs[0]
    if value_at_n0 > 0 and all(c >= 0 for c in shifted.coeffs):
        return True, RayPositivityWitness(method="shifted-coefficients",
                                          positive=True)
    roots = _count_roots_from_zero(shifted)
    ok = roots == 0 and value_at_n0 > 0
    return ok, RayPositivityWitness(method="sturm", positive=ok,
                                    root_count=roots,
                                    sample_point=n0,
                                    sample_value=value_at_n0)


# ---------------------------------------------------------------------------
# Sign decision for A + c_1 sqrt(x_1) + c_2 sqrt(x_2)
# ---------------------------------------------------------------------------

def _sign(v: Fraction) -> int:
    return (v > 0) - (v < 0)


def _sign_with_sqrt(b: Fraction, c: Fraction, x: Fraction) -> int:
    """Exact sign of b + c*sqrt(x) for x > 0: when b and c*sqrt(x) have
    opposite signs, the larger of b^2 and c^2 x wins."""
    sb, sc = _sign(b), _sign(c)
    if sb == 0 or sb == sc:
        return sc
    if sc == 0:
        return sb
    return sb * _sign(b * b - c * c * x)


def sign_with_sqrts(constant: RationalLike,
                    sqrt_terms: Sequence[tuple[RationalLike, RationalLike]]) -> int:
    """Exact sign of A + c_1*sqrt(x_1) + c_2*sqrt(x_2), A, c_i, x_i rational.

    At most two radicals, of any sign.  The sign is decided by squaring (at
    most twice), with no enclosure, so a genuine tie returns 0.
    """
    if len(sqrt_terms) > 2:
        raise AlgebraError("at most two radicals are supported")
    constant = _as_fraction(constant)
    terms = [(_as_fraction(c), _as_fraction(x)) for c, x in sqrt_terms]
    if any(x < 0 for _, x in terms):
        raise NegativeRadicand("negative radicand")
    terms = [(c, x) for c, x in terms if c != 0 and x != 0]
    if not terms:
        return _sign(constant)
    (c1, x1), *rest = terms
    first = _sign_with_sqrt(constant, c1, x1)
    if not rest:
        return first
    c2, x2 = rest[0]
    second = _sign(c2)
    if first == 0 or first == second:
        return second
    # opposite signs: compare (A + c_1 sqrt(x_1))^2 with c_2^2 x_2
    return first * _sign_with_sqrt(constant * constant + c1 * c1 * x1
                                   - c2 * c2 * x2, 2 * constant * c1, x1)
