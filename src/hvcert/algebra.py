"""Exact rational algebra.

Everything downstream (coefficient families, interval certificates, the
all-dimension positivity proofs, the S^2 oracle) is built on the one
polynomial type here: polynomials in x, y and z with rational
coefficients, held as integer numerators over one denominator.  Outside
the sphere oracle they are polynomials in x alone, which is n.  A
rational function is a pair (num, den) of them.  Also here:
partial-fraction decompositions of such a pair whose den has distinct
rational roots, integer square-root enclosures, exact signs of sums of
square roots decided in integers, and strict positivity on a ray
``[n0, +oo)``, read off the integer numerators of the Taylor shift
p(n0 + t) and, when their signs do not settle it, a root count on that
ray with one Sturm chain of primitive pseudo-remainders, which is
internal to the positivity test.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

RationalLike = Union[Fraction, int]


class AlgebraError(ValueError):
    """Base class for structured algebra errors."""


class InvalidFactorization(AlgebraError):
    """The supplied roots are not the distinct roots of the denominator."""


class NegativeRadicand(AlgebraError):
    """sqrt_enclosure or sign_with_sqrts given a negative radicand."""


def _ratio(x: RationalLike) -> tuple[int, int]:
    """The numerator and positive denominator of an int or a Fraction,
    without building a Fraction."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _as_fraction(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(*_ratio(x))


# the monomial x^a y^b z^c is the key packing a + b + c, a, b and c in
# _BITS bits each, degree highest: adding keys multiplies monomials while
# no degree exceeds _MASK, and the largest key has the largest degree
_BITS = 16
_MASK = (1 << _BITS) - 1
_DEGREE = 3 * _BITS
# the bits of a key that hold the exponents of y and z
_YZ = (1 << 2 * _BITS) - 1


def _key(a: int, b: int, c: int) -> int:
    return ((a + b + c) << _DEGREE) | (a << 2 * _BITS) | (b << _BITS) | c


# the keys of x, y and z
_UNITS = (_key(1, 0, 0), _key(0, 1, 0), _key(0, 0, 1))


def _exponents(key: int) -> tuple[int, int, int]:
    return (key >> 2 * _BITS) & _MASK, (key >> _BITS) & _MASK, key & _MASK


def _degree(num: dict) -> int:
    return max(num, default=0) >> _DEGREE


def _reduced(num: dict, den: int) -> Polynomial:
    """The sum of num[k] times the monomial of key k, over den, with zero
    terms dropped and the common factor of the numerators and den divided
    out.  It takes over num, which every caller builds for it: num is
    copied only to drop a term that cancelled to 0, and is then held as
    the result's _num, which no operation mutates.  Over den = 1 there
    is no common factor to look for."""
    if 0 in num.values():
        num = {k: c for k, c in num.items() if c}
    g = 1 if den == 1 else math.gcd(den, *num.values())
    if g != 1:
        num = {k: c // g for k, c in num.items()}
        den //= g
    p = object.__new__(Polynomial)
    p._num, p._den = num, den
    return p


def _pseudo_divmod(a: list[int], b: list[int]
                   ) -> tuple[int, list[int], list[int]]:
    """(s, q, r) with s a = q b + r in integers, s > 0 and r of lower
    degree than b, for coefficient lists lowest first and b ending in a
    nonzero lc.  Each top coefficient t of the running remainder is
    divided by lc exactly when lc divides it; otherwise the remainder and
    the quotient so far are first multiplied by |lc|, which makes the
    next quotient coefficient +-t, so s is a product of |lc|'s and every
    sign is kept.  r has deg b entries, trailing zeros included."""
    lc, d = b[-1], len(b) - 1
    r, q, s = list(a), [0] * max(0, len(a) - d), 1
    for i in range(len(a) - 1, d - 1, -1):
        t = r[i]
        if not t:
            continue
        f, m = divmod(t, lc)
        if m:
            g = abs(lc)
            s *= g
            r[:i] = [c * g for c in r[:i]]
            q = [c * g for c in q]
            f = t if lc > 0 else -t
        q[i - d] = f
        for j in range(d):
            r[i - d + j] -= f * b[j]
    return s, q, r[:d]


def _shifted_numerators(cs: list[int], a: RationalLike
                        ) -> tuple[list[int], int]:
    """(integer numerators, positive scale) of p(x + a) for the
    polynomial p with integer numerators cs, lowest first: p(x + a) is
    the returned numerators over scale times the denominator of p.
    With a = r/s and p of degree d, g(y) = s^d p(y/s) has integer
    coefficients, and synthetic division by y - r, repeated on each
    quotient, leaves those of h(y) = g(y + r) in place, lowest first;
    p(x + a) = h(s x) / s^d, so scale is s^d."""
    r, s = _ratio(a)
    d = len(cs) - 1
    cs = [c * s ** (d - i) for i, c in enumerate(cs)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            cs[j] += r * cs[j + 1]
    return [c * s ** i for i, c in enumerate(cs)], s ** max(d, 0)


def _multiply_into(num: dict, a: dict, b: dict, s: int) -> None:
    """Add s times the product of the numerator dicts a and b into num,
    the one multiply-accumulate loop of * and dot."""
    get = num.get
    for ka, ca in a.items():
        ca *= s
        for kb, cb in b.items():
            k = ka + kb
            num[k] = get(k, 0) + ca * cb


class Polynomial:
    """Polynomial in x, y, z with rational coefficients: integer
    numerators keyed by packed exponents over one positive denominator,
    with no factor common to it and every numerator, so == is
    structural.  Values are immutable.  int and Fraction operands are
    constants; a float is refused.

    Polynomial(coeffs) is sum(coeffs[i] x^i).  The one-variable
    operations (coeffs, degree, leading, divmod, evaluation and str)
    read a polynomial in x alone, which is n downstream, and raise
    AlgebraError on a y or z term.  The zero polynomial has degree -1.
    Arithmetic, division and evaluation run on the integer numerators, as
    do the Taylor shift and Sturm chains below; only the coeffs, leading
    and terms views, and a value, are Fractions.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        if len(cs) > _MASK + 1:
            raise OverflowError(f"degree above {_MASK}")
        den = math.lcm(*(c.denominator for c in cs))
        p = _reduced({_key(i, 0, 0): c.numerator * (den // c.denominator)
                      for i, c in enumerate(cs)}, den)
        self._num, self._den = p._num, p._den

    # -- constructors -------------------------------------------------

    @staticmethod
    def x() -> Polynomial:
        return _reduced({_UNITS[0]: 1}, 1)

    @staticmethod
    def y() -> Polynomial:
        return _reduced({_UNITS[1]: 1}, 1)

    @staticmethod
    def z() -> Polynomial:
        return _reduced({_UNITS[2]: 1}, 1)

    @staticmethod
    def from_int_coeffs(cs: Sequence[int], den: int = 1) -> Polynomial:
        """sum(cs[i] x^i) / den for integers cs and den > 0, reduced,
        without building a Fraction: the inverse of int_coeffs and
        denominator."""
        return _reduced({_key(i, 0, 0): c for i, c in enumerate(cs)}, den)

    # -- basic queries -------------------------------------------------

    @property
    def denominator(self) -> int:
        """The positive common denominator of the coefficients."""
        return self._den

    def numerators(self) -> list[tuple[tuple[int, int, int], int]]:
        """(exponents of x, y and z, integer numerator over denominator)
        pairs, one per nonzero term, in no particular order."""
        return [(_exponents(k), c) for k, c in self._num.items()]

    def terms(self) -> list[tuple[tuple[int, int, int], Fraction]]:
        """(exponents of x, y and z, coefficient) pairs in descending lex
        order."""
        return sorted(((e, Fraction(c, self._den))
                       for e, c in self.numerators()), reverse=True)

    def int_coeffs(self) -> list[int]:
        """The integer numerators of 1, x, x^2, ... up to the degree in x,
        over the denominator; AlgebraError on a y or z term."""
        if any(k & _YZ for k in self._num):
            raise AlgebraError(f"{self!r} is not a polynomial in x alone")
        out = [0] * (_degree(self._num) + 1 if self._num else 0)
        for k, c in self._num.items():
            out[k >> _DEGREE] = c
        return out

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, x, x^2, ..., ascending; () for zero."""
        return tuple(Fraction(c, self._den) for c in self.int_coeffs())

    @property
    def degree(self) -> int:
        return len(self.int_coeffs()) - 1

    @property
    def leading(self) -> Fraction:
        cs = self.int_coeffs()
        if not cs:
            raise AlgebraError("zero polynomial has no leading coefficient")
        return Fraction(cs[-1], self._den)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> Polynomial | None:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return _reduced({0: other.numerator}, other.denominator)
        return None

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        num = {k: c * sa for k, c in self._num.items()}
        for k, c in other._num.items():
            num[k] = num.get(k, 0) + c * sb
        return _reduced(num, den)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return _reduced({k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other) -> Polynomial:
        return self + -other

    def __rsub__(self, other) -> Polynomial:
        return -self + other

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            a, b = other.numerator, other.denominator
            return _reduced({k: c * a for k, c in self._num.items()},
                            self._den * b)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if _degree(self._num) + _degree(other._num) > _MASK:
            raise OverflowError(f"degree above {_MASK}")
        num: dict = {}
        _multiply_into(num, self._num, other._num, 1)
        return _reduced(num, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Polynomial:
        """By squaring from the bit below the top one down, so that no
        power on the way has a degree above the result's."""
        if e < 0:
            raise AlgebraError(f"negative polynomial power {e}")
        if e == 0:
            return Polynomial([1])
        out = self
        for bit in bin(e)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def divmod(self, other) -> tuple[Polynomial, Polynomial]:
        """(q, r) with self = q other + r and deg r < deg other, by
        pseudo-division of the integer numerators: s A = Q B + R with
        s > 0, so q = Q b / (s a) and r = R / (s a) over the
        denominators a of self and b of other."""
        other = self._coerce(other)
        if other is None:
            raise TypeError("polynomial division by a non-polynomial")
        if not other:
            raise AlgebraError("polynomial division by zero")
        s, q, r = _pseudo_divmod(self.int_coeffs(), other.int_coeffs())
        den = self._den * s
        return (Polynomial.from_int_coeffs([c * other._den for c in q], den),
                Polynomial.from_int_coeffs(r, den))

    __divmod__ = divmod

    def __floordiv__(self, other) -> Polynomial:
        return self.divmod(other)[0]

    def diff(self, axis: int) -> Polynomial:
        """The partial derivative along x, y or z (axis 0, 1 or 2)."""
        shift = (2 - axis) * _BITS
        num = {}
        for k, c in self._num.items():
            e = (k >> shift) & _MASK
            if e:
                num[k - _UNITS[axis]] = c * e
        return _reduced(num, self._den)

    # -- evaluation ----------------------------------------------------

    def __call__(self, x: RationalLike) -> Fraction:
        """p(x) = t / (den s^d) at x = r/s, with t = sum c_i r^i s^(d-i)
        by Horner in integers."""
        r, s = _ratio(x)
        t, scale = 0, 1
        for c in reversed(self.int_coeffs()):
            t = t * r + c * scale
            scale *= s
        return Fraction(t * s, self._den * scale)

    # -- formatting ----------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({dict(self.terms())!r})"

    def __str__(self) -> str:
        cs = self.coeffs
        parts = []
        for i in range(len(cs) - 1, -1, -1):
            c = cs[i]
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
        return " ".join(parts) or "0"


def dot(pairs: Iterable[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """sum(p * q for p, q in pairs), zero for no pairs, with no partial
    product or partial sum built: every product accumulates into one dict
    of integer numerators over the lcm of the pairs' denominators, which
    is reduced once.  A pair whose operands are the same object is a
    square, and each of its cross terms is computed once and doubled.
    Like *, it raises OverflowError for a product of degree above 65535
    before forming any key."""
    pairs = list(pairs)
    den = math.lcm(*(p._den * q._den for p, q in pairs))
    num: dict = {}
    get = num.get
    for p, q in pairs:
        a, b = p._num, q._num
        if _degree(a) + _degree(b) > _MASK:
            raise OverflowError(f"degree above {_MASK}")
        s = den // (p._den * q._den)
        if a is b:
            items = list(a.items())
            for i, (ka, ca) in enumerate(items):
                k = ka + ka
                num[k] = get(k, 0) + ca * ca * s
                ca *= 2 * s
                for kb, cb in items[i + 1:]:
                    k = ka + kb
                    num[k] = get(k, 0) + ca * cb
        else:
            _multiply_into(num, a, b, s)
    return _reduced(num, den)


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
    slope = den.diff(0)
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

class RayPositivityWitness(NamedTuple):
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


def _primitive(cs: list[int]) -> list[int]:
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _sturm_numerators(cs: list[int]) -> list[list[int]]:
    """The Sturm chain of the polynomial with integer coefficients cs,
    lowest first and the last nonzero, as primitive coefficient lists.

    After cs and its derivative, each member is the negated
    pseudo-remainder of the two before it over its content.  The
    pseudo-division multiplier is positive and so is the content, so each
    member is a positive multiple of the Sturm remainder over Q and has
    its signs everywhere.
    """
    chain = [_primitive(cs)]
    b = [i * c for i, c in enumerate(cs)][1:]
    while b:
        chain.append(_primitive(b))
        b = [-c for c in _pseudo_divmod(chain[-2], chain[-1])[2]]
        while b and not b[-1]:
            b.pop()
    return chain


def _sign_variations(values: Iterable[int]) -> int:
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots_from_zero(cs: list[int]) -> int:
    """Number of distinct real roots in [0, +oo) of a nonzero polynomial
    given by its integer numerators cs, lowest first, over any positive
    denominator, which changes no sign.

    A root at 0 is a run of zero low coefficients; once it is stripped,
    every Sturm chain member is a multiple of gcd(q, q'), which is nonzero
    at 0, so the chain counts the distinct roots in (0, +oo) of a q that
    need not be square-free.  A member's sign at 0 is that of its constant
    term, and at +oo that of its last.
    """
    low = next(i for i, c in enumerate(cs) if c)
    chain = _sturm_numerators(cs[low:])
    at_zero = _sign_variations(m[0] for m in chain)
    at_inf = _sign_variations(m[-1] for m in chain)
    return at_zero - at_inf + (low > 0)


def nonnegative_on_ray(p: Polynomial,
                       n0: RationalLike) -> tuple[bool, RayPositivityWitness]:
    """Decide whether p(n) > 0 for every real n >= n0 (strict positivity;
    the permissive name matches the negated-inequality call sites).

    Both tests read the integer numerators of q(t) = p(n0 + t), shifted
    once from those of p with no Polynomial in between, whose signs are
    those of its coefficients.  q(0) > 0 with no negative coefficient is a
    fast sufficient certificate; the complete fallback counts the roots of
    q in t >= 0 with one Sturm chain, and only its witness holds
    Fractions: n0 and p(n0).
    """
    if not p:
        raise AlgebraError("positivity query on the zero polynomial")
    cs, scale = _shifted_numerators(p.int_coeffs(), n0)
    if cs[0] > 0 and all(c >= 0 for c in cs):
        return True, RayPositivityWitness(method="shifted-coefficients",
                                          positive=True)
    roots = _count_roots_from_zero(cs)
    ok = roots == 0 and cs[0] > 0
    return ok, RayPositivityWitness(
        method="sturm", positive=ok, root_count=roots,
        sample_point=_as_fraction(n0),
        sample_value=Fraction(cs[0], p.denominator * scale))


# ---------------------------------------------------------------------------
# Sign decision for A + c_1 sqrt(x_1) + c_2 sqrt(x_2)
# ---------------------------------------------------------------------------

def _sqrt_sum_sign(a: int, terms: list[tuple[int, int]]) -> int:
    """Exact sign of a + c_1 sqrt(x_1) + c_2 sqrt(x_2) in integers, for at
    most two terms (c, x), each with c != 0 and x > 0.

    The last term t = c sqrt(x) is weighed against the rest, r: where r
    and t have opposite signs, r + t has the sign of r times that of
    r^2 - c^2 x, which has one radical fewer: a^2 - c^2 x for r = a, and
    (a^2 + c_1^2 x_1 - c^2 x) + 2 a c_1 sqrt(x_1) for
    r = a + c_1 sqrt(x_1).  So at most two squarings decide the sign, and
    a genuine tie gives 0.
    """
    if not terms:
        return (a > 0) - (a < 0)
    *rest, (c, x) = terms
    first = _sqrt_sum_sign(a, rest)
    last = 1 if c > 0 else -1
    if first == 0 or first == last:
        return last
    square = a * a - c * c * x + sum(c1 * c1 * x1 for c1, x1 in rest)
    return first * _sqrt_sum_sign(
        square, [(2 * a * c1, x1) for c1, x1 in rest if a])


def sign_with_sqrts(constant: RationalLike,
                    sqrt_terms: Sequence[tuple[RationalLike, RationalLike]]) -> int:
    """Exact sign of A + c_1*sqrt(x_1) + c_2*sqrt(x_2), A, c_i, x_i rational.

    At most two radicals, of any sign.  Denominators are cleared first:
    with c = p/q and x = u/v, c sqrt(x) = p sqrt(u v) / (q v), and the sum
    times the positive lcm of A's denominator and every q v has an
    integer constant, integer coefficients and integer radicands u v.
    _sqrt_sum_sign decides its sign by squaring (at most twice), with no
    enclosure, so a genuine tie returns 0.
    """
    if len(sqrt_terms) > 2:
        raise AlgebraError("at most two radicals are supported")
    a, a_den = _ratio(constant)
    terms = [(_ratio(c), _ratio(x)) for c, x in sqrt_terms]
    if any(u < 0 for _, (u, _) in terms):
        raise NegativeRadicand("negative radicand")
    scale = math.lcm(a_den, *(q * v for (_, q), (_, v) in terms))
    return _sqrt_sum_sign(a * (scale // a_den), [
        (p * (scale // (q * v)), u * v)
        for (p, q), (u, v) in terms if p and u])
