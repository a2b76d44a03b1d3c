"""Interval-intersection certificates for the Hebey-Vaugon inequality.

For fixed omega and dimension n >= 2 omega + 6 the case deg R-bar = omega
of the conjecture reduces to finding one constant c with

    d_k/(2(n-2)) c^2 - (n-2) c + (n-2) u_k/(2 nu_k^2) < 0

simultaneously for every k <= floor(omega/2), i.e. a point in the
intersection of the root intervals ]x_k, y_k[ of these trinomials, where

    x_k, y_k = [(n-2)^2 -/+ (n-2) sqrt(Delta_k)] / d_k .

That is the only case modelled here; prior work settles deg R-bar > omega.

Two layers are provided, and both decide in integers.  certify_at
decides a single (omega, n) cell exactly, in one pass: every root is
m (m -/+ sqrt(Delta_k)) / d_k with m = n - 2, sqrt(Delta_k) is enclosed
on the grid of step 1/_GRID = 1e-30 by sqrt_enclosure, the bounds are
compared by cross-multiplication, and a candidate c = p/q read off them
is validated by the sign of each trinomial multiplied out to an integer;
a Fraction is built only for that candidate.  When the enclosures do not
separate, emptiness is proved through exact signs of the pair quantities

    E_ij = (n-2)(d_j - d_i) + d_j sqrt(Delta_i) + d_i sqrt(Delta_j),

each cleared to the integer form E_ij q_i q_j (Delta = p/q), and a cell
neither step proves is "undecided".  The symbolic certificate covers all
n >= 2 omega + 6 at once via the lower bound
sqrt(Delta_k) > sqrt(a_k) (n + b_k/(2 a_k)), where a_k n^2 + b_k n + c_k
is the polynomial part of Delta_k (one pseudo-division of its integer
numerators), and positivity on the ray.  Each of its inequalities is
one Polynomial expression of the family rows, written as the inequality
reads, whose integer numerators nonnegative_on_ray decides over their
positive denominator.  Both layers read the
terms of E_ij from one helper, _pair_terms, written once by ring
operations: a cell passes its integers, the ray Polynomials in n.
Scans over many cells run through hvcert.cli.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .algebra import (
    AlgebraError,
    Polynomial,
    RayPositivityWitness,
    SimplePoles,
    _pseudo_divmod,
    best_rational,
    dot,
    nonnegative_on_ray,
    partial_fractions,
    sign_with_sqrts,
    sqrt_enclosure,
)
from .spectral import RowForms, closed_forms, spectral_family


class HypothesisViolated(AlgebraError):
    """n < 2 omega + 6 (the standing hypothesis omega <= (n-6)/2 fails)."""


class InternalConsistencyError(AlgebraError):
    """A quantity the lemmas guarantee to be positive failed its check."""


class RootPair(NamedTuple):
    """The two trinomial roots for one eigencomponent at integer n.

    With m = n - 2 the roots are the quadratic irrationals
    x_k, y_k = m (m -/+ sqrt(Delta_k)) / d_k.  A pair holds integers only:
    d_k, u_k/nu_k^2 = u2_num/u2_den and Delta_k = delta_num/delta_den in
    lowest terms with positive denominators, and the enclosure
    sqrt_lo/sqrt_den <= sqrt(Delta_k) <= sqrt_hi/sqrt_den of sqrt_enclosure
    on the grid _GRID.  It has no Fraction view: midpoints() gives the
    enclosure midpoints as integer pairs too, which the report rounds
    with algebra.best_rational.
    """

    k: int
    n: int
    d: int
    u2_num: int
    u2_den: int
    delta_num: int
    delta_den: int
    sqrt_lo: int
    sqrt_hi: int
    sqrt_den: int

    def midpoints(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The midpoints of the enclosures of x_k and of y_k as unreduced
        (numerator, denominator) pairs, m (2 den m -/+ (lo + hi)) and
        2 den d_k."""
        m, den = self.n - 2, self.sqrt_den
        s, scale = self.sqrt_lo + self.sqrt_hi, 2 * den * self.d
        return (m * (2 * den * m - s), scale), (m * (2 * den * m + s), scale)


class IntervalCertificate(NamedTuple):
    """The verdict on one (omega, n) cell of the deg R-bar = omega case:
    status "certified", "empty" or "undecided" (see certify_at)."""

    omega: int
    n: int
    pairs: tuple[RootPair, ...]
    chosen_c: Optional[Fraction]
    status: str

    @property
    def nonempty(self) -> bool:
        return self.chosen_c is not None


class PairCheck(NamedTuple):
    """One (i, j) inequality of the all-n certificate: the lower bound of
    E_ij (see _pair_terms) that the lower bounds of sqrt(Delta_i) and
    sqrt(Delta_j) give is positive on the ray.  The witness is for that
    bound itself: a Sturm witness holds its value at n0."""

    i: int
    j: int
    lb_i_sqrt_a: Fraction          # rational lower bound used for sqrt(a_i)
    lb_j_sqrt_a: Fraction
    witness: RayPositivityWitness


class LowerBoundCheck(NamedTuple):
    """Validity of sqrt(Delta_k) > sqrt(a_k)(n + b_k/(2 a_k)) on the ray,
    a_k n^2 + b_k n + c_k the polynomial part of Delta_k.  The witness is
    for the polynomial actually proved, 4A rem + (4AC - B^2) den in
    symbolic_certificate, a positive multiple of the numerator of
    Delta_k - a_k (n + b_k/(2 a_k))^2 over Delta_k's denominator."""

    k: int
    a: Fraction
    b: Fraction
    witness: RayPositivityWitness


class SymbolicCertificate(NamedTuple):
    omega: int
    valid_from: int
    lower_bounds: tuple[LowerBoundCheck, ...]
    pair_checks: tuple[PairCheck, ...]
    # ("lower_bound", omega, k), ("d_order", omega, k) or ("pair", omega, i, j)
    failure: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


# ---------------------------------------------------------------------------
# Per-dimension certificates
# ---------------------------------------------------------------------------

_GRID = 10 ** 30


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def roots_at(omega: int, n: int) -> list[RootPair]:
    """Exact root data for every eigencomponent at integer dimension n.

    d_k, u_k/nu_k^2 and Delta_k come from closed_forms at the integer n,
    which gives integer numerators and denominators, and sqrt(Delta_k) is
    enclosed by sqrt_enclosure on the grid of step 1/_GRID (read at each
    call); the spectral family is never built and no Fraction is made.  A
    d_k or Delta_k that is not positive, which check_lemma_poly excludes
    on the ray, raises InternalConsistencyError.
    """
    if omega < 2:
        raise HypothesisViolated(f"omega={omega} below the certified range")
    if n < 2 * omega + 6:
        raise HypothesisViolated(
            f"n={n} violates n >= 2*omega+6 = {2 * omega + 6}")
    pairs = []
    for row in closed_forms(omega, n).rows:
        delta_num, delta_den = _lowest(row.delta_num, row.delta_den)
        if row.d <= 0 or delta_num <= 0:
            raise InternalConsistencyError(
                f"d or Delta not positive at omega={omega}, n={n}, k={row.k}")
        u2_num, u2_den = _lowest(row.u_num, row.u_den * row.nu)
        pairs.append(RootPair(
            row.k, n, row.d, u2_num, u2_den, delta_num, delta_den,
            *sqrt_enclosure(delta_num, delta_den, _GRID)))
    return pairs


def scaled_trinomial(pair: RootPair, p: int, q: int) -> int:
    """The trinomial d/(2m) c^2 - m c + m U/(2V) at c = p/q, with q > 0,
    m = n - 2 and U/V = u_k/nu_k^2, multiplied by 2 m q^2 V > 0: the
    integer d V p^2 - 2 m^2 V p q + m^2 U q^2, of the trinomial's sign."""
    m2 = (pair.n - 2) ** 2
    return (pair.u2_den * p * (pair.d * p - 2 * m2 * q)
            + m2 * pair.u2_num * q * q)


def _pair_terms(m, d_i, d_j):
    """(A, c_i, c_j) of the pair quantity

        E_ij = A + c_i sqrt(Delta_i) + c_j sqrt(Delta_j),
        A = (n-2)(d_j - d_i),  c_i = d_j,  c_j = d_i,

    for m = n - 2, by ring operations only: a cell passes its integers,
    and the all-n certificate Polynomials in n."""
    return m * (d_j - d_i), d_j, d_i


def _pair_sign(pairs: Sequence[RootPair], i: int, j: int, n: int) -> int:
    """Exact sign of y_i - x_j, scaled by d_i d_j / (n-2) > 0: that of
    E_ij (see _pair_terms).  With Delta = p/q in lowest terms,
    sqrt(Delta) = sqrt(p q) / q, so E_ij q_i q_j is the integer form

        A q_i q_j + c_i q_j sqrt(p_i q_i) + c_j q_i sqrt(p_j q_j),

    whose sign sign_with_sqrts decides in integers.
    """
    pi, pj = pairs[i], pairs[j]
    a, c_i, c_j = _pair_terms(n - 2, pi.d, pj.d)
    q_i, q_j = pi.delta_den, pj.delta_den
    return sign_with_sqrts(a * q_i * q_j, [
        (c_i * q_j, pi.delta_num * q_i), (c_j * q_i, pj.delta_num * q_j)])


def certify_at(omega: int, n: int) -> IntervalCertificate:
    """Decide the intersection for one cell, exactly, in one pass.

    The enclosures bound max_k x_k from above by `lower` and min_k y_k from
    below by `upper`.  When lower < upper, chosen_c is their midpoint
    (simplified to a modest denominator when that stays strictly between
    them) and is validated once against every trinomial, each multiplied
    out to an integer of its sign (scaled_trinomial): "certified".
    Otherwise exact pairwise signs decide emptiness: "empty".  Any other
    outcome (a candidate failing its check, or a nonempty cell the
    enclosures cannot separate) is "undecided", which fails closed.  No
    floating point enters the verdict.
    """
    pairs = tuple(roots_at(omega, n))
    chosen_c, status = None, "undecided"
    # with m = n - 2 > 0 and den_k = d_k sqrt_den_k > 0, the upper bound
    # of x_k over m is (m sqrt_den - sqrt_lo) / den_k and the lower bound
    # of y_k over m is (m sqrt_den + sqrt_lo) / den_k: keep the largest
    # and the smallest as integer pairs, compared by cross-multiplication,
    # and the indices they come from
    m = n - 2
    lower_num = upper_num = None
    for index, pair in enumerate(pairs):
        den = pair.d * pair.sqrt_den
        x = m * pair.sqrt_den - pair.sqrt_lo
        y = m * pair.sqrt_den + pair.sqrt_lo
        if lower_num is None or x * lower_den > lower_num * den:
            lower_num, lower_den, j = x, den, index
        if upper_num is None or y * upper_den < upper_num * den:
            upper_num, upper_den, i = y, den, index
    if lower_num * upper_den < upper_num * lower_den:
        # the midpoint of m lower_num/lower_den and m upper_num/upper_den,
        # rounded to a denominator <= 10^12 when that stays strictly
        # between them, and reduced otherwise
        num = m * (lower_num * upper_den + upper_num * lower_den)
        den = 2 * lower_den * upper_den
        p, q = best_rational(num, den, 10 ** 12)
        if not (m * lower_num * q < p * lower_den
                and p * upper_den < m * upper_num * q):
            g = math.gcd(num, den)
            p, q = num // g, den // g
        if all(scaled_trinomial(pair, p, q) < 0 for pair in pairs):
            chosen_c, status = Fraction(p, q), "certified"
    elif not _exact_nonempty(pairs, n, (i, j)):
        status = "empty"
    return IntervalCertificate(omega=omega, n=n, pairs=pairs,
                               chosen_c=chosen_c, status=status)


def _exact_nonempty(pairs: Sequence[RootPair], n: int,
                    first: tuple[int, int]) -> bool:
    """max_k x_k < min_k y_k decided via exact pairwise signs.  The pair
    first = (i, j) whose enclosures overlapped, y_i against x_j, is decided
    before the others, since it is the one that proves a cell empty, and
    is not decided again; the verdict does not depend on the order."""
    q = len(pairs)
    order = [first] + [(i, j) for i in range(q) for j in range(q)
                       if i != j and (i, j) != first]
    return all(_pair_sign(pairs, i, j, n) > 0   # y_i > x_j
               for i, j in order)


# ---------------------------------------------------------------------------
# All-dimension symbolic certificates
# ---------------------------------------------------------------------------

_N = Polynomial.x()


def delta_partial_fraction(omega: int,
                           row: RowForms) -> tuple[Polynomial, SimplePoles]:
    """Partial fractions of Delta_k = delta_num/delta_den of one row of
    spectral_family(omega): (polynomial part, ((root, residue), ...)).
    The poles are the roots n = 2, n = -m and n = 1 - m of the factors
    n - 2, nu_k - n + 1 = m(n+m) and nu_k = (m+1)(n+m-1) of delta_den,
    with m = omega - 2k + 1 >= 1, so they are distinct, and each residue
    is delta_num(r)/delta_den'(r).  The row is not reduced by a gcd, so a
    pole that cancelled against -P(nu_k) would show up as a zero residue;
    spectral_family's docstring proves none does, and the tests check
    every residue is nonzero."""
    m = omega - 2 * row.k + 1
    return partial_fractions(row.delta_num, row.delta_den, (2, -m, 1 - m))


def symbolic_certificate(omega: int) -> SymbolicCertificate:
    """Assemble the all-n certificate for one omega, or report the first
    failing ingredient as a value (omega = 16 is expected to fail).

    Every inequality goes to nonnegative_on_ray as one Polynomial
    expression of the rows, as it reads: the d-order gaps are differences
    of the d_k, and each pair bound is E_ij with sqrt(Delta_k) replaced by
    lin_k = (n + b_k/(2 a_k)) times the sqrt(a_k) bound.  Only the lower
    bounds, pseudo-divided in integers, prove a positive multiple of their
    inequality.  No Fraction is computed with: the records' Fractions are
    only constructed, and enter Polynomial arithmetic as right operands.
    """
    if omega < 3:
        raise HypothesisViolated(
            f"symbolic certificates start at omega=3, got {omega}")
    n0 = 2 * omega + 6
    lower_bounds, pair_checks = [], []

    def verdict(failure: Optional[tuple] = None) -> SymbolicCertificate:
        return SymbolicCertificate(
            omega=omega, valid_from=n0, lower_bounds=tuple(lower_bounds),
            pair_checks=tuple(pair_checks), failure=failure)

    rows = spectral_family(omega)
    # k -> (lin, sqrt(a_k) bound) with sqrt(Delta_k) > lin(n) on the ray
    # once row k's checks hold: lin = (n + b_k/(2 a_k)) lo/lo_den, for
    # lo/lo_den the sqrt_enclosure lower bound of sqrt(a_k)
    sqrt_bounds = {}
    for row in rows:
        den = row.delta_den.int_coeffs()
        s, quotient, rem = _pseudo_divmod(row.delta_num.int_coeffs(), den)
        if len(quotient) != 3:
            raise InternalConsistencyError(
                f"polynomial part of Delta is not quadratic for "
                f"omega={omega}, k={row.k}")
        C, B, A = quotient
        if A <= 0:
            return verdict(("lower_bound", omega, row.k))
        # s num = Q den + rem with Q = A n^2 + B n + C, so
        # Delta = kappa (Q + rem/den) for the positive scale kappa
        # = (delta_den's denominator) / (s delta_num's), a_k = kappa A,
        # b_k = kappa B, b_k/(2 a_k) = B/(2A), and Delta - a_k (n + B/(2A))^2
        # is kappa (4A rem + (4AC - B^2) den) / (4A den): that numerator
        # and den must both be proved positive on the ray.  den has a
        # positive leading coefficient, so it cannot be negative on the
        # whole ray; an unproved sign of den fails the bound.
        den_ok, _ = nonnegative_on_ray(row.delta_den, n0)
        ok, wit = nonnegative_on_ray(Polynomial.from_int_coeffs(
            [4 * A * r + (4 * A * C - B * B) * q
             for r, q in zip(rem + [0], den)]), n0)
        kappa_num = row.delta_den.denominator
        kappa_den = s * row.delta_num.denominator
        a_k = Fraction(A * kappa_num, kappa_den)
        lower_bounds.append(LowerBoundCheck(
            k=row.k, a=a_k, b=Fraction(B * kappa_num, kappa_den),
            witness=wit))
        # the linear bound must itself be positive on the ray,
        # n0 + B/(2A) > 0, for the sqrt(a) under-approximation below to
        # stay a lower bound
        if not (den_ok and ok) or 2 * A * n0 + B <= 0:
            return verdict(("lower_bound", omega, row.k))
        lo, _, lo_den = sqrt_enclosure(a_k.numerator, a_k.denominator,
                                       _GRID)
        sqrt_a = Fraction(lo, lo_den)
        sqrt_bounds[row.k] = ((_N + Fraction(B, 2 * A)) * sqrt_a, sqrt_a)

    # the pair checks scale the sqrt(Delta) lower bounds by d_i and d_j and
    # take only i < j, which needs d_1 > d_2 > ... > d_last > 0 on the ray
    d = {row.k: row.d for row in rows}
    ks = sorted(d)
    gaps = [d[k] - d[nxt] for k, nxt in zip(ks, ks[1:])]
    for k, gap in zip(ks, gaps + [d[ks[-1]]]):
        if not nonnegative_on_ray(gap, n0)[0]:
            return verdict(("d_order", omega, k))

    # on the ray E_ij > A + c_i lin_i + c_j lin_j (see _pair_terms), the
    # bound that is proved positive
    for i in range(1, omega // 2 + 1):
        for j in range(i + 1, omega // 2 + 1):
            lin_i, sa_i = sqrt_bounds[i]
            lin_j, sa_j = sqrt_bounds[j]
            const, c_i, c_j = _pair_terms(_N - 2, d[i], d[j])
            bound = const + dot(((c_i, lin_i), (c_j, lin_j)))
            ok, wit = nonnegative_on_ray(bound, n0)
            pair_checks.append(PairCheck(i=i, j=j, lb_i_sqrt_a=sa_i,
                                         lb_j_sqrt_a=sa_j, witness=wit))
            if not ok:
                return verdict(("pair", omega, i, j))
    return verdict()


# ---------------------------------------------------------------------------
# The omega = 16 breakdown and the dimension cover
# ---------------------------------------------------------------------------

def smallest_failing_n(omega: int = 16, n_lo: int = 38,
                       n_hi: int = 2000) -> Optional[int]:
    """Smallest n in [n_lo, n_hi] with a certified-empty intersection.

    Every cell receives an exact verdict (no float prescreening, so a
    narrowly nonempty cell cannot be misclassified).  Returns None when no
    empty cell exists in range.
    """
    for n in range(max(n_lo, 2 * omega + 6), n_hi + 1):
        cert = certify_at(omega, n)
        if cert.status == "empty":
            return n
    return None


def dimension_cover_check(n_max: int) -> bool:
    """floor((n-6)/2) <= 15 for every dimension 3 <= n <= n_max."""
    if n_max < 3:
        raise AlgebraError("n_max must be at least 3")
    return all((n - 6) // 2 <= 15 for n in range(3, n_max + 1))
