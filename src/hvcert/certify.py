"""Interval-intersection certificates for the Hebey-Vaugon inequality.

For fixed omega and dimension n >= 2 omega + 6 the conjecture case
reduces to finding one constant c with

    d_k/(2(n-2)) c^2 - (n-2) c + (n-2) u_k/(2 nu_k^2) < 0

simultaneously for every k <= floor(omega/2), i.e. a point in the
intersection of the root intervals ]x_k, y_k[ of these trinomials, where

    x_k, y_k = [(n-2)^2 -/+ (n-2) sqrt(Delta_k)] / d_k .

Two layers are provided.  certify_at decides a single (omega, n) cell
exactly: a candidate c is read off numeric enclosures, then validated by
a purely rational a-posteriori trinomial check; genuine emptiness is
proved through exact sign decisions on the pairwise quantities
(n-2)(d_j - d_i) + d_j sqrt(Delta_i) + d_i sqrt(Delta_j).  The symbolic
certificate covers all n >= 2 omega + 6 at once via the partial-fraction
lower bound sqrt(Delta_k) > sqrt(a_k) (n + b_k/(2 a_k)) and Sturm
positivity on the ray.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (
    AlgebraError,
    PartialFractionExpansion,
    Polynomial,
    RationalFunction,
    RayPositivityWitness,
    SqrtEnclosure,
    UndecidedTie,
    nonnegative_on_ray,
    partial_fractions,
    sign_with_sqrts,
    sqrt_enclosure,
)
from .spectral import SpectralRow, spectral_family

_N = Polynomial.x()


class HypothesisViolated(AlgebraError):
    """n < 2 omega + 6 (the standing hypothesis omega <= (n-6)/2 fails)."""


class InternalConsistencyError(AlgebraError):
    """A quantity the lemmas guarantee to be positive failed its check."""


class MuBranch(enum.Enum):
    """Vanishing degree of the leading curvature polynomial R-bar.

    The toolkit cannot determine this from a manifold; callers supply it.
    When the degree exceeds omega, prior work covers the case and c = 0
    certifies the cell outright.
    """

    DEG_EQUALS_OMEGA = "deg_Rbar_equals_omega"
    DEG_AT_LEAST_OMEGA_PLUS_ONE = "deg_Rbar_at_least_omega_plus_one"


@dataclass(frozen=True)
class RootPair:
    """The two trinomial roots for one eigencomponent at fixed n.

    Roots are quadratic irrationals; each carries the exact data
    (base = (n-2)^2/d_k, radical coefficient (n-2)/d_k, radicand Delta_k,
    and u_k/nu_k^2 for the trinomial check) plus rational enclosures for
    display and candidate selection.
    """

    k: int
    d_value: Fraction
    u_over_nu2: Fraction
    delta_value: Fraction
    base: Fraction            # (n-2)^2 / d_k
    radical_coeff: Fraction   # (n-2) / d_k
    x_enclosure: SqrtEnclosure = field(repr=False)

    @property
    def x_lower(self) -> Fraction:
        return self.base - self.radical_coeff * self.x_enclosure.upper

    @property
    def x_upper(self) -> Fraction:
        return self.base - self.radical_coeff * self.x_enclosure.lower

    @property
    def y_lower(self) -> Fraction:
        return self.base + self.radical_coeff * self.x_enclosure.lower

    @property
    def y_upper(self) -> Fraction:
        return self.base + self.radical_coeff * self.x_enclosure.upper

    def refined(self, width: Fraction) -> "RootPair":
        return replace(self,
                       x_enclosure=sqrt_enclosure(self.delta_value, width))


@dataclass(frozen=True)
class IntervalCertificate:
    omega: int
    n: int
    pairs: tuple[RootPair, ...]
    nonempty: bool
    chosen_c: Optional[Fraction]
    mu_branch: MuBranch
    status: str  # "certified" | "empty" | "undecided" | "covered_by_prior_branch"


@dataclass(frozen=True)
class PairCheck:
    """One (i, j) inequality of the all-n certificate."""

    i: int
    j: int
    lb_i_sqrt_a: Fraction          # rational lower bound used for sqrt(a_i)
    lb_j_sqrt_a: Fraction
    witness: RayPositivityWitness


@dataclass(frozen=True)
class LowerBoundCheck:
    """Validity of sqrt(Delta_k) > sqrt(a_k)(n + b_k/(2 a_k)) on the ray."""

    k: int
    a: Fraction
    b: Fraction
    expansion: PartialFractionExpansion
    witness: RayPositivityWitness


@dataclass(frozen=True)
class SymbolicCertificate:
    omega: int
    valid_from: int
    lower_bounds: tuple[LowerBoundCheck, ...]
    pair_checks: tuple[PairCheck, ...]
    ok: bool
    failure: Optional[tuple] = None   # ("lower_bound", omega, k) or ("pair", omega, i, j)


@dataclass(frozen=True)
class ScanReport:
    entries: tuple[IntervalCertificate, ...]
    summary: dict
    failures: tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# Per-dimension certificates
# ---------------------------------------------------------------------------

_DEFAULT_WIDTH = Fraction(1, 10 ** 30)


def roots_at(omega: int, n: int,
             width: Fraction = _DEFAULT_WIDTH) -> list[RootPair]:
    """Exact root data for every eigencomponent at integer dimension n."""
    if omega < 2:
        raise HypothesisViolated(f"omega={omega} below the certified range")
    if n < 2 * omega + 6:
        raise HypothesisViolated(
            f"n={n} violates n >= 2*omega+6 = {2 * omega + 6}")
    pairs = []
    nf = Fraction(n)
    for row in spectral_family(omega):
        d_val = Fraction(row.d(nf))
        delta_val = Fraction(row.delta(nf))
        if d_val <= 0 or delta_val <= 0:
            raise InternalConsistencyError(
                f"d or Delta not positive at omega={omega}, n={n}, k={row.k}")
        pairs.append(RootPair(
            k=row.k,
            d_value=d_val,
            u_over_nu2=Fraction(row.u_over_nu(nf)) / Fraction(row.nu(nf)),
            delta_value=delta_val,
            base=Fraction((n - 2) ** 2) / d_val,
            radical_coeff=Fraction(n - 2) / d_val,
            x_enclosure=sqrt_enclosure(delta_val, width)))
    return pairs


def trinomial_value(row_d: Fraction, row_u_over_nu2: Fraction,
                    n: int, c: Fraction) -> Fraction:
    """d/(2(n-2)) c^2 - (n-2) c + (n-2) u/(2 nu^2), all exact."""
    return (row_d / (2 * (n - 2)) * c * c - (n - 2) * c
            + Fraction(n - 2) * row_u_over_nu2 / 2)


def _candidate_valid(pairs: Sequence[RootPair], n: int, c: Fraction) -> bool:
    return all(trinomial_value(p.d_value, p.u_over_nu2, n, c) < 0
               for p in pairs)


def _pair_sign(pairs: Sequence[RootPair], i: int, j: int, n: int) -> int:
    """Exact sign of y_i - x_j, scaled by d_i d_j / (n-2) > 0:

        (n-2)(d_j - d_i) + d_j sqrt(Delta_i) + d_i sqrt(Delta_j).
    """
    pi, pj = pairs[i], pairs[j]
    const = (n - 2) * (pj.d_value - pi.d_value)
    return sign_with_sqrts(const, [(pj.d_value, pi.delta_value),
                                   (pi.d_value, pj.delta_value)])


def certify_at(omega: int, n: int,
               mu_branch: MuBranch = MuBranch.DEG_EQUALS_OMEGA) -> IntervalCertificate:
    """Decide the intersection for one cell, exactly.

    chosen_c is the midpoint of [max_k x_k, min_k y_k] read from rational
    enclosures (simplified to a modest denominator when possible) and
    re-validated against every trinomial in exact rational arithmetic, so
    no floating point enters the verdict.
    """
    pairs = tuple(roots_at(omega, n))
    if mu_branch is MuBranch.DEG_AT_LEAST_OMEGA_PLUS_ONE:
        return IntervalCertificate(omega=omega, n=n, pairs=pairs,
                                   nonempty=True, chosen_c=Fraction(0),
                                   mu_branch=mu_branch,
                                   status="covered_by_prior_branch")

    width = _DEFAULT_WIDTH
    current = pairs
    for _ in range(6):
        lower = max(p.x_upper for p in current)
        upper = min(p.y_lower for p in current)
        if lower < upper:
            candidate = (lower + upper) / 2
            simple = candidate.limit_denominator(10 ** 12)
            if lower < simple < upper and _candidate_valid(pairs, n, simple):
                candidate = simple
            if _candidate_valid(pairs, n, candidate):
                return IntervalCertificate(omega=omega, n=n, pairs=current,
                                           nonempty=True, chosen_c=candidate,
                                           mu_branch=mu_branch,
                                           status="certified")
        else:
            # candidate construction failed; decide emptiness exactly
            try:
                verdict = _exact_nonempty(current, n)
            except UndecidedTie:
                return IntervalCertificate(omega=omega, n=n, pairs=current,
                                           nonempty=False, chosen_c=None,
                                           mu_branch=mu_branch,
                                           status="undecided")
            if verdict is False:
                return IntervalCertificate(omega=omega, n=n, pairs=current,
                                           nonempty=False, chosen_c=None,
                                           mu_branch=mu_branch,
                                           status="empty")
            # nonempty but enclosures too loose; fall through and refine
        width = width * width
        current = tuple(p.refined(width) for p in current)
    return IntervalCertificate(omega=omega, n=n, pairs=current,
                               nonempty=False, chosen_c=None,
                               mu_branch=mu_branch, status="undecided")


def _exact_nonempty(pairs: Sequence[RootPair], n: int) -> bool:
    """max_k x_k < min_k y_k decided via exact pairwise signs."""
    q = len(pairs)
    for i in range(q):
        for j in range(q):
            if i == j:
                continue
            if _pair_sign(pairs, i, j, n) <= 0:   # y_i <= x_j
                return False
    return True


# ---------------------------------------------------------------------------
# All-dimension symbolic certificates
# ---------------------------------------------------------------------------

def delta_partial_fraction(row: SpectralRow) -> PartialFractionExpansion:
    """Partial fractions of Delta_k over its (at most three) linear poles."""
    den = row.delta.den
    factors = []
    residual = den
    for root in row.delta_pole_candidates():
        fac = Polynomial.linear_root(root)
        q, r = residual.divmod(fac)
        if r.is_zero():
            factors.append(fac)
            residual = q
    if residual.degree != 0:
        raise InternalConsistencyError(
            f"unexpected denominator {den} for omega={row.omega}, k={row.k}")
    return partial_fractions(row.delta, factors)


def _quadratic_part(exp: PartialFractionExpansion) -> tuple[Fraction, Fraction]:
    poly = exp.polynomial_part
    if poly.degree != 2:
        raise InternalConsistencyError("polynomial part is not quadratic")
    return poly.coeffs[2], poly.coeffs[1]


_SQRT_A_WIDTH = Fraction(1, 10 ** 30)


def symbolic_certificate(omega: int) -> SymbolicCertificate:
    """Assemble the all-n certificate for one omega, or report the first
    failing ingredient as a value (omega = 16 is expected to fail)."""
    if omega < 3:
        raise HypothesisViolated(
            f"symbolic certificates start at omega=3, got {omega}")
    n0 = 2 * omega + 6
    rows = spectral_family(omega)

    lower_bounds = []
    lb_data = {}
    for row in rows:
        exp = delta_partial_fraction(row)
        a, b = _quadratic_part(exp)
        if a <= 0:
            return SymbolicCertificate(
                omega=omega, valid_from=n0, lower_bounds=tuple(lower_bounds),
                pair_checks=(), ok=False,
                failure=("lower_bound", omega, row.k))
        # Delta_k - a (n + b/(2a))^2 > 0 on the ray: its numerator and its
        # denominator must both be proved positive there.  The denominator
        # is monic, so it cannot be negative on the whole ray; an unproved
        # denominator sign fails the bound.
        diff = row.delta - RationalFunction.from_polynomial(
            Polynomial._coerce((_N + b / (2 * a)) ** 2).scale(a))
        den_ok, _ = nonnegative_on_ray(diff.den, n0)
        ok, wit = nonnegative_on_ray(diff.num, n0)
        check = LowerBoundCheck(k=row.k, a=a, b=b, expansion=exp, witness=wit)
        lower_bounds.append(check)
        # the linear bound must itself be positive on the ray for the
        # sqrt(a) under-approximation below to stay a lower bound
        if not (den_ok and ok) or n0 + b / (2 * a) <= 0:
            return SymbolicCertificate(
                omega=omega, valid_from=n0, lower_bounds=tuple(lower_bounds),
                pair_checks=(), ok=False,
                failure=("lower_bound", omega, row.k))
        lb_data[row.k] = (a, b, sqrt_enclosure(a, _SQRT_A_WIDTH).lower)

    pair_checks = []
    d_polys = {row.k: row.d for row in rows}
    for i in range(1, omega // 2 + 1):
        for j in range(i + 1, omega // 2 + 1):
            a_i, b_i, sa_i = lb_data[i]
            a_j, b_j, sa_j = lb_data[j]
            expr = ((_N - 2) * (d_polys[j] - d_polys[i])
                    + d_polys[i] * (_N + b_j / (2 * a_j)).scale(sa_j)
                    + d_polys[j] * (_N + b_i / (2 * a_i)).scale(sa_i))
            ok, wit = nonnegative_on_ray(expr, n0)
            pair_checks.append(PairCheck(i=i, j=j, lb_i_sqrt_a=sa_i,
                                         lb_j_sqrt_a=sa_j, witness=wit))
            if not ok:
                return SymbolicCertificate(
                    omega=omega, valid_from=n0,
                    lower_bounds=tuple(lower_bounds),
                    pair_checks=tuple(pair_checks), ok=False,
                    failure=("pair", omega, i, j))
    return SymbolicCertificate(omega=omega, valid_from=n0,
                               lower_bounds=tuple(lower_bounds),
                               pair_checks=tuple(pair_checks), ok=True)


# ---------------------------------------------------------------------------
# Grid scans
# ---------------------------------------------------------------------------

def scan(omega_range: Sequence[int], n_range: Sequence[int],
         mu_branch: MuBranch = MuBranch.DEG_EQUALS_OMEGA) -> ScanReport:
    """certify_at over a grid, deterministic ordering (omega major, n minor).

    Cells with n < 2 omega + 6 are skipped; failures lists cells that are
    empty or undecided.
    """
    entries = []
    failures = []
    summary = {}
    for omega in sorted(set(omega_range)):
        verdicts = []
        for n in sorted(set(n_range)):
            if n < 2 * omega + 6:
                continue
            cert = certify_at(omega, n, mu_branch)
            entries.append(cert)
            verdicts.append(cert)
            if not cert.nonempty:
                failures.append((omega, n))
        if not verdicts:
            summary[omega] = "no admissible n in range"
        elif all(v.nonempty for v in verdicts):
            summary[omega] = "all nonempty"
        else:
            bad = [v.n for v in verdicts if not v.nonempty]
            summary[omega] = f"empty or undecided at {len(bad)} cells, smallest n={min(bad)}"
    return ScanReport(entries=tuple(entries), summary=summary,
                      failures=tuple(failures))


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
