"""Independent checker for hvcert reports.

Nothing here imports hvcert.spectral, hvcert.algebra or hvcert.certify.
Every expected value is re-derived from the closed forms in the
hvcert.spectral docstring, in plain integers and Fractions:

    nu_k     = (omega - 2k + 2)(n + omega - 2k)
    d_k      = 4[(n-1)(n-2) nu_k - n(n-2)^2 + (omega+2)^2 (n^2+n+2)]
    u_k/nu_k = (n-3)/(4(n-2)) - [(n-1)^2 + (n-1)(omega+2)^2] / (4(n-2)(nu_k-n+1))
    Delta_k  = (n-2)^2 - d_k u_k / nu_k^2

A cell is nonempty iff every pair quantity
(n-2)(d_j - d_i) + d_j sqrt(Delta_i) + d_i sqrt(Delta_j) is positive; the
checker decides each sign by exact squaring, not by enclosures.  All-n
certificates are re-derived with sympy (cancel, polynomial division,
count_roots on [2 omega + 6, oo)).

Each check returns a Verdict per operation (one report entry for the scan
and symbolic commands, one command for the oracle suites).  A wrong,
missing or undecided result is a failed operation; a wrong one also makes
the run incorrect.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

ENTRY_FIELDS = {"omega", "n", "nonempty", "x", "y", "chosen_c", "status"}
ROOT_TOLERANCE = Fraction(1, 10 ** 30)   # documented enclosure width
_SQRT_DIGITS = 50                         # isqrt precision for the roots
_DECIMAL = decimal.Context(prec=30)


@dataclass
class Verdict:
    """Outcome of checking the operations of one command."""

    attempted: int
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str, wrong: bool = True, count: int = 1) -> None:
        self.failed += count
        if wrong:
            self.wrong += count
        self.problems.append(problem)


# ---------------------------------------------------------------------------
# Closed forms at an integer dimension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    k: int
    d: int
    u_over_nu2: Fraction
    delta: Fraction


@lru_cache(maxsize=None)
def rows_at(omega: int, n: int) -> tuple[Row, ...]:
    w2 = (omega + 2) ** 2
    rows = []
    for k in range(1, omega // 2 + 1):
        nu = (omega - 2 * k + 2) * (n + omega - 2 * k)
        d = 4 * ((n - 1) * (n - 2) * nu - n * (n - 2) ** 2
                 + w2 * (n * n + n + 2))
        u_over_nu = (Fraction(n - 3, 4 * (n - 2))
                     - Fraction((n - 1) ** 2 + (n - 1) * w2,
                                4 * (n - 2) * (nu - n + 1)))
        u_over_nu2 = u_over_nu / nu
        delta = (n - 2) ** 2 - d * u_over_nu2
        if d <= 0 or delta <= 0:
            raise ValueError(f"d or Delta not positive at omega={omega}, "
                             f"n={n}, k={k}")
        rows.append(Row(k, d, u_over_nu2, delta))
    return tuple(rows)


def pair_sign(const: Fraction, b: int, x: Fraction, c: int, y: Fraction) -> int:
    """Sign of const + b sqrt(x) + c sqrt(y) for b, c > 0 and x, y > 0,
    by squaring twice."""
    if const >= 0:
        return 1
    e = b * b * x + c * c * y - const * const
    if e >= 0:
        return 1
    lhs = 4 * b * b * c * c * x * y
    rhs = e * e
    return (lhs > rhs) - (lhs < rhs)


@lru_cache(maxsize=None)
def empty_witness(omega: int, n: int) -> tuple[int, int] | None:
    """A pair (i, j) with y_i <= x_j, proving the cell empty, or None when
    every pair quantity is positive (the cell is nonempty)."""
    rows = rows_at(omega, n)
    for i, ri in enumerate(rows):
        for j, rj in enumerate(rows):
            if i == j:
                continue
            const = Fraction((n - 2) * (rj.d - ri.d))
            if pair_sign(const, rj.d, ri.delta, ri.d, rj.delta) <= 0:
                return ri.k, rj.k
    return None


def trinomial(row: Row, n: int, c: Fraction) -> Fraction:
    return (Fraction(row.d, 2 * (n - 2)) * c * c - (n - 2) * c
            + (n - 2) * row.u_over_nu2 / 2)


def sqrt_bounds(x: Fraction) -> tuple[Fraction, Fraction]:
    """lo <= sqrt(x) <= hi with hi - lo <= 10^-_SQRT_DIGITS, via math.isqrt."""
    p, q = x.numerator, x.denominator
    scale = 10 ** _SQRT_DIGITS
    r = math.isqrt(p * q * scale * scale)
    return Fraction(r, q * scale), Fraction(r + 1, q * scale)


def root_bounds(row: Row, n: int) -> tuple[tuple[Fraction, Fraction],
                                           tuple[Fraction, Fraction]]:
    """Enclosures of x_k, y_k = [(n-2)^2 -/+ (n-2) sqrt(Delta_k)] / d_k."""
    lo, hi = sqrt_bounds(row.delta)
    base = Fraction((n - 2) ** 2, row.d)
    coef = Fraction(n - 2, row.d)
    return (base - coef * hi, base - coef * lo), (base + coef * lo, base + coef * hi)


# ---------------------------------------------------------------------------
# Report fields
# ---------------------------------------------------------------------------

def parse_rational(payload) -> Fraction:
    """The exact value of a {decimal, exact} payload; raises ValueError
    when the payload is malformed or its decimal preview is wrong."""
    if not isinstance(payload, dict) or set(payload) != {"decimal", "exact"}:
        raise ValueError(f"malformed rational {payload!r}")
    num_s, den_s = payload["exact"].split("/")
    value = Fraction(int(num_s), int(den_s))
    preview = str(_DECIMAL.divide(decimal.Decimal(value.numerator),
                                  decimal.Decimal(value.denominator)))
    if preview != payload["decimal"]:
        raise ValueError(f"decimal preview {payload['decimal']} != {preview}")
    return value


def _within(mid: Fraction, bounds: tuple[Fraction, Fraction]) -> bool:
    lo, hi = bounds
    return abs(mid - lo) <= ROOT_TOLERANCE and abs(mid - hi) <= ROOT_TOLERANCE


def check_cell(entry: dict, omega: int, n: int) -> tuple[str | None, bool]:
    """Return (problem, wrong) for one scan entry; problem is None when the
    entry is correct.  An undecided cell is a failure but not wrong."""
    if set(entry) != ENTRY_FIELDS:
        return f"({omega},{n}) fields {sorted(entry)}", True
    status = entry["status"]
    if status == "undecided":
        return f"({omega},{n}) undecided", False
    rows = rows_at(omega, n)
    try:
        xs = [parse_rational(v) for v in entry["x"]]
        ys = [parse_rational(v) for v in entry["y"]]
        chosen = (None if entry["chosen_c"] is None
                  else parse_rational(entry["chosen_c"]))
    except (ValueError, TypeError, AttributeError) as exc:
        return f"({omega},{n}) {exc}", True
    if len(xs) != len(rows) or len(ys) != len(rows):
        return f"({omega},{n}) {len(xs)} roots for {len(rows)} rows", True
    for row, x, y in zip(rows, xs, ys):
        bx, by = root_bounds(row, n)
        if not (_within(x, bx) and _within(y, by)):
            return f"({omega},{n}) root midpoint k={row.k} off", True
    witness = empty_witness(omega, n)
    if status == "certified":
        if entry["nonempty"] is not True or chosen is None:
            return f"({omega},{n}) certified without a nonempty chosen_c", True
        bad = [row.k for row in rows if trinomial(row, n, chosen) >= 0]
        if bad:
            return f"({omega},{n}) chosen_c fails trinomials k={bad}", True
        if witness is not None:
            return f"({omega},{n}) certified but pair {witness} is <= 0", True
        return None, False
    if status == "empty":
        if entry["nonempty"] is not False or chosen is not None:
            return f"({omega},{n}) empty with nonempty or chosen_c set", True
        if witness is None:
            return f"({omega},{n}) empty but every pair is positive", True
        return None, False
    return f"({omega},{n}) unknown status {status!r}", True


# ---------------------------------------------------------------------------
# Scan and numeric-certify reports
# ---------------------------------------------------------------------------

def expected_cells(omega: tuple[int, int], n: tuple[int, int]) -> list[tuple[int, int]]:
    return [(w, m) for w in range(omega[0], omega[1] + 1)
            for m in range(max(n[0], 2 * w + 6), n[1] + 1)]


def check_scan(report: dict, exit_code: int, mode: str,
               omega: tuple[int, int], n: tuple[int, int]) -> Verdict:
    """Check a `scan` (mode "scan") or numeric `certify` (mode "numeric")
    report over the given rectangle.  One operation per expected cell."""
    cells = expected_cells(omega, n)
    verdict = Verdict(attempted=len(cells))
    entries = report.get("entries")
    if not isinstance(entries, list):
        verdict.fail("no entries list", count=len(cells))
        return verdict
    got = [(e.get("omega"), e.get("n")) for e in entries]
    by_cell = dict(zip(got, entries))
    if got != [c for c in cells if c in by_cell]:
        verdict.fail(f"entries are not the expected cells in order: {got[:5]}",
                     count=len(cells))
        return verdict
    empty = []
    for cell in cells:
        if empty_witness(*cell) is not None:
            empty.append(list(cell))
        if cell not in by_cell:
            verdict.fail(f"{cell} missing", wrong=False)
            continue
        problem, wrong = check_cell(by_cell[cell], *cell)
        if problem is not None:
            verdict.fail(problem, wrong=wrong)
    summary = {"cells": len(cells),
               "certified": len(cells) - len(empty),
               "empty_cells": empty,
               "undecided_cells": [],
               "mode": mode}
    if mode == "scan" and empty:
        summary["smallest_empty"] = min(empty)
    if verdict.failed:
        return verdict
    want_exit = 1 if mode == "numeric" and empty else 0
    if report.get("summary") != summary:
        verdict.fail(f"summary {report.get('summary')} != {summary}",
                     count=len(cells))
    elif exit_code != want_exit:
        verdict.fail(f"exit {exit_code}, expected {want_exit}", count=len(cells))
    return verdict


def threshold_band(lo: int, hi: int, omega: int = 16) -> int | None:
    """Smallest n in [lo, hi] that the checker itself decides empty, after
    asserting that the band is certified below it and empty from it on."""
    decided = [empty_witness(omega, n) is not None for n in range(lo, hi + 1)]
    if True not in decided:
        return None
    first = decided.index(True)
    if not all(decided[first:]):
        raise ValueError(f"omega={omega} band [{lo},{hi}] is not empty past "
                         f"its first empty cell")
    return lo + first


# ---------------------------------------------------------------------------
# All-n symbolic certificates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def symbolic_verdict(omega: int) -> tuple | None:
    """Re-derive the all-n certificate for one omega.  Returns None when it
    holds, or the first failing ingredient in hvcert's order:
    ("lower_bound", omega, k) or ("pair", omega, i, j)."""
    import sympy as sp

    n = sp.Symbol("n")

    def poly(expr):
        return sp.Poly(expr, n, domain="QQ")

    n0 = 2 * omega + 6
    w2 = (omega + 2) ** 2
    bounds = {}
    d_of = {}
    for k in range(1, omega // 2 + 1):
        nu = poly((omega - 2 * k + 2) * (n + omega - 2 * k))
        d = poly(4 * ((n - 1) * (n - 2) * nu.as_expr() - n * (n - 2) ** 2
                      + w2 * (n ** 2 + n + 2)))
        # u/nu = a1/b1 - c1/e1, so Delta = (n-2)^2 - d (a1 e1 - c1 b1) / (b1 e1 nu)
        a1, b1 = poly(n - 3), poly(4 * (n - 2))
        c1 = poly((n - 1) ** 2 + (n - 1) * w2)
        e1 = b1 * (nu - poly(n) + 1)
        den = b1 * e1 * nu
        num = poly((n - 2) ** 2) * den - d * (a1 * e1 - c1 * b1)
        num, den = _cancel(num, den)
        quotient, _ = num.div(den)
        if quotient.degree() != 2:
            return ("lower_bound", omega, k)
        a = quotient.coeff_monomial(n ** 2)
        b = quotient.coeff_monomial(n)
        if a <= 0:
            return ("lower_bound", omega, k)
        shift = poly(n + b / (2 * a))
        rest_num, rest_den = _cancel(num - den * shift ** 2 * a, den)
        if not all(part.count_roots(n0, None) == 0 for part in (rest_num, rest_den)):
            return ("lower_bound", omega, k)
        if rest_num.eval(n0) * rest_den.eval(n0) <= 0 or n0 + b / (2 * a) <= 0:
            return ("lower_bound", omega, k)
        p, q = int(a.p), int(a.q)
        scale = 10 ** 30
        bounds[k] = shift * sp.Rational(math.isqrt(p * q * scale * scale), q * scale)
        d_of[k] = d
    for i in range(1, omega // 2 + 1):
        for j in range(i + 1, omega // 2 + 1):
            expr = (poly(n - 2) * (d_of[j] - d_of[i])
                    + d_of[i] * bounds[j] + d_of[j] * bounds[i])
            if expr.count_roots(n0, None) != 0 or expr.eval(n0) <= 0:
                return ("pair", omega, i, j)
    return None


def _cancel(num, den):
    g = num.gcd(den)
    return num.exquo(g), den.exquo(g)


def check_symbolic(report: dict, exit_code: int, omega: int) -> Verdict:
    """One operation: the single entry of `certify --omega w --symbolic`."""
    verdict = Verdict(attempted=1)
    failure = symbolic_verdict(omega)
    status = "certified" if failure is None else "failed"
    want_entry = {"omega": omega, "n": None, "nonempty": failure is None,
                  "x": [], "y": [], "chosen_c": None, "status": status}
    want_summary = {"mode": "symbolic",
                    "failures": [] if failure is None else [list(failure)],
                    "valid_from": "n >= 2*omega + 6"}
    if report.get("entries") != [want_entry]:
        verdict.fail(f"omega={omega} entries {report.get('entries')} "
                     f"!= [{want_entry}]")
    elif report.get("summary") != want_summary:
        verdict.fail(f"omega={omega} summary {report.get('summary')} "
                     f"!= {want_summary}")
    elif exit_code != (0 if failure is None else 1):
        verdict.fail(f"omega={omega} exit {exit_code}")
    return verdict


# ---------------------------------------------------------------------------
# Oracle suites
# ---------------------------------------------------------------------------

def sphere_volume(n: int) -> float:
    return 2 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


def check_integrals(report: dict, exit_code: int, seed: int) -> Verdict:
    """One operation: `hvcert integrals --seed <seed>`."""
    verdict = Verdict(attempted=1)
    s = report.get("summary", {})
    problems = []
    if report.get("config_echo", {}).get("seed") != seed:
        problems.append("seed not echoed")
    for key in ("ok", "recurrences_ok", "inte_identity_ok"):
        if s.get(key) is not True:
            problems.append(f"{key} is {s.get(key)!r}")
    if s.get("shorthand_consistent") is not False:   # the volume-free shorthand fails
        problems.append(f"shorthand_consistent is {s.get('shorthand_consistent')!r}")
    norme = s.get("norme_f2", {})
    for key in ("n=16,omega=3", "n=20,omega=5", "n=30,omega=9"):
        if norme.get(key) != {"matches_plus_p2": True, "matches_minus_p2": False}:
            problems.append(f"norme_f2 {key} is {norme.get(key)}")
    radial = s.get("radial_concentration", {})
    for n in range(4, 9):
        got = radial.get(f"n={n}", {})
        target = n * (n - 2) * sphere_volume(n) ** (2 / n) / 4
        if not math.isclose(got.get("target", math.nan), target, rel_tol=1e-12):
            problems.append(f"radial target n={n}: {got.get('target')} != {target}")
            continue
        rel = abs(got["value"] - got["target"]) / got["target"]
        if not (rel < 0.02 and math.isclose(got["rel"], rel, rel_tol=1e-9)):
            problems.append(f"radial n={n} rel {got['rel']} (recomputed {rel})")
    if exit_code != 0:
        problems.append(f"exit {exit_code}")
    if problems:
        verdict.fail("integrals: " + "; ".join(problems))
    return verdict


def check_sphere(report: dict, exit_code: int) -> Verdict:
    """One operation: `hvcert sphere-check`."""
    verdict = Verdict(attempted=1)
    s = report.get("summary", {})
    problems = []
    if s.get("ok") is not True:
        problems.append(f"ok is {s.get('ok')!r}")
    identities = s.get("identities", {})
    for l in range(2, 6):
        ident = identities.get(f"l={l}", {})
        if not (ident.get("trace", 1) < 1e-10 and ident.get("divergence", 1) < 1e-6
                and ident.get("qbc_rel", 1) < 1e-6):
            problems.append(f"identities l={l}: {ident}")
    annulus = s.get("annulus", {})
    omega = 2                      # annulus_curvature_check's default
    q = -annulus.get("q_part", math.nan) / (1 + omega / 2) ** 2
    pinned = (q / 2) / abs(annulus.get("bracket", math.nan))
    vs_bracket = annulus.get("deviation_vs_bracket", {})
    vs_q = annulus.get("deviation_vs_q_part", {})
    small_t = [t for t in vs_bracket if float(t) <= 1e-3]
    if not small_t:
        problems.append("no deviation for t <= 1e-3")
    for t in small_t:
        if not abs(vs_bracket[t] - pinned) <= vs_q.get(t, -1):
            problems.append(f"t={t}: deviation {vs_bracket[t]} not pinned at "
                            f"{pinned} within {vs_q.get(t)}")
    if annulus.get("ok") is not True or exit_code != 0:
        problems.append(f"annulus ok {annulus.get('ok')!r}, exit {exit_code}")
    if problems:
        verdict.fail("sphere-check: " + "; ".join(problems))
    return verdict
