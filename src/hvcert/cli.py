"""Command-line driver: certification scans, coefficient tables, identity
verifications, and sphere-oracle runs, with deterministic reports.

Reports share one shape across formats.  The JSON payload is
{tool_version, config_echo, entries, summary}; each entry carries exactly
the fields {omega, n, nonempty, x, y, chosen_c, status}.  Rationals are
serialized dually: exact is the num/den string, so downstream tools never
lose exactness, and decimal is its quotient to 30 significant digits.
The x and y lists approximate the trinomial roots (quadratic
irrationals) by the midpoints of their rational enclosures, each within
(n-2)/(2 d_k) * 1e-30 of its root, so the last digits of a decimal need
not be the root's.  Each midpoint is written as its best approximation
with denominator <= 10^40, exactly Fraction.limit_denominator(10**40),
computed in integers by algebra.best_rational.  CSV, which only certify
and scan reports can be written as, has the JSON entry fields as columns
in the same order, with the exact strings of x and y joined by ';'; it
is an output format only, and nothing reads it back.

Exit codes: 0 all checks passed, 1 a mathematical check failed while the
command demanded success, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import decimal
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .algebra import best_rational
from .certify import (
    HypothesisViolated,
    IntervalCertificate,
    certify_at,
    delta_partial_fraction,
    symbolic_certificate,
)
from .spectral import SpectralRangeError, spectral_family

_DECIMAL_CONTEXT = decimal.Context(prec=30)


class UsageError(ValueError):
    """Malformed ranges or options; maps to exit code 2."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises UsageError for an unknown or missing option instead of
    exiting, so main reports it like every other usage error.  Subparsers
    inherit the class; --help and --version still exit 0."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    command: str
    omega: Optional[tuple[int, int]] = None
    n: Optional[tuple[int, int]] = None
    symbolic: bool = False
    format: str = "json"
    output: Optional[str] = None
    jobs: int = 1
    seed: int = 0

    def echo(self) -> dict:
        """The fields without those that cannot change a verdict (the
        parallelism degree and the output path), so that a report is
        byte-identical whatever their values."""
        d = dataclasses.asdict(self)
        del d["jobs"], d["output"]
        return d


def parse_range(text: str) -> tuple[int, int]:
    """'5' -> (5, 5); '3..15' -> (3, 15)."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise UsageError(f"malformed range {text!r}") from exc
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def rational_payload(num: int, den: int) -> dict:
    """The payload of num/den, given in lowest terms with den > 0."""
    preview = _DECIMAL_CONTEXT.divide(decimal.Decimal(num),
                                      decimal.Decimal(den))
    return {"decimal": str(preview), "exact": f"{num}/{den}"}


def entry_from_certificate(cert: IntervalCertificate) -> dict:
    # roots are quadratic irrationals; report the enclosure midpoint,
    # within (n-2)/(2 d_k) * 1e-30 of the root, reduced to a readable
    # denominator (error ~1e-40, inside the enclosure); its decimal is
    # the 30-digit quotient of that rational, not the root rounded to 30
    # digits
    xs = []
    ys = []
    for pair in cert.pairs:
        mid_x, mid_y = pair.midpoints()
        xs.append(rational_payload(*best_rational(*mid_x, 10 ** 40)))
        ys.append(rational_payload(*best_rational(*mid_y, 10 ** 40)))
    c = cert.chosen_c
    chosen = None if c is None else rational_payload(c.numerator,
                                                     c.denominator)
    return {"omega": cert.omega, "n": cert.n, "nonempty": cert.nonempty,
            "x": xs, "y": ys, "chosen_c": chosen, "status": cert.status}


def symbolic_entry(omega: int, ok: bool) -> dict:
    return {"omega": omega, "n": None, "nonempty": ok, "x": [], "y": [],
            "chosen_c": None, "status": "certified" if ok else "failed"}


def report_payload(config: RunConfig, entries: list[dict], summary: dict) -> dict:
    return {"tool_version": __version__,
            "config_echo": config.echo(),
            "entries": entries,
            "summary": summary}


def emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


_CSV_COLUMNS = ("omega", "n", "nonempty", "x", "y", "chosen_c", "status")


def emit_csv(payload: dict) -> str:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for entry in payload["entries"]:
        writer.writerow([
            entry["omega"],
            "" if entry["n"] is None else entry["n"],
            "true" if entry["nonempty"] else "false",
            ";".join(v["exact"] for v in entry["x"]),
            ";".join(v["exact"] for v in entry["y"]),
            "" if entry["chosen_c"] is None else entry["chosen_c"]["exact"],
            entry["status"],
        ])
    return buf.getvalue()


def emit_markdown(payload: dict) -> str:
    lines = [f"# hvcert {payload['tool_version']} report", ""]
    cfg = payload["config_echo"]
    lines.append(f"Command: `{cfg['command']}`")
    lines.append("")
    if payload["entries"]:
        lines.append("| omega | n | nonempty | chosen_c | status |")
        lines.append("| --- | --- | --- | --- | --- |")
        for e in payload["entries"]:
            c = e["chosen_c"]["exact"] if e["chosen_c"] else ""
            n = "" if e["n"] is None else e["n"]
            lines.append(f"| {e['omega']} | {n} | {str(e['nonempty']).lower()}"
                         f" | {c} | {e['status']} |")
        lines.append("")
    summary = payload["summary"]
    if summary:
        lines.append("## Summary")
        lines.append("")
        lines.append("```json")
        lines.append(json.dumps(summary, indent=2))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def emit_report(payload: dict, fmt: str, path: Optional[str]) -> int:
    if fmt == "json":
        text = emit_json(payload)
    elif fmt == "csv" and "mode" not in payload["summary"]:
        raise UsageError("csv writes cell entries, which only certify and "
                         "scan reports carry")
    elif fmt == "csv":
        text = emit_csv(payload)
    elif "coefficients" in payload["summary"]:
        text = _coeffs_markdown(payload)
    else:
        text = emit_markdown(payload)
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        if path is None:
            _discard_stdout()
        print(f"hvcert: cannot write {'stdout' if path is None else path}: "
              f"{exc}", file=sys.stderr)
        return 2
    return 0


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device.

    The text a failed write left in the stdout buffer would otherwise be
    flushed again at interpreter exit, fail again, print a second error
    and turn the exit status into 120."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


# ---------------------------------------------------------------------------
# Cell evaluation (worker-pool friendly)
# ---------------------------------------------------------------------------

def _evaluate_cells(cells: list[tuple[int, int]],
                    jobs: int) -> list[IntervalCertificate]:
    """Evaluate independent (omega, n) cells, preserving input order
    regardless of the parallelism degree (deterministic reduction).  Both
    paths read the module-level certify_at when they run."""
    if jobs <= 1 or len(cells) < 4:
        return [certify_at(omega, n) for omega, n in cells]
    # imported here so that serial commands do not pay for the import
    from concurrent.futures import ProcessPoolExecutor
    # a fork pool starts every worker at once: start no more than cells
    # or CPUs
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    omegas, ns = zip(*cells)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(cells) // (4 * workers))
        return list(pool.map(certify_at, omegas, ns, chunksize=chunk))


def _scan_cells(config: RunConfig) -> tuple[list[dict], dict]:
    omega_lo, omega_hi = config.omega
    n_lo, n_hi = config.n
    cells = [(omega, n)
             for omega in range(omega_lo, omega_hi + 1)
             for n in range(max(n_lo, 2 * omega + 6), n_hi + 1)]
    if not cells:
        raise UsageError(f"no requested cell has n >= 2*omega + 6 (omega "
                         f"{omega_lo}..{omega_hi}, n {n_lo}..{n_hi})")
    certs = _evaluate_cells(cells, config.jobs)
    entries = [entry_from_certificate(c) for c in certs]
    empty = [[c.omega, c.n] for c in certs if c.status == "empty"]
    undecided = [[c.omega, c.n] for c in certs if c.status == "undecided"]
    summary = {
        "cells": len(certs),
        "certified": sum(1 for c in certs if c.nonempty),
        "empty_cells": empty,
        "undecided_cells": undecided,
    }
    return entries, summary


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_certify(config: RunConfig) -> tuple[dict, int]:
    if config.symbolic:
        certs = [symbolic_certificate(omega)
                 for omega in range(config.omega[0], config.omega[1] + 1)]
        entries = [symbolic_entry(c.omega, c.ok) for c in certs]
        failures = [list(c.failure) for c in certs if not c.ok]
        summary = {"mode": "symbolic", "failures": failures,
                   "valid_from": "n >= 2*omega + 6"}
        payload = report_payload(config, entries, summary)
        return payload, 0 if not failures else 1
    if config.n is None:
        raise UsageError("numeric certify requires --n")
    entries, summary = _scan_cells(config)
    summary["mode"] = "numeric"
    bad = summary["empty_cells"] or summary["undecided_cells"]
    return report_payload(config, entries, summary), 1 if bad else 0


def cmd_scan(config: RunConfig) -> tuple[dict, int]:
    entries, summary = _scan_cells(config)
    summary["mode"] = "scan"
    if summary["empty_cells"]:
        first = min(tuple(c) for c in summary["empty_cells"])
        summary["smallest_empty"] = list(first)
    # a scan that completes is a success even when it finds empty cells
    return report_payload(config, entries, summary), 0


def cmd_coeffs(config: RunConfig) -> tuple[dict, int]:
    if config.omega[0] != config.omega[1]:
        raise UsageError("coeffs takes a single omega")
    omega = config.omega[0]
    rows = []
    for row in spectral_family(omega):
        poly_part, poles = delta_partial_fraction(omega, row)
        # printed with a monic denominator
        scale = 1 / row.u_den.leading
        rows.append({
            "k": row.k,
            "nu": str(row.nu),
            "d": str(row.d),
            "u_over_nu": f"({row.u_num * scale}) / ({row.u_den * scale})",
            "delta_polynomial_part": str(poly_part),
            "delta_simple_poles": [
                {"root": rational_payload(root.numerator, root.denominator),
                 "residue": rational_payload(res.numerator, res.denominator)}
                for root, res in poles],
        })
    summary = {"omega": omega, "coefficients": rows}
    return report_payload(config, [], summary), 0


def _coeffs_markdown(payload: dict) -> str:
    summary = payload["summary"]
    lines = [f"# Spectral coefficients, omega = {summary['omega']}", ""]
    lines.append("| k | nu_k | d_k | u_k/nu_k |")
    lines.append("| --- | --- | --- | --- |")
    for row in summary["coefficients"]:
        lines.append(f"| {row['k']} | {row['nu']} | {row['d']}"
                     f" | {row['u_over_nu']} |")
    lines.append("")
    lines.append("## Partial fractions of Delta_k")
    lines.append("")
    lines.append("| k | polynomial part | simple poles |")
    lines.append("| --- | --- | --- |")
    for row in summary["coefficients"]:
        poles = ", ".join(
            f"{Fraction(p['residue']['exact'])} / (n - ({Fraction(p['root']['exact'])}))"
            for p in row["delta_simple_poles"])
        lines.append(f"| {row['k']} | {row['delta_polynomial_part']} | {poles} |")
    lines.append("")
    return "\n".join(lines)


def cmd_integrals(config: RunConfig) -> tuple[dict, int]:
    from . import integrals as igr

    rng = random.Random(config.seed)
    grid = [(a, b) for a in range(4, 13) for b in range(2, 2 * a - 4, 2)]
    extra = [(rng.uniform(5.0, 12.0), rng.uniform(2.0, 4.0))
             for _ in range(5)]
    recurrences_ok = all(bool(igr.recurrence_check(a, b))
                         for a, b in grid + extra)
    inte_ok = all(bool(igr.inte_identity_check(n)) for n in range(3, 13))
    shorthand = igr.rela_shorthand_report(6)
    norme = {f"n={n},omega={w}": igr.norme_f2_check(n, w)
             for n, w in ((16, 3), (20, 5), (30, 9))}
    norme_ok = all(bool(v["matches_plus_p2"]) for v in norme.values())
    radial = {}
    radial_ok = True
    for n in range(4, 9):
        target = igr.k2_inverse_square(n)
        got = igr.radial_yamabe(igr.RadialProfile(n, 1e-3, 1.0))
        rel = abs(got - target) / target
        radial[f"n={n}"] = {"value": float(got), "target": float(target),
                            "rel": float(rel)}
        radial_ok = radial_ok and rel < 0.02
    ok = bool(recurrences_ok and inte_ok and norme_ok and radial_ok)
    summary = {
        "recurrences_ok": recurrences_ok,
        "inte_identity_ok": inte_ok,
        "shorthand_consistent": bool(shorthand["consistent"]),
        "norme_f2": {k: {"matches_plus_p2": bool(v["matches_plus_p2"]),
                         "matches_minus_p2": bool(v["matches_minus_p2"])}
                     for k, v in norme.items()},
        "radial_concentration": radial,
        "ok": ok,
    }
    return report_payload(config, [], summary), 0 if ok else 1


def cmd_sphere_check(config: RunConfig) -> tuple[dict, int]:
    from . import sphere as sph

    identities = {}
    ok = True
    for l in range(2, 6):
        spec = sph.HarmonicSpec(l, 1)
        trace = sph.b_trace_residual(spec)
        div = sph.b_divergence_residual(spec)
        qbc = sph.qbc_quadrature(spec)
        closed = sph.qbc_closed_forms(Fraction(spec.nu), Fraction(3))
        qbc_rel = max(abs(q - c) / max(abs(c), 1) for q, c in zip(qbc, closed))
        identities[f"l={l}"] = {"trace": float(trace), "divergence": float(div),
                                "qbc_rel": float(qbc_rel)}
        ok = ok and trace == 0 and div == 0 and qbc == closed
    annulus = sph.annulus_curvature_check()
    annulus_ok = annulus.t2_coefficient == annulus.q_part
    ok = ok and annulus_ok
    summary = {
        "identities": identities,
        "annulus": {
            "bracket": float(annulus.bracket),
            "q_part": float(annulus.q_part),
            "deviation_vs_bracket": {str(t): float(v) for t, v in
                                     annulus.max_relative_deviation.items()},
            "deviation_vs_q_part": {str(t): float(v) for t, v in
                                    annulus.max_q_part_deviation.items()},
            "residual_ratios": [float(r) for r in
                                annulus.linear_residual_ratios],
            "ok": annulus_ok,
        },
        "ok": ok,
    }
    return report_payload(config, [], summary), 0 if ok else 1


def _is_payload(value) -> bool:
    """A {decimal, exact} pair of strings whose exact parses as a
    Fraction."""
    if not (isinstance(value, dict) and value.keys() == {"decimal", "exact"}
            and all(isinstance(v, str) for v in value.values())):
        return False
    try:
        Fraction(value["exact"])
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _is_int(value) -> bool:
    """A JSON integer: bool subclasses int, but true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_entry(e) -> bool:
    return (isinstance(e, dict) and e.keys() == set(_CSV_COLUMNS)
            and _is_int(e["omega"])
            and (e["n"] is None or _is_int(e["n"]))
            and isinstance(e["nonempty"], bool)
            and all(isinstance(e[k], list) and all(map(_is_payload, e[k]))
                    for k in ("x", "y"))
            and (e["chosen_c"] is None or _is_payload(e["chosen_c"]))
            and isinstance(e["status"], str))


def _is_coeff_row(row) -> bool:
    text = ("nu", "d", "u_over_nu", "delta_polynomial_part")
    return (isinstance(row, dict)
            and row.keys() == {"k", "delta_simple_poles", *text}
            and _is_int(row["k"])
            and all(isinstance(row[k], str) for k in text)
            and isinstance(row["delta_simple_poles"], list)
            and all(isinstance(p, dict) and p.keys() == {"root", "residue"}
                    and all(map(_is_payload, p.values()))
                    for p in row["delta_simple_poles"]))


def _is_report(payload) -> bool:
    """What the emitters read: a tool_version string, a summary object
    (a coefficients summary in the shape cmd_coeffs writes), and entries
    with exactly the seven entry fields, each of its JSON type.  Any
    status string is accepted, so older saved reports still re-emit."""
    if not (isinstance(payload, dict)
            and isinstance(payload.get("tool_version"), str)
            and isinstance(payload.get("summary"), dict)
            and isinstance(payload.get("entries"), list)
            and all(map(_is_entry, payload["entries"]))):
        return False
    summary = payload["summary"]
    return "coefficients" not in summary or (
        _is_int(summary.get("omega"))
        and isinstance(summary["coefficients"], list)
        and all(map(_is_coeff_row, summary["coefficients"])))


def cmd_report(config: RunConfig, input_path: str) -> tuple[dict, int]:
    try:
        with open(input_path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers both JSONDecodeError and UnicodeDecodeError
        raise UsageError(f"cannot read report {input_path}: {exc}") from exc
    if not _is_report(payload):
        raise UsageError(f"{input_path} is not an hvcert report: it needs "
                         f"a tool_version string, a summary object and a "
                         f"list of entries with the fields "
                         f"{', '.join(_CSV_COLUMNS)}, each of the type "
                         f"hvcert writes")
    payload["config_echo"] = config.echo() | {
        "source": payload.get("config_echo")}
    return payload, 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hvcert",
        description="certification toolkit for the interval-intersection "
                    "criterion of the Hebey-Vaugon conjecture")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "markdown"),
                       default="json")
        p.add_argument("--output", default=None,
                       help="output path; default stdout")
        p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("certify", help="certify cells or whole rays")
    p.add_argument("--omega", required=True)
    p.add_argument("--n", default=None)
    p.add_argument("--symbolic", action="store_true",
                   help="all-n certificate per omega instead of cells")
    common(p)

    p = sub.add_parser("scan", help="sweep a (omega, n) rectangle")
    p.add_argument("--omega", required=True)
    p.add_argument("--n", required=True)
    common(p)

    p = sub.add_parser("coeffs", help="spectral coefficient table")
    p.add_argument("--omega", required=True)
    common(p)

    p = sub.add_parser("integrals", help="run the integral identity suite")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the randomly drawn recurrence checks")
    common(p)

    p = sub.add_parser("sphere-check", help="run the sphere oracle suite")
    common(p)

    p = sub.add_parser("report", help="re-emit a saved JSON report")
    p.add_argument("--input", required=True)
    common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    omega = getattr(args, "omega", None)
    n = getattr(args, "n", None)
    omega = None if omega is None else parse_range(omega)
    n = None if n is None else parse_range(n)
    symbolic = getattr(args, "symbolic", False)
    if symbolic and n:
        raise UsageError("--symbolic covers every n and reads no --n")
    return RunConfig(
        command=args.command,
        omega=omega,
        n=n,
        symbolic=symbolic,
        format=args.format,
        output=args.output,
        jobs=args.jobs,
        seed=getattr(args, "seed", 0),
    )


_COMMANDS = {"certify": cmd_certify, "scan": cmd_scan, "coeffs": cmd_coeffs,
             "integrals": cmd_integrals, "sphere-check": cmd_sphere_check}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_args(args)
        if config.command == "report":
            payload, status = cmd_report(config, args.input)
        else:
            payload, status = _COMMANDS[config.command](config)
        emit_status = emit_report(payload, config.format, config.output)
    except (UsageError, HypothesisViolated, SpectralRangeError) as exc:
        print(f"hvcert: {exc}", file=sys.stderr)
        return 2
    return emit_status if emit_status else status


if __name__ == "__main__":
    sys.exit(main())
