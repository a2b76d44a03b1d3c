"""Command-line driver: certification scans, coefficient tables, identity
verifications, and sphere-oracle runs, with deterministic reports.

Reports share one shape across formats.  The JSON payload is
{tool_version, config_echo, entries, summary}; each entry carries exactly
the fields {omega, n, nonempty, x, y, chosen_c, status}.  Rationals are
serialized dually, a 30-digit decimal preview next to the exact num/den
string, so downstream tools never lose exactness.  The x and y lists hold
midpoints of the rational enclosures of the trinomial roots (the roots
themselves are quadratic irrationals).  CSV files use the same column
order and re-parse to the JSON entries field for field.

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
from .certify import (
    HypothesisViolated,
    IntervalCertificate,
    MuBranch,
    certify_at,
    delta_partial_fraction,
    symbolic_certificate,
)
from .spectral import SpectralRangeError, spectral_family

ENV_OUTPUT_DIR = "HVCERT_OUTPUT_DIR"

_DECIMAL_CONTEXT = decimal.Context(prec=30)


class UsageError(ValueError):
    """Malformed ranges or options; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    command: str
    omega: Optional[tuple[int, int]] = None
    n: Optional[tuple[int, int]] = None
    symbolic: bool = False
    mu_branch: str = MuBranch.DEG_EQUALS_OMEGA.value
    format: str = "json"
    output: Optional[str] = None
    jobs: int = 1
    seed: int = 0

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["omega"] = list(self.omega) if self.omega else None
        d["n"] = list(self.n) if self.n else None
        return d

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        d = dict(d)
        for key in ("omega", "n"):
            if d.get(key) is not None:
                d[key] = tuple(d[key])
        return RunConfig(**d)

    def echo(self) -> dict:
        """to_dict without the fields that cannot change a verdict (the
        parallelism degree and the output path), so that a report is
        byte-identical whatever their values."""
        d = self.to_dict()
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


def _resolve_output(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    base = os.environ.get(ENV_OUTPUT_DIR)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def rational_payload(value: Fraction) -> dict:
    num = decimal.Decimal(value.numerator)
    den = decimal.Decimal(value.denominator)
    preview = _DECIMAL_CONTEXT.divide(num, den)
    return {"decimal": str(preview),
            "exact": f"{value.numerator}/{value.denominator}"}


def _payload_from_exact(text: str) -> dict:
    num_s, den_s = text.split("/", 1)
    return rational_payload(Fraction(int(num_s), int(den_s)))


def entry_from_certificate(cert: IntervalCertificate) -> dict:
    # roots are quadratic irrationals; report the enclosure midpoint,
    # reduced to a readable denominator (error ~1e-40, far inside the
    # 1e-30 enclosure width)
    xs = []
    ys = []
    for pair in cert.pairs:
        mid_x = ((pair.x_lower + pair.x_upper) / 2).limit_denominator(10 ** 40)
        mid_y = ((pair.y_lower + pair.y_upper) / 2).limit_denominator(10 ** 40)
        xs.append(rational_payload(mid_x))
        ys.append(rational_payload(mid_y))
    chosen = rational_payload(cert.chosen_c) if cert.chosen_c is not None else None
    return {"omega": cert.omega, "n": cert.n, "nonempty": cert.nonempty,
            "x": xs, "y": ys, "chosen_c": chosen, "status": cert.status}


def symbolic_entry(omega: int, ok: bool, status: str) -> dict:
    return {"omega": omega, "n": None, "nonempty": ok,
            "x": [], "y": [], "chosen_c": None, "status": status}


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


def parse_csv_entries(text: str) -> list[dict]:
    """Inverse of emit_csv on the entries field (exact values round-trip)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != _CSV_COLUMNS:
        raise UsageError(f"unexpected CSV header {header!r}")
    entries = []
    for row in reader:
        omega_s, n_s, nonempty_s, x_s, y_s, c_s, status = row
        entries.append({
            "omega": int(omega_s),
            "n": None if n_s == "" else int(n_s),
            "nonempty": nonempty_s == "true",
            "x": [_payload_from_exact(v) for v in x_s.split(";") if v],
            "y": [_payload_from_exact(v) for v in y_s.split(";") if v],
            "chosen_c": None if c_s == "" else _payload_from_exact(c_s),
            "status": status,
        })
    return entries


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
    elif fmt == "csv":
        text = emit_csv(payload)
    elif fmt == "markdown" and "coefficients" in payload["summary"]:
        text = _coeffs_markdown(payload)
    elif fmt == "markdown":
        text = emit_markdown(payload)
    else:
        raise UsageError(f"unknown format {fmt!r}")
    target = _resolve_output(path)
    if target is None:
        sys.stdout.write(text)
    else:
        try:
            with open(target, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"hvcert: cannot write {target}: {exc}", file=sys.stderr)
            return 2
    return 0


# ---------------------------------------------------------------------------
# Cell evaluation (worker-pool friendly)
# ---------------------------------------------------------------------------

def _cell(args: tuple[int, int, str]) -> IntervalCertificate:
    omega, n, branch = args
    return certify_at(omega, n, mu_branch=MuBranch(branch))


def _evaluate_cells(cells: list[tuple[int, int, str]],
                    jobs: int) -> list[IntervalCertificate]:
    """Evaluate independent cells, preserving input order regardless of
    the parallelism degree (deterministic reduction)."""
    if jobs <= 1 or len(cells) < 4:
        return [_cell(c) for c in cells]
    # imported here so that serial commands do not pay for the import
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(cells) // (4 * jobs))
        return list(pool.map(_cell, cells, chunksize=chunk))


def _scan_cells(config: RunConfig) -> tuple[list[dict], dict]:
    omega_lo, omega_hi = config.omega
    n_lo, n_hi = config.n
    cells = [(omega, n, config.mu_branch)
             for omega in range(omega_lo, omega_hi + 1)
             for n in range(max(n_lo, 2 * omega + 6), n_hi + 1)]
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
    if config.omega is None:
        raise UsageError("certify requires --omega")
    if config.symbolic:
        entries = []
        failures = []
        for omega in range(config.omega[0], config.omega[1] + 1):
            cert = symbolic_certificate(omega)
            status = "certified" if cert.ok else "failed"
            entries.append(symbolic_entry(omega, cert.ok, status))
            if not cert.ok:
                failures.append(list(cert.failure))
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
    if config.omega is None or config.n is None:
        raise UsageError("scan requires --omega and --n")
    entries, summary = _scan_cells(config)
    summary["mode"] = "scan"
    if summary["empty_cells"]:
        first = min(tuple(c) for c in summary["empty_cells"])
        summary["smallest_empty"] = list(first)
    # a scan that completes is a success even when it finds empty cells
    return report_payload(config, entries, summary), 0


def cmd_coeffs(config: RunConfig) -> tuple[dict, int]:
    if config.omega is None:
        raise UsageError("coeffs requires --omega")
    if config.omega[0] != config.omega[1]:
        raise UsageError("coeffs takes a single omega")
    omega = config.omega[0]
    rows = []
    for row in spectral_family(omega):
        expansion = delta_partial_fraction(row)
        rows.append({
            "k": row.k,
            "nu": str(row.nu),
            "d": str(row.d),
            "u_over_nu": str(row.u_over_nu),
            "delta_polynomial_part": str(expansion.polynomial_part),
            "delta_simple_poles": [
                {"root": rational_payload(root),
                 "residue": rational_payload(res)}
                for root, res in expansion.simple_poles],
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
    recurrences_ok = all(bool(igr.recurrence_check(a, b)) for a, b in grid)
    recurrences_ok = recurrences_ok and all(
        bool(igr.recurrence_check(a, b)) for a, b in extra if 2 * a - b > 5)
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

    grid = sph.SphereGrid()
    identities = {}
    ok = True
    for l in range(2, 6):
        spec = sph.HarmonicSpec(l, min(l, 1))
        trace = sph.b_trace_residual(spec, 3, grid)
        div = sph.b_divergence_residual(spec, 3, grid)
        Q, B, C = sph.qbc_quadrature(spec, 3, grid)
        Qc, Bc, Cc = sph.qbc_closed_forms(spec.nu, 3)
        qbc_rel = max(abs(Q - Qc) / abs(Qc), abs(B - Bc) / max(abs(Bc), 1.0),
                      abs(C - Cc) / abs(Cc))
        identities[f"l={l}"] = {"trace": float(trace), "divergence": float(div),
                                "qbc_rel": float(qbc_rel)}
        ok = ok and trace < 1e-10 and div < 1e-6 and qbc_rel < 1e-6
    annulus = sph.annulus_curvature_check(grid=grid)
    ratios = annulus.linear_residual_ratios
    annulus_ok = all(r < 0.2 for r in ratios)
    ok = ok and annulus_ok
    summary = {
        "identities": identities,
        "annulus": {
            "bracket": float(annulus.bracket_quadrature),
            "q_part": float(annulus.q_part),
            "deviation_vs_bracket": {str(t): float(v) for t, v in
                                     annulus.max_relative_deviation.items()},
            "deviation_vs_q_part": {str(t): float(v) for t, v in
                                    annulus.max_q_part_deviation.items()},
            "residual_ratios": [float(r) for r in ratios],
            "ok": annulus_ok,
        },
        "ok": ok,
    }
    return report_payload(config, [], summary), 0 if ok else 1


def cmd_report(config: RunConfig, input_path: str) -> tuple[dict, int]:
    try:
        with open(input_path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read report {input_path}: {exc}") from exc
    payload["config_echo"] = config.echo() | {
        "source": payload.get("config_echo")}
    return payload, 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvcert",
        description="certification toolkit for the interval-intersection "
                    "criterion of the Hebey-Vaugon conjecture")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "markdown"),
                       default="json")
        p.add_argument("--output", default=None,
                       help=f"output path (relative paths resolve against "
                            f"${ENV_OUTPUT_DIR} when set); default stdout")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("certify", help="certify cells or whole rays")
    p.add_argument("--omega", required=True)
    p.add_argument("--n", default=None)
    p.add_argument("--symbolic", action="store_true",
                   help="all-n certificate per omega instead of cells")
    p.add_argument("--mu-branch", choices=[b.value for b in MuBranch],
                   default=MuBranch.DEG_EQUALS_OMEGA.value)
    common(p)

    p = sub.add_parser("scan", help="sweep a (omega, n) rectangle")
    p.add_argument("--omega", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--mu-branch", choices=[b.value for b in MuBranch],
                   default=MuBranch.DEG_EQUALS_OMEGA.value)
    common(p)

    p = sub.add_parser("coeffs", help="spectral coefficient table")
    p.add_argument("--omega", required=True)
    common(p)

    p = sub.add_parser("integrals", help="run the integral identity suite")
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
    omega = parse_range(args.omega) if getattr(args, "omega", None) else None
    n = parse_range(args.n) if getattr(args, "n", None) else None
    return RunConfig(
        command=args.command,
        omega=omega,
        n=n,
        symbolic=getattr(args, "symbolic", False),
        mu_branch=getattr(args, "mu_branch", MuBranch.DEG_EQUALS_OMEGA.value),
        format=args.format,
        output=args.output,
        jobs=args.jobs,
        seed=args.seed,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_args(args)
        if config.command == "certify":
            payload, status = cmd_certify(config)
        elif config.command == "scan":
            payload, status = cmd_scan(config)
        elif config.command == "coeffs":
            payload, status = cmd_coeffs(config)
        elif config.command == "integrals":
            payload, status = cmd_integrals(config)
        elif config.command == "sphere-check":
            payload, status = cmd_sphere_check(config)
        elif config.command == "report":
            payload, status = cmd_report(config, args.input)
        else:  # pragma: no cover - argparse enforces the choices
            raise UsageError(f"unknown command {config.command!r}")
    except (UsageError, HypothesisViolated, SpectralRangeError) as exc:
        print(f"hvcert: {exc}", file=sys.stderr)
        return 2

    emit_status = emit_report(payload, config.format, config.output)
    return emit_status if emit_status else status


if __name__ == "__main__":
    sys.exit(main())
