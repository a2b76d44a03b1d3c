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

Every JSON text hvcert writes, the JSON report and the summary block of
a markdown one, is written by one function, json_text, in exactly the
bytes of json.dumps(value, indent=2).  It writes the indent=2 layout
itself and each leaf with a C or builtin primitive: strings and keys
with json.encoder.encode_basestring_ascii, ints with int.__repr__,
finite floats with float.__repr__, and NaN and the infinities as json
does.  Any indent makes json drop its C encoder for a pure-Python one,
which took as long as certifying the cells of a short command.

The command line is read from one option table, _COMMAND_TABLE, which
also writes --help, by one reader, _read, both before the command and
after it.  parse_args accepts what the argparse parser it replaced
accepted: --opt value and --opt=value, a long option shortened
to a unique prefix, the last of a repeated option; everything else is a
UsageError.  No argparse is imported, as building its parser took more
of a short command's time than the command's own work.

Exit codes: 0 all checks passed, 1 a mathematical check failed while the
command demanded success, 2 usage or I/O error.
"""

from __future__ import annotations

import decimal
import json
import math
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple, Optional, Sequence

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


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

class RunConfig(NamedTuple):
    command: str
    omega: Optional[tuple[int, int]] = None
    n: Optional[tuple[int, int]] = None
    symbolic: bool = False
    format: str = "json"
    output: Optional[str] = None
    jobs: int = 1
    seed: int = 0
    input: Optional[str] = None

    def echo(self) -> dict:
        """The fields in order (_asdict()) without those that cannot
        change a verdict (the parallelism degree and the output and input
        paths), so that a report is byte-identical whatever their
        values."""
        d = self._asdict()
        del d["jobs"], d["output"], d["input"]
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


def json_text(value, indent: str = "\n") -> str:
    """value in the bytes of json.dumps(value, indent=2), with indent the
    line break and indentation of value's own nesting level.  A value json
    cannot write, or a dict key that is not a str, raises TypeError."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        if value != value:
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_quote(k)}: {json_text(v, inner)}"
                 for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [json_text(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON "
                    f"serializable")


def emit_json(payload: dict) -> str:
    return json_text(payload) + "\n"


_CSV_COLUMNS = ("omega", "n", "nonempty", "x", "y", "chosen_c", "status")


def emit_csv(payload: dict) -> str:
    # imported here, as only csv reports need them
    import csv
    import io

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
        lines.append(json_text(summary))
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
    return _write(text, path)


def _write(text: str, path: Optional[str]) -> int:
    """Write text to the file path, or to stdout when path is None: 0,
    or 2 with one line on stderr when it cannot be written."""
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

def _cell_entry(omega: int, n: int) -> dict:
    """One cell certified and rendered, in the parent or in a pool worker;
    it reads the module-level certify_at and entry_from_certificate."""
    return entry_from_certificate(certify_at(omega, n))


def _scan_cells(config: RunConfig) -> tuple[list[dict], dict]:
    omega_lo, omega_hi = config.omega
    n_lo, n_hi = config.n
    cells = [(omega, n)
             for omega in range(omega_lo, omega_hi + 1)
             for n in range(max(n_lo, 2 * omega + 6), n_hi + 1)]
    if not cells:
        raise UsageError(f"no requested cell has n >= 2*omega + 6 (omega "
                         f"{omega_lo}..{omega_hi}, n {n_lo}..{n_hi})")
    if config.jobs <= 1 or len(cells) < 4:
        entries = [_cell_entry(omega, n) for omega, n in cells]
    else:
        # imported here so that serial commands do not pay for the import
        from concurrent.futures import ProcessPoolExecutor
        # a fork pool starts every worker at once: start no more than
        # cells or CPUs
        workers = min(config.jobs, len(cells), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(cells) // (4 * workers))
            entries = list(pool.map(_cell_entry, *zip(*cells),
                                    chunksize=chunk))
    summary = {
        "cells": len(entries),
        "certified": sum(e["nonempty"] for e in entries),
        "empty_cells": [[e["omega"], e["n"]] for e in entries
                        if e["status"] == "empty"],
        "undecided_cells": [[e["omega"], e["n"]] for e in entries
                            if e["status"] == "undecided"],
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
    entries, summary = _scan_cells(config)
    summary["mode"] = "numeric"
    bad = summary["empty_cells"] or summary["undecided_cells"]
    return report_payload(config, entries, summary), 1 if bad else 0


def cmd_scan(config: RunConfig) -> tuple[dict, int]:
    entries, summary = _scan_cells(config)
    summary["mode"] = "scan"
    if summary["empty_cells"]:
        # entries, serial or pooled, are omega-major with n ascending
        summary["smallest_empty"] = summary["empty_cells"][0]
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
    import random

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
    """A {decimal, exact} pair of strings whose exact is num/den in
    integers, as rational_payload writes it, and parses as a Fraction.
    Fraction alone would also read exponents: '1e999999999' builds an
    integer of a billion digits."""
    if not (isinstance(value, dict) and value.keys() == {"decimal", "exact"}
            and all(isinstance(v, str) for v in value.values())
            and re.fullmatch(r"-?[0-9]+/[0-9]+", value["exact"])):
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


def _finite(text: str) -> float:
    """A JSON number with a fraction or exponent, or a NaN or Infinity
    constant, as a float; ValueError unless it is finite, since JSON has
    no NaN or Infinity and json.dumps would write them bare."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def cmd_report(config: RunConfig) -> tuple[dict, int]:
    try:
        with open(config.input, encoding="utf-8") as fh:
            payload = json.load(fh, parse_float=_finite,
                                parse_constant=_finite)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and a
        # number _finite refuses
        raise UsageError(f"cannot read report {config.input}: {exc}") from exc
    if not _is_report(payload):
        raise UsageError(f"{config.input} is not an hvcert report: it needs "
                         f"a tool_version string, a summary object and a "
                         f"list of entries with the fields "
                         f"{', '.join(_CSV_COLUMNS)}, each of the type "
                         f"hvcert writes")
    return {"tool_version": payload["tool_version"],
            "config_echo": config.echo() | {
                "source": payload.get("config_echo")},
            "entries": payload["entries"],
            "summary": payload["summary"]}, 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_DESCRIPTION = ("certification toolkit for the interval-intersection "
                "criterion of the Hebey-Vaugon conjecture")

_COMMON = {"--format": ("json", "csv", "markdown"), "--output": str,
           "--jobs": int}

# command -> (help, required options, options); an option's kind is str,
# int, a tuple of its choices, or bool for a flag.  An option --x is read
# into the RunConfig field x
_COMMAND_TABLE = {
    "certify": ("certify cells or whole rays", ("--omega",),
                {"--omega": str, "--n": str, "--symbolic": bool, **_COMMON}),
    "scan": ("sweep a (omega, n) rectangle", ("--omega", "--n"),
             {"--omega": str, "--n": str, **_COMMON}),
    "coeffs": ("spectral coefficient table", ("--omega",),
               {"--omega": str, **_COMMON}),
    "integrals": ("run the integral identity suite", (),
                  {"--seed": int, **_COMMON}),
    "sphere-check": ("run the sphere oracle suite", (), _COMMON),
    "report": ("re-emit a saved JSON report", ("--input",),
               {"--input": str, **_COMMON}),
}

_OPTION_HELP = {
    "-h": "show this help message and exit",
    "--version": "show program's version number and exit",
    "--symbolic": "all-n certificate per omega instead of cells",
    "--output": "output path; default stdout",
    "--seed": "seed of the randomly drawn recurrence checks",
}


def _classify(token: str, names: Sequence[str]):
    """How argparse reads token against the option strings names: None
    for a value, else (option, explicit value or None), with option None
    for an option-like token that names none of them.  A long option may
    be abbreviated to a unique prefix; a prefix of two is refused."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    head, eq, tail = token.partition("=")
    if eq and head in names:
        return head, tail
    if token[1] == "-":
        found = [name for name in names if name.startswith(head)]
        explicit = tail if eq else None
    else:
        # a short option glued to its value: -hx is -h with value x
        found = [name for name in names if name == token[:2]]
        explicit = token[2:]
    if len(found) > 1:
        raise UsageError(f"ambiguous option: {token} could match "
                         f"{', '.join(found)}")
    if found:
        return found[0], explicit
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        # a negative number, or text with a space, is a value
        return None
    return None, None


def _check_flag(name: str, explicit: Optional[str]) -> None:
    # -hh is -h twice; a flag takes no =value
    if explicit is not None and not (name == "-h" and explicit
                                     and not explicit.strip("h")):
        raise UsageError(f"argument {name}: ignored explicit argument "
                         f"{explicit!r}")


def _help_rows(rows: list[tuple[str, str]]) -> list[str]:
    width = max(len(left) for left, _ in rows)
    return [f"  {left:{width}}  {text}".rstrip() for left, text in rows]


def _help_text(command: Optional[str]) -> str:
    """The usage, description and options of hvcert or of one command."""
    if command is None:
        usage = (f"hvcert [-h] [--version] {{{','.join(_COMMAND_TABLE)}}} "
                 f"...")
        lines = [_DESCRIPTION, "", "commands:"]
        lines += _help_rows([(name, entry[0])
                             for name, entry in _COMMAND_TABLE.items()])
        options = [("-h, --help", _OPTION_HELP["-h"]),
                   ("--version", _OPTION_HELP["--version"])]
    else:
        about, required, kinds = _COMMAND_TABLE[command]
        options = [("-h, --help", _OPTION_HELP["-h"])]
        usage = f"hvcert {command} [-h]"
        for name, kind in kinds.items():
            if kind is bool:
                text = name
            elif isinstance(kind, tuple):
                text = f"{name} {{{','.join(kind)}}}"
            else:
                text = f"{name} {name[2:].upper()}"
            usage += f" {text}" if name in required else f" [{text}]"
            options.append((text, _OPTION_HELP.get(name, "")))
        lines = [about]
    lines += ["", "options:", *_help_rows(options)]
    return "\n".join([f"usage: {usage}", "", *lines, ""])


def _read(command: Optional[str],
          tokens: Sequence[str]) -> tuple[dict, list, Sequence[str]]:
    """The options of hvcert (command None) or of one command read from
    tokens, left to right; the option-like tokens that are none of them;
    and the tokens left from where reading stopped.  hvcert's options
    stop at the first value, the command; a command's options stop at
    '--', which argparse reads as neither an option nor a value, with
    every token after it a value.  -h/--help and --version write to
    stdout as a report does and raise SystemExit with _write's status,
    once every token before the stop has been classified."""
    if command is None:
        required, kinds, names = (), {}, ("-h", "--help", "--version")
    else:
        _, required, kinds = _COMMAND_TABLE[command]
        names = ("-h", "--help", *kinds)
    marks = []
    for token in tokens:
        if token == "--":
            break
        mark = _classify(token, names)
        if mark is None and command is None:
            break
        marks.append(mark)
    args = {}
    strays = []
    i = 0
    while i < len(marks):
        token, mark = tokens[i], marks[i]
        i += 1
        if mark is None or mark[0] is None:
            strays.append(token)
            continue
        name, value = mark
        kind = kinds.get(name)
        if kind is None or kind is bool:
            _check_flag(name, value)
            if kind is None:
                raise SystemExit(_write(f"{__version__}\n"
                                        if name == "--version"
                                        else _help_text(command), None))
            args[name[2:]] = True
            continue
        if value is None:
            if i >= len(marks) or marks[i] is not None:
                raise UsageError(f"argument {name}: expected one argument")
            value = tokens[i]
            i += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"argument {name}: invalid int value: "
                                 f"{value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise UsageError(f"argument {name}: invalid choice: {value!r} "
                             f"(choose from {', '.join(kind)})")
        args[name[2:]] = value
    missing = [name for name in required if name[2:] not in args]
    if missing:
        raise UsageError(f"the following arguments are required: "
                         f"{', '.join(missing)}")
    return args, strays, tokens[len(marks):]


def parse_args(argv: Sequence[str]) -> dict:
    """Read argv from the option table as argparse would: --opt value or
    --opt=value, an option abbreviated to a unique prefix, the last of a
    repeated option winning.  Returns {"command": name, field: value} with
    a field for each option given; -h/--help and --version write to
    stdout and raise SystemExit(0), or SystemExit(2) when stdout cannot be
    written; anything else not in the table is a UsageError."""
    _, strays, rest = _read(None, argv)
    if not rest:
        raise UsageError("the following arguments are required: command")
    command = rest[0]
    if command not in _COMMAND_TABLE:
        raise UsageError(f"argument command: invalid choice: {command!r} "
                         f"(choose from {', '.join(_COMMAND_TABLE)})")
    args, command_strays, rest = _read(command, rest[1:])
    strays += command_strays + list(rest)
    if strays:
        raise UsageError(f"unrecognized arguments: {' '.join(strays)}")
    return {"command": command, **args}


def config_from_args(args: dict) -> RunConfig:
    """The RunConfig of what parse_args read, each option not given at
    its RunConfig default; omega and n arrive as text and are parsed
    here."""
    config = RunConfig(**args)
    if config.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {config.jobs}")
    omega = None if config.omega is None else parse_range(config.omega)
    n = None if config.n is None else parse_range(config.n)
    if config.symbolic and n:
        raise UsageError("--symbolic covers every n and reads no --n")
    if config.command == "certify" and not (config.symbolic or n):
        raise UsageError("numeric certify requires --n")
    # only a run over an --n range evaluates cells
    if config.jobs > 1 and not n:
        name = "certify --symbolic" if config.symbolic else config.command
        raise UsageError(f"{name} evaluates no cells and reads no --jobs "
                         f"above 1, got {config.jobs}")
    return config._replace(omega=omega, n=n)


_COMMANDS = {"certify": cmd_certify, "scan": cmd_scan, "coeffs": cmd_coeffs,
             "integrals": cmd_integrals, "sphere-check": cmd_sphere_check,
             "report": cmd_report}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = config_from_args(parse_args(
            sys.argv[1:] if argv is None else argv))
        payload, status = _COMMANDS[config.command](config)
        emit_status = emit_report(payload, config.format, config.output)
    except (UsageError, HypothesisViolated, SpectralRangeError) as exc:
        print(f"hvcert: {exc}", file=sys.stderr)
        return 2
    return emit_status if emit_status else status


if __name__ == "__main__":
    sys.exit(main())
