"""Show that the independent checker rejects corrupted hvcert reports.

usage: python3 perfbench/selftest.py

Runs a few small hvcert commands, checks that the checker accepts their
reports as they are, then corrupts one thing at a time and checks that
the checker rejects each corrupted report as wrong:

  * one digit of a certified cell's chosen_c changed (decimal preview
    recomputed, so only the arithmetic can catch it);
  * a certified cell relabelled empty;
  * an empty cell relabelled certified;
  * a symbolic "certified" flipped to "failed", and the omega = 16
    "failed" flipped to "certified";
  * an integrals radial target changed by one part in 10^9.

Exits 0 when every corruption is rejected, 1 otherwise.
"""

from __future__ import annotations

import copy
import decimal
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import checker

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def hvcert(*argv: str) -> tuple[dict, int]:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        out = Path(tmp) / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "hvcert.cli", *argv, "--jobs", "1",
             "--output", str(out)],
            env=os.environ | {"PYTHONPATH": str(SRC)}, capture_output=True,
            text=True, timeout=120)
        return json.loads(out.read_text(encoding="utf-8")), proc.returncode


def _cell(report: dict, n: int) -> dict:
    return next(e for e in report["entries"] if e["n"] == n)


def change_digit(report: dict, n: int) -> dict:
    bad = copy.deepcopy(report)
    c = _cell(bad, n)["chosen_c"]
    num, den = c["exact"].split("/")
    sign = "-" if num.startswith("-") else ""
    digits = num.lstrip("-")
    digits = str((int(digits[0]) % 9) + 1) + digits[1:]
    _cell(bad, n)["chosen_c"] = rational_payload(f"{sign}{digits}/{den}")
    return bad


def rational_payload(exact: str) -> dict:
    num, den = (int(part) for part in exact.split("/"))
    preview = decimal.Context(prec=30).divide(decimal.Decimal(num),
                                              decimal.Decimal(den))
    return {"decimal": str(preview), "exact": exact}


def relabel(report: dict, n: int, status: str, chosen_from: int | None = None) -> dict:
    """Relabel one cell and keep the summary consistent with the new label,
    so only the per-cell arithmetic can catch it."""
    bad = copy.deepcopy(report)
    cell = _cell(bad, n)
    cell["status"] = status
    cell["nonempty"] = status == "certified"
    cell["chosen_c"] = _cell(bad, chosen_from)["chosen_c"] if chosen_from else None
    summary = bad["summary"]
    empty = [e for e in summary["empty_cells"] if e != [cell["omega"], n]]
    if status == "empty":
        empty = sorted(empty + [[cell["omega"], n]])
    summary["empty_cells"] = empty
    summary["certified"] = summary["cells"] - len(empty)
    if empty:
        summary["smallest_empty"] = min(empty)
    else:
        summary.pop("smallest_empty", None)
    return bad


def flip_symbolic(report: dict) -> dict:
    bad = copy.deepcopy(report)
    entry = bad["entries"][0]
    entry["status"] = "failed" if entry["status"] == "certified" else "certified"
    entry["nonempty"] = entry["status"] == "certified"
    return bad


def main() -> int:
    band = (1857, 1860)
    scan, scan_exit = hvcert("scan", "--omega", "16", "--n", f"{band[0]}..{band[1]}")
    sym15, exit15 = hvcert("certify", "--omega", "15", "--symbolic")
    sym16, exit16 = hvcert("certify", "--omega", "16", "--symbolic")
    integrals, int_exit = hvcert("integrals", "--seed", "7")

    def check_scan(report):
        return checker.check_scan(report, scan_exit, "scan", (16, 16), band)

    def check_target(report):
        return checker.check_integrals(report, int_exit, 7)

    bad_target = copy.deepcopy(integrals)
    radial = bad_target["summary"]["radial_concentration"]["n=5"]
    radial["target"] = radial["target"] * (1 + 1e-9)
    cases = [
        ("scan as emitted", check_scan, scan, True),
        ("chosen_c digit changed", check_scan, change_digit(scan, 1858), False),
        ("certified cell relabelled empty", check_scan,
         relabel(scan, 1858, "empty"), False),
        ("empty cell relabelled certified", check_scan,
         relabel(scan, 1859, "certified", chosen_from=1858), False),
        ("symbolic omega=15 as emitted",
         lambda r: checker.check_symbolic(r, exit15, 15), sym15, True),
        ("symbolic omega=15 certified flipped",
         lambda r: checker.check_symbolic(r, exit15, 15), flip_symbolic(sym15), False),
        ("symbolic omega=16 as emitted",
         lambda r: checker.check_symbolic(r, exit16, 16), sym16, True),
        ("symbolic omega=16 failure flipped",
         lambda r: checker.check_symbolic(r, exit16, 16), flip_symbolic(sym16), False),
        ("integrals as emitted", check_target, integrals, True),
        ("integrals radial target changed", check_target, bad_target, False),
    ]
    ok = True
    for name, check, report, should_pass in cases:
        verdict = check(report)
        passed = verdict.failed == 0
        good = passed if should_pass else (verdict.wrong > 0)
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {name}: "
              f"{'accepted' if passed else verdict.problems[0]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
