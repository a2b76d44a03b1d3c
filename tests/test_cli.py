"""Driver integration: exit codes, deterministic artifacts, and CSV rows
that match the JSON entries."""

import csv
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hvcert
from hvcert.cli import (
    main,
    parse_range,
    rational_payload,
)
from hvcert.spectral import spectral_family
from fractions import Fraction


class TestConfig:
    def test_parse_range(self):
        assert parse_range("5") == (5, 5)
        assert parse_range("3..15") == (3, 15)

    def test_parse_range_rejects_garbage(self):
        from hvcert.cli import UsageError
        with pytest.raises(UsageError):
            parse_range("3..")
        with pytest.raises(UsageError):
            parse_range("7..3")

    def test_rational_payload(self):
        p = rational_payload(Fraction(1, 3))
        assert p["exact"] == "1/3"
        assert p["decimal"].startswith("0.3333333333")


class TestExitCodes:
    def test_symbolic_success(self, capsys):
        assert main(["certify", "--omega", "3..5", "--symbolic"]) == 0
        capsys.readouterr()

    def test_symbolic_failure(self, capsys):
        assert main(["certify", "--omega", "16", "--symbolic"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["summary"]["failures"] == [["pair", 16, 1, 7]]

    def test_scan_with_empty_cells_still_succeeds(self, capsys):
        assert main(["scan", "--omega", "16", "--n", "1857..1860",
                     "--jobs", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["summary"]["empty_cells"] == [[16, 1859], [16, 1860]]
        assert out["summary"]["smallest_empty"] == [16, 1859]
        assert [e["status"] for e in out["entries"]] == [
            "certified", "certified", "empty", "empty"]

    def test_usage_error(self, capsys):
        assert main(["scan", "--omega", "5..3", "--n", "16..20"]) == 2
        capsys.readouterr()

    def test_unwritable_output(self, capsys, tmp_path):
        target = str(tmp_path / "no" / "such" / "dir.json")
        for fmt in ("json", "markdown"):
            code = main(["coeffs", "--omega", "5", "--format", fmt,
                         "--output", target])
            assert code == 2, fmt
        capsys.readouterr()

    def test_unwritable_stdout_is_io_error(self, capsys, monkeypatch):
        # a full disk on stdout is an I/O error, not a refuted certificate
        class FullStdout:
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

            def flush(self):
                pass

        monkeypatch.setattr("sys.stdout", FullStdout())
        assert main(["certify", "--omega", "3", "--symbolic"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hvcert: cannot write stdout: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("target", ["full-device", "closed-pipe"])
    def test_unwritable_stdout_exit_status(self, target):
        # a real process, with stdout block-buffered as when it is not a
        # terminal: the text left in the buffer must not be flushed again
        # at interpreter exit (a second error, and exit status 120)
        if target == "full-device" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        src = str(Path(hvcert.__file__).resolve().parents[1])
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        if target == "full-device":
            out = os.open("/dev/full", os.O_WRONLY)
        else:
            read_end, out = os.pipe()
            os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "hvcert.cli", "certify", "--omega",
                 "3", "--symbolic"], stdout=out, stderr=subprocess.PIPE,
                env=env, text=True, timeout=120)
        finally:
            os.close(out)
        assert done.returncode == 2
        assert done.stderr.startswith("hvcert: cannot write stdout: ")
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["scan", "--omega", "1", "--n", "10..12"],
        ["certify", "--omega", "2", "--symbolic"],
        ["scan", "--omega", "5", "--n", "16..20", "--jobs", "0"],
        ["coeffs", "--omega", "1"],
        ["certify", "--omega", "5", "--n", "16..20", "--bogus"],
        ["scan", "--omega", "5"],
        ["coeffs", "--omega", "5", "--format", "csv"],
        ["certify", "--omega", "3", "--symbolic", "--n", "10..20"],
        ["certify", "--omega", "3", "--symbolic",
         "--mu-branch", "deg_Rbar_at_least_omega_plus_one"],
        ["certify", "--omega", ""],
        ["scan", "--omega", "16", "--n", "1859..1860",
         "--mu-branch", "deg_Rbar_at_least_omega_plus_one"],
        ["certify", "--omega", "16", "--n", "1859..1860",
         "--mu-branch", "deg_Rbar_at_least_omega_plus_one"],
        ["certify", "--omega", "16", "--n", "10..20"],
        ["scan", "--omega", "5..6", "--n", "10..15"],
    ], ids=["omega-1", "symbolic-omega-2", "jobs-0", "coeffs-omega-1",
            "unknown-option", "missing-required-option", "coeffs-csv",
            "symbolic-with-n", "symbolic-with-mu-branch", "empty-omega",
            "scan-with-mu-branch", "certify-with-mu-branch",
            "certify-below-ray", "scan-below-ray"])
    def test_out_of_range_input_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hvcert: ")
        assert captured.err.count("\n") == 1

    def test_seed_only_on_integrals(self, capsys):
        assert main(["scan", "--omega", "5", "--n", "16..20",
                     "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hvcert: ") and err.count("\n") == 1
        assert "--seed" in err

    @pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"],
                                      ["--version"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_report_missing_input(self, capsys):
        assert main(["report", "--input", "/nonexistent.json"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_report_input_is_usage_error(self, tmp_path, capsys,
                                                    data):
        src = tmp_path / "bad.json"
        src.write_bytes(data)
        assert main(["report", "--input", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hvcert: ")
        assert captured.err.count("\n") == 1


class TestDeterminism:
    def test_byte_identical_json(self, tmp_path, monkeypatch):
        # identical config (same relative output path) twice, run from
        # two working directories
        da, db = tmp_path / "a", tmp_path / "b"
        da.mkdir(), db.mkdir()
        args = ["scan", "--omega", "5..6", "--n", "16..30", "--jobs", "2",
                "--output", "r.json"]
        monkeypatch.chdir(da)
        assert main(args) == 0
        monkeypatch.chdir(db)
        assert main(args) == 0
        assert (da / "r.json").read_bytes() == (db / "r.json").read_bytes()
        # cells below the ray n >= 2 omega + 6 (omega = 6, n = 16, 17) are
        # skipped; every other cell is certified, in omega-major order
        report = json.loads((da / "r.json").read_text())
        cells = [(e["omega"], e["n"]) for e in report["entries"]]
        assert cells == ([(5, n) for n in range(16, 31)]
                         + [(6, n) for n in range(18, 31)])
        assert all(e["status"] == "certified" for e in report["entries"])
        assert report["summary"]["empty_cells"] == []
        assert report["config_echo"]["seed"] == 0

    def test_jobs_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["scan", "--omega", "5", "--n", "16..40"]
        assert main(base + ["--jobs", "1", "--output", str(a)]) == 0
        assert main(base + ["--jobs", "3", "--output", str(b)]) == 0
        # neither the parallelism degree nor the output path is echoed
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_capped_at_cell_count(self, monkeypatch, capsys):
        # a fork pool starts all of its workers at once; a serial stand-in
        # records how many were asked for, and starts no process
        import concurrent.futures
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        args = ["scan", "--omega", "5", "--n", "16..20"]
        assert main(args + ["--jobs", "64"]) == 0
        assert asked == [5]
        pooled = capsys.readouterr().out
        assert main(args + ["--jobs", "1"]) == 0
        assert capsys.readouterr().out == pooled

    @pytest.mark.parametrize("args,digest", [
        ("scan --omega 16 --n 1853..1864",
         "f960b546873a73b2f3726d6ce238275071f8cb64d6a88b99ebbfcb78660b0124"),
        ("certify --omega 16 --n 1857..1860",
         "5632bd01b0caa4ecfb2edab5f6c9e39e52acd20852f2883295a18bee05823738"),
        ("certify --omega 3 --n 100..103",
         "819915c72553203faa97e89dbed417cdb33616f8d2c56ed0a06dd37299e0a674"),
        ("certify --omega 7 --n 100..103",
         "3c4c098f260a4d047773b63352b901979afbf4b50958634f6bd334052859e05b"),
        ("certify --omega 11 --n 100..103",
         "c8b28fd7a8b9970038a41659dba13a0c7d34e0101024b28b8e74b03cbf0e33d0"),
        ("certify --omega 15 --n 100..103",
         "1386e731ef866b4eb434f0f8989a1ad0744bb7d71b21ae479323e3630d67f05d"),
        ("coeffs --omega 5",
         "db1d3b24e09de0b2ebf5cdef754f584d29d3ae2d194e9ae7e89d06fa02633ec8"),
        ("coeffs --omega 7",
         "471a63ad59751854ac4e8cd60c71e98549967bed39959abbc926768b6117547f"),
        ("coeffs --omega 16",
         "90b5e6c53e36e517ebbe8fc20ff5632f0f4e3a936be4516647769b21a1d7ff89"),
        ("certify --omega 3..16 --symbolic",
         "76a721ac1799e028b0ebf21c7c1e7016cc4966ae38d4508f0bbf9f7c229c8b42"),
        ("coeffs --omega 7 --format markdown",
         "98badef2843af30c909e4acd4b7079e07da5cd750ebc7ce541d4102fd8eda778"),
        ("coeffs --omega 16 --format markdown",
         "b4e58715d7362ddb8306e939b42c6a9e3c4e5c6d35f482cbc699ce28400fbea1"),
    ], ids=["scan-16-threshold", "certify-16-threshold", "certify-3",
            "certify-7", "certify-11", "certify-15", "coeffs-5", "coeffs-7",
            "coeffs-16", "symbolic-3-16", "coeffs-7-markdown",
            "coeffs-16-markdown"])
    def test_report_digest_is_fixed(self, tmp_path, args, digest):
        # sha256 of the whole JSON report: every cell's enclosure
        # midpoints, chosen c and verdict, byte for byte, on both sides of
        # the omega = 16 threshold n = 1859 and across family sizes, so a
        # faster cell kernel must give these reports unchanged; likewise
        # the coefficient tables (u_k/nu_k and the Delta_k partial
        # fractions) and the all-n certificates, whose omega = 16 failure
        # exits 1 after writing its report; the markdown tables pin the
        # monic u_k/nu_k string and the residues as printed fractions
        out = tmp_path / "r.json"
        main(args.split() + ["--jobs", "1", "--output", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_newline_terminated(self, tmp_path):
        out = tmp_path / "r.json"
        main(["certify", "--omega", "4", "--symbolic", "--output", str(out)])
        assert out.read_bytes().endswith(b"\n")


class TestFormats:
    def test_csv_roundtrip(self, tmp_path):
        j, c = tmp_path / "r.json", tmp_path / "r.csv"
        args = ["scan", "--omega", "5", "--n", "16..25", "--jobs", "1"]
        assert main(args + ["--format", "json", "--output", str(j)]) == 0
        assert main(args + ["--format", "csv", "--output", str(c)]) == 0
        entries = json.loads(j.read_text())["entries"]
        with open(c, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["omega", "n", "nonempty", "x", "y", "chosen_c",
                          "status"]
        assert rows == [
            [str(e["omega"]), str(e["n"]), str(e["nonempty"]).lower(),
             ";".join(v["exact"] for v in e["x"]),
             ";".join(v["exact"] for v in e["y"]),
             e["chosen_c"]["exact"], e["status"]]
            for e in entries]

    def test_empty_report_is_valid_json(self, tmp_path, capsys):
        # a saved report without cell entries re-emits as valid JSON; a
        # scan whose range holds no cell on the ray is a usage error
        # (TestExitCodes, "scan-below-ray")
        saved = tmp_path / "empty.json"
        saved.write_text(json.dumps({"tool_version": "0.1.0", "entries": [],
                                     "summary": {"mode": "scan"}}))
        assert main(["report", "--input", str(saved)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["entries"] == []

    def test_chosen_c_inside_interval(self, capsys):
        main(["certify", "--omega", "5", "--n", "20", "--jobs", "1"])
        entry = json.loads(capsys.readouterr().out)["entries"][0]
        c = Fraction(entry["chosen_c"]["exact"])
        xs = [Fraction(v["exact"]) for v in entry["x"]]
        ys = [Fraction(v["exact"]) for v in entry["y"]]
        assert max(xs) < c < min(ys)

    def test_root_midpoints_within_enclosure_width(self, capsys):
        # every reported x_k, y_k lies within 1e-30 of the true root
        # [(n-2)^2 -/+ (n-2) sqrt(Delta_k)] / d_k, bracketed here to 50
        # digits by an integer square root
        assert main(["scan", "--omega", "16", "--n", "1857..1860"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert [e["n"] for e in entries] == [1857, 1858, 1859, 1860]
        rows = spectral_family(16)
        scale, tol = 10 ** 50, Fraction(1, 10 ** 30)
        for entry in entries:
            n = entry["n"]
            assert len(entry["x"]) == len(entry["y"]) == len(rows)
            for row, x, y in zip(rows, entry["x"], entry["y"]):
                d = Fraction(row.d(n))
                delta = row.delta_num(n) / row.delta_den(n)
                p, q = delta.numerator, delta.denominator
                r = math.isqrt(p * q * scale * scale)
                lo, hi = Fraction(r, q * scale), Fraction(r + 1, q * scale)
                base, coeff = Fraction((n - 2) ** 2) / d, Fraction(n - 2) / d
                for value, root_lo, root_hi in (
                        (x, base - coeff * hi, base - coeff * lo),
                        (y, base + coeff * lo, base + coeff * hi)):
                    mid = Fraction(value["exact"])
                    assert root_lo - tol <= mid <= root_hi + tol

    def test_coeffs_markdown_table(self, capsys):
        assert main(["coeffs", "--omega", "5", "--format", "markdown"]) == 0
        text = capsys.readouterr().out
        assert "| 2 | 3*n + 3 |" in text
        assert "2/3*n^2 + 29/6*n + 1076/3" in text
        assert "2842/9 / (n - (2))" in text
        assert "-1104 / (n - (-2))" in text
        assert "4601/9 / (n - (-1))" in text

    def test_report_reemits(self, tmp_path, capsys):
        src = tmp_path / "scan.json"
        main(["scan", "--omega", "5", "--n", "16..20", "--jobs", "1",
              "--output", str(src)])
        assert main(["report", "--input", str(src),
                     "--format", "csv"]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "omega,n,nonempty,x,y,chosen_c,status"

    def test_report_coeffs_as_csv_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "coeffs.json"
        assert main(["coeffs", "--omega", "5", "--output", str(src)]) == 0
        assert main(["report", "--input", str(src),
                     "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hvcert: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("text,fmt", [
        ("{}", "json"),
        ("{}", "markdown"),
        ("{}", "csv"),
        ("[1]", "json"),
        ('{"entries": 1, "summary": {"mode": "scan"}}', "csv"),
        ('{"entries": [], "summary": {}}', "markdown"),
        ('{"tool_version": "0", "entries": [], "summary": []}', "markdown"),
        ('{"tool_version": "0", "entries": [1], "summary": {}}', "markdown"),
        ('{"tool_version": "0", "entries": [{"omega": 3}], '
         '"summary": {"mode": "scan"}}', "csv"),
        ('{"tool_version": "0", "entries": [{"omega": 3, "n": 20, '
         '"nonempty": true, "x": 1, "y": [], "chosen_c": null, '
         '"status": "certified"}], "summary": {"mode": "scan"}}', "csv"),
        ('{"tool_version": "0", "entries": [], '
         '"summary": {"coefficients": 1}}', "markdown"),
        ('{"tool_version": "0", "entries": [], "summary": {"omega": 5, '
         '"coefficients": [{"k": 1, "nu": "n", "d": "n", "u_over_nu": "n", '
         '"delta_polynomial_part": "n", "delta_simple_poles": [{'
         '"root": {"decimal": "2", "exact": "two"}, '
         '"residue": {"decimal": "1", "exact": "1/1"}}]}]}}', "markdown"),
        ('{"tool_version": "0", "entries": [{"omega": 3, "n": 20, '
         '"nonempty": true, "x": [{"decimal": "1", "exact": "two"}], '
         '"y": [], "chosen_c": null, "status": "certified"}], '
         '"summary": {"mode": "scan"}}', "csv"),
        # JSON true and false are not integers, although bool subclasses int
        ('{"tool_version": "0", "entries": [{"omega": true, "n": false, '
         '"nonempty": true, "x": [], "y": [], "chosen_c": null, '
         '"status": "certified"}], "summary": {"mode": "scan"}}', "csv"),
        ('{"tool_version": "0", "entries": [{"omega": 3, "n": true, '
         '"nonempty": true, "x": [], "y": [], "chosen_c": null, '
         '"status": "certified"}], "summary": {"mode": "scan"}}', "csv"),
        ('{"tool_version": "0", "entries": [], "summary": {"omega": 5, '
         '"coefficients": [{"k": true, "nu": "n", "d": "n", "u_over_nu": "n", '
         '"delta_polynomial_part": "n", "delta_simple_poles": []}]}}',
         "markdown"),
        ('{"tool_version": "0", "entries": [], "summary": {"omega": true, '
         '"coefficients": []}}', "markdown"),
    ], ids=["empty-json", "empty-markdown", "empty-csv", "list",
            "entries-not-list", "no-tool-version", "summary-not-object",
            "entry-not-object", "entry-missing-fields", "x-not-list",
            "coefficients-not-list", "exact-not-a-number",
            "x-exact-not-a-number", "omega-and-n-bool", "n-bool", "k-bool",
            "coefficients-omega-bool"])
    def test_report_input_of_wrong_shape_is_usage_error(
            self, tmp_path, capsys, text, fmt):
        src = tmp_path / "bad.json"
        src.write_text(text)
        assert main(["report", "--input", str(src), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hvcert: ")
        assert captured.err.count("\n") == 1

    def test_report_reemits_coeffs_markdown(self, tmp_path, capsys):
        src = tmp_path / "coeffs.json"
        assert main(["coeffs", "--omega", "5", "--output", str(src)]) == 0
        assert main(["coeffs", "--omega", "5", "--format", "markdown"]) == 0
        direct = capsys.readouterr().out
        assert main(["report", "--input", str(src),
                     "--format", "markdown"]) == 0
        assert capsys.readouterr().out == direct


class TestOracleCommands:
    def test_integrals_ok(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["integrals", "--seed", "1", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["summary"]["ok"] is True

    def test_sphere_check_ok_and_repeatable(self, tmp_path):
        # the second run in this process reuses the memoized harmonics,
        # b tensors, zonal b and Gauss-Legendre rule of the first
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["sphere-check", "--output", str(a)]) == 0
        assert main(["sphere-check", "--output", str(b)]) == 0
        assert json.loads(a.read_text())["summary"]["ok"] is True
        assert a.read_bytes() == b.read_bytes()
