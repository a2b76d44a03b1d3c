"""Driver integration: exit codes, deterministic artifacts, and the
JSON/CSV round trip."""

import json

import pytest

from hvcert.cli import (
    RunConfig,
    main,
    parse_range,
    parse_csv_entries,
    rational_payload,
)
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

    def test_roundtrip(self):
        cfg = RunConfig(command="scan", omega=(3, 15), n=(12, 400),
                        jobs=4, seed=7)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

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
        assert main(["scan", "--omega", "16", "--n", "1858..1860",
                     "--jobs", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["summary"]["smallest_empty"] == [16, 1859]

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

    @pytest.mark.parametrize("argv", [
        ["scan", "--omega", "1", "--n", "10..12"],
        ["certify", "--omega", "2", "--symbolic"],
        ["scan", "--omega", "5", "--n", "16..20", "--jobs", "0"],
        ["coeffs", "--omega", "1"],
    ], ids=["omega-1", "symbolic-omega-2", "jobs-0", "coeffs-omega-1"])
    def test_out_of_range_input_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hvcert: ")
        assert captured.err.count("\n") == 1

    def test_report_missing_input(self, capsys):
        assert main(["report", "--input", "/nonexistent.json"]) == 2
        capsys.readouterr()


class TestDeterminism:
    def test_byte_identical_json(self, tmp_path, monkeypatch):
        # identical config (same relative output path) twice, into two
        # directories selected by the output-dir environment variable
        da, db = tmp_path / "a", tmp_path / "b"
        da.mkdir(), db.mkdir()
        args = ["scan", "--omega", "5..6", "--n", "16..30", "--jobs", "2",
                "--output", "r.json"]
        monkeypatch.setenv("HVCERT_OUTPUT_DIR", str(da))
        assert main(args) == 0
        monkeypatch.setenv("HVCERT_OUTPUT_DIR", str(db))
        assert main(args) == 0
        assert (da / "r.json").read_bytes() == (db / "r.json").read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["scan", "--omega", "5", "--n", "16..40"]
        assert main(base + ["--jobs", "1", "--output", str(a)]) == 0
        assert main(base + ["--jobs", "3", "--output", str(b)]) == 0
        # neither the parallelism degree nor the output path is echoed
        assert a.read_bytes() == b.read_bytes()

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
        reparsed = parse_csv_entries(c.read_text())
        assert reparsed == entries

    def test_empty_report_is_valid_json(self, capsys):
        assert main(["scan", "--omega", "5", "--n", "1..10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["entries"] == []

    def test_chosen_c_inside_interval(self, capsys):
        main(["certify", "--omega", "5", "--n", "20", "--jobs", "1"])
        entry = json.loads(capsys.readouterr().out)["entries"][0]
        c = Fraction(entry["chosen_c"]["exact"])
        xs = [Fraction(v["exact"]) for v in entry["x"]]
        ys = [Fraction(v["exact"]) for v in entry["y"]]
        assert max(xs) < c < min(ys)

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

    def test_report_reemits_coeffs_markdown(self, tmp_path, capsys):
        src = tmp_path / "coeffs.json"
        assert main(["coeffs", "--omega", "5", "--output", str(src)]) == 0
        assert main(["coeffs", "--omega", "5", "--format", "markdown"]) == 0
        direct = capsys.readouterr().out
        assert main(["report", "--input", str(src),
                     "--format", "markdown"]) == 0
        assert capsys.readouterr().out == direct

    def test_output_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HVCERT_OUTPUT_DIR", str(tmp_path))
        assert main(["certify", "--omega", "4", "--symbolic",
                     "--output", "r.json"]) == 0
        capsys.readouterr()
        assert (tmp_path / "r.json").exists()
