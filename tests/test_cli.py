"""Driver integration: exit codes, deterministic artifacts, and CSV rows
that match the JSON entries."""

import argparse
import contextlib
import csv
import errno
import functools
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hvcert
from hvcert.certify import certify_at
from hvcert.cli import (
    _COMMAND_TABLE,
    _COMMANDS,
    _CSV_COLUMNS,
    UsageError,
    config_from_args,
    emit_json,
    emit_markdown,
    entry_from_certificate,
    json_text,
    main,
    parse_args,
    parse_range,
    rational_payload,
)
from hvcert.spectral import spectral_family
from fractions import Fraction


def _argv(args: str, tmp_path) -> list[str]:
    """The tokens of args, with THRESHOLD the path of the omega = 16
    threshold scan, written into tmp_path first."""
    if "THRESHOLD" not in args:
        return args.split()
    threshold = tmp_path / "threshold.json"
    main(["scan", "--omega", "16", "--n", "1853..1864",
          "--output", str(threshold)])
    return [str(threshold) if a == "THRESHOLD" else a for a in args.split()]


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
        p = rational_payload(1, 3)
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

    @pytest.mark.parametrize("target, argv", [
        pytest.param(target, argv, id=f"{target}-{name}" if name else target)
        for target in ("full-device", "closed-pipe")
        for name, argv in (("", ["certify", "--omega", "3", "--symbolic"]),
                           ("help", ["--help"]),
                           ("version", ["--version"]),
                           ("certify-help", ["certify", "--help"]))])
    def test_unwritable_stdout_exit_status(self, target, argv):
        # a real process, with stdout block-buffered as when it is not a
        # terminal: the text left in the buffer must not be flushed again
        # at interpreter exit (a second error, and exit status 120).  Help
        # and version text are written as a report is
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
                [sys.executable, "-m", "hvcert.cli", *argv], stdout=out,
                stderr=subprocess.PIPE, env=env, text=True, timeout=120)
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
        ["coeffs", "--omega", "3", "--jobs", "7"],
        ["certify", "--omega", "3", "--symbolic", "--jobs", "5"],
        ["sphere-check", "--jobs", "3"],
        ["integrals", "--jobs", "2"],
        ["certify", "--omega", "3"],
        ["certify", "--omega", "3", "--jobs", "2"],
        ["report", "--input", "r.json", "--jobs", "2"],
    ], ids=["omega-1", "symbolic-omega-2", "jobs-0", "coeffs-omega-1",
            "unknown-option", "missing-required-option", "coeffs-csv",
            "symbolic-with-n", "symbolic-with-mu-branch", "empty-omega",
            "scan-with-mu-branch", "certify-with-mu-branch",
            "certify-below-ray", "scan-below-ray", "coeffs-jobs-7",
            "symbolic-jobs-5", "sphere-check-jobs-3", "integrals-jobs-2",
            "numeric-without-n", "numeric-without-n-jobs-2",
            "report-jobs-2"])
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

    @pytest.mark.parametrize("argv", [
        ["--help"], ["scan", "--help"], ["--version"], ["-h"],
        *([command, "--help"] for command in _COMMAND_TABLE
          if command != "scan")])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        if argv == ["--version"]:
            assert out == hvcert.__version__ + "\n"
        elif len(argv) == 1:
            assert all(command in out for command in _COMMAND_TABLE)
        else:
            # the help names every option the table gives the command
            _, _, options = _COMMAND_TABLE[argv[0]]
            assert options and all(option in out for option in options)

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


@functools.cache
def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that hvcert.cli.parse_args replaced, kept as
    the reference of TestOptionTable; it refuses with UsageError."""

    class _ArgumentParser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = _ArgumentParser(
        prog="hvcert",
        description="certification toolkit for the interval-intersection "
                    "criterion of the Hebey-Vaugon conjecture")
    parser.add_argument("--version", action="version",
                        version=hvcert.__version__)
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


def read_reference(argv):
    return vars(reference_parser().parse_args(argv))


def read_with(read, argv):
    """What main makes of argv before running a command: ("config",
    RunConfig, --input), ("exit", code, stdout) or "refused"."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = read(argv)
        config = config_from_args(args)
    except UsageError:
        return "refused"
    except SystemExit as exc:
        return "exit", exc.code, bool(out.getvalue())
    return "config", config, args.get("input")


_OPTION_NAMES = ["--omega", "--n", "--symbolic", "--format", "--output",
                 "--jobs", "--seed", "--input", "--help", "--version", "-h"]
_VALUES = ["3", "3..5", "-5", "-.5", "-x", "-", "", "csv", "x"]
# the values each option reads, drawn three times in four
_GOOD_VALUES = {"--format": ["csv"], "--jobs": ["3"], "--seed": ["3", "-5"]}


@st.composite
def _argvs(draw):
    """An argv of options, their prefixes (with a letter after the dashes
    at least), values and =value forms around a command.  Options are
    mostly the command's own, with at most one stray token or foreign
    option among them, so that many argvs are accepted; each draw's
    simplest value (0) is the likeliest to be accepted."""
    def piece(names, with_value=True):
        name = draw(st.sampled_from(names))
        shortest = 2 if name == "-h" else 3
        option = name[:len(name) - draw(st.integers(0, len(name) - shortest))]
        good = draw(st.integers(0, 3)) < 3
        value = draw(st.sampled_from(
            _GOOD_VALUES.get(name, ["3", "3..5"]) if good else _VALUES))
        if not with_value:
            return [[option], [f"{option}={value}"]][draw(st.integers(0, 1))]
        return [[option, value], [option, value], [f"{option}={value}"],
                [option]][draw(st.integers(0, 3))]

    argv = []
    # before the command, usually nothing (a value there is the command,
    # as "x" is)
    if draw(st.integers(0, 3)) == 3:
        for _ in range(draw(st.integers(1, 2))):
            argv += piece(_OPTION_NAMES, with_value=False)
    command = draw(st.sampled_from([*_COMMAND_TABLE, "x", None]))
    if command is None:
        return argv
    argv.append(command)
    _, required, own = _COMMAND_TABLE.get(command, (None, (), _OPTION_NAMES))
    pieces = [piece(list(own)) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.integers(0, 3)) < 3:
        pieces[:0] = [[name, "3"] for name in required]
    if draw(st.integers(0, 2)) == 2:
        stray = ([draw(st.sampled_from(_VALUES))] if draw(st.booleans())
                 else piece(_OPTION_NAMES))
        pieces.insert(draw(st.integers(0, len(pieces))), stray)
    return argv + [token for piece in pieces for token in piece]


class TestOptionTable:
    @given(_argvs())
    @settings(max_examples=1000, deadline=None)
    def test_parsers_agree(self, argv):
        # the option table accepts what the argparse parser accepted, with
        # the same RunConfig and --input, and refuses what it refused
        expected = read_with(read_reference, argv)
        assert read_with(parse_args, argv) == expected, argv

    @pytest.mark.parametrize("argv", [
        ["certify", "--om", "3..5", "--sym"],
        ["certify", "--omega=3..5", "--symbolic", "--format=markdown"],
        ["certify", "--omega", "3", "--omega", "4", "--n", "-5"],
        ["scan", "--omega", "5", "--n", "16..20", "--jobs", "1",
         "--output", "-"],
        ["integrals", "--see=-5", "--f", "csv"],
        ["report", "--in", "r.json", "--input=s.json"],
        ["-h", "certify"], ["--vers", "certify"], ["certify", "-hh"],
        ["certify", "--omega", "3", "--he"],
        ["--bogus", "scan", "--help"],
        ["certify", "--omega", "x", "--help"],
    ])
    def test_accepted_as_before(self, argv):
        result = read_with(parse_args, argv)
        assert result[0] in ("config", "exit")
        assert result == read_with(read_reference, argv)

    @pytest.mark.parametrize("argv", [
        [], ["x"], ["--omega", "3"], ["certify"],
        ["certify", "--o", "3", "--symbolic"],
        ["scan", "--omega", "16", "--n", "1853..1864", "--output",
         "--jobs", "1"],
        ["certify", "--omega", "-x"],
        ["certify", "--omega", "3", "--symbolic=x"],
        ["certify", "--omega", "3", "--symbolic="],
        ["certify", "--omega", "3", "extra"],
        ["certify", "--omega", "3", "--jobs", "x"],
        ["certify", "--omega", "3", "--format", "cs"],
        ["certify", "--omega", "3", "--help=x"],
        ["certify", "--omega", "3", "-hx"],
        ["--version=1"], ["--help", "--=x"], ["certify", "--help", "--=x"],
        ["certify", "--help", "--o"],
        ["-5"], ["--", "certify", "--omega", "3"],
        ["certify", "--omega", "3", "--"],
        ["certify", "--omega", "--", "3"],
        ["certify", "--omega", "3", "--", "--help"],
    ])
    def test_refused_as_before(self, argv):
        # '--' (argparse's end of options) is refused wherever it stands,
        # as the argparse parser refused it on Python 3.11
        assert read_with(parse_args, argv) == "refused"
        if "--" not in argv:
            assert read_with(read_reference, argv) == "refused"

    def test_import_loads_no_unneeded_module(self):
        # a fresh interpreter without site (whose .pth files may import
        # anything) imports hvcert.cli without argparse, random or csv
        src = str(Path(hvcert.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, hvcert.cli\n"
             "print(sorted({'argparse', 'random', 'csv'} & set(sys.modules)))"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


class _PoolLog(list):
    """max_workers of each pool started; results holds what their maps
    returned, in order."""

    def __init__(self):
        super().__init__()
        self.results = []


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the process pool with a serial stand-in that starts no
    process; the list it returns records max_workers of each pool, and its
    results what each map returned."""
    import concurrent.futures
    asked = _PoolLog()

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            results = list(map(fn, *iterables))
            asked.results += results
            return iter(results)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        SerialPool)
    return asked


@pytest.fixture
def real_pool(monkeypatch):
    """Start real process pools, each with two workers whatever the CPU
    count; the list it returns records max_workers of each pool."""
    import concurrent.futures
    pool_class = concurrent.futures.ProcessPoolExecutor
    started = []

    def recording_pool(max_workers):
        started.append(max_workers)
        return pool_class(max_workers=max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        recording_pool)
    return started


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

    def test_pooled_scan_across_threshold(self, tmp_path, real_pool):
        # two workers return the entries of certified and empty cells on
        # both sides of the omega = 16 threshold n = 1859 in cell order
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["scan", "--omega", "16", "--n", "1857..1861"]
        assert main(base + ["--jobs", "1", "--output", str(a)]) == 0
        assert main(base + ["--jobs", "2", "--output", str(b)]) == 0
        assert real_pool == [2]
        assert a.read_bytes() == b.read_bytes()
        summary = json.loads(b.read_text())["summary"]
        assert summary["certified"] == 2
        assert summary["empty_cells"] == [[16, 1859], [16, 1860], [16, 1861]]
        assert summary["smallest_empty"] == [16, 1859]

    def test_pooled_certify_across_threshold(self, tmp_path, real_pool):
        # four cells, the fewest that start a pool; the empty one exits 1
        out = tmp_path / "r.json"
        assert main(["certify", "--omega", "16", "--n", "1856..1859",
                     "--jobs", "2", "--output", str(out)]) == 1
        assert real_pool == [2]
        summary = json.loads(out.read_text())["summary"]
        assert summary["empty_cells"] == [[16, 1859]]

    def test_jobs_capped_at_cell_count(self, serial_pool, monkeypatch,
                                       capsys):
        # a fork pool starts all of its workers at once
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        args = ["scan", "--omega", "5", "--n", "16..20"]
        assert main(args + ["--jobs", "64"]) == 0
        assert serial_pool == [5]
        # the workers return finished entries, not certificates
        assert [tuple(e) for e in serial_pool.results
                if type(e) is dict] == [_CSV_COLUMNS] * 5
        pooled = capsys.readouterr().out
        assert main(args + ["--jobs", "1"]) == 0
        assert capsys.readouterr().out == pooled

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
    def test_jobs_capped_at_cpu_count(self, serial_pool, monkeypatch,
                                      capsys, cpus, workers):
        # ten cells and --jobs 64 start no more workers than CPUs (one
        # when the count is unknown)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert main(["scan", "--omega", "5", "--n", "16..25",
                     "--jobs", "64"]) == 0
        assert serial_pool == [workers]

    def test_jobs_default_to_serial(self, monkeypatch, capsys):
        # without --jobs no pool starts, although five cells would use one
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        assert main(["scan", "--omega", "5", "--n", "16..20"]) == 0

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
        ("sphere-check",
         "2e09b60cfebb1ea2896ba478933214b1d92de263f1ec4c039684676de162c692"),
        ("scan --omega 3..15 --n 1000..1001",
         "08cecb195f702f31ea11962f753561b67139a83b44f3916261147fe01554d055"),
        ("integrals --seed 1",
         "22e845e2ece2dfca70da1903f40294aeb359273e4375377722894be64743403e"),
        ("scan --omega 16 --n 1853..1864 --format markdown",
         "bfbc80e4660519ffb3c5d414d7f57e673782b50e672539b80a5c71365117a17c"),
        ("sphere-check --format markdown",
         "1a270b4556b6f38b66fc3539b8de0f373698e0ef06fc7dd5ad62435847510d3a"),
        ("report --input THRESHOLD",
         "ee17771f745a0f8ea6d56d83b9cf5b2c12b9e407df91e569482ad5f363326354"),
    ], ids=["scan-16-threshold", "certify-16-threshold", "certify-3",
            "certify-7", "certify-11", "certify-15", "coeffs-5", "coeffs-7",
            "coeffs-16", "symbolic-3-16", "coeffs-7-markdown",
            "coeffs-16-markdown", "sphere-check", "scan-3-15-n1000",
            "integrals-1", "scan-16-threshold-markdown",
            "sphere-check-markdown", "report-scan-16-threshold"])
    def test_report_digest_is_fixed(self, tmp_path, args, digest):
        # sha256 of the whole JSON report: every cell's enclosure
        # midpoints, chosen c and verdict, byte for byte, on both sides of
        # the omega = 16 threshold n = 1859 and across family sizes, so a
        # faster cell kernel must give these reports unchanged; likewise
        # the coefficient tables (u_k/nu_k and the Delta_k partial
        # fractions) and the all-n certificates, whose omega = 16 failure
        # exits 1 after writing its report; the markdown tables pin the
        # monic u_k/nu_k string and the residues as printed fractions; the
        # sphere-check report pins the annulus deviations to the last
        # digit; at n = 1000..1001 for omega 3..15 about half the x and y
        # midpoints have a denominator above 10^40 and are rounded, the
        # others are only reduced; the integrals report pins its float
        # radial concentration, the markdown scan and sphere-check reports
        # their JSON summary block, and report --input (THRESHOLD, the
        # saved threshold scan) the re-emitted scan with its source echo
        out = tmp_path / "r.json"
        main(_argv(args, tmp_path) + ["--jobs", "1", "--output", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_entries_round_midpoints_in_integers(self, monkeypatch):
        # the 12 threshold cells, decided before the patch, give the same
        # entries (sha256 of their JSON) with Fraction.limit_denominator
        # unavailable: the midpoints are rounded without it
        certs = [certify_at(16, n) for n in range(1853, 1865)]

        def refuse(self, max_denominator=1000000):
            raise AssertionError("limit_denominator called")

        monkeypatch.setattr(Fraction, "limit_denominator", refuse)
        entries = [entry_from_certificate(cert) for cert in certs]
        text = json.dumps(entries, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e701ac3dce545e108efcf34b7833f39c4741f72ccacee023ae8bf74357c4373d")

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
        # exact is num/den in integers: Fraction would also read exponents
        # and decimals, and 1e999999999 as an integer of 10^9 digits
        ('{"tool_version": "0", "entries": [{"omega": 3, "n": 20, '
         '"nonempty": true, "x": [], "y": [], "chosen_c": {"decimal": '
         '"1e400", "exact": "1e400"}, "status": "certified"}], '
         '"summary": {"mode": "scan"}}', "csv"),
        ('{"tool_version": "0", "entries": [], "summary": {"omega": 5, '
         '"coefficients": [{"k": 1, "nu": "n", "d": "n", "u_over_nu": "n", '
         '"delta_polynomial_part": "n", "delta_simple_poles": [{'
         '"root": {"decimal": "0.5", "exact": "0.5"}, '
         '"residue": {"decimal": "1", "exact": "1/1"}}]}]}}', "markdown"),
        # NaN, Infinity and a number beyond a float's range are not JSON
        # values: re-emitted, they would be bare NaN and Infinity
        ('{"tool_version": "0", "entries": [], "summary": {"x": NaN}}',
         "json"),
        ('{"tool_version": "0", "entries": [], "summary": {"x": 1e400}}',
         "json"),
    ], ids=["empty-json", "empty-markdown", "empty-csv", "list",
            "entries-not-list", "no-tool-version", "summary-not-object",
            "entry-not-object", "entry-missing-fields", "x-not-list",
            "coefficients-not-list", "exact-not-a-number",
            "x-exact-not-a-number", "omega-and-n-bool", "n-bool", "k-bool",
            "coefficients-omega-bool", "exact-exponent", "exact-decimal",
            "nonfinite-summary", "overflowing-summary"])
    def test_report_input_of_wrong_shape_is_usage_error(
            self, tmp_path, capsys, text, fmt):
        src = tmp_path / "bad.json"
        src.write_text(text)
        assert main(["report", "--input", str(src), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hvcert: ")
        assert captured.err.count("\n") == 1

    def test_report_reemits_the_four_report_keys(self, tmp_path, capsys):
        # the re-emitted payload is {tool_version, config_echo, entries,
        # summary} in that order, whatever the input's key order: a
        # missing config_echo is echoed as a null source, and a key
        # hvcert does not write is dropped
        src = tmp_path / "saved.json"
        src.write_text('{"summary": {"mode": "scan"}, "extra": 1, '
                       '"entries": [], "tool_version": "0"}')
        assert main(["report", "--input", str(src)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["tool_version", "config_echo", "entries",
                             "summary"]
        assert out["config_echo"]["source"] is None
        assert (out["tool_version"], out["entries"], out["summary"]) == (
            "0", [], {"mode": "scan"})

    def test_report_reemits_coeffs_markdown(self, tmp_path, capsys):
        src = tmp_path / "coeffs.json"
        assert main(["coeffs", "--omega", "5", "--output", str(src)]) == 0
        assert main(["coeffs", "--omega", "5", "--format", "markdown"]) == 0
        direct = capsys.readouterr().out
        assert main(["report", "--input", str(src),
                     "--format", "markdown"]) == 0
        assert capsys.readouterr().out == direct


_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=40)


class TestJsonText:
    @settings(max_examples=200, deadline=None)
    @given(_JSON_TREES)
    @example({"a": {}, "b": [], "c": (), "d": [[], {}, ()],
              "e": {"f": [1, ({"g": []},)]}})
    @example(["", "\u00e9\u2028\U0001d525\ud800", "\x00\x1f\x7f\n\t",
              '"quoted" \\ back/slash', {"\u00e9\"\\\x01": "k"}])
    @example([2 ** 200, -(10 ** 40), -1, 0, True, False, None])
    @example([-0.0, 0.0, 1e300, -1e-300, 5e-324, 0.1, float("nan"),
              float("inf"), float("-inf")])
    def test_matches_json_dumps_indent_2(self, value):
        assert json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        {1, 2}, Fraction(1, 3), {1: "one"}, {None: 0}, {(1, 2): 0},
        [{"a": [frozenset()]}],
    ], ids=["set", "fraction", "int-key", "none-key", "tuple-key",
            "nested-frozenset"])
    def test_refuses_what_hvcert_never_writes(self, value):
        with pytest.raises(TypeError):
            json_text(value)

    @pytest.mark.parametrize("args", [
        "certify --omega 16 --n 1857..1860",
        "certify --omega 3..16 --symbolic",
        "scan --omega 16 --n 1853..1864",
        "coeffs --omega 5",
        "integrals --seed 1",
        "sphere-check",
        "report --input THRESHOLD",
    ])
    def test_every_command_writes_json_dumps_text(self, tmp_path, args):
        # the JSON report and the markdown summary block of every
        # command's payload are json.dumps(indent=2)'s text
        config = config_from_args(parse_args(_argv(args, tmp_path)))
        payload, _ = _COMMANDS[config.command](config)
        assert emit_json(payload) == json.dumps(payload, indent=2) + "\n"
        block = f"```json\n{json.dumps(payload['summary'], indent=2)}\n```\n"
        assert block in emit_markdown(payload)


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

    def test_runs_without_sympy(self, tmp_path):
        # sympy and mpmath are test-only references that no hvcert module
        # imports: every hvcert module imports, and integrals and
        # sphere-check run, without loading either, and with dataclasses
        # blocked (a None entry in sys.modules fails every import of it)
        src = str(Path(hvcert.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = (
            "import importlib, pkgutil, sys\n"
            "sys.modules['dataclasses'] = None\n"
            "import hvcert\n"
            "for m in pkgutil.iter_modules(hvcert.__path__):\n"
            "    importlib.import_module('hvcert.' + m.name)\n"
            "from hvcert.cli import main\n"
            "assert main(['integrals', '--seed', '1',\n"
            "             '--output', sys.argv[1]]) == 0\n"
            "assert main(['sphere-check', '--output', sys.argv[1]]) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('sympy', 'mpmath')))\n")
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "sphere.json")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


class TestTracedNames:
    def test_wrapped_and_oracle_names_resolve(self):
        # perfbench/tracing.py replaces these names in a traced run; a
        # rename in hvcert must show here, not only in a traced benchmark.
        # The file is executed from its source, so nothing is written
        # next to it
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        tracing = types.ModuleType("tracing")
        exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
        names = [(mod, attr) for mod, attr, _ in tracing.WRAPPED]
        names += [(mod, attr) for mod, attrs in tracing.ORACLES.values()
                  for attr in attrs]
        assert ("hvcert.certify", "sqrt_enclosure") in names
        for mod, attr in names:
            assert callable(getattr(importlib.import_module(mod), attr,
                                    None)), (mod, attr)
