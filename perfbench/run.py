"""hvcert benchmark: runs hvcert the way its user does, one command per
fresh process through hvcert.cli.main with --jobs 1, checks every report
with the independent checker, and prints the metrics.

usage:
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --workload all --seed <n> --seconds <s>

A run repeats whole rounds of its workload's commands until --seconds have
passed, then checks every report.  The last line of standard output is one
JSON object {correct, attempted, failed, metrics}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 rounds alternate between
untraced and traced, and the metrics are the per-layer ones from the
traced rounds plus the tracing overhead.  `--workload all` runs every
workload both ways and prints one table per workload.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import checker
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THRESHOLD_OMEGA = 16
THRESHOLD_BAND = (1853, 1864)     # 6 certified cells, then 6 empty ones
THRESHOLD_N = 1859
SWEEP_OMEGAS = range(3, 16)
SWEEP_WINDOW = 4                  # consecutive n per omega
SWEEP_N_MAX = 400
SYMBOLIC_OMEGAS = range(3, 17)
SETUP_PROBES = 25                 # import-only processes per run, for setup_s
CHILD_TIMEOUT_S = 150
# Times are scaled to the speed at which child.calibrate() takes this long
# (roughly its time on an unloaded 2-core x86 VM): on a shared box the CPU
# speed seen by one process swings by up to 1.8x within a second and
# drifts over tens of seconds, which the calibration run next to every
# process tracks.
CALIBRATION_REF_S = 0.0025
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"),
              ("verdicts_per_s", "1/s"), ("peak_rss_mib", "MiB"))


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[dict, int], checker.Verdict]
    operations: int = 1       # report entries, or 1 for an oracle suite


def _check_threshold(report: dict, exit_code: int) -> checker.Verdict:
    if checker.threshold_band(*THRESHOLD_BAND, omega=THRESHOLD_OMEGA) != THRESHOLD_N:
        raise ValueError(f"the checker does not find omega={THRESHOLD_OMEGA} "
                         f"turning empty at n={THRESHOLD_N}")
    return checker.check_scan(report, exit_code, "scan",
                              (THRESHOLD_OMEGA, THRESHOLD_OMEGA), THRESHOLD_BAND)


def sweep_windows(seed: int) -> list[tuple[int, int, int]]:
    """(omega, lo, hi) per omega: SWEEP_WINDOW consecutive n drawn
    uniformly from [2 omega + 6, SWEEP_N_MAX]."""
    rng = random.Random(seed)
    windows = []
    for omega in SWEEP_OMEGAS:
        lo = rng.randint(2 * omega + 6, SWEEP_N_MAX - SWEEP_WINDOW + 1)
        windows.append((omega, lo, lo + SWEEP_WINDOW - 1))
    return windows


def workload_commands(name: str, seed: int) -> list[Command]:
    if name == "scan-threshold16":
        lo, hi = THRESHOLD_BAND
        return [Command(("scan", "--omega", str(THRESHOLD_OMEGA), "--n", f"{lo}..{hi}"),
                        _check_threshold, hi - lo + 1)]
    if name == "scan-sweep":
        return [Command(("certify", "--omega", str(w), "--n", f"{lo}..{hi}"),
                        partial(_check_numeric, omega=w, n=(lo, hi)), hi - lo + 1)
                for w, lo, hi in sweep_windows(seed)]
    if name == "symbolic-ray":
        return [Command(("certify", "--omega", str(w), "--symbolic"),
                        partial(checker.check_symbolic, omega=w))
                for w in SYMBOLIC_OMEGAS]
    if name == "oracles":
        return [Command(("integrals", "--seed", str(seed)),
                        partial(checker.check_integrals, seed=seed)),
                Command(("sphere-check",), checker.check_sphere)]
    raise ValueError(f"unknown workload {name!r}")


def _check_numeric(report, exit_code, omega, n):
    return checker.check_scan(report, exit_code, "numeric", (omega, omega), n)


WORKLOADS = ("scan-threshold16", "scan-sweep", "symbolic-ray", "oracles")


# ---------------------------------------------------------------------------
# One command in a fresh process
# ---------------------------------------------------------------------------

@dataclass
class ChildResult:
    spawn: float
    imported: float = 0.0
    start: float = 0.0
    end: float = 0.0
    cal_before: float = 1.0
    cal_during: list[float] = field(default_factory=list)
    cal_after: float = 1.0
    exit: int = -1
    maxrss_kib: int = 0
    report: bytes = b""
    spans: list | None = None
    error: str = ""

    @property
    def scale(self) -> float:
        """Factor from this command's seconds to reference seconds."""
        return CALIBRATION_REF_S / statistics.mean(
            [self.cal_before, *self.cal_during, self.cal_after])

    @property
    def setup_s(self) -> float:
        return (self.imported - self.spawn) * CALIBRATION_REF_S / self.cal_before

    @property
    def wall_s(self) -> float:
        return (self.end - self.start) * self.scale


def run_child(command: Command | None, workdir: Path, traced: bool) -> ChildResult:
    """Run one command in a fresh process, or (command None) a set-up probe."""
    report_path = workdir / "report.json"
    trace_path = workdir / "spans.json"
    for path in (report_path, trace_path):
        path.unlink(missing_ok=True)
    args = [sys.executable, str(HERE / "child.py"), str(SRC),
            str(trace_path) if traced else "-"]
    if command is not None:
        # a relative --output keeps config_echo, and so the report size,
        # the same in every checkout
        args += [*command.argv, "--jobs", "1", "--output", report_path.name]
    env = {k: v for k, v in os.environ.items() if k != "HVCERT_OUTPUT_DIR"}
    result = ChildResult(spawn=time.monotonic())
    try:
        proc = subprocess.run(args, capture_output=True, text=True,
                              env=env | CHILD_ENV, cwd=workdir,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        result.error = f"killed after {CHILD_TIMEOUT_S} s"
        return result
    try:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        if command is not None:
            result.report = report_path.read_bytes()
    except (IndexError, ValueError, OSError):
        result.error = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return result
    if not Path(line["hvcert"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"hvcert imported from {line['hvcert']}, not {SRC}")
    for key in ("imported", "start", "end", "cal_before", "cal_during", "cal_after",
                "exit", "maxrss_kib"):
        setattr(result, key, line.get(key, getattr(result, key)))
    if traced:
        result.spans = json.loads(trace_path.read_text(encoding="utf-8"))
    return result


# ---------------------------------------------------------------------------
# A run: whole rounds for --seconds, then the checks
# ---------------------------------------------------------------------------

@dataclass
class Run:
    commands: list[Command]
    rounds: list[tuple[bool, list[ChildResult]]]
    probes: list[ChildResult]


def measure(commands: list[Command], seconds: float, trace: bool,
            workdir: Path) -> Run:
    """Untraced rounds only, or (trace) untraced and traced in turn; then
    the set-up probes."""
    rounds = []
    start = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append((traced, [run_child(c, workdir, traced) for c in commands]))
        if time.monotonic() - start >= seconds and (not trace or len(rounds) >= 2):
            break
    probes = [] if trace else [run_child(None, workdir, False)
                               for _ in range(SETUP_PROBES)]
    return Run(commands, rounds, probes)


def check(run: Run) -> tuple[int, int, int, list[str]]:
    """attempted, failed, wrong and the problems, over every report.  Each
    round's entries and summary must also equal the first round's."""
    attempted = failed = wrong = 0
    problems = []
    first: dict[int, tuple] = {}
    for _, results in run.rounds:
        for i, (command, result) in enumerate(zip(run.commands, results)):
            ops = command.operations
            attempted += ops
            if result.error:
                failed += ops
                problems.append(f"{' '.join(command.argv)}: {result.error}")
                continue
            report = json.loads(result.report)
            verdict = command.check(report, result.exit)
            fields = (report.get("entries"), report.get("summary"))
            if first.setdefault(i, fields) != fields and not verdict.failed:
                verdict.fail("entries or summary differ between rounds", count=ops)
            failed += verdict.failed
            wrong += verdict.wrong
            problems += [f"{' '.join(command.argv)}: {p}" for p in verdict.problems]
    return attempted, failed, wrong, problems


def round_wall(results: list[ChildResult]) -> float:
    return sum(r.wall_s for r in results if not r.error)


def end_to_end(run: Run) -> dict[str, float]:
    """Medians over rounds (setup: over the probes); verdicts_per_s counts
    a round's operations per second of its commands, start-up included."""
    children = [r for _, results in run.rounds for r in results if not r.error]
    operations = sum(c.operations for c in run.commands)
    return {
        "setup_s": statistics.median(r.setup_s for r in run.probes if not r.error),
        "wall_s": statistics.median(round_wall(results) for _, results in run.rounds),
        "verdicts_per_s": statistics.median(
            operations / sum(r.setup_s + r.wall_s for r in results if not r.error)
            for _, results in run.rounds),
        "peak_rss_mib": max(r.maxrss_kib for r in children) / 1024,
    }


def per_layer(run: Run) -> dict[str, float]:
    traced = [results for is_traced, results in run.rounds if is_traced]
    plain = [results for is_traced, results in run.rounds if not is_traced]
    metrics = tracing.layer_metrics(
        [[(r.spans, r.scale) for r in results if r.spans is not None]
         for results in traced],
        report_bytes=sum(len(r.report) for r in traced[0]))
    untraced = statistics.median(round_wall(results) for results in plain)
    metrics["trace.wall_s"] = statistics.median(round_wall(results) for results in traced)
    metrics["trace.untraced_wall_s"] = untraced
    # each traced round against the untraced round just before it, in
    # unscaled time: neighbours share the box's state, and the ratio needs
    # no calibration
    ratio = statistics.median(
        sum(r.end - r.start for r in after) / sum(r.end - r.start for r in before)
        for (_, before), (_, after) in zip(run.rounds[::2], run.rounds[1::2]))
    metrics["trace.overhead_s"] = (ratio - 1) * untraced
    metrics["trace.overhead_pct"] = 100 * (ratio - 1)
    return {key: metrics.get(key, 0) for key, _ in tracing.PER_LAYER}


def write_spans(run: Run, path: Path) -> None:
    spans = [[round_no, " ".join(command.argv), result.spans]
             for round_no, (is_traced, results) in enumerate(run.rounds) if is_traced
             for command, result in zip(run.commands, results)]
    path.write_text(json.dumps(spans), encoding="utf-8")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = workload_commands(name, seed)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = measure(commands, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, wrong, problems = check(run)
    for problem in problems[:20]:
        print(f"{name}: {problem}", file=sys.stderr)
    if trace:
        write_spans(run, OUT / f"spans-{name}-seed{seed}.json")
        values, units = per_layer(run), dict(tracing.PER_LAYER)
    else:
        values, units = end_to_end(run), dict(END_TO_END)
    calibration = statistics.median(r.cal_before for _, results in run.rounds
                                    for r in results)
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            "rounds": len(run.rounds), "calibration_ms": 1000 * calibration}


def print_table(name: str, trace: bool, result: dict) -> None:
    print(f"== {name} ({'traced' if trace else 'untraced'}, "
          f"{result['rounds']} rounds, calibration "
          f"{result['calibration_ms']:.3f} ms): attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {str(result['correct']).lower()}")
    for key, metric in result["metrics"].items():
        print(f"  {key:42s} {metric['value']:14.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    # on SIGTERM, unwind: subprocess.run kills the running child, and the
    # temporary reports are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hvcert" / "cli.py").is_file():
        print(f"perfbench: no hvcert sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "hvcert")],
                   check=True, timeout=CHILD_TIMEOUT_S)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_table(args.workload, bool(args.trace), result)
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0
    results = {}
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, args.seed, args.seconds, trace)
            print_table(name, trace, result)
            results[f"{name}/trace{int(trace)}"] = result
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
