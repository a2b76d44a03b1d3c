"""Run one hvcert command in this fresh process, the way its user does
(through hvcert.cli.main), and print its timings as one JSON line.

usage: python3 child.py <src-dir> <trace-file or -> [hvcert arguments...]

The line holds the monotonic clock right after hvcert.cli is imported
(the system-wide clock, so the parent can subtract its spawn time), the
command's own start and end, the exit code, the peak RSS, and the times
of a fixed calibration loop run just before the command, every
CALIBRATION_PERIOD_S during it (from a SIGALRM handler, so the samples
cover long commands evenly) and just after it, so the parent can scale
the times to a reference CPU speed.  With a trace file the layer spans are
recorded and written there when the command ends.
Without hvcert arguments the process is a set-up probe: it stops after
the import and the first calibration.
"""

import json
import signal
import sys
import time
from fractions import Fraction

CALIBRATION_PERIOD_S = 0.25


def calibrate(reps: int = 3) -> float:
    """Fastest of a few runs of a fixed pure-Python Fraction loop, the
    kind of arithmetic hvcert's exact layers do."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i * i + 1, 2 * i + 3)
            acc = Fraction(acc.numerator % 10 ** 40, acc.denominator % 10 ** 40 + 1)
        best = min(best, time.perf_counter() - start)
    return best


def peak_rss_kib() -> int:
    """High-water RSS of this process image.  Unlike ru_maxrss it leaves
    out the parent's memory, which a forked child inherits before exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for entry in fh:
            if entry.startswith("VmHWM:"):
                return int(entry.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


src, trace_path, *argv = sys.argv[1:]
sys.path.insert(0, src)

import hvcert.cli  # noqa: E402

line = {"imported": time.monotonic(), "cal_before": calibrate(),
        "hvcert": hvcert.cli.__file__}
if argv:
    if trace_path != "-":
        import tracing  # the tracer's own import is not part of the command
    during = line["cal_during"] = []
    signal.signal(signal.SIGALRM, lambda signum, frame: during.append(calibrate(1)))
    signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
    line["start"] = time.monotonic()
    if trace_path == "-":
        line["exit"] = hvcert.cli.main(argv)
    else:
        recorder = tracing.Recorder()

        def traced_main():
            recorder.install(argv[0])
            return hvcert.cli.main(argv)

        line["exit"] = recorder.wrap("cli.main", traced_main)()
    line["end"] = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, 0)
    line["cal_after"] = calibrate()
    if trace_path != "-":
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
    line["maxrss_kib"] = peak_rss_kib()
print(json.dumps(line))
