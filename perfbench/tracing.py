"""Layer spans for a traced hvcert command, and their per-layer metrics.

A traced child process replaces the public names that one hvcert module
imports from another (and the oracle functions the CLI calls) with
wrappers.  Each wrapper records a span: name, start, end, parent index and
an optional note taken from the result (the witness method of a
positivity proof, the status of a cell certificate).  The program itself
is not changed.  Spans stay in memory and are written once, when the
command ends.

Span names are "<module>.<function>" after the module that defines the
function, so "certify.certify_at" is the certify_at that hvcert.cli calls.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (module whose global is replaced, attribute, span name)
WRAPPED = (
    ("hvcert.cli", "certify_at", "certify.certify_at"),
    ("hvcert.cli", "symbolic_certificate", "certify.symbolic_certificate"),
    ("hvcert.cli", "entry_from_certificate", "cli.entry_from_certificate"),
    ("hvcert.cli", "emit_report", "cli.emit_report"),
    ("hvcert.certify", "roots_at", "certify.roots_at"),
    ("hvcert.certify", "spectral_family", "spectral.spectral_family"),
    ("hvcert.certify", "sqrt_enclosure", "algebra.sqrt_enclosure"),
    ("hvcert.certify", "sign_with_sqrts", "algebra.sign_with_sqrts"),
    ("hvcert.certify", "nonnegative_on_ray", "algebra.nonnegative_on_ray"),
    ("hvcert.certify", "partial_fractions", "algebra.partial_fractions"),
)
# oracle modules are imported lazily by their commands
ORACLES = {
    "integrals": ("hvcert.integrals", (
        "recurrence_check", "inte_identity_check", "rela_shorthand_report",
        "norme_f2_check", "k2_inverse_square", "radial_yamabe")),
    "sphere-check": ("hvcert.sphere", (
        "b_trace_residual", "b_divergence_residual", "qbc_quadrature",
        "qbc_closed_forms", "annulus_curvature_check")),
}


def _note(name: str, result) -> str | None:
    if name == "algebra.nonnegative_on_ray":
        return result[1].method
    if name == "certify.certify_at":
        return result.status
    return None


class Recorder:
    """Spans of one process: [name, start_ns, end_ns, parent, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0,
                    self._open[-1] if self._open else -1, None]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._open.pop()
            span[4] = _note(name, result)
            return result
        return traced

    def install(self, command: str) -> None:
        """Wrap the names above; for an oracle command, import its module
        first (the command would import it anyway) and wrap its functions."""
        targets = [(importlib.import_module(mod), attr, name)
                   for mod, attr, name in WRAPPED]
        if command in ORACLES:
            mod_name, attrs = ORACLES[command]
            mod = importlib.import_module(mod_name)
            layer = mod_name.split(".")[1]
            targets += [(mod, attr, f"{layer}.{attr}") for attr in attrs]
        for mod, attr, name in targets:
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))


# ---------------------------------------------------------------------------
# Aggregation (benchmark side)
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[int]:
    """Duration of each span minus the durations of its direct children.
    Spans of one process nest without overlap, so children never overlap."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def round_metrics(processes: list[tuple[list[list], float]]) -> dict[str, float]:
    """Per-layer figures for one round: the spans of each of its commands,
    with the factor that scales that process's seconds to reference ones."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for spans, scale in processes:
        for (name, start, end, parent, note), own in zip(spans, self_times(spans)):
            layer = name.split(".")[0]
            seconds = (end - start) * scale / 1e9
            add(f"{layer}.self.s", own * scale / 1e9)
            add(f"{name}.calls", 1)
            add(f"{name}.s", seconds)
            if layer in ("integrals", "sphere") and (
                    parent < 0 or not spans[parent][0].startswith(layer + ".")):
                add(f"{layer}.s", seconds)
            if name == "algebra.nonnegative_on_ray" and note == "sturm":
                add("algebra.nonnegative_on_ray.sturm_calls", 1)
            if name == "certify.certify_at":
                add(f"certify.cells_{note}", 1)
    return out


PER_LAYER = (
    ("cli.self.s", "s"),
    ("cli.entry_from_certificate.s", "s"),
    ("cli.emit_report.s", "s"),
    ("cli.report_bytes", "bytes"),
    ("certify.certify_at.calls", "count"),
    ("certify.certify_at.s", "s"),
    ("certify.certify_at.p50_ms", "ms"),
    ("certify.certify_at.p90_ms", "ms"),
    ("certify.roots_at.s", "s"),
    ("certify.symbolic_certificate.s", "s"),
    ("certify.self.s", "s"),
    ("certify.cells_certified", "count"),
    ("certify.cells_empty", "count"),
    ("spectral.spectral_family.calls", "count"),
    ("spectral.spectral_family.s", "s"),
    ("spectral.spectral_family.calls_per_cell", "count"),
    ("algebra.sqrt_enclosure.calls", "count"),
    ("algebra.sqrt_enclosure.s", "s"),
    ("algebra.sign_with_sqrts.calls", "count"),
    ("algebra.sign_with_sqrts.s", "s"),
    ("algebra.nonnegative_on_ray.calls", "count"),
    ("algebra.nonnegative_on_ray.s", "s"),
    ("algebra.nonnegative_on_ray.sturm_calls", "count"),
    ("algebra.partial_fractions.calls", "count"),
    ("algebra.partial_fractions.s", "s"),
    ("algebra.self.s", "s"),
    ("integrals.s", "s"),
    ("integrals.radial_yamabe.s", "s"),
    ("integrals.self.s", "s"),
    ("sphere.b_trace_residual.s", "s"),
    ("sphere.b_divergence_residual.s", "s"),
    ("sphere.qbc_quadrature.s", "s"),
    ("sphere.annulus_curvature_check.s", "s"),
    ("sphere.self.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)


def layer_metrics(rounds: list[list[tuple[list[list], float]]],
                  report_bytes: float) -> dict[str, float]:
    """Per-round medians of the per-layer figures over the traced rounds,
    plus percentiles of single certify_at calls over all of them."""
    per_round = [round_metrics(spans) for spans in rounds]
    keys = {key for metrics in per_round for key in metrics}
    out = {key: statistics.median(m.get(key, 0) for m in per_round) for key in keys}
    cells_ms = sorted((end - start) * scale / 1e6 for processes in rounds
                      for spans, scale in processes
                      for name, start, end, _, _ in spans
                      if name == "certify.certify_at")
    if len(cells_ms) >= 2:
        q = statistics.quantiles(cells_ms, n=10, method="inclusive")
        out["certify.certify_at.p50_ms"] = statistics.median(cells_ms)
        out["certify.certify_at.p90_ms"] = q[8]
    cells = out.get("certify.certify_at.calls", 0)
    if cells:
        out["spectral.spectral_family.calls_per_cell"] = (
            out.get("spectral.spectral_family.calls", 0) / cells)
    out["cli.report_bytes"] = report_bytes
    return out
