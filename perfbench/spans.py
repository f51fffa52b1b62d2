"""Span tracing around the public functions of each ``qha`` layer.

The child process calls :meth:`Tracer.install` after ``qha`` is imported.
It replaces every traced function in every ``qha`` module namespace (and
in module-level dicts such as ``PROBE_CASES``) that bound it, because
``from .weyl import weyl`` copies the binding into ``qha.conv``,
``qha.wiener`` and ``qha.tauber``.  Spans stay in memory and are written
once, when the operation ends.  The parent turns the span files of one
pass into per-layer metrics with :func:`layer_metrics`.

A span is ``[name, start, end, parent, op_id, error, size]``: ``parent``
is the index of the enclosing span in the same process (-1 for none),
``size`` is the phase-space dimension N for the convolutions (0 otherwise).
"""
from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from collections import defaultdict
from math import log
from time import perf_counter

LAYERS = ("cli", "groups", "weyl", "conv", "wiener", "numerics", "tauber", "asymptotics")

#: (defining module, function name) of every traced function.
TARGETS = (
    ("qha.cli", "dispatch"),
    ("qha.cli", "emit_csv"),
    ("qha.groups", "fourier"),
    ("qha.groups", "convolve"),
    ("qha.groups", "read_group_function"),
    ("qha.groups", "_read_indexed_csv"),
    ("qha.groups", "write_group_function"),
    ("qha.weyl", "weyl"),
    ("qha.weyl", "op_translate"),
    ("qha.weyl", "fourier_weyl"),
    ("qha.weyl", "fourier_weyl_inverse"),
    ("qha.weyl", "weyl_identity_residuals"),
    ("qha.conv", "conv_fn_op"),
    ("qha.conv", "conv_op_op"),
    ("qha.conv", "symplectic_fourier"),
    ("qha.conv", "verify_norm_estimates"),
    ("qha.conv", "convolution_theorem_residuals"),
    ("qha.conv", "pin_orientation"),
    ("qha.wiener", "regular_op_set"),
    ("qha.numerics", "svd_rank"),
    ("qha.asymptotics.probes", "box_modulation_case"),
    ("qha.asymptotics.probes", "parity_shift_case"),
    ("qha.asymptotics.probes", "halmos_shift_case"),
    ("qha.asymptotics.probes", "topology_probe"),
    ("qha.asymptotics.gridops", "cac_example"),
    ("qha.asymptotics.windowed", "compactness_proxy"),
    ("qha.tauber", "stft"),
    ("qha.tauber", "windowed_stft_profile"),
    ("qha.tauber", "rk_moduli"),
    ("qha.tauber", "uniform_compactness_profile"),
)

# Per-layer metrics: self time summed over the named spans.
SELF_TIMES = {
    "conv.conv_fn_op_s": ("conv.conv_fn_op",),
    "conv.conv_op_op_s": ("conv.conv_op_op",),
    "conv.symplectic_fourier_s": ("conv.symplectic_fourier",),
    "conv.audit_self_s": (
        "conv.verify_norm_estimates",
        "conv.convolution_theorem_residuals",
        "conv.pin_orientation",
    ),
    "weyl.weyl_s": ("weyl.weyl",),
    "weyl.op_translate_s": ("weyl.op_translate",),
    "weyl.fourier_weyl_s": ("weyl.fourier_weyl",),
    "weyl.fourier_weyl_inverse_s": ("weyl.fourier_weyl_inverse",),
    "weyl.identity_residuals_s": ("weyl.weyl_identity_residuals",),
    "weyl.svd_s": ("weyl.svd",),
    "wiener.regular_op_set_s": ("wiener.regular_op_set",),
    "numerics.svd_rank_s": ("numerics.svd_rank",),
    "asymptotics.case_build_s": (
        "asymptotics.box_modulation_case",
        "asymptotics.parity_shift_case",
        "asymptotics.halmos_shift_case",
    ),
    "asymptotics.topology_probe_s": ("asymptotics.topology_probe",),
    "asymptotics.cac_example_s": ("asymptotics.cac_example",),
    "asymptotics.compactness_proxy_s": ("asymptotics.compactness_proxy",),
    "tauber.stft_s": ("tauber.stft",),
    "tauber.windowed_stft_profile_s": ("tauber.windowed_stft_profile",),
    "tauber.rk_moduli_s": ("tauber.rk_moduli",),
    "tauber.uniform_compactness_profile_s": ("tauber.uniform_compactness_profile",),
    "groups.fourier_s": ("groups.fourier",),
    "groups.convolve_s": ("groups.convolve",),
    "groups.csv_read_s": ("groups.read_group_function", "groups._read_indexed_csv"),
    "groups.csv_write_s": ("groups.write_group_function",),
    "cli.emit_csv_s": ("cli.emit_csv",),
    "cli.dispatch_self_s": ("cli.dispatch",),
}

# Per-layer metrics: exact number of calls of one span.
CALLS = {
    "conv.conv_fn_op.calls": "conv.conv_fn_op",
    "conv.conv_op_op.calls": "conv.conv_op_op",
    "weyl.weyl.calls": "weyl.weyl",
    "weyl.op_translate.calls": "weyl.op_translate",
    "weyl.svd.calls": "weyl.svd",
    "numerics.svd_rank.calls": "numerics.svd_rank",
    "groups.convolve.calls": "groups.convolve",
    "cli.emit_csv.calls": "cli.emit_csv",
}

# Per-layer metrics: counters the hooks below add up, with their units.
COUNTERS = {
    "wiener.rank_warnings": "count",
    "wiener.disagreements": "count",
    "asymptotics.probe_rows": "count",
    "groups.csv_bytes_in": "B",
    "cli.csv_bytes_out": "B",
}

#: Phase-space dimensions over which the convolution exponents are fitted.
LADDER = (8, 16, 24, 48)
EXPONENTS = {
    "conv.conv_fn_op.exponent": "conv.conv_fn_op",
    "conv.conv_op_op.exponent": "conv.conv_op_op",
}


def _layer(module: str) -> str:
    """'qha.asymptotics.probes' -> 'asymptotics'."""
    return module.split(".")[1]


def _stdout_offset() -> int:
    sys.stdout.flush()
    return os.lseek(sys.stdout.fileno(), 0, os.SEEK_CUR)


def _written_bytes(path_index: int):
    """Hook pair counting the bytes a CSV writer puts in its file or on stdout."""

    def before(args, kwargs):
        path = args[path_index] if len(args) > path_index else kwargs.get("path")
        return path, (_stdout_offset() if path in (None, "-") else 0)

    def after(counts, state, result):
        path, offset = state
        if path in (None, "-"):
            counts["cli.csv_bytes_out"] += _stdout_offset() - offset
        else:
            counts["cli.csv_bytes_out"] += os.path.getsize(path)

    return before, after


def _read_bytes(args, kwargs):
    return args[0] if args else kwargs["path"]


def _count_read(counts, path, result):
    counts["groups.csv_bytes_in"] += os.path.getsize(path)


def _count_regularity(counts, state, report):
    disagree = not report.predicates_agree
    counts["wiener.disagreements"] += int(disagree)
    counts["wiener.rank_warnings"] += len(report.warnings) - int(disagree)


def _count_rows(counts, state, result):
    counts["asymptotics.probe_rows"] += len(result.rows)


def _dim(args, kwargs):
    return args[-1].dim if args else 0


HOOKS = {
    "cli.emit_csv": _written_bytes(0),
    "groups.write_group_function": _written_bytes(1),
    "groups._read_indexed_csv": (_read_bytes, _count_read),
    "wiener.regular_op_set": (None, _count_regularity),
    "asymptotics.topology_probe": (None, _count_rows),
}
SIZES = {"conv.conv_fn_op": _dim, "conv.conv_op_op": _dim}


class Tracer:
    """Collects spans and counters for one operation in one process."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, fn, name: str):
        before, after = HOOKS.get(name, (None, None))
        size_of = SIZES.get(name)
        spans, stack, counts, op_id = self.spans, self.stack, self.counts, self.op_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            size = size_of(args, kwargs) if size_of else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, op_id, error, size]
            if after:
                after(counts, state, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every ``qha`` namespace that binds it."""
        modules = [m for key, m in sys.modules.items() if key == "qha" or key.startswith("qha.")]
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(original, f"{_layer(module_name)}.{attr}")
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = traced
        hilbert = sys.modules["qha.weyl"].HilbertOp
        prop = functools.cached_property(self.wrap(hilbert.__dict__["singular_values"].func, "weyl.svd"))
        prop.__set_name__(hilbert, "singular_values")
        hilbert.singular_values = prop

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# --- analysis in the parent ---------------------------------------------------


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric this module derives, with its unit."""
    names = {m: "s" for m in SELF_TIMES}
    names.update({m: "count" for m in CALLS})
    names.update(COUNTERS)
    names.update({m: "1" for m in EXPONENTS})
    names.update({f"{layer}.errors": "count" for layer in LAYERS})
    return names


def _slope(points: dict[int, list[float]]) -> float:
    """Log-log slope of the median per-call time against N; 0 with < 2 sizes."""
    sizes = [n for n in LADDER if points.get(n)]
    if len(sizes) < 2:
        return 0.0
    xs = [log(n) for n in sizes]
    ys = [log(statistics.median(points[n])) for n in sizes]
    return statistics.linear_regression(xs, ys).slope


def layer_metrics(span_files) -> dict[str, float]:
    """Per-layer metrics of one pass, from the span files of its operations."""
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    durations: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in span_files:
        with open(path) as fh:
            data = json.load(fh)
        spans = data["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _op, _err, _size in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _parent, _op, error, size) in enumerate(spans):
            self_time[name] += (end - start) - covered[i]
            calls[name] += 1
            errors[name.split(".", 1)[0]] += int(error)
            if size:
                durations[name][size].append(end - start)
        for key, value in data["counts"].items():
            counts[key] += value
    out: dict[str, float] = {}
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(self_time[n] for n in names)
    for metric, name in CALLS.items():
        out[metric] = calls[name]
    for metric in COUNTERS:
        out[metric] = counts[metric]
    for metric, name in EXPONENTS.items():
        out[metric] = _slope(durations[name])
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    return out
