"""Command-line experiment runner.

Every subcommand and option is declared in one table, ``_COMMANDS``, from
which :func:`build_parser` builds the parser.  Each subcommand runs one
diagnostic; the convolution-theorem residuals, the orientation oracle, the
compactness profiles and b0_diagnostic have none and run as library
calls.  All numerical output goes to CSV (files or stdout).
Randomized audits require an explicit seed, outputs embed their
reproducibility manifest in a leading comment line, and re-running a
manifest via ``qha run`` produces byte-identical files.

Exit codes: 0 success, 1 a mathematical audit failed, 2 usage or
precondition error, or an allocation refused for lack of memory.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

# One BLAS thread, so a manifest gives the same bytes under any thread
# setting (the box-modulation norms move in the last digits with the thread
# count).  OpenBLAS reads the setting when numpy loads; the ``qha`` package
# imports nothing, so in a ``qha`` command this runs before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

from .asymptotics.gridops import cac_example
from .asymptotics.probes import CLASSIFICATIONS, PROBE_CASES, topology_probe
from .asymptotics.windowed import WindowedFunction, halmos_column_profile
from .conv import verify_norm_estimates
from .errors import PreconditionError
from .groups import FiniteAbelianGroup, convolve, fourier, read_group_function, write_group_function
from .io import write_table
from .numerics import DEFAULT_EQ_TOL, seeded_uniform
from .tauber import (NetCertificate, certified_tail_bound, check_stft_profile_size, rk_moduli,
                     windowed_stft_profile)
from .weyl import HilbertOp, PhaseSpace, weyl_identity_residuals
from .wiener import degenerate_operator_set, regular_op_set


def format_value(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _check_finite(header, rows) -> None:
    for name, column in zip(header, zip(*rows)):
        if not np.isfinite([v for v in column if isinstance(v, (float, np.floating))]).all():
            raise ValueError(f"column {name!r} holds a non-finite value; nothing is written")


def emit_csv(path, header, rows, comment: str | None = None) -> None:
    """Write rows with 17-significant-digit reals under an optional comment
    line; path '-' writes to stdout.  A non-finite real raises ValueError
    naming its column, before anything is written."""
    if len(header) and rows and any(len(r) != len(header) for r in rows):
        raise ValueError("record arity does not match header")
    _check_finite(header, rows)
    write_table(path, header, "%s", [[",".join(map(format_value, row)) for row in rows]], comment)


#: Parsed options that are not run parameters: the subcommand words, the
#: handler, the output path and seed (kept under their own manifest keys),
#: and --expect, which asserts on the result without changing it.
_NOT_PARAMS = {"command", "func", "out", "seed", "expect"}


def _manifest(args) -> str:
    """The manifest comment of a run: every other parsed option is a param,
    and 'outputs' is present only when --out is given.  Each option's flag is
    --<dest>, so ``qha run`` turns the manifest back into the same argv."""
    sub = f"{args.command}_cmd"
    man = {
        "subcommand": " ".join(filter(None, (args.command, getattr(args, sub, None)))),
        "params": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS and k != sub},
    }
    if getattr(args, "seed", None) is not None:
        man["seed"] = args.seed
    if getattr(args, "out", None):
        man["outputs"] = {"out": args.out}
    return "manifest: " + json.dumps(man, sort_keys=True)


# --- subcommand implementations ------------------------------------------------


def _cmd_group(args) -> int:
    group = FiniteAbelianGroup(tuple(int(s) for s in args.orders.split(",")), args.weight)
    if args.group_cmd == "dft":
        out = fourier(read_group_function(args.input, group))
    else:
        out = convolve(read_group_function(args.f, group), read_group_function(args.g, group))
    write_group_function(out, args.out, comment=_manifest(args))
    return 0


def _cmd_weyl_check(args) -> int:
    rows = [(name, res, "PASS" if res <= 1e-12 else "FAIL")
            for name, res in weyl_identity_residuals(args.n).items()]
    emit_csv("-", ("identity", "max_residual", "status"), rows, _manifest(args))
    return 1 if any(status == "FAIL" for *_, status in rows) else 0


def _cmd_conv_audit(args) -> int:
    report = verify_norm_estimates(args.n, args.samples, args.seed)
    rows = [
        (name, report.max_ratio[name], report.argmax_index[name])
        for name in sorted(report.max_ratio)
    ]
    emit_csv(args.out or "-", ("inequality", "max_ratio", "argmax_seed_index"), rows,
             _manifest(args))
    return 1 if report.worst() > 1.0 + DEFAULT_EQ_TOL else 0


def _cmd_wiener_verify(args) -> int:
    if args.samples < (0 if args.degenerate else 1):
        raise ValueError("samples must be >= 1, or >= 0 with --degenerate")
    n = PhaseSpace(args.n).n  # rejects n < 1 before any draw
    # Operator i is re + i im from stream entries 2N^2 i on, drawn one at a time: regular_op_set
    # checks the budget, 18 bytes per N^3 entry (N <= 390), before the next draw.
    draws = (seeded_uniform(args.seed, (2, n, n), 2 * n * n * i) for i in range(args.samples))
    cases = ((f"random_{i}", HilbertOp(re + 1j * im)) for i, (re, im) in enumerate(draws))
    if args.degenerate:
        cases = itertools.chain(cases, degenerate_operator_set(args.n, seed=args.seed).items())
    rows = []
    for name, op in cases:
        rep = regular_op_set([op])
        rows.append((name, rep.min_abs_transform, rep.translate_span_rank,
                     rep.is_regular, rep.predicates_agree))
    emit_csv(args.out or "-", ("case", "min_abs_transform", "rank", "is_regular", "agreement"),
             rows, _manifest(args))
    return 0 if all(agree for *_, agree in rows) else 1


def _cmd_example_halmos(args) -> int:
    cols = halmos_column_profile(args.blocks)
    emit_csv(args.out, ("param", "value"), list(zip(cols.params, cols.values)), _manifest(args))
    return 0


def _cmd_example_cac(args) -> int:
    record = cac_example(args.h, args.nmax)
    rows = [
        ("projection_residual", record.projection_residual),
        ("min_kernel_gap", record.min_kernel_gap),
    ]
    rows += [(f"g_max_error_n{n}", e) for n, e in sorted(record.g_max_errors.items())]
    rows += [(f"plateau_dev_n{n}", e) for n, e in sorted(record.plateau_max_dev.items())]
    rows += [(f"product_norm_n{n}", v) for n, v in sorted(record.product_norms.items())]
    emit_csv(args.out, ("param", "value"), rows, _manifest(args))
    return 0


def _cmd_probe_topology(args) -> int:
    case = PROBE_CASES[args.case]()
    result = topology_probe(case.matrices, case.test_vectors, case.trace_tests, args.tol)
    rows = [(r.i, r.j, r.norm_diff, r.strongstar_diff, r.weakstar_diff) for r in result.rows]
    emit_csv(args.out or "-", ("i", "j", "norm_diff", "strongstar_diff", "weakstar_diff"), rows,
             _manifest(args))
    print(f"classification,{result.classification}")
    if args.expect and result.classification != args.expect:
        return 1
    return 0


def _read_windowed(path) -> WindowedFunction:
    from .groups import _read_indexed_csv

    indices, values = _read_indexed_csv(path)
    # Unit steps in int64 can wrap (max then min); the span in Python ints cannot.
    if int(indices[-1]) - int(indices[0]) != len(indices) - 1 or (np.diff(indices) != 1).any():
        raise ValueError(f"{path}: indices must be contiguous")
    return WindowedFunction(int(indices[0]), values)


def _cmd_stft_decay(args) -> int:
    if args.k == "all":
        raise PreconditionError("the lattice dual is a torus; use --k grid:M")
    m = int(args.k[5:]) if args.k.startswith("grid:") and args.k[5:].isdecimal() else 0
    if m < 1:
        raise PreconditionError("--k grid:M needs an integer M >= 1")
    f = _read_windowed(args.f)
    phi = _read_windowed(args.phi)
    check_stft_profile_size(m, phi)  # before the first M-sized array
    angles = 2 * np.pi * np.arange(m) / m
    profile = windowed_stft_profile(f, phi, angles)
    emit_csv(args.out, ("x", "sup_abs"), list(zip(profile.params, profile.values)),
             _manifest(args))
    return 0


def _cmd_bound_certify(args) -> int:
    tails = tuple(float(s) for s in args.tails.split(","))
    bound = certified_tail_bound(NetCertificate(tails, args.eps, args.c))
    print(f"bound,{bound!r}")
    return 0


def _cmd_rk(args) -> int:
    import glob

    if args.out == "-":
        raise PreconditionError("rk writes two files; --out must be a file path, not '-'")
    paths = sorted(glob.glob(os.path.join(glob.escape(args.family), "*.csv")))
    if not paths:
        raise PreconditionError(f"no CSV files in {args.family}")
    tables = [list(zip(curve.params, curve.values)) for curve in rk_moduli(
        [_read_windowed(p) for p in paths])]
    for table in tables:  # both, before either file is written
        _check_finite(("param", "value"), table)
    stem, ext = os.path.splitext(args.out)
    for path, table in zip((args.out, stem + "_tailmass" + ext), tables):
        emit_csv(path, ("param", "value"), table, _manifest(args))
    return 0


def _cmd_run(args) -> int:
    try:
        with open(args.manifest) as fh:
            man = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PreconditionError(f"cannot read manifest: {exc}")
    if not isinstance(man, dict) or "subcommand" not in man or "params" not in man:
        raise PreconditionError("manifest needs 'subcommand' and 'params' keys")
    outputs = man.get("outputs")
    if (not isinstance(man["subcommand"], str) or not isinstance(man["params"], dict)
            or not isinstance(outputs, (dict, type(None)))):
        raise PreconditionError("manifest 'subcommand' must be a string, 'params' an object and "
                                "'outputs' an object or null")
    argv = man["subcommand"].split()
    if argv[:1] == ["run"]:
        raise PreconditionError("a manifest cannot name the 'run' subcommand")
    seed = {"seed": man["seed"]} if "seed" in man else {}
    fields = {**man["params"], **seed, **(outputs or {})}
    if any(value is None or isinstance(value, (list, dict)) for value in fields.values()):
        raise PreconditionError("manifest params, seed and outputs must be strings, numbers or booleans")
    for key, value in fields.items():
        if not isinstance(value, bool):
            argv.append(f"--{key}={value}")  # a value may start with '-'
        elif value:
            argv.append(f"--{key}")
    return dispatch(argv)


# --- parser ---------------------------------------------------------------------

#: Every subcommand, in ``qha --help`` order: its words, help line, handler and
#: options.  This is the one place subcommands and options are declared.  A
#: row with no handler is a group word, and a row with no help line is left
#: out of its group's listing.  An option is (dest, type, default[, argparse
#: keywords]): a default of ``...`` makes it required, a ``bool`` is a bare
#: flag, and a lone dest is a positional.
_COMMANDS = (
    ("group", "function calculus on finite groups", None, ()),
    ("group dft", "Fourier transform of a CSV function", _cmd_group,
     (("orders", str, ..., {"help": "comma-separated cyclic orders"}), ("weight", float, 1.0),
      ("input", str, ...), ("out", str, ...))),
    ("group conv", "convolution of two CSV functions", _cmd_group,
     (("orders", str, ...), ("weight", float, 1.0), ("f", str, ...), ("g", str, ...),
      ("out", str, ...))),
    ("weyl", "projective representation identities", None, ()),
    ("weyl check", "PASS/FAIL per identity with max residual", _cmd_weyl_check,
     (("n", int, ...),)),
    ("conv", "convolution calculus audits", None, ()),
    ("conv audit", "randomized norm-inequality audit", _cmd_conv_audit,
     (("n", int, ...), ("samples", int, ...), ("seed", int, ...), ("out", str, None))),
    ("wiener", "regularity predicate agreement audit", None, ()),
    ("wiener verify", None, _cmd_wiener_verify,
     (("n", int, ...), ("samples", int, ...), ("seed", int, ...), ("degenerate", bool, False),
      ("out", str, None))),
    ("example", "reference constructions", None, ()),
    ("example halmos", "block projection column-norm profile", _cmd_example_halmos,
     (("blocks", int, ...), ("out", str, ...))),
    ("example cac", "box-convolution sandwich verification record", _cmd_example_cac,
     (("h", float, ...), ("nmax", int, ...), ("out", str, ...))),
    ("probe", "convergence-topology probes", None, ()),
    ("probe topology", None, _cmd_probe_topology,
     (("case", str, ..., {"choices": sorted(PROBE_CASES)}), ("tol", float, ...),
      ("out", str, None), ("expect", str, None, {"choices": CLASSIFICATIONS}))),
    ("stft", "windowed transform decay profiles", None, ()),
    ("stft decay", None, _cmd_stft_decay,
     (("f", str, ...), ("phi", str, ...),
      ("k", str, "grid:64", {"help": "'grid:M' dual sampling"}), ("out", str, ...))),
    ("bound", "certified tail bounds", None, ()),
    ("bound certify", None, _cmd_bound_certify,
     (("tails", str, ..., {"help": "comma-separated generator tails"}), ("eps", float, ...),
      ("c", float, ...))),
    ("rk", "equicontinuity/tail-mass moduli of a family", _cmd_rk,
     (("family", str, ..., {"help": "directory of index,re,im CSV files"}), ("out", str, ...))),
    ("run", "re-run a JSON experiment manifest", _cmd_run, (("manifest",),)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process (parsing leaves it unchanged), built from
    :data:`_COMMANDS`: each option's flag is --<dest>, and the subcommand word
    under a group word ``w`` is parsed into ``<w>_cmd``."""
    parser = argparse.ArgumentParser(
        prog="qha",
        description="Finite phase-space harmonic analysis workbench",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for words, help_line, handler, options in _COMMANDS:
        group, _, word = words.rpartition(" ")
        sub = groups[group].add_parser(word, **({} if help_line is None else {"help": help_line}))
        if handler is None:
            groups[words] = sub.add_subparsers(dest=f"{word}_cmd", required=True)
            continue
        sub.set_defaults(func=handler)
        for dest, *spec in options:
            if not spec:
                sub.add_argument(dest)
                continue
            kind, default, keywords = (*spec, {})[:3]
            typed = {"action": "store_true"} if kind is bool else {"type": kind}
            sub.add_argument(f"--{dest}", required=default is ...,
                             default=None if default is ... else default, **typed, **keywords)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # Every output is checked for finiteness before it is written, so an
        # overflow surfaces as one error line, not also numpy's warning.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # PreconditionError is a ValueError
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
