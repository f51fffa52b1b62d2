"""Command-line experiment runner.

Each subcommand runs one diagnostic; the convolution-theorem residuals,
the orientation oracle, the compactness profiles, b0_diagnostic and
tail_bound_trial have none and run as library calls.  All numerical output
goes to CSV (files or stdout).  Randomized audits require an explicit seed,
outputs embed their reproducibility manifest in a leading comment line, and
re-running a manifest via ``qha run`` produces byte-identical files.

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
from .asymptotics.windowed import WindowedFunction, column_row_profiles, halmos_operator
from .conv import verify_norm_estimates
from .errors import PreconditionError
from .groups import FiniteAbelianGroup, convolve, fourier, read_group_function, write_group_function
from .io import write_table
from .numerics import DEFAULT_EQ_TOL
from .tauber import (NetCertificate, certified_tail_bound, check_stft_profile_size, rk_moduli,
                     windowed_stft_profile)
from .weyl import PhaseSpace, random_op, weyl_identity_residuals
from .wiener import degenerate_operator_set, regular_op_set


def format_value(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def emit_csv(path, header, rows, comment: str | None = None) -> None:
    """Write rows with 17-significant-digit reals under an optional comment
    line; path '-' writes to stdout."""
    if len(header) and rows and any(len(r) != len(header) for r in rows):
        raise ValueError("record arity does not match header")
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
    PhaseSpace(args.n)  # rejects n < 1 before any draw
    rng = np.random.default_rng(args.seed)
    # Drawn one at a time: regular_op_set checks the budget before the first N^4 table.
    cases = ((f"random_{i}", random_op(args.n, rng)) for i in range(args.samples))
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
    cols = column_row_profiles(halmos_operator(args.blocks))[0]
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
    if not np.array_equal(indices, indices[0] + np.arange(len(indices))):
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
    paths = sorted(glob.glob(os.path.join(args.family, "*.csv")))
    if not paths:
        raise PreconditionError(f"no CSV files in {args.family}")
    curves = rk_moduli([_read_windowed(p) for p in paths])
    stem, ext = os.path.splitext(args.out)
    for path, curve in zip((args.out, stem + "_tailmass" + ext), curves):
        emit_csv(path, ("param", "value"), list(zip(curve.params, curve.values)), _manifest(args))
    return 0


def _cmd_run(args) -> int:
    try:
        with open(args.manifest) as fh:
            man = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 2
    if not isinstance(man, dict) or "subcommand" not in man or "params" not in man:
        print("error: manifest needs 'subcommand' and 'params' keys", file=sys.stderr)
        return 2
    outputs = man.get("outputs")
    if (not isinstance(man["subcommand"], str) or not isinstance(man["params"], dict)
            or not isinstance(outputs, (dict, type(None)))):
        print("error: manifest 'subcommand' must be a string, 'params' an object and "
              "'outputs' an object or null", file=sys.stderr)
        return 2
    argv = man["subcommand"].split()
    if argv[:1] == ["run"]:
        print("error: a manifest cannot name the 'run' subcommand", file=sys.stderr)
        return 2
    for key, value in man["params"].items():
        if isinstance(value, bool):
            if value:
                argv.append(f"--{key}")
        else:
            argv += [f"--{key}", str(value)]
    if "seed" in man:
        argv += ["--seed", str(man["seed"])]
    for key, value in (outputs or {}).items():
        argv += [f"--{key}", str(value)]
    return dispatch(argv)


# --- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="qha",
        description="Finite phase-space harmonic analysis workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="function calculus on finite groups")
    group_sub = p_group.add_subparsers(dest="group_cmd", required=True)
    p_dft = group_sub.add_parser("dft", help="Fourier transform of a CSV function")
    p_dft.add_argument("--orders", required=True, help="comma-separated cyclic orders")
    p_dft.add_argument("--weight", type=float, default=1.0)
    p_dft.add_argument("--input", required=True)
    p_dft.add_argument("--out", required=True)
    p_dft.set_defaults(func=_cmd_group)
    p_conv = group_sub.add_parser("conv", help="convolution of two CSV functions")
    p_conv.add_argument("--orders", required=True)
    p_conv.add_argument("--weight", type=float, default=1.0)
    p_conv.add_argument("--f", required=True)
    p_conv.add_argument("--g", required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.set_defaults(func=_cmd_group)

    p_weyl = sub.add_parser("weyl", help="projective representation identities")
    weyl_sub = p_weyl.add_subparsers(dest="weyl_cmd", required=True)
    p_check = weyl_sub.add_parser("check", help="PASS/FAIL per identity with max residual")
    p_check.add_argument("--n", type=int, required=True)
    p_check.set_defaults(func=_cmd_weyl_check)

    p_conv2 = sub.add_parser("conv", help="convolution calculus audits")
    conv_sub = p_conv2.add_subparsers(dest="conv_cmd", required=True)
    p_audit = conv_sub.add_parser("audit", help="randomized norm-inequality audit")
    p_audit.add_argument("--n", type=int, required=True)
    p_audit.add_argument("--samples", type=int, required=True)
    p_audit.add_argument("--seed", type=int, required=True)
    p_audit.add_argument("--out", default=None)
    p_audit.set_defaults(func=_cmd_conv_audit)

    p_wiener = sub.add_parser("wiener", help="regularity predicate agreement audit")
    wiener_sub = p_wiener.add_subparsers(dest="wiener_cmd", required=True)
    p_verify = wiener_sub.add_parser("verify")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--samples", type=int, required=True)
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--degenerate", action="store_true")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_wiener_verify)

    p_example = sub.add_parser("example", help="reference constructions")
    ex_sub = p_example.add_subparsers(dest="example_cmd", required=True)
    p_halmos = ex_sub.add_parser("halmos", help="block projection column-norm profile")
    p_halmos.add_argument("--blocks", type=int, required=True)
    p_halmos.add_argument("--out", required=True)
    p_halmos.set_defaults(func=_cmd_example_halmos)
    p_cac = ex_sub.add_parser("cac", help="box-convolution sandwich verification record")
    p_cac.add_argument("--h", type=float, required=True)
    p_cac.add_argument("--nmax", type=int, required=True)
    p_cac.add_argument("--out", required=True)
    p_cac.set_defaults(func=_cmd_example_cac)

    p_probe = sub.add_parser("probe", help="convergence-topology probes")
    probe_sub = p_probe.add_subparsers(dest="probe_cmd", required=True)
    p_topo = probe_sub.add_parser("topology")
    p_topo.add_argument("--case", choices=sorted(PROBE_CASES), required=True)
    p_topo.add_argument("--tol", type=float, required=True)
    p_topo.add_argument("--out", default=None)
    p_topo.add_argument("--expect", choices=CLASSIFICATIONS)
    p_topo.set_defaults(func=_cmd_probe_topology)

    p_stft = sub.add_parser("stft", help="windowed transform decay profiles")
    stft_sub = p_stft.add_subparsers(dest="stft_cmd", required=True)
    p_decay = stft_sub.add_parser("decay")
    p_decay.add_argument("--f", required=True)
    p_decay.add_argument("--phi", required=True)
    p_decay.add_argument("--k", default="grid:64", help="'grid:M' dual sampling")
    p_decay.add_argument("--out", required=True)
    p_decay.set_defaults(func=_cmd_stft_decay)

    p_bound = sub.add_parser("bound", help="certified tail bounds")
    bound_sub = p_bound.add_subparsers(dest="bound_cmd", required=True)
    p_cert = bound_sub.add_parser("certify")
    p_cert.add_argument("--tails", required=True, help="comma-separated generator tails")
    p_cert.add_argument("--eps", type=float, required=True)
    p_cert.add_argument("--c", type=float, required=True)
    p_cert.set_defaults(func=_cmd_bound_certify)

    p_rk = sub.add_parser("rk", help="equicontinuity/tail-mass moduli of a family")
    p_rk.add_argument("--family", required=True, help="directory of index,re,im CSV files")
    p_rk.add_argument("--out", required=True)
    p_rk.set_defaults(func=_cmd_rk)

    p_run = sub.add_parser("run", help="re-run a JSON experiment manifest")
    p_run.add_argument("manifest")
    p_run.set_defaults(func=_cmd_run)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # PreconditionError is a ValueError
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
