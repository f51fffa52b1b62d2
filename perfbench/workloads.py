"""The three benchmark workloads: their inputs, operations and checks.

Every operation runs in its own ``qha`` process.  An operation is a CLI
argument vector (or a ``qha run`` of a manifest) or a library call from
:mod:`libops`.  All inputs derive from the workload seed; ``qha`` sees
only the generated files, arguments and arrays.  Each check returns a
list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

#: Residual limit for every floating-point identity the checks evaluate.
TOL = 1e-10
#: Exact-arithmetic outputs (projection, plateaus, column norms) get a tighter limit.
EXACT_TOL = 1e-12
#: Weight of the dual of Z_256 x Z_256 (2**-16, exact in binary and decimal).
DUAL_WEIGHT = "1.52587890625e-05"


@dataclass
class Op:
    name: str
    argv: list[str] | None = None
    lib: str | None = None
    params: dict = field(default_factory=dict)
    limits: dict[str, float] = field(default_factory=dict)
    check: Callable[[Path, "Outcome"], list[str]] | None = None
    before: Callable[[Path], None] | None = None


@dataclass
class Outcome:
    rc: int
    stdout: str
    values: dict


# --- CSV helpers (independent of qha's reader) ------------------------------------


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_complex(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(index, value) arrays of an index,re,im file."""
    header, rows = read_table(path)
    if header != ["index", "re", "im"]:
        raise ValueError(f"{path.name}: unexpected header {header}")
    arr = np.array(rows, dtype=float)
    return arr[:, 0].astype(int), arr[:, 1] + 1j * arr[:, 2]


def write_complex(path: Path, index: np.ndarray, values: np.ndarray) -> None:
    lines = ["index,re,im"]
    lines += [f"{i},{v.real:.17g},{v.imag:.17g}" for i, v in zip(index.tolist(), values.tolist())]
    path.write_text("\n".join(lines) + "\n")


def rel_err(got: np.ndarray, expected: np.ndarray) -> float:
    return float(np.abs(got - expected).max() / max(float(np.abs(expected).max()), 1e-300))


def _params(path: Path) -> dict[str, float]:
    header, rows = read_table(path)
    return {r[0]: float(r[1]) for r in rows}


def _limit(name: str, value: float, limit: float) -> list[str]:
    return [] if value <= limit else [f"{name} = {value:.3e} exceeds {limit:.0e}"]


# --- checks of CLI outputs ----------------------------------------------------------


def check_audit(out: str):
    def check(work: Path, res: Outcome) -> list[str]:
        _header, rows = read_table(work / out)
        problems = [] if len(rows) == 4 else [f"{out}: {len(rows)} inequalities, expected 4"]
        for name, ratio, _idx in rows:
            problems += _limit(f"{name} max_ratio - 1", float(ratio) - 1.0, TOL)
        return problems

    return check


def check_weyl(work: Path, res: Outcome) -> list[str]:
    rows = [ln.split(",") for ln in res.stdout.splitlines() if ln and not ln.startswith("#")][1:]
    bad = [r[0] for r in rows if r[-1] != "PASS"]
    return ([f"weyl check: {len(rows)} identities, expected 5"] if len(rows) != 5 else []) + [
        f"weyl check: {name} not PASS" for name in bad
    ]


def check_wiener(out: str, cases: int):
    def check(work: Path, res: Outcome) -> list[str]:
        header, rows = read_table(work / out)
        col = header.index("agreement")
        bad = [r[0] for r in rows if r[col] != "true"]
        problems = [] if len(rows) == cases else [f"{out}: {len(rows)} cases, expected {cases}"]
        return problems + [f"wiener verify: predicates disagree on {name}" for name in bad]

    return check


def check_probe(expect: str):
    def check(work: Path, res: Outcome) -> list[str]:
        line = f"classification,{expect}"
        return [] if line in res.stdout.splitlines() else [f"probe: expected {line}"]

    return check


def check_cac(work: Path, res: Outcome) -> list[str]:
    values = _params(work / "cac.csv")
    plateaus = {k: v for k, v in values.items() if k.startswith("plateau_dev_n")}
    problems = _limit("projection_residual", values["projection_residual"], EXACT_TOL)
    if len(plateaus) != 4:
        problems.append(f"cac: {len(plateaus)} plateau rows, expected 4")
    for name, value in plateaus.items():
        problems += _limit(name, value, EXACT_TOL)
    return problems


def check_halmos(blocks: int):
    expected = np.concatenate([np.full(n, 1.0 / np.sqrt(n)) for n in range(1, blocks + 1)])

    def check(work: Path, res: Outcome) -> list[str]:
        header, rows = read_table(work / "halmos.csv")
        got = np.array([float(r[1]) for r in rows])
        if got.shape != expected.shape:
            return [f"halmos: {got.size} columns, expected {expected.size}"]
        return _limit("halmos column norms vs 1/sqrt(n)", rel_err(got, expected), EXACT_TOL)

    return check


def rerun(out: str):
    """``qha run`` of the manifest embedded in ``out``; the bytes must repeat."""
    state: dict[str, bytes] = {}
    manifest = out.rsplit(".", 1)[0] + ".manifest.json"

    def before(work: Path) -> None:
        data = (work / out).read_bytes()
        state["bytes"] = data
        first = data.split(b"\n", 1)[0].decode()
        (work / manifest).write_text(first.removeprefix("# manifest: "))

    def check(work: Path, res: Outcome) -> list[str]:
        same = (work / out).read_bytes() == state["bytes"]
        return [] if same else [f"rerun of {out} is not byte-identical"]

    return Op(f"rerun-{out.rsplit('.', 1)[0]}", argv=["run", manifest], before=before, check=check)


# --- workloads ----------------------------------------------------------------------


def phase_space(work: Path, seed: int) -> list[Op]:
    s = [int(x) for x in np.random.default_rng(seed).integers(0, 2**31 - 1, size=7)]
    ops = []
    for (n, samples), sd in zip(((8, 50), (16, 20), (24, 5)), s):
        out = f"audit_n{n}.csv"
        argv = ["conv", "audit", "--n", str(n), "--samples", str(samples), "--seed", str(sd),
                "--out", out]
        ops.append(Op(f"conv-audit-n{n}", argv=argv, check=check_audit(out)))
    ops.append(Op("weyl-check-n6", argv=["weyl", "check", "--n", "6"], check=check_weyl))
    ops.append(Op(
        "wiener-verify-n12",
        argv=["wiener", "verify", "--n", "12", "--samples", "10", "--seed", str(s[3]),
              "--degenerate", "--out", "wiener.csv"],
        check=check_wiener("wiener.csv", 10 + 7),
    ))
    c4_limits = ("fn_fn", "fn_op", "op_op_weighted", "pin_fn_fn", "pin_fn_op", "pin_op_op_weighted")
    ops.append(Op("c4-n48", lib="c4", params={"n": 48, "seed": s[4]},
                  limits={**{k: TOL for k in c4_limits}, "pin_mismatch": 0.0}))
    ops.append(Op("compactness-profile-n32", lib="ucp", params={"n": 32, "points": 9, "seed": s[5]},
                  limits={"profile_residual": TOL}))
    ops.append(Op("fourier-weyl-roundtrip-n32", lib="fourier_weyl_roundtrip",
                  params={"n": 32, "seed": s[6]}, limits={"roundtrip_residual": TOL}))
    ops.append(rerun("audit_n8.csv"))
    return ops


def lattice(work: Path, seed: int) -> list[Op]:
    # The lattice constructions take no seedable input through the CLI: the
    # seed changes nothing here, so its runs are plain repeats.
    ops = []
    for case, tol, expect in (("box-modulation", "0.1", "strong*"),
                              ("parity-shift", "0.001", "weak*"),
                              ("halmos-shift", "0.1", "strong*")):
        argv = ["probe", "topology", "--case", case, "--tol", tol, "--expect", expect,
                "--out", f"probe_{case}.csv"]
        ops.append(Op(f"probe-{case}", argv=argv, check=check_probe(expect)))
    ops.append(Op("example-cac", argv=["example", "cac", "--h", "0.05", "--nmax", "6", "--out",
                                       "cac.csv"], check=check_cac))
    ops.append(Op("example-halmos", argv=["example", "halmos", "--blocks", "40", "--out",
                                          "halmos.csv"], check=check_halmos(40)))
    ops.append(Op("compactness-proxy", lib="compactness_proxy",
                  params={"sizes": [10, 20, 30, 40], "epsilon": 0.5},
                  limits={"verdict_mismatch": 0.0, "count_mismatch": 0.0}))
    ops.append(rerun("halmos.csv"))
    return ops


def _windowed(rng: np.random.Generator, idx: np.ndarray, centre: float, width: float):
    noise = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    return noise * np.exp(-np.abs(idx - centre) / width)


def transforms_io(work: Path, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    s = [int(x) for x in rng.integers(0, 2**31 - 1, size=2)]
    side = 256
    size = side * side
    index = np.arange(size)
    f, g = (rng.standard_normal(size) + 1j * rng.standard_normal(size) for _ in range(2))
    write_complex(work / "f.csv", index, f)
    write_complex(work / "g.csv", index, g)

    half, support, angles = 2000, 50, 256
    widx = np.arange(-half, half + 1)
    wf = _windowed(rng, widx, 0.0, 800.0)
    phi = np.where(np.abs(widx) <= support, np.exp(-(widx / 20.0) ** 2), 0.0).astype(complex)
    write_complex(work / "wf.csv", widx, wf)
    write_complex(work / "wphi.csv", widx, phi)
    (work / "family").mkdir()
    family = [_windowed(rng, widx, 40.0 * k, 100.0 + 50.0 * k) for k in range(16)]
    for k, h in enumerate(family):
        write_complex(work / "family" / f"h{k:02d}.csv", widx, h)

    grid = (side, side)
    spectrum = np.fft.fft2(f.reshape(grid))
    flip = (-np.arange(side)) % side

    def check_dft(work: Path, res: Outcome) -> list[str]:
        _, got = read_complex(work / "f_dft.csv")
        return _limit("dft vs numpy fft2", rel_err(got.reshape(grid), spectrum), TOL)

    def check_dft2(work: Path, res: Outcome) -> list[str]:
        _, got = read_complex(work / "f_dft2.csv")
        parity = f.reshape(grid)[np.ix_(flip, flip)]
        return _limit("dft(dft(f)) vs parity(f)", rel_err(got.reshape(grid), parity), TOL)

    def check_conv(work: Path, res: Outcome) -> list[str]:
        _, got = read_complex(work / "fg_conv.csv")
        expected = np.fft.ifft2(spectrum * np.fft.fft2(g.reshape(grid)))
        return _limit("group conv vs numpy fft", rel_err(got.reshape(grid), expected), TOL)

    def check_decay(work: Path, res: Outcome) -> list[str]:
        header, rows = read_table(work / "decay.csv")
        xs = np.array([float(r[0]) for r in rows]).astype(int)
        got = np.array([float(r[1]) for r in rows])
        expected_xs = np.arange(support - half, half - support + 1)
        if not np.array_equal(xs, expected_xs):
            return ["stft decay: unexpected shift range"]
        # sup over the angle grid of |sum_t phi(t) e^(i theta t) f(t - x)|,
        # as one FFT per sampled shift.
        t = np.arange(-support, support + 1)
        picks = np.linspace(0, xs.size - 1, 16).astype(int)
        expected = []
        for x in xs[picks]:
            seq = np.zeros(angles, dtype=complex)
            seq[t % angles] = phi[t + half] * wf[t - x + half]
            expected.append(np.abs(np.fft.ifft(seq) * angles).max())
        return _limit("stft decay sampled rows", rel_err(got[picks], np.array(expected)), TOL)

    def check_rk(work: Path, res: Outcome) -> list[str]:
        span = 2 * half
        header, rows = read_table(work / "rk.csv")
        modulus = np.array([float(r[1]) for r in rows])
        problems = [] if modulus.size == span // 4 else ["rk: unexpected shift count"]
        shifts = np.linspace(1, span // 4, 12).astype(int)
        expected = [
            max(np.abs(h[:k]).sum() + np.abs(h[k:] - h[:-k]).sum() for h in family) for k in shifts
        ]
        problems += _limit("rk modulus", rel_err(modulus[shifts - 1], np.array(expected)), TOL)
        header, rows = read_table(work / "rk_tailmass.csv")
        marks = [span // 8, span // 4, span // 2, span]
        tail = [max(np.abs(h[np.abs(widx) > m]).sum() for h in family) for m in marks]
        got = np.array([float(r[1]) for r in rows])
        if [int(float(r[0])) for r in rows] != marks:
            return problems + ["rk: unexpected tail marks"]
        return problems + _limit("rk tail mass", rel_err(got, np.array(tail)), TOL)

    orders = f"{side},{side}"
    return [
        Op("stft-z512", lib="stft", params={"orders": [512], "seed": s[0]},
           limits={"energy_residual": TOL}),
        Op("stft-z16xz16", lib="stft", params={"orders": [16, 16], "seed": s[1]},
           limits={"energy_residual": TOL}),
        Op("group-dft", argv=["group", "dft", "--orders", orders, "--input", "f.csv",
                              "--out", "f_dft.csv"], check=check_dft),
        Op("group-dft-dual", argv=["group", "dft", "--orders", orders, "--weight", DUAL_WEIGHT,
                                   "--input", "f_dft.csv", "--out", "f_dft2.csv"],
           check=check_dft2),
        Op("group-conv", argv=["group", "conv", "--orders", orders, "--f", "f.csv", "--g",
                               "g.csv", "--out", "fg_conv.csv"], check=check_conv),
        Op("stft-decay", argv=["stft", "decay", "--f", "wf.csv", "--phi", "wphi.csv", "--k",
                               f"grid:{angles}", "--out", "decay.csv"], check=check_decay),
        Op("rk", argv=["rk", "--family", "family", "--out", "rk.csv"], check=check_rk),
        rerun("decay.csv"),
    ]


WORKLOADS = {"phase-space": phase_space, "lattice": lattice, "transforms-io": transforms_io}


def check_outcome(op: Op, work: Path, res: Outcome) -> list[str]:
    """Every problem with one operation's result: exit code, residuals, outputs."""
    if res.rc != 0:
        return [f"exit code {res.rc}"]
    problems = []
    if set(res.values) != set(op.limits):
        problems.append(f"residuals {sorted(res.values)} != {sorted(op.limits)}")
    for name, limit in op.limits.items():
        if name in res.values:
            problems += _limit(name, res.values[name], limit)
    if op.check is not None:
        problems += op.check(work, res)
    return problems

