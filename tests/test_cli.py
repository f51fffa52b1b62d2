"""Command-line surface: exit codes, CSV schemas, manifest determinism."""

import argparse
import contextlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qha.errors
from qha.cli import build_parser, dispatch, emit_csv
from qha.groups import FiniteAbelianGroup, delta, random_function, write_group_function
from qha.numerics import svd_rank
from qha.weyl import HilbertOp, PhaseSpace, rank_one
from qha.wiener import degenerate_operator_set

import _reference as ref


def run(argv, capsys):
    code = dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


GOLDEN = Path(__file__).parent / "golden"


def _conv_audit(n, samples, seed):
    return ["conv", "audit", "--n", str(n), "--samples", str(samples), "--seed", str(seed)]


#: Golden name -> (argv, {output: golden file}); output "-" is stdout, and the
#: first output carries the manifest.  Paths are relative to the directory the
#: inputs of :func:`write_golden_inputs` are written to.
GOLDEN_RUNS = {
    **{f"conv_audit_n{n}_s{s}_seed{seed}": (_conv_audit(n, s, seed),
                                            {"-": f"conv_audit_n{n}_s{s}_seed{seed}.csv"})
       for n, s, seed in [(8, 50, 5), (16, 20, 7), (24, 5, 11)]},
    "wiener_verify": (["wiener", "verify", "--n", "12", "--samples", "10", "--seed", "3",
                       "--degenerate"], {"-": "wiener_verify_n12_s10_seed3_degenerate.csv"}),
    "group_dft": (["group", "dft", "--orders", "4,3", "--weight", "0.5", "--input", "f.csv",
                   "--out", "dft.csv"], {"dft.csv": "group_dft_o4x3_w0.5.csv"}),
    "group_conv": (["group", "conv", "--orders", "4,3", "--weight", "0.5", "--f", "f.csv",
                    "--g", "g.csv", "--out", "conv.csv"], {"conv.csv": "group_conv_o4x3_w0.5.csv"}),
    "weyl_check": (["weyl", "check", "--n", "5"], {"-": "weyl_check_n5.csv"}),
    "example_halmos": (["example", "halmos", "--blocks", "4", "--out", "halmos.csv"],
                       {"halmos.csv": "example_halmos_b4.csv"}),
    "example_cac": (["example", "cac", "--h", "0.25", "--nmax", "3", "--out", "cac.csv"],
                    {"cac.csv": "example_cac_h0.25_nmax3.csv"}),
    "probe_topology": (["probe", "topology", "--case", "parity-shift", "--tol", "0.001",
                        "--out", "probe.csv"],
                       {"probe.csv": "probe_topology_parity_shift.csv",
                        "-": "probe_topology_parity_shift_stdout.txt"}),
    "probe_topology_halmos": (["probe", "topology", "--case", "halmos-shift", "--tol", "0.1",
                               "--out", "probe_halmos.csv"],
                              {"probe_halmos.csv": "probe_topology_halmos_shift.csv",
                               "-": "probe_topology_halmos_shift_stdout.txt"}),
    "stft_decay": (["stft", "decay", "--f", "sf.csv", "--phi", "phi.csv", "--k", "grid:8",
                    "--out", "decay.csv"], {"decay.csv": "stft_decay_grid8.csv"}),
    "rk": (["rk", "--family", "fam", "--out", "rk.csv"],
           {"rk.csv": "rk.csv", "rk_tailmass.csv": "rk_tailmass.csv"}),
}


def _write_csv(path, indices, values):
    rows = "".join(f"{i},{float(v.real)!r},{float(v.imag)!r}\r\n" for i, v in zip(indices, values))
    Path(path).write_text("index,re,im\r\n" + rows, newline="")


def _run_under_memory_limit(code, args):
    """Run python code with args in a child whose address space is capped at 4 GiB."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    limit = ("import resource\n"
             "resource.setrlimit(resource.RLIMIT_AS, (4 * 2**30, 4 * 2**30))\n")
    return subprocess.run([sys.executable, "-c", limit + code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def write_golden_inputs():
    """The input files of the golden runs, from fixed formulas, in the working directory."""
    t = np.arange(12)
    _write_csv("f.csv", t, ((5 * t) % 7 - 3) / 4 + 1j * ((3 * t) % 5 - 2) / 8)
    _write_csv("g.csv", t, np.cos(t) - 1j * np.sin(2.0 * t) / (1 + t))
    x = np.arange(-20, 21)
    _write_csv("sf.csv", x, np.exp(-x**2 / 18.0) * np.exp(0.3j * x))
    _write_csv("phi.csv", x, np.where(np.abs(x) <= 3, 1.0 - np.abs(x) / 4.0, 0.0) + 0j)
    Path("fam").mkdir()
    for name, lo, hi, center in (("a", -15, 15, 0), ("b", -10, 20, 5), ("c", -18, 12, -7)):
        x = np.arange(lo, hi + 1)
        _write_csv(f"fam/{name}.csv", x, np.exp(-((x - center) ** 2) / 6.0) * (1 + 0.5j))


def run_golden(name, capsys, argv=None) -> dict[str, bytes]:
    """Bytes of each output of a golden run, made in the working directory by
    its own argv or the given one."""
    code, out, _ = run(argv or GOLDEN_RUNS[name][0], capsys)
    assert code == 0
    return {o: out.encode() if o == "-" else Path(o).read_bytes() for o in GOLDEN_RUNS[name][1]}


def assert_golden(name, got: dict[str, bytes]) -> None:
    for output, golden in GOLDEN_RUNS[name][1].items():
        assert got[output] == (GOLDEN / golden).read_bytes(), golden


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_golden_inputs()


class TestDispatch:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _out, _err = run(["frobnicate"], capsys)
        assert code == 2

    def test_help_exits_clean(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        for name in ("group", "weyl", "conv", "wiener", "example", "probe", "stft", "bound", "rk", "run"):
            assert name in out

    def test_weyl_check_passes(self, capsys):
        code, out, _ = run(["weyl", "check", "--n", "4"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "identity,max_residual,status"
        assert all(l.endswith("PASS") for l in lines[1:])

    def test_bound_certify_formula(self, capsys):
        code, out, _ = run(
            ["bound", "certify", "--tails", "0.1,0.2", "--eps", "0.05", "--c", "3"], capsys
        )
        assert code == 0
        label, value = out.strip().splitlines()[-1].split(",")
        assert label == "bound"
        assert float(value) == max((0.1, 0.2)) + 0.05 * 3

    @pytest.mark.parametrize("tails, eps, c", [("nan", "0.05", "3"), ("0.1,nan", "0.05", "3"),
                                               ("0.1", "nan", "3"), ("0.1", "0.05", "inf"),
                                               ("1e308,1e308", "1e308", "1e308")])
    def test_bound_certify_rejects_non_finite(self, capsys, tails, eps, c):
        code, out, err = run(["bound", "certify", "--tails", tails, "--eps", eps, "--c", c], capsys)
        assert code == 2
        assert err.startswith("error:") and "finite" in err
        assert "bound," not in out

    def test_cac_insufficient_range_names_precondition(self, capsys):
        code, _out, err = run(["example", "cac", "--h", "0.2", "--nmax", "9", "--out", "x.csv"], capsys)
        assert code == 2
        assert "0.5" in err  # names the step-alignment precondition

    def test_conv_audit_requires_seed(self, capsys):
        code, _, _ = run(["conv", "audit", "--n", "3", "--samples", "5"], capsys)
        assert code == 2

    def test_conv_audit_rejects_empty_phase_space(self, capsys):
        code, out, err = run(["conv", "audit", "--n", "0", "--samples", "5", "--seed", "1"], capsys)
        assert code == 2
        assert err.startswith("error: phase space dimension must be >= 1")
        assert out == ""

    @pytest.mark.parametrize("n", ["-2", "0"])
    def test_wiener_verify_rejects_empty_phase_space(self, capsys, n):
        code, out, err = run(["wiener", "verify", "--n", n, "--samples", "3", "--seed", "1"], capsys)
        assert code == 2
        assert err.startswith("error: phase space dimension must be >= 1")
        assert out == ""

    @pytest.mark.parametrize("argv, what", [
        (["weyl", "check", "--n", "1000"], "weyl_identity_residuals at N = 1000"),
        (["conv", "audit", "--n", "100000", "--samples", "5", "--seed", "1"],
         "conv audit at N = 100000"),
        (["wiener", "verify", "--n", "1000", "--samples", "5", "--seed", "1", "--degenerate"],
         "1 operator(s) at N = 1000"),
        (["stft", "decay", "--f", "sf.csv", "--phi", "phi.csv", "--k", "grid:99999999999",
          "--out", "decay.csv"], "over 99999999999 dual angles"),
    ])
    def test_oversized_run_exits_2_before_allocating(self, golden_dir, argv, what):
        # The child runs under a 4 GiB address-space limit, so even a missing
        # size check fails an allocation instead of filling real memory.
        proc = _run_under_memory_limit("from qha.cli import main; main()", argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and what in proc.stderr
        assert "bytes of working memory, over the budget" in proc.stderr
        assert proc.stdout == "" and not Path("decay.csv").exists()

    def test_oversized_library_call_raises_before_allocating(self):
        code = ("from qha.errors import PreconditionError\n"
                "from qha.weyl import weyl_identity_residuals\n"
                "try:\n    weyl_identity_residuals(1000)\n"
                "except PreconditionError as exc:\n    print(exc)")
        proc = _run_under_memory_limit(code, [])
        assert proc.returncode == 0 and "over the budget" in proc.stdout

    @pytest.mark.parametrize("argv, target, exc", [
        (["conv", "audit", "--n", "100000", "--samples", "5", "--seed", "1"],
         "verify_norm_estimates", MemoryError("Unable to allocate 7.28 TiB")),
        (["example", "halmos", "--blocks", "100000", "--out", "h.csv"],
         "halmos_column_profile", MemoryError()),
    ])
    def test_memory_error_is_exit_2(self, tmp_path, monkeypatch, capsys, argv, target, exc):
        # Exit 1 means a mathematical audit failed; a refused allocation is
        # an error of the run.  The handler's library call raises; nothing is allocated.
        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(f"qha.cli.{target}", refuse)
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {str(exc) or 'MemoryError'}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, need", [
        (["example", "cac", "--h", "0.25", "--nmax", "3", "--out", "c.csv"], "4,608"),
        (["example", "halmos", "--blocks", "4", "--out", "h.csv"], "3,200"),
    ])
    def test_example_over_budget_is_exit_2(self, tmp_path, monkeypatch, capsys, argv, need):
        # Each example checks its size first: 8 bytes an entry of cac's
        # largest block (24 points a side) and 320 bytes a profile point
        # (10 points); the budget is lowered, so nothing large is allocated.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(qha.errors, "MEMORY_BUDGET", 1000)
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert f"needs {need} bytes of working memory, over the budget" in err
        assert not list(tmp_path.iterdir())

    def test_conv_audit_runs(self, tmp_path, capsys):
        out_path = tmp_path / "audit.csv"
        code, _, _ = run(
            ["conv", "audit", "--n", "3", "--samples", "10", "--seed", "1", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# manifest:")
        assert lines[1] == "inequality,max_ratio,argmax_seed_index"
        assert len(lines) == 2 + 4

    def test_wiener_verify_agreement(self, tmp_path, capsys):
        out_path = tmp_path / "ver.csv"
        code, _, _ = run(
            ["wiener", "verify", "--n", "3", "--samples", "5", "--seed", "2",
             "--degenerate", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[1] == "case,min_abs_transform,rank,is_regular,agreement"
        assert all(l.endswith("true") for l in lines[2:])

    def test_wiener_verify_matches_golden_bytes(self, golden_dir, capsys):
        assert_golden("wiener_verify", run_golden("wiener_verify", capsys))

    @pytest.mark.parametrize("n,samples,seed", [(8, 50, 5), (16, 20, 7), (24, 5, 11)])
    def test_conv_audit_matches_golden_bytes(self, golden_dir, capsys, n, samples, seed):
        name = f"conv_audit_n{n}_s{samples}_seed{seed}"
        assert_golden(name, run_golden(name, capsys))

    @pytest.mark.parametrize("name", [k for k in GOLDEN_RUNS
                                      if not k.startswith(("conv_audit", "wiener_verify"))])
    def test_matches_golden_bytes(self, golden_dir, capsys, name):
        assert_golden(name, run_golden(name, capsys))

    def test_probe_topology_expectation(self, tmp_path, capsys):
        out_path = tmp_path / "probe.csv"
        code, out, _ = run(
            ["probe", "topology", "--case", "parity-shift", "--tol", "0.001",
             "--out", str(out_path), "--expect", "weak*"],
            capsys,
        )
        assert code == 0
        assert "classification,weak*" in out
        header = out_path.read_text().splitlines()[1]
        assert header == "i,j,norm_diff,strongstar_diff,weakstar_diff"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_probe_topology_rejects_bad_tolerance(self, tmp_path, capsys, tol):
        out_path = tmp_path / "probe.csv"
        code, out, err = run(
            ["probe", "topology", "--case", "parity-shift", "--tol", tol,
             "--out", str(out_path)],
            capsys,
        )
        assert code == 2
        assert "tolerance" in err
        assert "classification" not in out
        assert not out_path.exists()


class TestSeededDraws:
    """conv audit and wiener verify draw from the SplitMix64 counter stream of
    their seed, which must lie in [0, 2**64)."""

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    @pytest.mark.parametrize("argv", [
        ["conv", "audit", "--n", "3", "--samples", "2"],
        ["wiener", "verify", "--n", "3", "--samples", "2"],
        ["wiener", "verify", "--n", "3", "--samples", "2", "--degenerate"],
        ["wiener", "verify", "--n", "3", "--samples", "0", "--degenerate"],
    ])
    def test_seed_outside_range_is_exit_2(self, tmp_path, capsys, argv, seed):
        out = tmp_path / "out.csv"
        code, stdout, err = run(argv + ["--seed", seed, "--out", str(out)], capsys)
        assert code == 2
        assert err.splitlines() == [f"error: seed must be in [0, 2**64), got {seed}"]
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["0", "18446744073709551615"])
    def test_seed_range_edges_run(self, tmp_path, capsys, seed):
        for argv in (_conv_audit(3, 2, seed), ["wiener", "verify", "--n", "3", "--samples", "1",
                                               "--seed", seed, "--degenerate"]):
            assert run(argv, capsys)[0] == 0

    @pytest.mark.parametrize("n,samples,seed", [(8, 50, 5), (16, 20, 7), (24, 5, 11)])
    def test_audit_golden_matches_reference_draws(self, n, samples, seed):
        # The golden's ratios against the per-sample loop on the textbook generator.
        golden = (GOLDEN / f"conv_audit_n{n}_s{samples}_seed{seed}.csv").read_text().splitlines()
        max_ratio, argmax = ref.verify_norm_estimates(n, samples, seed)
        rows = [line.split(",") for line in golden[2:]]
        assert sorted(name for name, *_ in rows) == sorted(max_ratio)
        for name, ratio, index in rows:
            assert float(ratio) == pytest.approx(max_ratio[name], rel=1e-12, abs=0)
            assert int(index) == argmax[name]

    def test_wiener_golden_ranks_match_dense_stack(self):
        # Operator i is re + i im from stream entries 2 N^2 i on; the rank of
        # each case is that of its dense N^2 x N^2 stack of translates.
        n, seed = 12, 3
        ps = PhaseSpace(n)
        ops = {}
        for i in range(10):
            re, im = np.array(ref.splitmix64_uniform(seed, 2 * n * n, 2 * n * n * i)).reshape(2, n, n)
            ops[f"random_{i}"] = HilbertOp(re + 1j * im)
        ops.update(degenerate_operator_set(n, seed))
        re, im = np.array(ref.splitmix64_uniform(seed, 2 * n)).reshape(2, n)
        phi = (re + 1j * im) + (re + 1j * im)[(-np.arange(n)) % n]
        ops["rank_one_symmetric"] = rank_one(phi / np.linalg.norm(phi))
        golden = (GOLDEN / "wiener_verify_n12_s10_seed3_degenerate.csv").read_text().splitlines()
        rows = [line.split(",") for line in golden[2:]]
        assert [name for name, *_ in rows] == list(ops)
        for name, _min_abs, rank, *_ in rows:
            dense = ref.op_translate(ps, ops[name]).reshape(n * n, n * n)
            assert int(rank) == svd_rank(dense).rank, name

    @pytest.mark.parametrize("call, result", [
        ("qha.cli.dispatch(['conv', 'audit', '--n', '8', '--samples', '50', '--seed', '5', "
         "'--out', 'a.csv'])", "0"),
        ("qha.cli.dispatch(['wiener', 'verify', '--n', '6', '--samples', '3', '--seed', '3', "
         "'--degenerate', '--out', 'w.csv'])", "0"),
        ("qha.cli.dispatch(['run', 'audit.json'])", "0"),
        ("qha.conv.pin_orientation().pinned == qha.conv.PINNED_ORIENTATION", "True"),
    ], ids=["conv-audit", "wiener-verify", "run-audit-manifest", "pin_orientation"])
    def test_seeded_runs_leave_numpy_random_unloaded(self, tmp_path, monkeypatch, call, result):
        # Importing numpy.random costs ~10 ms a process; no seeded draw needs it.
        monkeypatch.chdir(tmp_path)
        manifest = {"subcommand": "conv audit", "params": {"n": 8, "samples": 50}, "seed": 5,
                    "outputs": {"out": "a.csv"}}
        Path("audit.json").write_text(json.dumps(manifest))
        proc = _run_under_memory_limit(
            f"import sys, qha.cli, qha.conv; print({call}, 'numpy.random' in sys.modules)", [])
        assert proc.stdout.split() == [result, "False"], proc.stderr


class TestExampleAndProfileCommands:
    def test_example_halmos_profile(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code, _, _ = run(["example", "halmos", "--blocks", "4", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "param,value"
        assert len(lines) == 2 + 10  # 1+2+3+4 columns

    def test_example_halmos_rejects_no_blocks(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code, _, err = run(["example", "halmos", "--blocks", "0", "--out", str(out)], capsys)
        assert (code, err) == (2, "error: halmos_column_profile needs at least one block\n")
        assert not out.exists()

    def test_example_cac_record(self, tmp_path, capsys):
        out = tmp_path / "cac.csv"
        code, _, _ = run(["example", "cac", "--h", "0.25", "--nmax", "2", "--out", str(out)], capsys)
        assert code == 0
        body = out.read_text()
        assert "projection_residual" in body and "product_norm_n2" in body

    @pytest.mark.parametrize("h", ["0", "-0.25", "nan", "inf"])
    def test_example_cac_rejects_bad_step(self, tmp_path, capsys, h):
        out = tmp_path / "cac.csv"
        code, stdout, err = run(["example", "cac", "--h", h, "--nmax", "2", "--out", str(out)],
                                capsys)
        assert code == 2
        assert err.startswith("error:") and "finite and positive" in err
        assert stdout == ""
        assert not out.exists()

    def test_example_cac_rejects_subnormal_step(self, tmp_path, capsys):
        # 0.5 / 5e-324 is inf, which has no nearest integer.
        out = tmp_path / "cac.csv"
        code, stdout, err = run(["example", "cac", "--h", "5e-324", "--nmax", "1",
                                 "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert err == "error: step h = 5e-324 must divide 0.5 so interval endpoints land on the grid\n"
        assert not out.exists()

    def test_stft_decay_windowed(self, tmp_path, capsys):
        import csv as _csv

        f_path, phi_path, out = tmp_path / "f.csv", tmp_path / "phi.csv", tmp_path / "d.csv"
        with open(f_path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["index", "re", "im"])
            for i in range(-20, 21):
                w.writerow([i, 1.0 if abs(i) <= 2 else 0.0, 0.0])
        with open(phi_path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["index", "re", "im"])
            for i in range(-20, 21):
                w.writerow([i, 1.0 if i == 0 else 0.0, 0.0])
        code, _, _ = run(
            ["stft", "decay", "--f", str(f_path), "--phi", str(phi_path),
             "--k", "grid:8", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text().splitlines()[1] == "x,sup_abs"

    @pytest.mark.parametrize("k", ["grid:0", "grid:-2", "grid:x", "grid:1.5", "grid:", "foo"])
    @pytest.mark.parametrize("readable", [True, False])
    def test_stft_decay_rejects_bad_grid_before_reading(self, tmp_path, capsys, k, readable):
        f_path, out = tmp_path / "f.csv", tmp_path / "d.csv"
        if readable:
            f_path.write_text("index,re,im\n-1,0,0\n0,1,0\n1,0,0\n")
        code, stdout, err = run(
            ["stft", "decay", "--f", str(f_path), "--phi", str(f_path), "--k", k, "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:") and "--k grid:M needs an integer M >= 1" in err
        assert stdout == ""
        assert not out.exists()

    def test_stft_decay_rejects_all_dual(self, tmp_path, capsys):
        f_path = tmp_path / "f.csv"
        f_path.write_text("index,re,im\n0,1,0\n")
        code, _, _ = run(
            ["stft", "decay", "--f", str(f_path), "--phi", str(f_path), "--k", "all",
             "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 2

    def test_rk_writes_both_curves(self, tmp_path, capsys):
        import csv as _csv

        fam = tmp_path / "family"
        fam.mkdir()
        for name, center in (("a", 0), ("b", 5)):
            with open(fam / f"{name}.csv", "w", newline="") as fh:
                w = _csv.writer(fh)
                w.writerow(["index", "re", "im"])
                for i in range(-15, 16):
                    w.writerow([i, np.exp(-((i - center) ** 2) / 4.0), 0.0])
        out = tmp_path / "moduli.csv"
        code, _, _ = run(["rk", "--family", str(fam), "--out", str(out)], capsys)
        assert code == 0
        assert out.exists()
        assert (tmp_path / "moduli_tailmass.csv").exists()

    def test_rk_family_name_is_not_a_pattern(self, tmp_path, capsys):
        # "fam[1]" as a glob pattern would match "fam1", not the directory itself.
        fam = tmp_path / "fam[1]"
        fam.mkdir()
        (fam / "h.csv").write_text("index,re,im\n0,1.0,0.0\n1,0.5,0.0\n")
        out = tmp_path / "moduli.csv"
        code, _, err = run(["rk", "--family", str(fam), "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        assert out.exists() and (tmp_path / "moduli_tailmass.csv").exists()

    def test_rk_rejects_stdout(self, tmp_path, capsys, monkeypatch):
        # rk writes the modulus and the tail masses to two files, so '-' names no file.
        monkeypatch.chdir(tmp_path)
        write_golden_inputs()
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run(["rk", "--family", "fam", "--out", "-"], capsys)
        assert code == 2
        assert err.startswith("error:") and "--out" in err
        assert out == ""
        assert sorted(tmp_path.rglob("*")) == before


class TestGroupCommands:
    def test_dft_roundtrip_values(self, tmp_path, capsys):
        g = FiniteAbelianGroup((4,))
        src = tmp_path / "f.csv"
        out = tmp_path / "fhat.csv"
        write_group_function(delta(g), src)
        code, _, _ = run(
            ["group", "dft", "--orders", "4", "--weight", "1.0",
             "--input", str(src), "--out", str(out)],
            capsys,
        )
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        vals = np.array([complex(float(r), float(i)) for _idx, r, i in rows])
        assert np.allclose(vals, 1.0)

    def test_conv_command(self, tmp_path, capsys):
        g = FiniteAbelianGroup((5,))
        fa, fb, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        write_group_function(delta(g, (1,)), fa)
        write_group_function(delta(g, (3,)), fb)
        code, _, _ = run(
            ["group", "conv", "--orders", "5", "--f", str(fa), "--g", str(fb), "--out", str(out)],
            capsys,
        )
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        vals = np.array([complex(float(r), float(i)) for _idx, r, i in rows])
        expected = np.zeros(5, dtype=complex)
        expected[4] = 1.0
        assert np.allclose(vals, expected, atol=1e-14)


MALFORMED_CSVS = {
    "missing_field": "index,re,im\n0,1.0,0.0\n1,2.0\n",
    "non_finite": "index,re,im\n0,1.0,0.0\n1,nan,0.0\n",
    "header_only": "index,re,im\n",
    "long_quoted_field": 'index,re,im\n0,1.0,0.0\n1,"0.' + "5" * 140_000 + '",0.0\n',
    # Contiguous keys past the int64 range.
    "index_beyond_int64": "index,re,im\n99999999999999999999,1.0,0.0\n100000000000000000000,0.5,0.0\n",
    # Keys that are contiguous only once int64 wraps: max, then min.
    "index_wraps_int64": "index,re,im\n9223372036854775807,1.0,0.0\n-9223372036854775808,0.5,0.0\n",
}


def _reading_argv(command, tmp_path, text) -> list[str]:
    """argv of a command that reads `text` as bad.csv beside a good.csv."""
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("index,re,im\n0,1.0,0.0\n1,0.5,0.0\n")
    bad.write_text(text)
    return {
        "group dft": ["group", "dft", "--orders", "2", "--input", str(bad)],
        "group conv": ["group", "conv", "--orders", "2", "--f", str(good), "--g", str(bad)],
        "stft decay": ["stft", "decay", "--f", str(bad), "--phi", str(good), "--k", "grid:4"],
        "rk": ["rk", "--family", str(tmp_path)],
    }[command] + ["--out", str(tmp_path / "out.csv")]


READING_COMMANDS = ["group dft", "group conv", "stft decay", "rk"]


class TestMalformedInput:
    @pytest.mark.parametrize("kind", sorted(MALFORMED_CSVS))
    @pytest.mark.parametrize("command", READING_COMMANDS)
    def test_usage_error_and_no_output(self, tmp_path, capsys, command, kind):
        out = tmp_path / "out.csv"
        code, _, err = run(_reading_argv(command, tmp_path, MALFORMED_CSVS[kind]), capsys)
        assert code == 2
        assert err.startswith("error:") and "bad.csv" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert not (tmp_path / "out_tailmass.csv").exists()

    @pytest.mark.parametrize("command", READING_COMMANDS)
    def test_long_comment_before_header_is_read(self, tmp_path, capsys, command):
        # A '#' line is opaque text, with no length limit.
        text = "#" + "x" * 140_000 + "\nindex,re,im\n0,1.0,0.0\n1,0.5,0.0\n"
        code, _, err = run(_reading_argv(command, tmp_path, text), capsys)
        assert (code, err) == (0, "")
        assert (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "extra", [["--samples", "-1"], ["--samples", "0"], ["--samples", "-1", "--degenerate"]]
    )
    def test_wiener_verify_rejects_empty_run(self, tmp_path, capsys, extra):
        out = tmp_path / "out.csv"
        argv = ["wiener", "verify", "--n", "3", "--seed", "1", "--out", str(out)]
        code, stdout, err = run(argv + extra, capsys)
        assert code == 2
        assert err.startswith("error:")
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["run self.json", "run", " run   self.json"])
    def test_manifest_naming_run_is_usage_error(self, tmp_path, capsys, monkeypatch, subcommand):
        # A manifest that re-runs itself would recurse until RecursionError.
        monkeypatch.chdir(tmp_path)
        Path("self.json").write_text(json.dumps({"subcommand": subcommand, "params": {}}))
        code, out, err = run(["run", "self.json"], capsys)
        assert code == 2
        assert err.startswith("error:") and "'run'" in err
        assert "Traceback" not in err
        assert out == ""

    def test_wiener_verify_degenerate_only(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = ["wiener", "verify", "--n", "3", "--samples", "0", "--seed", "1", "--degenerate"]
        code, _, _ = run(argv + ["--out", str(out)], capsys)
        assert code == 0
        assert len(out.read_text().splitlines()) == 2 + 7


class TestEmitCsv:
    def test_empty_records_gives_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(path, ("a", "b"), [])
        assert path.read_text() == "a,b\n"

    def test_three_rows_four_lines(self, tmp_path):
        path = tmp_path / "p.csv"
        emit_csv(path, ("param", "value"), [(1, 0.5), (2, 0.25), (3, 0.125)])
        assert len(path.read_text().splitlines()) == 4

    def test_seventeen_digit_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = list(rng.standard_normal(50)) + [1 / 3, np.pi, 0.1]
        path = tmp_path / "r.csv"
        emit_csv(path, ("param", "value"), list(enumerate(vals)))
        rows = path.read_text().splitlines()[1:]
        back = [float(r.split(",")[1]) for r in rows]
        assert all(b == v for b, v in zip(back, vals))

    def test_arity_checked(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(tmp_path / "x.csv", ("a", "b"), [(1, 2, 3)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64(-np.inf), np.float32("nan")])
    @pytest.mark.parametrize("path", ["x.csv", "-"])
    def test_non_finite_value_names_its_column(self, tmp_path, monkeypatch, capsys, bad, path):
        monkeypatch.chdir(tmp_path)
        rows = [("a", 1, 0.5), ("b", 2, bad)]
        with pytest.raises(ValueError, match="column 'value' holds a non-finite value"):
            emit_csv(path, ("name", "count", "value"), rows)
        assert capsys.readouterr().out == "" and not list(tmp_path.iterdir())


class TestNonFiniteOutput:
    """A run whose result overflows exits 2 and writes no file."""

    @staticmethod
    def _assert_one_error_line(argv, capsys, err_start):
        # In-process with warnings as errors, and as a command: numpy's
        # overflow warning must not join the error line on stderr.
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(err_start) and err.count("\n") == 1
        proc = _run_under_memory_limit("from qha.cli import main; main()", argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(err_start) and proc.stderr.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_rk_tail_mass_overflow(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("fam").mkdir()
        _write_csv("fam/a.csv", np.arange(-5, 6), np.full(11, 1e308 + 1e308j))
        self._assert_one_error_line(["rk", "--family", "fam", "--out", "rk.csv"], capsys,
                                    "error: column 'value' holds a non-finite value")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fam"]

    @pytest.mark.filterwarnings("error")
    def test_stft_decay_overflow(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        _write_csv("f.csv", np.arange(-5, 6), np.full(11, 1e308 + 1e308j))
        _write_csv("phi.csv", np.arange(-1, 2), np.full(3, 1e308 + 0j))
        argv = ["stft", "decay", "--f", "f.csv", "--phi", "phi.csv", "--k", "grid:8", "--out", "d.csv"]
        self._assert_one_error_line(argv, capsys, "error: column 'sup_abs' holds a non-finite value")
        assert not Path("d.csv").exists()

    @pytest.mark.parametrize("weight", ["inf", "-inf", "nan"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_weight_is_rejected_before_reading(self, tmp_path, capsys, weight):
        out = tmp_path / "o.csv"
        argv = ["group", "dft", "--orders", "4", f"--weight={weight}",
                "--input", str(tmp_path / "missing.csv"), "--out", str(out)]
        assert run(argv, capsys) == (2, "", "error: haar_weight must be finite and positive\n")
        assert not out.exists()


class TestManifests:
    def test_run_manifest_matches_direct_invocation(self, tmp_path, capsys):
        direct = tmp_path / "direct.csv"
        via = tmp_path / "via.csv"
        code, _, _ = run(
            ["conv", "audit", "--n", "3", "--samples", "8", "--seed", "5", "--out", str(direct)],
            capsys,
        )
        assert code == 0
        manifest = {
            "subcommand": "conv audit",
            "params": {"n": 3, "samples": 8},
            "seed": 5,
            "outputs": {"out": str(via)},
        }
        man_path = tmp_path / "man.json"
        man_path.write_text(json.dumps(manifest))
        code, _, _ = run(["run", str(man_path)], capsys)
        assert code == 0
        # identical apart from the embedded output path
        d = direct.read_text().replace(str(direct), "OUT")
        v = via.read_text().replace(str(via), "OUT")
        assert d == v

    @pytest.mark.parametrize("name", GOLDEN_RUNS)
    def test_rerun_is_byte_identical(self, golden_dir, capsys, name):
        # The manifest line of the golden, re-run, rewrites every golden output.
        manifest_golden = next(iter(GOLDEN_RUNS[name][1].values()))
        first = (GOLDEN / manifest_golden).read_text().split("\n", 1)[0]
        Path("m.json").write_text(first.removeprefix("# manifest: "))
        assert_golden(name, run_golden(name, capsys, ["run", "m.json"]))

    def test_every_flag_is_its_dest(self):
        # qha run passes each manifest param as --<name>; that inverts the
        # manifest only while every option of every subcommand is --<dest>.
        def options(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from options(sub)
                elif action.option_strings:
                    yield action

        actions = list(options(build_parser()))
        assert len(actions) > 30
        for action in actions:
            assert f"--{action.dest}" in action.option_strings, action.option_strings

    def test_rerun_of_a_path_that_starts_with_a_dash(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["example", "halmos", "--blocks", "2", "--out=-x.csv"], capsys)[0] == 0
        first = Path("-x.csv").read_bytes()
        Path("m.json").write_bytes(first.split(b"\n", 1)[0].removeprefix(b"# manifest: "))
        Path("-x.csv").unlink()
        assert run(["run", "m.json"], capsys)[0] == 0
        assert Path("-x.csv").read_bytes() == first

    def test_expect_leaves_the_output_unchanged(self, tmp_path, capsys):
        # --expect asserts on the classification; it is no param of the manifest.
        out = tmp_path / "p.csv"
        argv = ["probe", "topology", "--case", "parity-shift", "--tol", "0.001", "--out", str(out)]
        assert run(argv, capsys)[:2] == (0, "classification,weak*\n")
        plain = out.read_bytes()
        for expect, code in (("weak*", 0), ("norm", 1)):
            assert run(argv + ["--expect", expect], capsys)[:2] == (code, "classification,weak*\n")
            assert out.read_bytes() == plain

    def test_box_modulation_bytes_do_not_depend_on_blas_threads(self):
        # qha.cli pins BLAS to one thread before numpy loads; in a fresh process
        # the environment's thread setting must not reach the probe's norms.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "qha.cli", "probe", "topology", "--case", "box-modulation",
                "--tol", "1e-6", "--out", "-"]
        rows = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path,
                   **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)}
            out = subprocess.run(argv, env=env, capture_output=True, check=True, timeout=120).stdout
            assert out.startswith(b"# manifest: ")
            rows.append(out.split(b"\n", 1)[1])
        assert rows[0].count(b"\n") == 38  # header, 36 pairs, classification
        assert rows[0] == rows[1]

    def test_missing_key_is_usage_error(self, tmp_path, capsys):
        man_path = tmp_path / "bad.json"
        man_path.write_text(json.dumps({"params": {}}))
        code, _, err = run(["run", str(man_path)], capsys)
        assert code == 2
        assert "subcommand" in err

    @pytest.mark.parametrize("manifest", [
        {"subcommand": 5, "params": {}},
        {"subcommand": "probe topology", "params": [1]},
        {"subcommand": "weyl check", "params": {"n": 3}, "outputs": ["out.csv"]},
        {"subcommand": "weyl check", "params": {"n": 3}, "outputs": "out.csv"},
        # A null, list or object value would reach argv as its str().
        {"subcommand": "example halmos", "params": {"blocks": 2}, "outputs": {"out": None}},
        {"subcommand": "example halmos", "params": {"blocks": None}, "outputs": {"out": "h.csv"}},
        {"subcommand": "example halmos", "params": {"blocks": [2]}, "outputs": {"out": "h.csv"}},
        {"subcommand": "conv audit", "params": {"n": 3, "samples": 2}, "seed": None},
        {"subcommand": "conv audit", "params": {"n": 3, "samples": 2}, "seed": {"value": 1}},
    ])
    def test_wrongly_typed_fields_are_usage_errors(self, tmp_path, capsys, monkeypatch, manifest):
        monkeypatch.chdir(tmp_path)
        Path("typed.json").write_text(json.dumps(manifest))
        code, out, err = run(["run", "typed.json"], capsys)
        assert code == 2
        assert "must be" in err
        assert err.count("\n") == 1
        assert out == ""
        assert os.listdir() == ["typed.json"]

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        man_path = tmp_path / "broken.json"
        man_path.write_text("{not json")
        code, _, _ = run(["run", str(man_path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("text, line", [
        (None, "cannot read manifest: [Errno 2] No such file or directory: 'm.json'"),
        ("{not json", "cannot read manifest: Expecting property name enclosed in double quotes: "
                      "line 1 column 2 (char 1)"),
        ('{"params": {}}', "manifest needs 'subcommand' and 'params' keys"),
        ('{"subcommand": 5, "params": {}}', "manifest 'subcommand' must be a string, 'params' "
                                            "an object and 'outputs' an object or null"),
        ('{"subcommand": "run m.json", "params": {}}', "a manifest cannot name the 'run' subcommand"),
        ('{"subcommand": "weyl check", "params": {"n": null}}',
         "manifest params, seed and outputs must be strings, numbers or booleans"),
    ], ids=["missing-file", "bad-json", "missing-keys", "wrong-types", "run-subcommand",
            "null-value"])
    def test_run_error_is_one_exact_line(self, tmp_path, capsys, monkeypatch, text, line):
        monkeypatch.chdir(tmp_path)
        if text is not None:
            Path("m.json").write_text(text)
        assert run(["run", "m.json"], capsys) == (2, "", f"error: {line}\n")

    def test_weyl_check_manifest(self, tmp_path, capsys):
        man_path = tmp_path / "w.json"
        man_path.write_text(json.dumps({"subcommand": "weyl check", "params": {"n": 3}}))
        code, _, _ = run(["run", str(man_path)], capsys)
        assert code == 0

    def test_boolean_params_become_bare_flags(self, tmp_path, capsys):
        out = tmp_path / "deg.csv"
        manifest = {
            "subcommand": "wiener verify",
            "params": {"n": 3, "samples": 4, "degenerate": True},
            "seed": 1,
            "outputs": {"out": str(out)},
        }
        man_path = tmp_path / "deg.json"
        man_path.write_text(json.dumps(manifest))
        code, _, _ = run(["run", str(man_path)], capsys)
        assert code == 0
        assert "reflection" in out.read_text()


class TestParserCoverage:
    def test_parser_is_built_once_and_reused(self, tmp_path, capsys):
        parser = build_parser()
        assert build_parser() is parser
        man_path = tmp_path / "w.json"
        man_path.write_text(json.dumps({"subcommand": "weyl check", "params": {"n": 2}}))
        assert run(["run", str(man_path)], capsys)[0] == 0  # nested dispatch on the same parser
        assert run(["weyl", "check", "--n", "2"], capsys)[0] == 0
        assert build_parser() is parser

    def test_every_diagnostic_reachable(self):
        parser = build_parser()
        # top-level subcommands enumerate the full library surface
        subactions = [
            a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
        ]
        names = set(subactions[0].choices)
        assert names == {"group", "weyl", "conv", "wiener", "example", "probe", "stft", "bound", "rk", "run"}


def _parsers(parser):
    """The parser and every subparser under it, depth first in table order."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


class TestParserText:
    def test_help_matches_golden(self, monkeypatch):
        # qha --help, then each group word's --help, then each leaf's, at 80 columns.
        monkeypatch.setenv("COLUMNS", "80")
        parsers = sorted(_parsers(build_parser()), key=lambda p: p._subparsers is None)
        text = "".join(p.format_help() for p in parsers)
        assert text == (GOLDEN / "help.txt").read_text()

    def test_readme_commands_parse_and_cover_every_leaf(self):
        # Every qha line of the README's command-line block, without its comment.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        argvs = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                 if line.startswith("qha ")]
        for argv in argvs:
            build_parser().parse_args(argv)
        for words, _ in _commands(build_parser()):
            assert any(tuple(argv[:len(words)]) == words for argv in argvs), words


def _commands(parser, words=()):
    """(subcommand words, options) of every leaf command of the parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, words + (name,))
            return
    yield words, [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]


#: One value per option type.  Ints stay small: huge sizes run only in the
#: RLIMIT_AS child of test_oversized_run_exits_2_before_allocating.
_EDGES = ["0", "-1", "nan", "inf", "-inf", "1e308", "-1e308"]
_BY_TYPE = {int: _EDGES + ["1", "2", "3"], float: _EDGES + ["5e-324", "0.25", "0.5"]}
#: String options, by dest; paths are relative to the fixture directory.
_BY_DEST = {
    "orders": ["0", "-1", "2", "12", "4,3", "4,3,0", "nan", "1e308"],
    "tails": _EDGES + ["0.5", "0.5,0.25", "1e308,1e308"],
    "k": ["grid:0", "grid:-1", "grid:3", "grid:nan", "grid:1e308", "all", "3"],
    **{dest: ["small.csv", "huge.csv", "window.csv", "missing.csv"]
       for dest in ("input", "f", "g", "phi")},
    "family": ["fam", "fam_huge", "empty", "missing"],
    "manifest": ["weyl.json", "bound.json", "broken.json", "missing.json"],
    "out": ["-", "out/o.csv"],
}
#: The commands whose exit 1 reports a failed audit.
_AUDITS = {("weyl", "check"), ("conv", "audit"), ("wiener", "verify")}


@st.composite
def _argv(draw):
    words, options = draw(st.sampled_from(list(_commands(build_parser()))))
    argv = list(words)
    for action in options:
        if not action.required and draw(st.booleans()):
            continue
        if action.nargs == 0:
            argv.append(action.option_strings[0])
            continue
        values = action.choices or _BY_TYPE.get(action.type) or _BY_DEST[action.dest]
        value = draw(st.sampled_from(sorted(values)))
        argv.append(f"{action.option_strings[0]}={value}" if action.option_strings else value)
    return argv


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Small input files, some of huge finite values, and manifests."""
    root = tmp_path_factory.mktemp("fuzz")
    t = np.arange(12)
    _write_csv(root / "small.csv", t, np.cos(t) + 0.5j)
    _write_csv(root / "huge.csv", t, np.full(12, 1e308 - 1e308j))
    _write_csv(root / "window.csv", np.arange(-1, 2), np.full(3, 1e308 + 0j))
    for family, files in (("fam", ["small.csv"]), ("fam_huge", ["small.csv", "huge.csv"]),
                          ("empty", [])):
        (root / family).mkdir()
        for name in files:
            (root / family / name).write_bytes((root / name).read_bytes())
    (root / "weyl.json").write_text(json.dumps({"subcommand": "weyl check", "params": {"n": 2}}))
    (root / "bound.json").write_text(json.dumps(
        {"subcommand": "bound certify", "params": {"tails": "1e308", "eps": 1e308, "c": 1e308}}))
    (root / "broken.json").write_text('{"subcommand": ')
    return root


def _non_finite_fields(text: str) -> list[str]:
    bad = []
    for line in text.splitlines():
        if not line.startswith("#"):
            for field in line.split(","):
                try:
                    if not np.isfinite(float(field)):
                        bad.append(field)
                except ValueError:
                    pass
    return bad


class TestFuzzParser:
    @given(_argv())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_exit_codes_and_finite_output(self, fuzz_inputs, argv):
        # Each run starts in the fixture directory with an empty out/.
        shutil.rmtree(fuzz_inputs / "out", ignore_errors=True)
        (fuzz_inputs / "out").mkdir()
        stdout, cwd = io.StringIO(), os.getcwd()
        os.chdir(fuzz_inputs)
        try:
            with (warnings.catch_warnings(), contextlib.redirect_stdout(stdout),
                  contextlib.redirect_stderr(io.StringIO())):
                warnings.simplefilter("error")
                code = dispatch(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2)
        if code == 1:
            assert tuple(argv[:2]) in _AUDITS or (argv[:2] == ["probe", "topology"]
                                                   and any(a.startswith("--expect") for a in argv))
        if code == 0:
            outputs = [stdout.getvalue()] + [p.read_text() for p in (fuzz_inputs / "out").iterdir()]
            assert not [f for text in outputs for f in _non_finite_fields(text)]
