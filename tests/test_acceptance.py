"""Acceptance gate: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  One check (C4c) asserts the classical unweighted form of the
operator-product transform identity; that form provably cannot hold under
the pinned asymmetric multiplier (the exact identity carries the weight
m(xi,-xi), verified green in C4d), so C4c is an expected, documented
failure and is marked `known_gap`.  Deselect it with `-m "not known_gap"`
for a green conformance run.
"""

import time

import numpy as np
import pytest

from qha.asymptotics.gridops import cac_example
from qha.asymptotics.probes import (
    box_modulation_case,
    halmos_shift_case,
    parity_shift_case,
    topology_probe,
)
from qha.asymptotics.windowed import (
    WindowedFunction,
    b0_diagnostic,
    column_row_profiles,
    compactness_proxy,
    halmos_operator,
)
from qha.conv import (
    conv_fn_op,
    conv_op_op,
    pin_orientation,
    self_pairing_weight,
    symplectic_fourier,
    verify_norm_estimates,
)
from qha.groups import FiniteAbelianGroup, GroupFunction, convolve
from qha.tauber import (
    NetCertificate,
    certified_tail_bound,
    modulate_family_is_regular,
    stft,
    windowed_stft_profile,
)
from qha.weyl import PhaseSpace, fourier_weyl, weyl_identity_residuals
from qha.wiener import degenerate_operator_set, regular_op_set

from _reference import delta, random_function, random_op, sharpness_witness, stft_energy, tail_bound_trial


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c1_projective_representation_exact():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5):
        res = weyl_identity_residuals(n)
        worst = max(worst, res["projective"], res["parity"], res["cocycle"])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    report("C1 projective/parity/cocycle", ok, f"max residual {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


@pytest.mark.parametrize("n", [3, 8])
def test_c2_haar_normalization(n):
    ps = PhaseSpace(n)
    ones = ps.function(np.ones(n * n))
    rng = np.random.default_rng(100 + n)
    worst = 0.0
    for _ in range(100):
        a = random_op(n, rng)
        out = conv_fn_op(ones, a)
        worst = max(worst, float(np.abs(out.matrix - np.trace(a.matrix) * np.eye(n)).max()))
    ok = worst <= 1e-10
    report(f"C2 Haar normalization N={n}", ok, f"max |1*A - Tr(A)I| = {worst:.2e}")
    assert ok


def test_c3_operator_wiener_equivalence():
    start = time.perf_counter()
    disagreements = 0
    checked = 0
    for n in range(2, 7):
        rng = np.random.default_rng(200 + n)
        ops = [random_op(n, rng) for _ in range(200)]
        ops += list(degenerate_operator_set(n).values())
        for op in ops:
            rep = regular_op_set([op], threshold=1e-8)
            checked += 1
            if not rep.predicates_agree:
                disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 60.0
    report("C3 rank/transform equivalence", ok,
           f"{checked} operators, {disagreements} disagreements, {elapsed:.1f}s")
    assert disagreements == 0
    assert elapsed < 60.0


def _theorem_residuals(n: int, samples: int, seed: int):
    ps = PhaseSpace(n)
    rng = np.random.default_rng(seed)
    w = self_pairing_weight(ps)
    res = {"fn_fn": 0.0, "fn_op": 0.0, "op_op": 0.0, "op_op_weighted": 0.0}
    for _ in range(samples):
        m = n * n
        f = ps.function(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        g = ps.function(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        a, b = random_op(n, rng), random_op(n, rng)
        lhs = symplectic_fourier(convolve(f, g)).values
        rhs = symplectic_fourier(f).values * symplectic_fourier(g).values
        res["fn_fn"] = max(res["fn_fn"], float(np.abs(lhs - rhs).max()))
        lhs = fourier_weyl(conv_fn_op(f, a)).values
        rhs = symplectic_fourier(f).values * fourier_weyl(a).values
        res["fn_op"] = max(res["fn_op"], float(np.abs(lhs - rhs).max()))
        lhs = symplectic_fourier(conv_op_op(a, b)).values
        rhs = fourier_weyl(a).values * fourier_weyl(b).values
        res["op_op"] = max(res["op_op"], float(np.abs(lhs - rhs).max()))
        res["op_op_weighted"] = max(res["op_op_weighted"], float(np.abs(lhs * w - rhs).max()))
    return res


def test_c4a_function_function_transform_identity():
    pinned = pin_orientation(3, seed=0).pinned
    worst = max(_theorem_residuals(n, 50, 300 + n)["fn_fn"] for n in (3, 4, 5))
    ok = worst <= 1e-10
    report("C4a F(f*g) = Ff.Fg", ok, f"orientation {pinned}, max residual {worst:.2e}")
    assert ok


def test_c4b_function_operator_transform_identity():
    worst = max(_theorem_residuals(n, 50, 310 + n)["fn_op"] for n in (3, 4, 5))
    ok = worst <= 1e-10
    report("C4b F(f*A) = Ff.FA", ok, f"max residual {worst:.2e}")
    assert ok


@pytest.mark.known_gap
def test_c4c_operator_operator_classical_form():
    # The unweighted classical form: provably fails by the multiplier weight
    # m(xi,-xi) for every kernel orientation (the pinning oracle finds no
    # variant satisfying it); kept as stated, expected red.
    worst = max(_theorem_residuals(n, 50, 320 + n)["op_op"] for n in (3, 4, 5))
    ok = worst <= 1e-10
    report("C4c F(A*B) = FA.FB (classical form)", ok,
           f"max residual {worst:.2e}; exact finite form carries m(xi,-xi), see C4d")
    assert ok


def test_c4d_operator_operator_exact_finite_form():
    worst = max(_theorem_residuals(n, 50, 330 + n)["op_op_weighted"] for n in (3, 4, 5))
    ok = worst <= 1e-10
    report("C4d m(xi,-xi).F(A*B) = FA.FB", ok, f"max residual {worst:.2e}")
    assert ok


def test_c5_norm_estimate_audit():
    rep = verify_norm_estimates(6, samples=200, seed=500)
    worst = rep.worst()
    witness = sharpness_witness(6, seed=1)
    ok = worst <= 1.0 + 1e-10 and witness >= 0.999
    report("C5 norm inequalities", ok, f"max ratio {worst:.12f}, sharpness {witness:.6f}")
    assert worst <= 1.0 + 1e-10
    assert witness >= 0.999


def test_c6_halmos_diagnostics():
    start = time.perf_counter()
    op = halmos_operator(40)
    assert op.size == 820
    cols, _rows = column_row_profiles(op)
    col_err = 0.0
    offset = 0
    for n in range(1, 41):
        col_err = max(col_err, float(np.abs(cols.values[offset:offset + n] - 1 / np.sqrt(n)).max()))
        offset += n
    svals = np.linalg.svd(op.matrix, compute_uv=False)
    big = svals[svals >= 1 - 1e-8]
    sval_ok = big.size == 40 and np.all(big <= 1 + 1e-12)
    verdict = b0_diagnostic(op, tol=0.2, margin=300)
    trend = compactness_proxy(halmos_operator, [10, 20, 40], 0.9)
    elapsed = time.perf_counter() - start
    ok = (col_err <= 1e-13 and sval_ok and verdict.consistent
          and trend.counts == [10, 20, 40] and trend.verdict == "non-compact-trend"
          and elapsed < 10.0)
    report("C6 block-projection diagnostics", ok,
           f"col err {col_err:.1e}, {big.size} unit svals, b0={verdict.consistent}, "
           f"counts={trend.counts}, {elapsed:.1f}s")
    assert col_err <= 1e-13
    assert sval_ok
    assert verdict.consistent
    assert trend.counts == [10, 20, 40]
    assert trend.verdict == "non-compact-trend"
    assert elapsed < 10.0


def test_c7_box_projection_sandwich():
    start = time.perf_counter()
    rec = cac_example(0.05, 4)
    g_ok = max(rec.g_max_errors.values()) <= 2 * 0.05
    plateau_ok = max(rec.plateau_max_dev.values()) <= 1e-12
    gap_ok = rec.min_kernel_gap >= -1e-12
    norm_ok = all(rec.product_norms[n] >= 0.98 for n in range(1, 5))
    fine = cac_example(0.025, 4)
    ratio = max(rec.g_max_errors.values()) / max(fine.g_max_errors.values())
    halving_ok = 2 / 1.5 <= ratio <= 2 * 1.5
    elapsed = time.perf_counter() - start
    ok = g_ok and plateau_ok and gap_ok and norm_ok and halving_ok and elapsed < 30.0
    report("C7 box-projection sandwich", ok,
           f"g err {max(rec.g_max_errors.values()):.3e}, plateau dev {max(rec.plateau_max_dev.values()):.1e}, "
           f"kernel gap {rec.min_kernel_gap:.1e}, min norm "
           f"{min(rec.product_norms.values()):.3f}, halving ratio {ratio:.2f}, {elapsed:.1f}s")
    assert g_ok and plateau_ok and gap_ok and norm_ok and halving_ok
    assert elapsed < 30.0


def test_c8_topology_hierarchy_probes():
    case = halmos_shift_case()
    res = topology_probe(case.matrices, case.test_vectors, case.trace_tests, tol=0.1)
    halmos_ok = (res.classification == "strong*"
                 and min(r.norm_diff for r in res.rows) >= 0.99
                 and res.tail_max("strongstar_diff") <= 0.1)
    report("C8 halmos-shift", halmos_ok,
           f"class {res.classification}, min norm diff {min(r.norm_diff for r in res.rows):.3f}, "
           f"tail strong* {res.tail_max('strongstar_diff'):.2e}")

    case_p = parity_shift_case()
    res_p = topology_probe(case_p.matrices, case_p.test_vectors, case_p.trace_tests, tol=1e-3)
    norm_preserved = 0.0
    for v in case_p.test_vectors:
        u = v / np.linalg.norm(v)
        for m in case_p.matrices:
            norm_preserved = max(norm_preserved, abs(np.linalg.norm(m @ u) - 1.0))
    parity_ok = (res_p.classification == "weak*"
                 and norm_preserved <= 1e-14
                 and res_p.tail_max("weakstar_diff") <= 1e-3)
    report("C8 parity-shift", parity_ok,
           f"class {res_p.classification}, norm preservation err {norm_preserved:.1e}, "
           f"tail weak* {res_p.tail_max('weakstar_diff'):.1e}")

    case_b = box_modulation_case()
    res_b = topology_probe(case_b.matrices, case_b.test_vectors, case_b.trace_tests, tol=0.1)
    box_norm = np.linalg.norm(case_b.matrices[0], 2)
    box_ok = (res_b.classification == "strong*"
              and abs(box_norm - 2.0) <= 0.02
              and min(r.norm_diff for r in res_b.rows) > 0.1)
    report("C8 box-modulation", box_ok,
           f"class {res_b.classification}, op norm {box_norm:.4f}")

    assert halmos_ok and parity_ok and box_ok


def test_c9_certified_tail_bound_soundness():
    rng = np.random.default_rng(900)
    violations = 0
    for _ in range(500):
        measured, bound = tail_bound_trial(rng)
        if measured > bound + 1e-12:
            violations += 1
    formula = certified_tail_bound(NetCertificate((0.1, 0.2), 0.05, 3.0))
    formula_ok = formula == max((0.1, 0.2)) + 0.05 * 3.0
    ok = violations == 0 and formula_ok
    report("C9 certified tail bound", ok,
           f"500 instances, {violations} violations, formula case {formula!r}")
    assert violations == 0
    assert formula_ok


def test_c10_windowed_transform_suite():
    g = FiniteAbelianGroup((8,))
    rng = np.random.default_rng(1000)
    f, w = random_function(g, rng), random_function(g, rng)
    v = stft(f, w)
    lhs = stft_energy(v, g)
    rhs = ((np.abs(w.values) ** 2).sum() * g.haar_weight
           * (np.abs(f.values) ** 2).sum() * g.haar_weight)
    energy_err = abs(lhs - rhs) / rhs

    vals = np.zeros(81, dtype=complex)
    vals[38:45] = rng.standard_normal(7)
    fw = WindowedFunction(-40, vals)
    w_vals = np.zeros(81, dtype=complex)
    w_vals[39:42] = 1.0
    ww = WindowedFunction(-40, w_vals)
    prof = windowed_stft_profile(fw, ww, 2 * np.pi * np.arange(16) / 16)
    far = np.abs(prof.params) > 8
    exact_zero = bool(np.all(prof.values[far] == 0.0))

    reg_ok = (modulate_family_is_regular(delta(g))
              and modulate_family_is_regular(random_function(g, rng))
              and not modulate_family_is_regular(GroupFunction(g, np.zeros(8))))

    ok = energy_err <= 1e-10 and exact_zero and reg_ok
    report("C10 windowed transform suite", ok,
           f"energy rel err {energy_err:.2e}, exact-zero tail {exact_zero}, "
           f"modulate-family predicate {reg_ok}")
    assert energy_err <= 1e-10
    assert exact_zero
    assert reg_ok
