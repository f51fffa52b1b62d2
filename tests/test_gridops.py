"""Grid discretizations: box convolution operator and the projection
sandwich construction."""

import tracemalloc

import numpy as np
import pytest

import qha.errors
from qha.asymptotics.gridops import (
    GridOperator,
    box_convolution_operator,
    cac_example,
    modulated_box_operator,
    piecewise_box_smoothed_indicator,
)
from qha.errors import PreconditionError


class TestBoxOperator:
    def test_symmetric(self):
        op = box_convolution_operator(0.25, 0.0, 10.0)
        assert np.array_equal(op.matrix, op.matrix.T)

    def test_interior_row_sums(self):
        h = 0.1
        op = box_convolution_operator(h, 0.0, 10.0)
        band = int(round(1 / h))
        sums = op.matrix.real.sum(axis=1)[band:-band]
        assert np.all(sums >= 2 - 2 * h)
        assert np.all(sums <= 2 + 2 * h)

    def test_norm_approaches_kernel_transform_peak(self):
        # FFT-symbol oracle: the transform of the kernel peaks at 2
        norms = [box_convolution_operator(h, -6.0, 6.0).op_norm() for h in (0.2, 0.1, 0.05)]
        assert abs(norms[-1] - 2.0) < abs(norms[0] - 2.0) + 0.05
        assert abs(box_convolution_operator(0.02, -6.0, 6.0).op_norm() - 2.0) < 0.02

    @pytest.mark.parametrize("h", [0.0, -0.25, float("nan"), float("inf")])
    def test_non_finite_or_non_positive_step(self, h):
        with pytest.raises(PreconditionError, match="finite and positive"):
            box_convolution_operator(h, 0.0, 5.0)
        with pytest.raises(PreconditionError, match="finite and positive"):
            cac_example(h, 2)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            box_convolution_operator(0.6, 0.0, 5.0)
        with pytest.raises(PreconditionError):
            box_convolution_operator(0.25, 5.0, 5.0)
        with pytest.raises(PreconditionError):
            box_convolution_operator(0.3, 0.0, 1.0)  # 1/0.3 not integral

    def test_modulated_box_is_unitarily_equivalent(self):
        plain = box_convolution_operator(0.1, -3.0, 3.0)
        mod = modulated_box_operator(0.1, -3.0, 3.0, freq=17.0)
        assert mod.op_norm() == pytest.approx(plain.op_norm(), rel=1e-12)
        assert np.abs(mod.matrix.conj().T - mod.matrix).max() < 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_grid_operator_rejects_non_finite(self, bad):
        # The box matrix is real; a complex copy can hold complex(0, -inf).
        mat = box_convolution_operator(0.5, 0.0, 2.0).matrix.astype(complex)
        mat[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            GridOperator(0.5, 0.0, 2.0, mat)

    def test_real_matrix_stays_real(self):
        assert GridOperator(0.5, 0.0, 0.5, np.eye(2, dtype=int)).matrix.dtype == np.float64
        mat = np.eye(2) + 0j
        assert GridOperator(0.5, 0.0, 0.5, mat).matrix is mat


class TestPiecewiseFormula:
    def test_plateau_value_two(self):
        for n in (2, 3, 5):
            c, half = n * n, n / 2
            x = np.linspace(c - half + 1, c + half - 1, 11)
            assert np.allclose(piecewise_box_smoothed_indicator(n, x), 2.0)

    def test_support_endpoints(self):
        n = 3
        x = np.array([n * n - n / 2 - 1.5, n * n + n / 2 + 1.5])
        assert np.allclose(piecewise_box_smoothed_indicator(n, x), 0.0)

    def test_ramps_are_linear(self):
        n = 4
        c, half = n * n, n / 2
        x = np.linspace(c - half - 1, c - half + 1, 9)
        vals = piecewise_box_smoothed_indicator(n, x)
        assert np.allclose(np.diff(vals, 2), 0.0, atol=1e-12)
        assert vals[0] == pytest.approx(0.0)
        assert vals[-1] == pytest.approx(2.0)

    def test_matches_quadrature_oracle(self):
        # overlap-length oracle: g(x) = |I_n  intersect  [x-1, x+1]|
        n = 3
        a, b = n * n - n / 2, n * n + n / 2
        xs = np.linspace(a - 2, b + 2, 57)
        overlap = np.maximum(0.0, np.minimum(b, xs + 1) - np.maximum(a, xs - 1))
        assert np.allclose(piecewise_box_smoothed_indicator(n, xs), overlap, atol=1e-12)

    def test_rejects_degenerate_block(self):
        with pytest.raises(PreconditionError):
            piecewise_box_smoothed_indicator(1, np.array([1.0]))


class TestCacExample:
    def test_projection_exact_on_aligned_grid(self):
        rec = cac_example(0.05, 3)
        assert rec.projection_residual < 1e-13

    def test_block_functions_are_unit_and_fixed(self):
        rec = cac_example(0.1, 3)
        proj = rec.projector
        grid = proj.grid()
        for n in (1, 2, 3):
            mask = ((grid >= n * n - n / 2) & (grid < n * n + n / 2)).astype(float)
            f = mask / np.sqrt(n)
            assert proj.vec_norm(f) == pytest.approx(1.0, abs=1e-12)
            assert np.abs(proj.apply(f) - f).max() < 1e-12

    def test_discrete_convolution_matches_formula_within_2h(self):
        h = 0.05
        rec = cac_example(h, 4)
        assert rec.worst_g_error() <= 2 * h

    def test_plateau_exact_at_interior_points(self):
        rec = cac_example(0.05, 4)
        assert max(rec.plateau_max_dev.values()) <= 1e-12

    def test_product_matches_dense_sandwich(self):
        rec = cac_example(0.05, 4)
        box, proj = rec.box.matrix, rec.projector.matrix
        dense = box @ proj @ box
        assert np.abs(rec.product.matrix - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_kernel_domination(self):
        rec = cac_example(0.05, 4)
        assert rec.min_kernel_gap >= -1e-12

    def test_product_norms_at_least_one(self):
        rec = cac_example(0.05, 4)
        for n in range(1, 5):
            assert rec.product_norms[n] >= 1.0 - 1e-12

    def test_halving_h_halves_g_error(self):
        coarse = cac_example(0.05, 3).worst_g_error()
        fine = cac_example(0.025, 3).worst_g_error()
        assert coarse / fine == pytest.approx(2.0, rel=0.5)

    def test_matrices_stay_real(self):
        rec = cac_example(0.25, 3)
        for op in (rec.box, rec.projector, rec.product):
            assert op.matrix.dtype == np.float64

    def test_peak_memory_at_the_benchmark_size(self):
        # Real box, projector and product matrices: the tracked peak is about
        # 40 bytes per entry of the 821 x 821 grid (80 with complex copies).
        tracemalloc.start()
        try:
            cac_example(0.05, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 44 * 821**2

    def test_memory_budget_decides_before_allocating(self, monkeypatch):
        # 48 bytes per entry of S x S: S <= 4729, which is n_max <= 15 at h = 0.05.
        assert 48 * 4729**2 <= qha.errors.MEMORY_BUDGET < 48 * 4730**2
        assert round((15**2 + 7.5 + 2) / 0.05) + 1 <= 4729 < round((16**2 + 8 + 2) / 0.05) + 1
        monkeypatch.setattr(qha.errors, "MEMORY_BUDGET", 48 * 51**2)  # h = 0.25, n_max = 3
        assert cac_example(0.25, 3).box.size == 51
        with pytest.raises(PreconditionError, match="61-point grid needs 178,608 bytes"):
            cac_example(0.25, 3, x_hi=15.0)

    def test_named_preconditions(self):
        with pytest.raises(PreconditionError, match="divide 0.5"):
            cac_example(0.2, 9)
        with pytest.raises(PreconditionError, match="cover"):
            cac_example(0.1, 3, x_lo=0.0, x_hi=5.0)
        with pytest.raises(PreconditionError, match="h <= 0.5"):
            cac_example(0.7, 2)
