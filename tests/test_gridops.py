"""Grid discretizations: box convolution operator and the projection
sandwich construction."""

import tracemalloc

import numpy as np
import pytest

import qha.asymptotics.gridops as gridops
import qha.errors
from qha.asymptotics.gridops import (
    GridOperator,
    box_convolution_operator,
    cac_example,
    piecewise_box_smoothed_indicator,
)
from qha.asymptotics.probes import box_modulation_case
from qha.errors import PreconditionError

import _reference as ref


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

    def test_memory_budget_decides_before_allocating(self, monkeypatch):
        # 9 bytes per entry: the S x S float matrix and GridOperator's finiteness mask.
        monkeypatch.setattr(qha.errors, "MEMORY_BUDGET", 2**20)
        assert box_convolution_operator(0.04, -6.0, 6.0).size == 301  # 815,409 bytes fit
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="box convolution on 1201 points needs 12,981,609 bytes"):
                box_convolution_operator(0.01, -6.0, 6.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(PreconditionError, match="12,981,609 bytes"):
            box_modulation_case(h=0.01)

    def test_modulated_box_is_unitarily_equivalent(self):
        plain = box_convolution_operator(0.1, -3.0, 3.0)
        mod = GridOperator(0.1, -3.0, 3.0, ref.modulated_box(0.1, -3.0, 3.0, freq=17.0))
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
        h = 0.1
        proj = ref.cac_dense(h, 3)["projector"]
        grid = h * np.arange(len(proj))
        for n in (1, 2, 3):
            mask = ((grid >= n * n - n / 2) & (grid < n * n + n / 2)).astype(float)
            f = mask / np.sqrt(n)
            assert np.sqrt(h * np.sum(f**2)) == pytest.approx(1.0, abs=1e-12)
            assert np.abs(proj @ f - f).max() < 1e-12

    def test_discrete_convolution_matches_formula_within_2h(self):
        h = 0.05
        rec = cac_example(h, 4)
        assert max(rec.g_max_errors.values()) <= 2 * h

    def test_plateau_exact_at_interior_points(self):
        rec = cac_example(0.05, 4)
        assert max(rec.plateau_max_dev.values()) <= 1e-12

    def test_dense_product_matches_dense_sandwich(self):
        # The oracle's rank form of C A C against the triple product.
        dense = ref.cac_dense(0.05, 4)
        sandwich = dense["box"] @ dense["projector"] @ dense["box"]
        assert np.abs(dense["product"] - sandwich).max() <= 1e-12 * np.abs(sandwich).max()

    @pytest.mark.parametrize("h", [0.25, 0.1, 0.05])
    def test_structured_record_matches_dense_oracle(self, h):
        # Each quantity within 1e-15 of its scale: the largest entry of
        # C A C / h for the kernel gap, the plateau height 2 for the
        # smoothing errors, ||C||^2 ||f_n|| <= (2 + h)^2 for a product norm,
        # and for ||A^2 - A|| the largest block length n_max/h times ||A|| = 1,
        # since each entry of the dense A^2 sums that many rounded products.
        # n_max = 1 and 2 cover the overlapping pair s_1, s_2.
        for n_max in range(1, 9):
            rec, dense = cac_example(h, n_max), ref.cac_dense(h, n_max)
            gap_scale = np.abs(dense["product"]).max() / h
            assert abs(rec.projection_residual - dense["projection_residual"]) <= 1e-15 * n_max / h
            assert abs(rec.min_kernel_gap - dense["min_kernel_gap"]) <= 1e-15 * gap_scale
            for name in ("g_max_errors", "plateau_max_dev"):
                got, want = getattr(rec, name), dense[name]
                assert got.keys() == want.keys()
                assert all(abs(got[n] - want[n]) <= 2e-15 for n in want)
            assert rec.product_norms.keys() == dense["product_norms"].keys()
            for n, want in dense["product_norms"].items():
                assert abs(rec.product_norms[n] - want) <= 1e-15 * (2 + h) ** 2

    @staticmethod
    def _block_min(a, s, i0, i1, c):
        """The block form: a (L, 1) @ (1, L) product, c off the mask square, min."""
        block = a[:, None] @ s[None, :]
        block[i0:i1, i0:i1] -= c
        return block.min()

    @pytest.mark.parametrize("h, sizes", [(0.25, range(1, 9)), (0.1, range(1, 9)),
                                          (0.05, [*range(1, 9), 40])])
    def test_one_member_minimum_is_the_block_minimum(self, monkeypatch, h, sizes):
        # Each one-member group's minimum from its factors against the block it
        # stands for, bit for bit (test_structured_record_matches_dense_oracle
        # compares min_kernel_gap with the dense S x S oracle).
        seen, closed = [], gridops._rank_one_min

        def both(*args):
            got, want = closed(*args), self._block_min(*args)
            seen.append(np.float64(got).tobytes() == np.float64(want).tobytes())
            return got

        monkeypatch.setattr(gridops, "_rank_one_min", both)
        for n_max in sizes:
            cac_example(h, n_max)
        # Groups {1, 2}, {3}, ..., {n_max}; n_max = 1 leaves the one group {1}.
        assert len(seen) == sum(1 if n_max == 1 else n_max - 2 for n_max in sizes)
        assert all(seen)

    @pytest.mark.parametrize("seed", range(40))
    def test_rank_one_minimum_on_drawn_factors(self, seed):
        # Non-negative factors across scales, with zeros, ties and subnormals,
        # and a mask square anywhere that leaves points outside it.
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 30))
        a, s = (rng.choice([0.0, 5e-324, 1.0, 3.0], size) * 10.0 ** rng.integers(-160, 150, size)
                * np.where(rng.random(size) < 0.7, rng.random(size), 1.0) for _ in range(2))
        i0 = int(rng.integers(0, size))
        i1 = int(rng.integers(i0 + 1, size + 1)) if i0 else int(rng.integers(1, size))
        c = float(rng.choice([0.0, 1e-300, 0.25, 1e300]))
        got, want = gridops._rank_one_min(a, s, i0, i1, c), self._block_min(a, s, i0, i1, c)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_kernel_domination(self):
        rec = cac_example(0.05, 4)
        assert rec.min_kernel_gap >= -1e-12

    def test_product_norms_at_least_one(self):
        rec = cac_example(0.05, 4)
        for n in range(1, 5):
            assert rec.product_norms[n] >= 1.0 - 1e-12

    def test_halving_h_halves_g_error(self):
        coarse = max(cac_example(0.05, 3).g_max_errors.values())
        fine = max(cac_example(0.025, 3).g_max_errors.values())
        assert coarse / fine == pytest.approx(2.0, rel=0.5)

    def test_holds_no_grid_sized_matrix(self):
        # S = 4691 points at n_max = 15; the largest block, 17/h = 340
        # points a side, sets the peak (1.16 blocks), far below one S x S
        # float array.
        size = round((15**2 + 7.5 + 2) / 0.05) + 1
        tracemalloc.start()
        try:
            cac_example(0.05, 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * 340**2 < 8 * size**2 / 50

    def test_memory_budget_decides_before_allocating(self, monkeypatch):
        # 8 bytes per entry of the largest block, (n_max + 2)/h points a side
        # from n_max = 4 on: n_max <= 577 fits at h = 0.05 (n_max = 100 holds
        # 2040 points, 33 MB, on a 201,041-point grid).
        assert 8 * (579 * 20) ** 2 <= qha.errors.MEMORY_BUDGET < 8 * (580 * 20) ** 2
        monkeypatch.setattr(qha.errors, "MEMORY_BUDGET", 8 * 24**2)  # h = 0.25, n_max = 4
        assert len(cac_example(0.25, 4).product_norms) == 4
        with pytest.raises(PreconditionError, match="28-point block needs 6,272 bytes"):
            cac_example(0.25, 5)

    def test_named_preconditions(self):
        with pytest.raises(PreconditionError, match="divide 0.5"):
            cac_example(0.2, 9)
        with pytest.raises(PreconditionError, match="h <= 0.5"):
            cac_example(0.7, 2)
