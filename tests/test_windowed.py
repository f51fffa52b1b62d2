"""Windowed sequence-space operators: block projection, decay profiles,
vanishing-at-infinity verdicts, compactness trends."""

import numpy as np
import pytest

import qha.errors
from qha.asymptotics.profiles import DecayProfile
from qha.asymptotics.windowed import (
    b0_diagnostic,
    column_row_profiles,
    compactness_proxy,
    halmos_column_profile,
    halmos_operator,
    WindowedFunction,
    WindowedZOperator,
)
from qha.errors import PreconditionError

from _reference import loglog_slope, parity_window, shift_operator


def identity_window(lo: int, hi: int) -> WindowedZOperator:
    return WindowedZOperator(lo, hi, np.eye(hi - lo + 1))


def point_mass_operator(lo: int, hi: int, at: int = 0) -> WindowedZOperator:
    """Rank-one delta_at (x) delta_at compression."""
    size = hi - lo + 1
    mat = np.zeros((size, size))
    mat[at - lo, at - lo] = 1.0
    return WindowedZOperator(lo, hi, mat)


def diagonal_decay_operator(size: int) -> WindowedZOperator:
    """diag(1, 1/2, ..., 1/size): compact-consistent reference."""
    return WindowedZOperator(0, size - 1, np.diag(1.0 / np.arange(1, size + 1)))


def tail_sup(profile: DecayProfile, threshold: float) -> float:
    """Largest value at parameters >= threshold (0 for an empty tail)."""
    tail = profile.values[profile.params >= threshold]
    return float(tail.max()) if tail.size else 0.0


class TestDecayProfile:
    def test_tail_sup(self):
        p = DecayProfile([1.0, 2.0, 3.0], [0.5, 0.2, 0.1])
        assert tail_sup(p, 2.0) == pytest.approx(0.2)
        assert tail_sup(p, 99.0) == 0.0

    def test_requires_increasing_params(self):
        with pytest.raises(ValueError):
            DecayProfile([1.0, 1.0], [0.0, 0.0])

    def test_loglog_slope_recovers_power_law(self):
        x = np.arange(1, 65, dtype=float)
        p = DecayProfile(x, x ** -0.5)
        assert loglog_slope(p) == pytest.approx(-0.5, abs=1e-6)

    def test_slope_nan_when_underdetermined(self):
        assert np.isnan(loglog_slope(DecayProfile([1.0, 2.0], [0.0, 0.0])))


class TestHalmosOperator:
    def test_single_block(self):
        op = halmos_operator(1)
        assert op.matrix.shape == (1, 1)
        assert op.matrix[0, 0] == 1.0

    def test_projection_identities(self):
        op = halmos_operator(3)
        m = op.matrix
        assert np.abs(m @ m - m).max() < 1e-14
        assert np.array_equal(m, m.conj().T)

    def test_rank_counts_blocks(self):
        sv = np.linalg.svd(halmos_operator(6).matrix, compute_uv=False)
        assert int((sv > 0.5).sum()) == 6
        assert sv[6] < 1e-12

    def test_column_norms_follow_block_law(self):
        blocks = 7
        op = halmos_operator(blocks)
        cols, rows = column_row_profiles(op)
        start = 0
        for n in range(1, blocks + 1):
            expected = 1.0 / np.sqrt(n)
            seg = cols.values[start : start + n]
            assert np.abs(seg - expected).max() < 1e-13
            start += n
        assert np.array_equal(cols.values, rows.values)  # symmetric

    def test_column_profile_is_the_dense_profile_bit_for_bit(self):
        # Per-block sequential sums add each column's squares in the dense
        # column sum's row order; a pairwise sum would not (5.6e-17 off at 40).
        for blocks in range(1, 41):
            dense = column_row_profiles(halmos_operator(blocks))[0]
            profile = halmos_column_profile(blocks)
            assert profile.params.tobytes() == dense.params.tobytes()
            assert profile.values.tobytes() == dense.values.tobytes()

    def test_column_profile_budget_is_per_point(self, monkeypatch):
        # 320 bytes a point, the profile and its CSV rows: blocks <= 2,590.
        assert 320 * (2590 * 2591 // 2) <= qha.errors.MEMORY_BUDGET < 320 * (2591 * 2592 // 2)
        monkeypatch.setattr(qha.errors, "MEMORY_BUDGET", 320 * 10)
        assert len(halmos_column_profile(4)) == 10
        with pytest.raises(PreconditionError, match="on 15 points needs 4,800 bytes"):
            halmos_column_profile(5)
        with pytest.raises(PreconditionError, match="at least one block"):
            halmos_column_profile(0)

    def test_pad_prepends_zero_region(self):
        op = halmos_operator(3, pad=5)
        assert op.lo == -5
        cols, _ = column_row_profiles(op)
        assert np.all(cols.values[:5] == 0.0)

    def test_rejects_bad_args(self):
        with pytest.raises(PreconditionError):
            halmos_operator(0)

    def test_real_matrix_stays_real(self):
        assert halmos_operator(3).matrix.dtype == np.float64
        assert shift_operator(halmos_operator(3), 1).matrix.dtype == np.complex128

    def test_memory_budget_decides_before_allocating(self, monkeypatch):
        # 16 bytes per entry of S x S: unpadded, blocks <= 127 (S = 8128, and 8256 at 128).
        assert 16 * 8128**2 <= qha.errors.MEMORY_BUDGET < 16 * 8256**2
        monkeypatch.setattr(qha.errors, "MEMORY_BUDGET", 16 * 10**2)
        assert halmos_operator(4).size == 10
        with pytest.raises(PreconditionError, match="on 11 points needs 1,936 bytes"):
            halmos_operator(4, pad=1)


class TestProfilesAndVerdicts:
    def test_identity_profiles_are_flat_one(self):
        cols, rows = column_row_profiles(identity_window(-3, 3))
        assert np.all(cols.values == 1.0)
        assert np.all(rows.values == 1.0)

    def test_zero_operator(self):
        op = WindowedZOperator(-2, 2, np.zeros((5, 5)))
        cols, rows = column_row_profiles(op)
        assert np.all(cols.values == 0.0) and np.all(rows.values == 0.0)

    def test_b0_verdict_halmos(self):
        op = halmos_operator(40)
        verdict = b0_diagnostic(op, tol=0.2, margin=300)
        assert verdict.consistent
        assert verdict.max_outer_column <= 0.2
        assert verdict.max_outer_row <= 0.2

    def test_b0_verdict_halmos_fails_inside_honest_region(self):
        op = halmos_operator(40)
        assert not b0_diagnostic(op, tol=0.2, margin=100).consistent

    def test_identity_never_consistent(self):
        assert not b0_diagnostic(identity_window(-10, 10), tol=0.5, margin=5).consistent

    def test_point_mass_consistent_for_any_margin(self):
        op = point_mass_operator(-8, 8, at=0)
        for margin in (1, 3, 8):
            assert b0_diagnostic(op, tol=1e-12, margin=margin).consistent

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        # NaN gave consistent=False and inf gave True before it was checked.
        with pytest.raises(PreconditionError, match="finite and positive"):
            b0_diagnostic(point_mass_operator(-8, 8), tol=tol, margin=3)

    def test_margin_must_leave_outer_region(self):
        with pytest.raises(PreconditionError):
            b0_diagnostic(identity_window(-4, 4), tol=0.5, margin=50)


class TestFiniteEntries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_windowed_function_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WindowedFunction(-1, [1.0, bad, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_windowed_operator_rejects_non_finite(self, bad):
        mat = np.eye(3, dtype=complex)
        mat[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            WindowedZOperator(-1, 1, mat)


class TestCompactnessProxy:
    def test_halmos_counts_grow(self):
        trend = compactness_proxy(halmos_operator, [10, 20, 40], 0.9)
        assert trend.counts == [10, 20, 40]
        assert trend.verdict == "non-compact-trend"

    def test_fixed_rank_padded_is_compact_consistent(self):
        base = halmos_operator(4)

        def padded(size):
            mat = np.zeros((size, size), dtype=complex)
            mat[: base.size, : base.size] = base.matrix
            return WindowedZOperator(0, size - 1, mat)

        trend = compactness_proxy(padded, [12, 24, 48], 0.9)
        assert trend.counts == [4, 4, 4]
        assert trend.verdict == "compact-consistent"

    def test_diagonal_decay_count_stabilizes(self):
        trend = compactness_proxy(diagonal_decay_operator, [5, 15, 30], 0.1)
        assert trend.counts == [5, 10, 10]
        assert trend.verdict == "compact-consistent"

    def test_epsilon_validated(self):
        with pytest.raises(PreconditionError):
            compactness_proxy(halmos_operator, [2, 4], 1.5)


class TestShiftAndReflection:
    def test_shift_moves_support_and_keeps_entries(self):
        op = halmos_operator(3, pad=10)
        shifted = shift_operator(op, 4)
        assert np.allclose(shifted.matrix[4:10, 4:10], op.matrix[:6, :6].real)
        assert np.abs(shifted.matrix[:4, :]).max() == 0.0

    def test_shift_phases_cancel_on_diagonal_blocks(self):
        op = halmos_operator(3, pad=6)
        plain = shift_operator(op, 2, 0.0).matrix
        phased = shift_operator(op, 2, 1.234).matrix
        assert np.allclose(np.abs(phased), np.abs(plain))
        assert np.allclose(np.diag(phased), np.diag(plain))

    def test_shift_truncates_at_window_edge(self):
        op = halmos_operator(3)  # window {0..5}
        shifted = shift_operator(op, 4)
        # only the leading 1x1 and part of the 2x2 block survive
        assert np.abs(shifted.matrix[:4, :]).max() == 0.0
        assert shifted.matrix[4, 4] == 1.0

    def test_shift_matches_entrywise_oracle_all_offsets(self):
        rng = np.random.default_rng(4)
        lo, hi = -6, 5
        size = hi - lo + 1
        op = WindowedZOperator(lo, hi, rng.standard_normal((size, size))
                               + 1j * rng.standard_normal((size, size)))
        for k in range(-16, 17):
            for theta in (0.0, 0.9):
                got = shift_operator(op, k, theta).matrix
                want = np.zeros((size, size), dtype=complex)
                for j in range(lo, hi + 1):
                    for l in range(lo, hi + 1):
                        if lo <= j - k <= hi and lo <= l - k <= hi:
                            want[j - lo, l - lo] = (
                                np.exp(1j * theta * (j - l)) * op.matrix[j - k - lo, l - k - lo]
                            )
                assert np.abs(got - want).max() < 1e-13

    def test_parity_window_is_reflection(self):
        r = parity_window(-3, 3).matrix
        v = np.arange(7, dtype=complex)
        assert np.array_equal(r @ v, v[::-1])
        assert np.array_equal(r @ r, np.eye(7))

    def test_parity_needs_symmetric_window(self):
        with pytest.raises(PreconditionError):
            parity_window(-2, 3)

    def test_shifted_reflection_preserves_central_vectors(self):
        r = parity_window(-50, 50)
        v = np.zeros(101, dtype=complex)
        v[45:56] = np.random.default_rng(0).standard_normal(11)
        for k in (0, 5, 10, 20):
            out = shift_operator(r, k, 0.7).matrix @ v
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), abs=1e-14)
