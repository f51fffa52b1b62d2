"""Regularity predicates: transform zero sets vs translate-span ranks."""

import tracemalloc

import numpy as np
import pytest

from qha.conv import symplectic_fourier
from qha.errors import PreconditionError
from qha.groups import FiniteAbelianGroup, GroupFunction, constant, delta, random_function
from qha.weyl import HilbertOp, PhaseSpace, identity_op, random_op, rank_one
from qha.numerics import DEFAULT_ZERO_TOL, svd_rank
from qha.wiener import (
    RegularityReport,
    corresponding_space,
    degenerate_operator_set,
    regular_op_set,
    regular_set_fn,
)

import _reference as ref


def regular_fn(g: GroupFunction, threshold: float = DEFAULT_ZERO_TOL) -> RegularityReport:
    """Regularity of a single function: nowhere-vanishing transform."""
    return regular_set_fn([g], threshold)


class TestFunctionRegularity:
    def test_delta_regular_on_z8(self):
        rep = regular_fn(delta(FiniteAbelianGroup((8,))))
        assert rep.is_regular
        assert rep.min_abs_transform == pytest.approx(1.0)
        assert rep.translate_span_rank == 8
        assert rep.zero_set == []

    def test_constant_not_regular_on_z4(self):
        rep = regular_fn(constant(FiniteAbelianGroup((4,))))
        assert not rep.is_regular
        assert len(rep.zero_set) == 3
        assert rep.translate_span_rank == 1
        assert rep.predicates_agree

    def test_random_function_regular_with_full_rank(self):
        g = FiniteAbelianGroup((12,))
        rep = regular_fn(random_function(g, np.random.default_rng(0)))
        assert rep.is_regular
        assert rep.translate_span_rank == 12

    def test_rank_equals_nonzero_transform_count(self):
        # structural identity: span dimension = |G| - #zeros
        g = FiniteAbelianGroup((6,))
        vals = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        spec = np.fft.ifft(vals) * 6  # build f from a prescribed transform
        f = GroupFunction(g, spec)
        rep = regular_fn(f)
        assert rep.translate_span_rank == 6 - len(rep.zero_set) == 4

    def test_two_function_set_covers_each_others_zeros(self):
        g = FiniteAbelianGroup((2,))
        one = constant(g)
        diff = GroupFunction(g, [1.0, -1.0])
        assert not regular_fn(one).is_regular
        assert not regular_fn(diff).is_regular
        rep = regular_set_fn([one, diff])
        assert rep.is_regular
        assert rep.translate_span_rank == 2

    def test_singleton_set_matches_single(self):
        g = FiniteAbelianGroup((4,))
        assert regular_set_fn([delta(g)]).is_regular

    def test_constant_singleton_set_not_regular(self):
        g = FiniteAbelianGroup((4,))
        rep = regular_set_fn([constant(g)])
        assert not rep.is_regular
        assert rep.translate_span_rank == 1

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            regular_set_fn([])


class TestOperatorRegularity:
    def test_identity_not_regular(self):
        rep = regular_op_set([identity_op(4)])
        assert not rep.is_regular
        assert len(rep.zero_set) == 15
        assert rep.translate_span_rank == 1
        assert rep.predicates_agree

    def test_diagonal_point_mass(self):
        n = 4
        e0 = np.zeros(n)
        e0[0] = 1.0
        rep = regular_op_set([rank_one(e0)])
        assert not rep.is_regular
        # transform vanishes off the zero-shift fiber; translates span the diagonals
        assert rep.translate_span_rank == n
        assert len(rep.zero_set) == n * n - n
        assert all(a != 0 for (a, _b) in rep.zero_set)

    def test_random_operator_regular(self):
        rep = regular_op_set([random_op(4, np.random.default_rng(1))])
        assert rep.is_regular
        assert rep.translate_span_rank == 16

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_degenerate_set_predicates_agree(self, n):
        for name, op in degenerate_operator_set(n).items():
            rep = regular_op_set([op])
            assert rep.predicates_agree, name

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_block_values_match_dense_reference(self, monkeypatch, n):
        # The N circulant blocks against the SVD of the dense N^2 x N^2 stack
        # of translates: same values, ranks and warnings.
        import qha.wiener

        seen = []

        def spy(rows, threshold):
            seen.append(svd_rank(rows, threshold))
            return seen[-1]

        monkeypatch.setattr(qha.wiener, "svd_rank", spy)
        ps = PhaseSpace(n)
        rng = np.random.default_rng(30 + n)
        degenerate = list(degenerate_operator_set(n, seed=3).values())
        near = identity_op(n).matrix + 3e-8 * random_op(n, rng).matrix  # values in the tie band
        sets = [[random_op(n, rng)], [random_op(n, rng), rank_one(rng.standard_normal(n))],
                [random_op(n, rng) for _ in range(3)], [HilbertOp(near)],
                degenerate[:2], degenerate[3:6]] + [[op] for op in degenerate]
        warned = 0
        for ops in sets:
            seen.clear()
            rep = regular_op_set(ops)
            dense = np.concatenate([ref.op_translate(ps, op).reshape(n * n, n * n) for op in ops])
            want = svd_rank(dense)
            got = seen[0]
            assert got.singular_values.shape == want.singular_values.shape == (n * n,)
            top = want.singular_values[0]
            assert np.abs(got.singular_values - want.singular_values).max() <= 1e-13 * top
            assert rep.translate_span_rank == got.rank == want.rank
            assert len(got.warnings) == len(want.warnings)
            warned += len(want.warnings)
        assert warned or n == 1  # the tie-band operator warns for every N > 1

    def test_memory_budget_decides_before_allocating(self, monkeypatch):
        # Under 18 bytes per operator and N^3 entry: one operator up to N = 390.
        import qha.errors

        assert 18 * 390**3 <= qha.errors.MEMORY_BUDGET < 18 * 391**3
        rng = np.random.default_rng(2)
        ops = [random_op(64, rng), random_op(64, rng)]
        tracemalloc.start()
        try:
            regular_op_set(ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * 2 * 64**3
        monkeypatch.setattr(qha.errors, "MEMORY_BUDGET", 18 * 2 * 4**3)
        assert regular_op_set([random_op(4, rng), random_op(4, rng)]).translate_span_rank == 16
        with pytest.raises(PreconditionError, match="3 operator.s. at N = 4 needs 3,456 bytes"):
            regular_op_set([random_op(4, rng)] * 3)
        with pytest.raises(PreconditionError, match="1 operator.s. at N = 6 needs 3,888 bytes"):
            regular_op_set([random_op(6, rng)])

    def test_weyl_operator_span_is_one_dimensional(self):
        from qha.weyl import weyl

        rep = regular_op_set([weyl(PhaseSpace(4), (1, 2))])
        assert rep.translate_span_rank == 1
        assert not rep.is_regular


class TestCorrespondingSpace:
    def test_full_function_space_gives_full_matrix_space(self):
        ps = PhaseSpace(3)
        basis = []
        for i in range(9):
            vals = np.zeros(9)
            vals[i] = 1.0
            basis.append(ps.function(vals))
        out = corresponding_space(ps, basis)
        assert len(out) == 9

    def test_empty_basis_gives_zero_space(self):
        assert corresponding_space(PhaseSpace(3), []) == []

    def test_zero_function_gives_zero_space(self):
        ps = PhaseSpace(3)
        assert corresponding_space(ps, [ps.function(np.zeros(9))]) == []

    def test_constants_give_identity_line(self):
        ps = PhaseSpace(3)
        out = corresponding_space(ps, [ps.function(np.ones(9))])
        assert len(out) == 1
        m = out[0].matrix
        # proportional to the identity
        off = m - np.eye(3) * m[0, 0]
        assert np.abs(off).max() < 1e-12

    def test_orthonormal_and_monotone(self):
        ps = PhaseSpace(3)
        rng = np.random.default_rng(2)
        f1 = ps.function(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        f2 = ps.function(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        small = corresponding_space(ps, [f1])
        big = corresponding_space(ps, [f1, f2])
        assert len(big) >= len(small)
        gram = np.array(
            [[np.trace(u.matrix.conj().T @ v.matrix) for v in big] for u in big]
        )
        assert np.abs(gram - np.eye(len(big))).max() < 1e-10


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9])
    def test_matches_svd_reference(self, n):
        # F_sigma is an involution, so f = F_sigma(masked spectrum) has exactly
        # that support: the span is partial, not the whole matrix space.
        ps = PhaseSpace(n)
        rng = np.random.default_rng(80 + n)
        idx = np.arange(n * n)
        spectra = [
            np.where(idx % 3 == 0, rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n), 0),
            np.where(idx % 5 == 1, rng.standard_normal(n * n), 0) + np.where(idx == 2, 1e-12, 0),
        ]
        basis = [symplectic_fourier(ps.function(s)) for s in spectra]
        for fs in (basis[:1], basis[1:], basis):
            got = [op.matrix for op in corresponding_space(ps, fs)]
            want = ref.corresponding_space(ps, fs)
            assert len(got) == len(want)
            assert np.abs(_projector(got, n) - _projector(want, n)).max() <= 1e-10


def _projector(mats, n):
    """HS-orthogonal projector onto the span of orthonormal n x n matrices."""
    vecs = np.array([m.ravel() for m in mats], dtype=complex).reshape(len(mats), n * n)
    return vecs.T @ vecs.conj()


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
def test_bad_threshold_rejected(threshold):
    ps = PhaseSpace(3)
    with pytest.raises(ValueError, match="threshold"):
        regular_fn(ps.function(np.ones(9)), threshold)
    with pytest.raises(ValueError, match="threshold"):
        regular_op_set([identity_op(3)], threshold)


def test_equivalence_audit_randomized():
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        for _ in range(30):
            rep = regular_op_set([random_op(n, rng)])
            assert rep.predicates_agree
