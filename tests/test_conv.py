"""Convolution calculus: algebra identities, transform theorems at the
orientation pinned by the oracle, and the norm-estimate audit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qha.conv
from qha.conv import (
    ORIENTATION_VARIANTS,
    PINNED_ORIENTATION,
    conv_fn_op,
    conv_op_op,
    convolution_theorem_residuals,
    pin_orientation,
    self_pairing_weight,
    sharpness_witness,
    symplectic_fourier,
    verify_norm_estimates,
)
from qha.errors import GroupMismatchError
from qha.groups import _convolve, convolve, lp_norm, translate
from qha.weyl import (
    HilbertOp,
    PhaseSpace,
    _fourier_weyl,
    _fourier_weyl_inverse,
    fourier_weyl,
    fourier_weyl_inverse,
    identity_op,
    op_translate,
    parity_op,
    random_op,
    rank_one,
    weyl,
)

import _reference as ref


def _phase_fn(ps, seed):
    rng = np.random.default_rng(seed)
    m = ps.n * ps.n
    return ps.function(rng.standard_normal(m) + 1j * rng.standard_normal(m))


class TestFunctionOperatorConvolution:
    def test_unit_mass_delta_is_identity(self):
        ps = PhaseSpace(4)
        vals = np.zeros(16, dtype=complex)
        vals[0] = ps.n  # mass n * (1/n) = 1
        a = random_op(4, np.random.default_rng(0))
        out = conv_fn_op(ps.function(vals), a)
        assert np.abs(out.matrix - a.matrix).max() < 1e-12

    @pytest.mark.parametrize("n", [3, 8])
    def test_constant_function_gives_trace_times_identity(self, n):
        ps = PhaseSpace(n)
        rng = np.random.default_rng(1)
        ones = ps.function(np.ones(n * n))
        for _ in range(10):
            a = random_op(n, rng)
            out = conv_fn_op(ones, a)
            assert np.abs(out.matrix - np.trace(a.matrix) * np.eye(n)).max() < 1e-10

    def test_matches_direct_sum(self):
        ps = PhaseSpace(4)
        f = _phase_fn(ps, 2)
        a = random_op(4, np.random.default_rng(3))
        assert np.abs(conv_fn_op(f, a).matrix - ref.conv_fn_op(ps, f, a)).max() < 1e-13

    def test_mixed_associativity(self):
        ps = PhaseSpace(4)
        f, g = _phase_fn(ps, 4), _phase_fn(ps, 5)
        a = random_op(4, np.random.default_rng(6))
        lhs = conv_fn_op(f, conv_fn_op(g, a))
        rhs = conv_fn_op(convolve(f, g), a)
        assert np.abs(lhs.matrix - rhs.matrix).max() < 1e-10

    def test_dimension_mismatch(self):
        ps = PhaseSpace(3)
        with pytest.raises(GroupMismatchError):
            conv_fn_op(_phase_fn(ps, 0), random_op(4, np.random.default_rng(0)))


class TestOperatorOperatorConvolution:
    def test_zero_operator(self):
        n = 4
        out = conv_op_op(HilbertOp(np.zeros((n, n))), random_op(n, np.random.default_rng(0)))
        assert np.abs(out.values).max() == 0.0

    def test_rank_one_gives_matrix_coefficients(self):
        n = 5
        ps = PhaseSpace(n)
        rng = np.random.default_rng(1)
        phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi /= np.linalg.norm(phi)
        p = rank_one(phi)
        vals = conv_op_op(p, p).values
        r = parity_op(ps).matrix
        direct = np.array(
            [abs(np.vdot(phi, weyl(ps, x).matrix @ (r @ phi))) ** 2 for x in ps.points()]
        )
        assert np.abs(vals - direct).max() < 1e-12
        assert np.all(vals.real >= -1e-12)

    def test_commutative(self):
        n = 5
        rng = np.random.default_rng(2)
        a, b = random_op(n, rng), random_op(n, rng)
        assert np.abs(conv_op_op(a, b).values - conv_op_op(b, a).values).max() < 1e-11

    def test_total_mass_is_product_of_traces(self):
        n = 4
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, b = random_op(n, rng), random_op(n, rng)
            mass = conv_op_op(a, b).values.sum() / n
            assert mass == pytest.approx(np.trace(a.matrix) * np.trace(b.matrix), rel=1e-10)

    def test_positivity(self):
        n = 4
        rng = np.random.default_rng(4)
        m1, m2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), rng.standard_normal((n, n))
        a = HilbertOp(m1 @ m1.conj().T)
        b = HilbertOp(m2 @ m2.T)
        vals = conv_op_op(a, b).values
        assert np.abs(vals.imag).max() < 1e-10
        assert vals.real.min() >= -1e-10

    def test_translation_covariance(self):
        n = 4
        ps = PhaseSpace(n)
        rng = np.random.default_rng(5)
        a, b = random_op(n, rng), random_op(n, rng)
        f = _phase_fn(ps, 6)
        x = (1, 2)
        lhs = translate(conv_op_op(a, b), x)
        rhs = conv_op_op(a, op_translate(b, x))
        assert np.abs(lhs.values - rhs.values).max() < 1e-10
        lhs2 = op_translate(conv_fn_op(f, a), x)
        rhs2 = conv_fn_op(translate(f, x), a)
        rhs3 = conv_fn_op(f, op_translate(a, x))
        assert np.abs(lhs2.matrix - rhs2.matrix).max() < 1e-10
        assert np.abs(lhs2.matrix - rhs3.matrix).max() < 1e-10

    def test_function_operator_operator_associativity(self):
        n = 3
        ps = PhaseSpace(n)
        rng = np.random.default_rng(7)
        a, b = random_op(n, rng), random_op(n, rng)
        f = _phase_fn(ps, 8)
        lhs = conv_op_op(conv_fn_op(f, a), b).values
        rhs = convolve(f, conv_op_op(a, b)).values
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_triple_operator_grouping(self):
        # (A*B)*C = A*(B*C): both sides are operators built from one
        # function-operator convolution
        n = 3
        rng = np.random.default_rng(9)
        a, b, c = random_op(n, rng), random_op(n, rng), random_op(n, rng)
        lhs = conv_fn_op(conv_op_op(a, b), c)
        rhs = conv_fn_op(conv_op_op(b, c), a)
        assert np.abs(lhs.matrix - rhs.matrix).max() < 1e-10


class TestSymplecticFourier:
    def test_unit_mass_delta_transforms_to_one(self):
        ps = PhaseSpace(5)
        vals = np.zeros(25, dtype=complex)
        vals[0] = ps.n
        out = symplectic_fourier(ps.function(vals))
        assert np.allclose(out.values, 1.0, atol=1e-13)

    def test_involution(self):
        # double-sum oracle: the antisymmetric pairing makes the transform
        # self-inverse (for every orientation variant)
        ps = PhaseSpace(4)
        f = _phase_fn(ps, 9)
        for variant in ORIENTATION_VARIANTS:
            ff = symplectic_fourier(symplectic_fourier(f, variant), variant)
            assert np.abs(ff.values - f.values).max() < 1e-12

    def test_matches_double_sum(self):
        ps = PhaseSpace(3)
        f = _phase_fn(ps, 10)
        out = symplectic_fourier(f)
        direct = np.array(
            [
                sum(np.conj(ps.pairing(x, xi)) * f.values[ps.index(x)] for x in ps.points()) / ps.n
                for xi in ps.points()
            ]
        )
        assert np.abs(out.values - direct).max() < 1e-13

    def test_parseval(self):
        ps = PhaseSpace(4)
        f = _phase_fn(ps, 11)
        assert lp_norm(symplectic_fourier(f), 2) == pytest.approx(lp_norm(f, 2), rel=1e-12)


class TestConvolutionTheorems:
    def test_orientation_oracle_pins_documented_variant(self):
        report = pin_orientation(3, seed=0)
        assert report.pinned == PINNED_ORIENTATION
        r1, r2, _r3 = report.residuals[PINNED_ORIENTATION]
        assert r1 < 1e-10 and r2 < 1e-10
        # the collapsed duplicate kernel scores identically
        assert report.residuals["sigma(xi,x)"] == report.residuals[PINNED_ORIENTATION]

    def test_no_variant_satisfies_classical_operator_product_form(self):
        report = pin_orientation(3, seed=1)
        assert all(r3 > 1.0 for (_r1, _r2, r3) in report.residuals.values())

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_function_theorems_and_weighted_operator_theorem(self, n):
        res = convolution_theorem_residuals(n, seed=n, samples=5)
        assert res["fn_fn"] < 1e-10
        assert res["fn_op"] < 1e-10
        assert res["op_op_weighted"] < 1e-10

    def test_weight_is_self_pairing(self):
        ps = PhaseSpace(4)
        w = self_pairing_weight(ps)
        direct = np.array([ps.multiplier(x, ps.neg(x)) for x in ps.points()])
        assert np.abs(w - direct).max() < 1e-13

    def test_transform_of_operator_product_explicit(self):
        n = 3
        ps = PhaseSpace(n)
        rng = np.random.default_rng(12)
        a, b = random_op(n, rng), random_op(n, rng)
        lhs = symplectic_fourier(conv_op_op(a, b)).values * self_pairing_weight(ps)
        rhs = fourier_weyl(a).values * fourier_weyl(b).values
        assert np.abs(lhs - rhs).max() < 1e-12


# The ladder stops at N=9, where the references still take ~0.02 s: the
# sigma kernel is built from O(N^4) Python pairing calls (~0.2 s per variant
# at N=16, ~0.65 s at N=24), so larger rungs would add seconds to the suite
# without covering a new parity of N.
LADDER = [1, 2, 3, 4, 5, 8, 9]


def _rel_err(fast, reference):
    scale = np.abs(reference).max()
    return np.abs(fast - reference).max() / (scale if scale > 0 else 1.0)


class TestFastRoutesMatchReference:
    """The FFT routes against the direct sums of tests/_reference.py."""

    @pytest.mark.parametrize("n", LADDER)
    @pytest.mark.parametrize("variant", ORIENTATION_VARIANTS)
    def test_symplectic_fourier(self, n, variant):
        ps = PhaseSpace(n)
        f = _phase_fn(ps, n)
        fast = symplectic_fourier(f, variant).values
        assert _rel_err(fast, ref.symplectic_fourier(ps, f, variant)) <= 1e-12

    @pytest.mark.parametrize("n", LADDER)
    def test_conv_fn_op(self, n):
        ps = PhaseSpace(n)
        f = _phase_fn(ps, n)
        a = random_op(n, np.random.default_rng(100 + n))
        assert _rel_err(conv_fn_op(f, a).matrix, ref.conv_fn_op(ps, f, a)) <= 1e-12

    @pytest.mark.parametrize("n", LADDER)
    def test_conv_op_op(self, n):
        ps = PhaseSpace(n)
        rng = np.random.default_rng(200 + n)
        a, b = random_op(n, rng), random_op(n, rng)
        assert _rel_err(conv_op_op(a, b).values, ref.conv_op_op(ps, a, b)) <= 1e-12

    @pytest.mark.parametrize("n", LADDER)
    def test_fourier_weyl_inverse(self, n):
        ps = PhaseSpace(n)
        f = _phase_fn(ps, 300 + n)
        fast = fourier_weyl_inverse(ps, f).matrix
        assert _rel_err(fast, ref.fourier_weyl_inverse(ps, f)) <= 1e-12

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            symplectic_fourier(_phase_fn(PhaseSpace(3), 0), "sigma(x,x)")


class TestNormEstimates:
    def test_zero_inputs_give_zero_ratios(self):
        ps = PhaseSpace(3)
        zero_f = ps.function(np.zeros(9))
        zero_op = HilbertOp(np.zeros((3, 3)))
        assert lp_norm(convolve(zero_f, zero_f), np.inf) == 0.0
        assert conv_fn_op(zero_f, zero_op).op_norm == 0.0

    def test_randomized_audit(self):
        report = verify_norm_estimates(6, samples=200, seed=42)
        for name, ratio in report.max_ratio.items():
            assert ratio <= 1.0 + 1e-10, name

    def test_audit_deterministic(self):
        a = verify_norm_estimates(4, samples=20, seed=7)
        b = verify_norm_estimates(4, samples=20, seed=7)
        assert a.max_ratio == b.max_ratio
        assert a.argmax_index == b.argmax_index

    @pytest.mark.parametrize("n", [0, -2])
    def test_audit_rejects_empty_phase_space(self, n):
        with pytest.raises(ValueError, match="phase space dimension must be >= 1"):
            verify_norm_estimates(n, samples=5, seed=1)

    def test_rank_one_sharpness(self):
        assert sharpness_witness(5, seed=0) >= 0.999


def _hex(values: dict) -> dict:
    return {k: float(v).hex() for k, v in values.items()}


STACKED = settings(max_examples=40, derandomize=True, deadline=None)


class TestSampleStackedAudits:
    """The audits draw and transform whole blocks of samples at once; they must
    equal the per-sample loops of ``_reference`` bit for bit, argmax included.
    The drawn block size splits the runs into blocks of 1, 2, ... samples."""

    @STACKED
    @given(n=st.integers(1, 9), samples=st.integers(1, 8), seed=st.integers(0, 2**63),
           block=st.sampled_from([1, 2, 3, 5, 2**16]))
    def test_norm_audit_equals_per_sample_loop(self, n, samples, seed, block):
        with mock.patch.object(qha.conv, "_BLOCK_ENTRIES", block * n * n):
            report = verify_norm_estimates(n, samples, seed)
        max_ratio, argmax = ref.verify_norm_estimates(n, samples, seed)
        assert _hex(report.max_ratio) == _hex(max_ratio)
        assert report.argmax_index == argmax

    @STACKED
    @given(n=st.integers(1, 9), samples=st.integers(1, 8), seed=st.integers(0, 2**63),
           variant=st.sampled_from(ORIENTATION_VARIANTS), block=st.sampled_from([1, 3, 2**16]))
    def test_theorem_residuals_equal_per_sample_loop(self, n, samples, seed, variant, block):
        with mock.patch.object(qha.conv, "_BLOCK_ENTRIES", block * n * n):
            got = convolution_theorem_residuals(n, seed, samples, variant)
        assert _hex(got) == _hex(ref.convolution_theorem_residuals(n, seed, samples, variant))

    def test_stacked_kernels_equal_single_item_products(self):
        # 40 x 24 x 24 complex entries are over numpy's 256 KiB threshold for
        # computing into a temporary operand, where an unnamed right factor
        # would swap the (not bitwise commutative) complex product.
        n, samples = 24, 40
        [(_, f, g, a, b)] = qha.conv._sample_blocks(n, samples, seed=4)
        ps = PhaseSpace(n)
        stacked = {
            "fn_op": qha.conv._conv_fn_op(f, a),
            "op_op": qha.conv._conv_op_op(a, b),
            "sf": qha.conv._symplectic_fourier(f, 1),
            "fw": _fourier_weyl(a),
            "fwi": _fourier_weyl_inverse(f),
            "conv": _convolve(f, g, 1.0 / n, (-2, -1)),
        }
        for i in range(samples):
            fi, gi = ps.function(f[i].ravel()), ps.function(g[i].ravel())
            ai, bi = HilbertOp(a[i]), HilbertOp(b[i])
            single = {
                "fn_op": conv_fn_op(fi, ai).matrix,
                "op_op": conv_op_op(ai, bi).values,
                "sf": symplectic_fourier(fi, "sigma(x,xi)").values,
                "fw": fourier_weyl(ai).values,
                "fwi": fourier_weyl_inverse(ps, fi).matrix,
                "conv": convolve(fi, gi).values,
            }
            for key, value in single.items():
                assert stacked[key][i].tobytes() == value.tobytes(), (key, i)

    def test_blocks_of_the_fixed_size(self):
        # 2**16 entries hold 28 samples at N = 48: blocks of 28, 28 and 4,
        # with the maxima of this seed in all three.
        report = verify_norm_estimates(48, 60, seed=2)
        max_ratio, argmax = ref.verify_norm_estimates(48, 60, 2)
        assert _hex(report.max_ratio) == _hex(max_ratio)
        assert report.argmax_index == argmax
        assert {i // 28 for i in argmax.values()} == {0, 1, 2}
        got = convolution_theorem_residuals(48, 5, 30, "sigma(x,xi)")
        assert _hex(got) == _hex(ref.convolution_theorem_residuals(48, 5, 30, "sigma(x,xi)"))
        # One block of 130 samples at N = 16, where the fn_fn maximum moves if
        # a complex product in the pass is evaluated with swapped operands.
        got = convolution_theorem_residuals(16, 7, 130, "sigma(x,xi)")
        assert _hex(got) == _hex(ref.convolution_theorem_residuals(16, 7, 130, "sigma(x,xi)"))

    @pytest.mark.parametrize("n", [1, 48, 255, 300])
    def test_blocks_bound_memory_and_keep_the_stream(self, n):
        samples = 3 if n > 200 else 40
        blocks = list(qha.conv._sample_blocks(n, samples, seed=9))
        assert all(f.size <= max(2**16, n * n) for _, f, *_ in blocks)
        assert [start for start, *_ in blocks] == list(range(0, samples, len(blocks[0][1])))
        rng = np.random.default_rng(9)
        for _, *parts in blocks:
            for i in range(len(parts[0])):
                for part in parts:  # f, g, A, B; real part, then imaginary part
                    re, im = rng.standard_normal((n, n)), rng.standard_normal((n, n))
                    assert np.array_equal(part[i], re + 1j * im)

    def test_zero_bound_side_gives_zero_ratio(self):
        ratios = qha.conv._ratio(np.array([1.0, 2.0, 0.0]), np.array([0.0, 4.0, 0.0]))
        assert ratios.tolist() == [0.0, 0.5, 0.0]
