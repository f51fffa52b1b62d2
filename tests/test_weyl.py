"""Projective Weyl system: exhaustive identity checks and transform oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qha.errors
import qha.weyl
from qha.errors import PreconditionError
from qha.tauber import uniform_compactness_profile
from qha.weyl import (
    HilbertOp,
    PhaseSpace,
    fourier_weyl,
    fourier_weyl_inverse,
    identity_op,
    op_modulate,
    op_parity,
    op_translate,
    parity_op,
    random_op,
    rank_one,
    reflection_symmetric_unit,
    weyl,
    weyl_identity_residuals,
)

import _reference as ref


class TestPhaseSpace:
    @pytest.mark.parametrize("n", [*range(1, 17), 24, 32])
    def test_defining_identities_exhaustive(self, n):
        res = weyl_identity_residuals(n)
        assert res["projective"] <= 1e-12
        assert res["parity"] <= 1e-12
        assert res["cocycle"] <= 1e-12
        assert res["parity_symmetric"] <= 1e-12
        assert res["pairing_perfect"] == 0.0

    def test_pairing_is_antisymmetric(self):
        ps = PhaseSpace(5)
        for x in [(1, 2), (3, 0), (4, 4)]:
            for y in [(0, 1), (2, 3)]:
                assert ps.pairing(x, y) == pytest.approx(np.conj(ps.pairing(y, x)))

    def test_haar_weight(self):
        assert PhaseSpace(6).as_group().haar_weight == pytest.approx(1 / 6)

    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_exponent_forms_give_point_values(self, n):
        ps = PhaseSpace(n)
        roots = ps.roots()
        for x in ps.points():
            for y in ps.points():
                assert ps.multiplier(x, y) == roots[ps.multiplier_exponent(x, y)]
                assert ps.pairing(x, y) == roots[ps.pairing_exponent(x, y)]


class TestIdentityResiduals:
    """The array route against the pair-by-pair loop, and against broken
    multipliers and pairings it must report."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_reference_loop(self, n):
        fast, slow = weyl_identity_residuals(n), ref.weyl_identity_residuals(n)
        assert fast.keys() == slow.keys()
        # Exact decisions: 0.0 exactly when the loop passes within its rounding.
        for key in ("cocycle", "pairing_perfect"):
            assert (fast[key] == 0.0) == (slow[key] <= 1e-12), key
        for key in ("projective", "parity", "parity_symmetric"):
            assert abs(fast[key] - slow[key]) <= 1e-15, key

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 7])
    @pytest.mark.parametrize("variant, valid", [("canonical", True), ("plus_ad", True),
                                                ("one_pair_flip", False), ("coboundary", True),
                                                ("second_coordinate_flip", False)])
    def test_cocycle_decision_matches_triple_loop(self, monkeypatch, n, variant, valid):
        """The generator slabs decide the cocycle relation for every triple:
        a multiplier shifted by the coboundary of h is a cocycle that is not a
        bicharacter, and must pass like the canonical one; the flip wherever
        b = 1 in x and d = 0 in y breaks only the (0,1) slab."""
        exponent = PhaseSpace.multiplier_exponent
        h = np.random.default_rng(n).integers(0, n, (n, n))

        def varied(self, x, y):
            e = exponent(self, x, y)
            if variant == "plus_ad":
                return -e % n
            if variant == "one_pair_flip":
                at = (x[0] == 1) & (x[1] == 1) & (y[0] == 1) & (y[1] == 1)
                return (e + np.where(at, n // 2, 0)) % n
            if variant == "second_coordinate_flip":
                return (e + np.where((x[1] % n == 1) & (y[1] % n == 0), n // 2, 0)) % n
            hx, hy = h[x[0] % n, x[1] % n], h[y[0] % n, y[1] % n]
            return (e + h[(x[0] + y[0]) % n, (x[1] + y[1]) % n] - hx - hy) % n

        if variant != "canonical":
            monkeypatch.setattr(PhaseSpace, "multiplier_exponent", varied)
        fast = weyl_identity_residuals(n)["cocycle"]
        assert fast == (0.0 if valid else 1.0)
        assert (fast == 0.0) == (ref.weyl_identity_residuals(n)["cocycle"] <= 1e-12)

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("mutation", ["swap_rows", "negate_phase"])
    def test_broken_shift_table_breaks_projective(self, monkeypatch, n, mutation):
        tables, k = qha.weyl._shift_tables, PhaseSpace(n).index((1, 2))

        def broken(n, points):
            rows, phase = tables(n, points)
            if mutation == "swap_rows":
                rows[k, [0, 1]] = rows[k, [1, 0]]
            else:
                phase[k, 0] = -phase[k, 0]
            return rows, phase

        monkeypatch.setattr(qha.weyl, "_shift_tables", broken)
        assert weyl_identity_residuals(n)["projective"] > 1e-12

    def test_builds_no_dense_weyl_matrix(self, monkeypatch):
        def dense(*args):
            raise AssertionError("the identity check reads the shift table only")

        monkeypatch.setattr(qha.weyl, "weyl", dense)
        monkeypatch.setattr(qha.weyl, "parity_op", dense)
        assert max(weyl_identity_residuals(5).values()) <= 1e-12

    def test_memory_budget_decides_before_allocating(self, monkeypatch):
        # 72 bytes per entry of the N^2 x N^2 tables: the documented limit N <= 62.
        assert 72 * 62**4 <= qha.errors.MEMORY_BUDGET < 72 * 63**4
        monkeypatch.setattr(qha.errors, "MEMORY_BUDGET", 72 * 5**4)
        assert max(weyl_identity_residuals(5).values()) <= 1e-12
        with pytest.raises(PreconditionError, match="N = 6 needs 93,312 bytes"):
            weyl_identity_residuals(6)

    @pytest.mark.parametrize("n", [2, 5])
    def test_degenerate_pairing_reported(self, monkeypatch, n):
        monkeypatch.setattr(PhaseSpace, "pairing_exponent", lambda self, x, y: 0 * x[0] * y[0])
        assert PhaseSpace(n).pairing((1, 0), (0, 1)) == 1.0
        assert weyl_identity_residuals(n)["pairing_perfect"] == 1.0

    @pytest.mark.parametrize("n", [3, 6])
    def test_wrong_sign_multiplier_breaks_projective(self, monkeypatch, n):
        monkeypatch.setattr(PhaseSpace, "multiplier_exponent", lambda self, x, y: x[0] * y[1] % self.n)
        res = weyl_identity_residuals(n)
        assert res["projective"] > 1e-12
        # omega^(+ad) is a bicharacter too, so it still satisfies the cocycle relation.
        assert res["cocycle"] <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_sign_flip_at_one_pair_breaks_projective_and_cocycle(self, monkeypatch, n):
        exponent = PhaseSpace.multiplier_exponent
        value = PhaseSpace(n).multiplier((1, 1), (1, 1))

        def flipped(self, x, y):
            at = (x[0] == 1) & (x[1] == 1) & (y[0] == 1) & (y[1] == 1)
            return (exponent(self, x, y) + np.where(at, self.n // 2, 0)) % self.n

        monkeypatch.setattr(PhaseSpace, "multiplier_exponent", flipped)
        assert PhaseSpace(n).multiplier((1, 1), (1, 1)) == pytest.approx(-value)
        res = weyl_identity_residuals(n)
        assert res["projective"] > 1e-12
        assert res["cocycle"] > 1e-12


class TestReflectionSymmetricUnit:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_unit_and_fixed_by_reflection(self, n):
        phi = reflection_symmetric_unit(n, n)
        assert np.linalg.norm(phi) == pytest.approx(1.0, rel=1e-15)
        assert np.array_equal(parity_op(PhaseSpace(n)).matrix @ phi, phi)

    @pytest.mark.parametrize("n,seed", [(1, 0), (5, 2**64 - 1), (8, 12345)])
    def test_draw_is_the_first_2n_stream_entries(self, n, seed):
        parts = np.array(ref.splitmix64_uniform(seed, 2 * n)).reshape(2, n)
        v = parts[0] + 1j * parts[1]
        phi = v + v[(-np.arange(n)) % n]
        assert np.array_equal(reflection_symmetric_unit(n, seed), phi / np.linalg.norm(phi))

    def test_antisymmetric_draw_falls_back_to_v_plus_one(self, monkeypatch):
        draws = []

        def stream(seed, shape, start=0):  # v = (0, 1+2i, -1-2i), so v + R v = 0
            draws.append((seed, shape, start))
            return np.array([[0.0, 1.0, -1.0], [0.0, 2.0, -2.0]])

        monkeypatch.setattr(qha.weyl, "seeded_uniform", stream)
        v = np.array([0, 1 + 2j, -1 - 2j])
        phi = reflection_symmetric_unit(3, 4)
        assert draws == [(4, (2, 3), 0)]
        assert np.array_equal(phi, (v + 1.0) / np.linalg.norm(v + 1.0))


class TestWeylOperators:
    def test_identity_at_origin(self):
        assert np.array_equal(weyl(PhaseSpace(4), (0, 0)).matrix, np.eye(4))

    def test_n2_matrices(self):
        ps = PhaseSpace(2)
        assert np.allclose(weyl(ps, (1, 0)).matrix, [[0, 1], [1, 0]])
        assert np.allclose(weyl(ps, (0, 1)).matrix, np.diag([1.0, -1.0]))

    def test_unitary(self):
        ps = PhaseSpace(5)
        u = weyl(ps, (2, 3)).matrix
        assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-13)

    def test_parity_involution_and_selfadjoint(self):
        r = parity_op(PhaseSpace(4)).matrix
        assert np.array_equal(r, r.conj().T)
        assert np.allclose(r @ r, np.eye(4))

    def test_parity_intertwines_exhaustive_n4(self):
        ps = PhaseSpace(4)
        r = parity_op(ps).matrix
        worst = max(
            np.abs(r @ weyl(ps, x).matrix @ r - weyl(ps, ps.neg(x)).matrix).max()
            for x in ps.points()
        )
        assert worst <= 1e-13


class TestOperatorActions:
    def test_translate_at_origin(self):
        a = random_op(4, np.random.default_rng(0))
        assert np.allclose(op_translate(a, (0, 0)).matrix, a.matrix)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9])
    def test_translate_matches_dense_reference(self, n):
        ps = PhaseSpace(n)
        a = random_op(n, np.random.default_rng(20 + n))
        dense = ref.op_translate(ps, a)
        for x, expected in zip(ps.points(), dense):
            assert np.abs(op_translate(a, x).matrix - expected).max() <= 1e-13

    def test_translate_reduces_points_mod_n(self):
        a = random_op(5, np.random.default_rng(12))
        assert np.array_equal(op_translate(a, (-1, 7)).matrix, op_translate(a, (4, 2)).matrix)

    def test_translate_composition_n5(self):
        ps = PhaseSpace(5)
        a = random_op(5, np.random.default_rng(1))
        worst = 0.0
        for x in [(1, 2), (4, 0), (3, 3)]:
            for y in [(2, 2), (0, 1)]:
                lhs = op_translate(op_translate(a, y), x)
                rhs = op_translate(a, ps.add(x, y))
                worst = max(worst, np.abs(lhs.matrix - rhs.matrix).max())
        assert worst <= 1e-12

    def test_translate_preserves_norms(self):
        a = random_op(4, np.random.default_rng(2))
        b = op_translate(a, (1, 3))
        assert b.op_norm == pytest.approx(a.op_norm, rel=1e-12)
        assert b.trace_norm == pytest.approx(a.trace_norm, rel=1e-12)
        assert np.linalg.norm(b.matrix) == pytest.approx(np.linalg.norm(a.matrix), rel=1e-12)

    def test_op_parity_involutive(self):
        a = random_op(6, np.random.default_rng(3))
        assert np.allclose(op_parity(op_parity(a)).matrix, a.matrix)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9])
    def test_parity_matches_dense_reference(self, n):
        a = random_op(n, np.random.default_rng(30 + n))
        assert np.abs(op_parity(a).matrix - ref.op_parity(PhaseSpace(n), a)).max() <= 1e-13

    def test_modulate_zero_is_identity_n5(self):
        b = random_op(5, np.random.default_rng(4))
        assert np.allclose(op_modulate(b, (0, 0)).matrix, b.matrix)

    @pytest.mark.parametrize("n", [1, 3, 5, 9])
    def test_modulate_matches_dense_reference(self, n):
        ps = PhaseSpace(n)
        b = random_op(n, np.random.default_rng(40 + n))
        for xi in ps.points():
            got = op_modulate(b, xi).matrix
            assert np.abs(got - ref.op_modulate(ps, b, xi)).max() <= 1e-13, xi

    def test_modulate_even_dimension_rejected(self):
        with pytest.raises(PreconditionError):
            op_modulate(random_op(4, np.random.default_rng(0)), (1, 1))


@given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_gathers_match_dense_oracles(n, seed, data):
    """Parity, modulation and the left Weyl multiplication inside the uniform
    compactness profile against dense products, over drawn N, xi and points."""
    ps = PhaseSpace(n)
    rng = np.random.default_rng(seed)
    a, b = random_op(n, rng), random_op(n, rng)
    point = st.tuples(st.integers(-2 * n, 2 * n), st.integers(-2 * n, 2 * n))
    assert np.abs(op_parity(a).matrix - ref.op_parity(ps, a)).max() <= 1e-13
    if n % 2:
        xi = data.draw(point)
        assert np.abs(op_modulate(b, xi).matrix - ref.op_modulate(ps, b, xi)).max() <= 1e-13
    points = data.draw(st.lists(point, min_size=1, max_size=4))
    got = uniform_compactness_profile(a, b, points).values
    assert np.abs(got - ref.uniform_compactness_profile(ps, a, b, points)).max() <= 1e-13


def test_identity_check_leaves_numpy_ma_unloaded():
    """The distinctness test of the pairing avoids np.unique, whose first call
    imports numpy.ma (~14 ms for every `qha weyl check` process)."""
    import qha

    src = str(Path(qha.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, qha.weyl; qha.weyl.weyl_identity_residuals(5); print('numpy.ma' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


class TestFourierWeyl:
    def test_identity_transform(self):
        n = 4
        vals = fourier_weyl(identity_op(n)).values
        expected = np.zeros(n * n, dtype=complex)
        expected[0] = n
        assert np.allclose(vals, expected, atol=1e-13)

    def test_matches_trace_oracle(self):
        n = 5
        ps = PhaseSpace(n)
        a = random_op(n, np.random.default_rng(6))
        direct = np.array([np.trace(a.matrix @ weyl(ps, x).matrix) for x in ps.points()])
        assert np.abs(fourier_weyl(a).values - direct).max() < 1e-12

    def test_rank_one_inner_product_identity(self):
        n = 4
        ps = PhaseSpace(n)
        rng = np.random.default_rng(7)
        phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi, psi = phi / np.linalg.norm(phi), psi / np.linalg.norm(psi)
        vals = fourier_weyl(rank_one(phi, psi)).values
        direct = np.array([np.vdot(psi, weyl(ps, x).matrix @ phi) for x in ps.points()])
        assert np.abs(vals - direct).max() < 1e-12

    def test_isometry_into_weighted_l2(self):
        n = 6
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = random_op(n, rng)
            energy = (np.abs(fourier_weyl(a).values) ** 2).sum() / n
            assert energy == pytest.approx(np.linalg.norm(a.matrix) ** 2, rel=1e-10)

    def test_weyl_family_orthonormal(self):
        n = 4
        ps = PhaseSpace(n)
        mats = [weyl(ps, x).matrix / np.sqrt(n) for x in ps.points()]
        gram = np.array([[np.trace(u.conj().T @ v) for v in mats] for u in mats])
        assert np.abs(gram - np.eye(n * n)).max() < 1e-10

    def test_roundtrip_reconstruction(self):
        n = 5
        ps = PhaseSpace(n)
        a = random_op(n, np.random.default_rng(9))
        back = fourier_weyl_inverse(ps, fourier_weyl(a))
        assert np.abs(back.matrix - a.matrix).max() < 1e-10


class TestHilbertOp:
    def test_norms_consistent_with_svd(self):
        a = random_op(5, np.random.default_rng(10))
        sv = np.linalg.svd(a.matrix, compute_uv=False)
        assert a.op_norm == pytest.approx(sv[0], rel=1e-10)
        assert a.trace_norm == pytest.approx(sv.sum(), rel=1e-10)
        assert np.linalg.norm(a.matrix) == pytest.approx(np.sqrt((sv ** 2).sum()), rel=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HilbertOp(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            HilbertOp(np.array([[np.nan, 0], [0, 1]]))

    def test_rejects_non_finite_imaginary_part(self):
        with pytest.raises(ValueError, match="finite"):
            HilbertOp(np.array([[1, 0], [complex(0, -np.inf), 1]]))

    def test_matrix_is_read_only(self):
        a = identity_op(3)
        with pytest.raises(ValueError):
            a.matrix[0, 0] = 5.0
