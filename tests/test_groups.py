"""Function calculus on finite abelian groups, checked against direct
index-algebra and double-sum oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qha.conv import conv_fn_op
from qha.errors import GroupMismatchError, PreconditionError
from qha.groups import (
    FiniteAbelianGroup,
    GroupFunction,
    constant,
    convolve,
    delta,
    fourier,
    lp_norm,
    modulate,
    parity,
    random_function,
    read_group_function,
    translate,
    write_group_function,
)
from qha.tauber import stft
from qha.weyl import PhaseSpace, random_op

GROUPS = st.sampled_from([(4,), (5,), (6,), (2, 3), (2, 2, 2)])


def brute_fourier(f: GroupFunction) -> np.ndarray:
    """Direct double sum with explicit character evaluation."""
    g = f.group
    out = np.zeros(g.cardinality, dtype=complex)
    for i, freqs in enumerate(g.elements()):
        chi = g.character(freqs)
        out[i] = g.haar_weight * sum(
            np.conj(chi(x)) * f.values[g.index(x)] for x in g.elements()
        )
    return out


def brute_convolve(f: GroupFunction, g: GroupFunction) -> np.ndarray:
    grp = f.group
    out = np.zeros(grp.cardinality, dtype=complex)
    for i, x in enumerate(grp.elements()):
        out[i] = grp.haar_weight * sum(
            f.values[grp.index(y)] * g.values[grp.index(tuple(a - b for a, b in zip(x, y)))]
            for y in grp.elements()
        )
    return out


def _rand(group, seed=0):
    return random_function(group, np.random.default_rng(seed))


class TestStructure:
    def test_cardinality_and_indexing(self):
        g = FiniteAbelianGroup((2, 3))
        assert g.cardinality == 6
        assert [g.index(x) for x in g.elements()] == list(range(6))
        assert g.element((5, -1)) == (1, 2)

    def test_invalid_groups_rejected(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((0,))
        with pytest.raises(ValueError):
            FiniteAbelianGroup((3,), haar_weight=0.0)
        for weight in (float("inf"), float("nan"), -float("inf")):
            with pytest.raises(ValueError, match="haar_weight must be finite and positive"):
                FiniteAbelianGroup((3,), haar_weight=weight)

    def test_dual_weight_roundtrip(self):
        g = FiniteAbelianGroup((4,), haar_weight=0.5)
        assert g.dual().haar_weight == pytest.approx(1.0 / (0.5 * 4))
        assert g.dual().dual().haar_weight == pytest.approx(0.5)

    def test_character_unimodular(self):
        g = FiniteAbelianGroup((3, 4))
        chi = g.character((2, 3))
        assert np.allclose(np.abs(chi.values()), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GroupFunction(FiniteAbelianGroup((4,)), [1.0, bad, 0.5, 0.0])

    def test_group_mismatch_raises(self):
        f = delta(FiniteAbelianGroup((4,)))
        g = delta(FiniteAbelianGroup((5,)))
        with pytest.raises(GroupMismatchError):
            convolve(f, g)

    @pytest.mark.parametrize("product", ["convolve", "stft", "conv_fn_op"])
    def test_weight_off_by_1e_9_relative_is_a_mismatch(self, product):
        # One rule for every product of two group objects: weights equal to
        # 1e-12 relative, with no absolute slack.
        rng = np.random.default_rng(4)
        ps = PhaseSpace(3)
        f = random_function(ps.as_group(), rng)
        off = random_function(FiniteAbelianGroup((3, 3), (1 + 1e-9) / 3), rng)
        call = {"convolve": lambda: convolve(f, off), "stft": lambda: stft(f, off),
                "conv_fn_op": lambda: conv_fn_op(off, random_op(3, rng))}[product]
        with pytest.raises(GroupMismatchError):
            call()


class TestTranslateParityModulate:
    def test_translate_identity(self):
        g = FiniteAbelianGroup((6,))
        f = _rand(g)
        assert np.allclose(translate(f, (0,)).values, f.values)

    def test_translate_delta_on_z4(self):
        g = FiniteAbelianGroup((4,))
        assert np.allclose(translate(delta(g, (0,)), (1,)).values, delta(g, (1,)).values)

    @given(GROUPS, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_translate_composition(self, orders, xi, yi, seed):
        g = FiniteAbelianGroup(orders)
        pts = list(g.elements())
        x, y = pts[xi % len(pts)], pts[yi % len(pts)]
        f = _rand(g, seed)
        lhs = translate(translate(f, x), y)
        rhs = translate(f, g.add(x, y))
        assert np.array_equal(lhs.values, rhs.values)

    def test_parity_involution(self):
        g = FiniteAbelianGroup((2, 3))
        f = _rand(g)
        assert np.array_equal(parity(parity(f)).values, f.values)

    def test_parity_delta_on_z5(self):
        g = FiniteAbelianGroup((5,))
        assert np.allclose(parity(delta(g, (2,))).values, delta(g, (3,)).values)

    @given(GROUPS, st.integers(0, 10 ** 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_parity_translate_intertwining(self, orders, xi, seed):
        g = FiniteAbelianGroup(orders)
        x = list(g.elements())[xi % g.cardinality]
        f = _rand(g, seed)
        lhs = parity(translate(f, x))
        rhs = translate(parity(f), g.neg(x))
        assert np.allclose(lhs.values, rhs.values, atol=0)

    def test_modulate_trivial_character(self):
        g = FiniteAbelianGroup((6,))
        f = _rand(g)
        assert np.allclose(modulate(f, g.character(g.identity)).values, f.values)

    def test_modulate_z2(self):
        g = FiniteAbelianGroup((2,))
        f = GroupFunction(g, [1.0, 1.0])
        assert np.allclose(modulate(f, g.character((1,))).values, [1.0, -1.0])

    def test_norm_preservation(self):
        g = FiniteAbelianGroup((12,), haar_weight=0.25)
        f = _rand(g, 7)
        x, chi = (5,), g.character((3,))
        for p in (1, 2, np.inf):
            assert lp_norm(translate(f, x), p) == pytest.approx(lp_norm(f, p), rel=1e-12)
            assert lp_norm(modulate(f, chi), p) == pytest.approx(lp_norm(f, p), rel=1e-12)
        for p in (0, -1, 0.5, np.nan, -np.inf):
            with pytest.raises(PreconditionError):
                lp_norm(f, p)


class TestFourier:
    def test_delta_transform_flat(self):
        g = FiniteAbelianGroup((4,))
        assert np.allclose(fourier(delta(g)).values, 1.0)

    def test_constant_transform_is_point_mass(self):
        g = FiniteAbelianGroup((4,))
        expected = np.zeros(4, dtype=complex)
        expected[0] = 4.0
        assert np.allclose(fourier(constant(g)).values, expected, atol=1e-14)

    @pytest.mark.parametrize("orders", [(4,), (6,), (2, 3)])
    def test_matches_brute_force(self, orders):
        g = FiniteAbelianGroup(orders, haar_weight=0.5)
        f = _rand(g, 11)
        assert np.allclose(fourier(f).values, brute_fourier(f), atol=1e-12)

    def test_double_transform_is_parity(self):
        g = FiniteAbelianGroup((4,))
        f = _rand(g, 2)
        once = fourier(f)
        assert once.group.haar_weight == pytest.approx(0.25)
        ff = fourier(once)
        assert np.allclose(ff.values, parity(f).values, atol=1e-12)
        assert ff.group.haar_weight == pytest.approx(1.0)

    def test_plancherel(self):
        g = FiniteAbelianGroup((3, 4), haar_weight=2.0)
        f = _rand(g, 5)
        lhs = lp_norm(f, 2) ** 2
        rhs = lp_norm(fourier(f), 2) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestConvolve:
    def test_delta_convolution_shifts(self):
        g = FiniteAbelianGroup((5,))
        out = convolve(delta(g, (2,)), delta(g, (4,)))
        assert np.allclose(out.values, delta(g, (1,)).values, atol=1e-14)

    def test_matches_brute_force_and_theorem(self):
        g = FiniteAbelianGroup((6,), haar_weight=1.0)
        f, h = _rand(g, 1), _rand(g, 2)
        conv = convolve(f, h)
        assert np.allclose(conv.values, brute_convolve(f, h), atol=1e-12)
        lhs = fourier(conv).values
        rhs = fourier(f).values * fourier(h).values
        assert np.abs(lhs - rhs).max() < 1e-12

    @given(GROUPS, st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_commutative(self, orders, seed):
        g = FiniteAbelianGroup(orders)
        rng = np.random.default_rng(seed)
        f, h = random_function(g, rng), random_function(g, rng)
        assert np.abs(convolve(f, h).values - convolve(h, f).values).max() < 1e-12

    def test_associative(self):
        g = FiniteAbelianGroup((2, 3))
        f, h, k = _rand(g, 1), _rand(g, 2), _rand(g, 3)
        lhs = convolve(convolve(f, h), k)
        rhs = convolve(f, convolve(h, k))
        assert np.abs(lhs.values - rhs.values).max() < 1e-10


class TestTrivialGroup:
    def test_one_point_group_calculus(self):
        g = FiniteAbelianGroup((1,))
        f = GroupFunction(g, [2.5 + 1j])
        assert np.array_equal(translate(f, (0,)).values, f.values)
        assert np.array_equal(parity(f).values, f.values)
        assert np.allclose(fourier(f).values, f.values)
        assert np.allclose(convolve(f, f).values, f.values ** 2)

    def test_character_table_matches_pointwise_evaluation(self):
        g = FiniteAbelianGroup((3, 4))
        for freqs in [(0, 0), (1, 2), (2, 3)]:
            chi = g.character(freqs)
            table = chi.values()
            for i, x in enumerate(g.elements()):
                assert table[i] == pytest.approx(chi(x), abs=1e-14)


def test_delta_is_regular_seed():
    # flat transform magnitude: the canonical nowhere-vanishing example
    g = FiniteAbelianGroup((8,))
    assert np.abs(fourier(delta(g)).values).min() == pytest.approx(1.0)


def test_csv_roundtrip(tmp_path):
    g = FiniteAbelianGroup((3, 2))
    f = _rand(g, 9)
    path = tmp_path / "f.csv"
    write_group_function(f, path, comment="roundtrip")
    back = read_group_function(path, g)
    assert np.array_equal(back.values, f.values)
