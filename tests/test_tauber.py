"""Windowed transforms, certified tail bounds, compactness moduli and
localization operators."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qha.errors
import qha.tauber
from qha.asymptotics.windowed import WindowedFunction
from qha.conv import conv_op_op
from qha.errors import GroupMismatchError, PreconditionError
from qha.groups import (
    FiniteAbelianGroup,
    GroupFunction,
    convolve,
    modulate,
    parity,
)
from qha.tauber import (
    NetCertificate,
    certified_tail_bound,
    greedy_l1_net,
    localization_operator,
    modulate_family_is_regular,
    rk_moduli,
    stft,
    uniform_compactness_profile,
    windowed_stft_profile,
)
from qha.weyl import HilbertOp, PhaseSpace, identity_op, rank_one

import _reference as ref
from _reference import constant, delta, random_function, random_op, stft_energy, tail_bound_trial


class TestStft:
    def test_matches_double_sum(self):
        # the character-by-character reference is O(|G|^3) Python calls, so
        # the groups stay at |G| <= 12
        for orders, weight in [((6,), 1.0), ((2, 3), 0.5), ((2, 2, 3), 1.0)]:
            g = FiniteAbelianGroup(orders, haar_weight=weight)
            rng = np.random.default_rng(0)
            f, w = random_function(g, rng), random_function(g, rng)
            assert np.abs(stft(f, w) - ref.stft(f, w)).max() < 1e-12, orders

    @pytest.mark.parametrize("orders", [(512,), (16, 16), (3, 4, 5), (1,), (7,)])
    def test_bitwise_equal_to_translate_loop(self, orders):
        g = FiniteAbelianGroup(orders, haar_weight=0.25)
        rng = np.random.default_rng(len(orders))
        f, w = random_function(g, rng), random_function(g, rng)
        assert stft(f, w).tobytes() == ref.stft_loop(f, w).tobytes()

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_translate_loop_on_drawn_orders(self, data):
        orders = []
        for _ in range(data.draw(st.integers(1, 3))):
            orders.append(data.draw(st.integers(1, 64 // int(np.prod(orders, dtype=int)))))
        g = FiniteAbelianGroup(tuple(orders), haar_weight=data.draw(st.sampled_from([0.25, 1.0, 3.0])))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        f, w = random_function(g, rng), random_function(g, rng)
        assert stft(f, w).tobytes() == ref.stft_loop(f, w).tobytes()

    def test_unit_mass_delta_window_reads_out_reflection(self):
        g = FiniteAbelianGroup((5,), haar_weight=0.5)
        w = GroupFunction(g, delta(g).values / g.haar_weight)
        f = random_function(g, np.random.default_rng(1))
        v = stft(f, w)
        refl = parity(f).values
        for ci in range(5):
            assert np.abs(v[:, ci] - refl).max() < 1e-12

    def test_zero_function(self):
        g = FiniteAbelianGroup((4,))
        w = random_function(g, np.random.default_rng(2))
        assert np.abs(stft(GroupFunction(g, np.zeros(4)), w)).max() == 0.0

    def test_energy_identity_z8(self):
        g = FiniteAbelianGroup((8,))
        rng = np.random.default_rng(3)
        f, w = random_function(g, rng), random_function(g, rng)
        v = stft(f, w)
        lhs = stft_energy(v, g)
        rhs = (np.abs(w.values) ** 2).sum() * g.haar_weight
        rhs *= (np.abs(f.values) ** 2).sum() * g.haar_weight
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_convolution_form(self):
        # V(., chi) = (modulated window) * (reflected f); equivalently the
        # reflected profile is (reflected modulated window) * f
        g = FiniteAbelianGroup((6,))
        rng = np.random.default_rng(4)
        f, w = random_function(g, rng), random_function(g, rng)
        v = stft(f, w)
        for ci, freqs in enumerate(g.elements()):
            mod = modulate(w, g.character(freqs))
            assert np.abs(v[:, ci] - convolve(mod, parity(f)).values).max() < 1e-12
            refl = parity(GroupFunction(g, v[:, ci]))
            assert np.abs(refl.values - convolve(parity(mod), f).values).max() < 1e-12

    def test_modulate_family_regularity_predicate(self):
        g = FiniteAbelianGroup((6,))
        assert modulate_family_is_regular(delta(g))
        assert modulate_family_is_regular(constant(g))
        assert modulate_family_is_regular(random_function(g, np.random.default_rng(5)))
        assert not modulate_family_is_regular(GroupFunction(g, np.zeros(6)))


class TestWindowedDecayProfile:
    def test_exact_zero_beyond_support_diameter(self):
        f = WindowedFunction(-40, np.zeros(81, dtype=complex))
        vals = np.array(f.values)
        vals[38:43] = 1.0  # support [-2, 2]
        f = WindowedFunction(-40, vals)
        w_vals = np.zeros(81, dtype=complex)
        w_vals[39:42] = 1.0  # support [-1, 1]
        w = WindowedFunction(-40, w_vals)
        angles = 2 * np.pi * np.arange(16) / 16
        profile = windowed_stft_profile(f, w, angles)
        far = np.abs(profile.params) > 4  # beyond supp(f) + supp(w)
        assert np.all(profile.values[far] == 0.0)
        assert profile.values[np.abs(profile.params) <= 1].max() > 0

    def test_spike_localizes(self):
        vals = np.zeros(61, dtype=complex)
        p = 7
        vals[30 + p] = 1.0
        f = WindowedFunction(-30, vals)
        w_vals = np.zeros(61, dtype=complex)
        w_vals[30] = 1.0
        w = WindowedFunction(-30, w_vals)
        profile = windowed_stft_profile(f, w, np.array([0.0, 1.0]))
        nz = profile.params[profile.values > 0]
        assert list(nz) == [-p]

    def test_sup_matches_exhaustive_dual_scan(self):
        # nonnegative envelope and window: the dual maximizer sits at angle 0,
        # so any sampling grid containing it reproduces the exhaustive sup
        idx = np.arange(-60, 61)
        f = WindowedFunction(-60, np.exp(-np.abs(idx) / 50.0))
        w_vals = np.zeros(121, dtype=complex)
        w_vals[58:63] = (1.0, 2.0, 3.0, 2.0, 1.0)
        w = WindowedFunction(-60, w_vals)
        coarse = 2 * np.pi * np.arange(8) / 8
        fine = 2 * np.pi * np.arange(512) / 512
        p_coarse = windowed_stft_profile(f, w, coarse)
        p_fine = windowed_stft_profile(f, w, fine)
        assert np.abs(p_coarse.values - p_fine.values).max() <= 1e-12
        # envelope decays away from the origin on both sides
        mid = p_coarse.values.argmax()
        assert p_coarse.values[0] < p_coarse.values[mid]
        assert p_coarse.values[-1] < p_coarse.values[mid]

    def test_memory_budget_decides_before_allocating(self, monkeypatch):
        # 32 bytes per angle and support point plus 24 per entry of one block
        # of max(1, 2**17 // M) shifts by M angles: past M = 2**16 a block is
        # one shift, so a 7-point window allows M <= 4,329,604 dual angles.
        assert [qha.tauber._stft_block(m) for m in (1, 256, 2**16, 2**16 + 1, 10**7)] == [
            2**17, 512, 2, 1, 1]
        assert 4_329_604 * (32 * 7 + 24) <= qha.errors.MEMORY_BUDGET < 4_329_605 * (32 * 7 + 24)
        f = WindowedFunction(-20, np.ones(41, dtype=complex))
        w = WindowedFunction(-3, np.ones(7, dtype=complex))
        need = 10 * (32 * 7 + 24 * (2**17 // 10))  # 3,147,920 bytes; 11 angles need 3,148,024
        monkeypatch.setattr(qha.errors, "MEMORY_BUDGET", need)
        assert windowed_stft_profile(f, w, np.zeros(10)).values.size == 35
        with pytest.raises(PreconditionError, match="over 11 dual angles needs 3,148,024 bytes"):
            windowed_stft_profile(f, w, np.zeros(11))

    def test_window_support_validated(self):
        f = WindowedFunction(-5, np.ones(11, dtype=complex))
        w = WindowedFunction(-8, np.ones(17, dtype=complex))
        with pytest.raises(PreconditionError):
            windowed_stft_profile(f, w, np.array([0.0]))

    def test_matches_direct_double_sum(self):
        rng = np.random.default_rng(14)
        f = WindowedFunction(-12, rng.standard_normal(25) + 1j * rng.standard_normal(25))
        w_vals = np.zeros(25, dtype=complex)
        w_vals[10:15] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w = WindowedFunction(-12, w_vals)
        angles = np.array([0.0, 0.9, 2.4])
        profile = windowed_stft_profile(f, w, angles)
        for xi, x in enumerate(profile.params.astype(int)):
            direct = max(
                abs(
                    sum(
                        w.values[t - w.lo] * np.exp(1j * ang * t) * f.values[t - int(x) - f.lo]
                        for t in range(-2, 3)
                    )
                )
                for ang in angles
            )
            assert profile.values[xi] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("half, support, n_angles", [(12, 2, 3), (700, 20, 64), (600, 88, 5)])
    def test_bitwise_equal_to_shift_loop(self, half, support, n_angles):
        # The stacked matrix-vector products must give the per-shift loop's
        # bits (1361 and 1025 shifts, each in one block).
        rng = np.random.default_rng(half)
        idx = np.arange(-half, half + 1)
        f = WindowedFunction(-half, rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size))
        w_vals = np.where(np.abs(idx) <= support, rng.standard_normal(idx.size), 0.0).astype(complex)
        w = WindowedFunction(-half, w_vals)
        angles = 2 * np.pi * np.arange(n_angles) / n_angles
        got = windowed_stft_profile(f, w, angles).values
        assert np.array_equal(got, ref.windowed_stft_profile(f, w, angles))

    def test_bitwise_equal_to_shift_loop_across_blocks(self, monkeypatch):
        # 16 angles in blocks of 800 entries: 50 shifts a block, so the 381
        # shifts span seven full blocks and a last one of 31.
        monkeypatch.setattr(qha.tauber, "_STFT_BLOCK_ENTRIES", 16 * 50)
        self.test_bitwise_equal_to_shift_loop(200, 10, 16)


class TestCertifiedTailBound:
    def test_single_generator_zero_eps(self):
        assert certified_tail_bound(NetCertificate((0.7,), 0.0, 5.0)) == 0.7

    def test_formula_case(self):
        bound = certified_tail_bound(NetCertificate((0.1, 0.2), 0.05, 3.0))
        assert bound == max((0.1, 0.2)) + 0.05 * 3.0

    def test_monotone_in_every_field(self):
        base = certified_tail_bound(NetCertificate((0.1, 0.2), 0.05, 3.0))
        assert certified_tail_bound(NetCertificate((0.1, 0.3), 0.05, 3.0)) >= base
        assert certified_tail_bound(NetCertificate((0.1, 0.2), 0.06, 3.0)) >= base
        assert certified_tail_bound(NetCertificate((0.1, 0.2), 0.05, 4.0)) >= base

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            NetCertificate((-0.1,), 0.0, 1.0)

    @pytest.mark.parametrize("tails, eps, c", [((float("nan"),), 0.05, 3.0), ((0.1, float("nan")), 0.05, 3.0),
                                               ((0.1,), float("nan"), 3.0), ((0.1,), 0.05, float("inf")),
                                               ((float("inf"),), 0.05, 3.0)])
    def test_rejects_non_finite_entries(self, tails, eps, c):
        with pytest.raises(ValueError, match="finite"):
            NetCertificate(tails, eps, c)

    def test_rejects_overflowing_bound(self):
        # Every entry is finite, but max + eps * C overflows to inf.
        with pytest.raises(PreconditionError, match="finite"):
            certified_tail_bound(NetCertificate((1e308, 1e308), 1e308, 1e308))

    def test_empty_tails_rejected(self):
        with pytest.raises(PreconditionError):
            certified_tail_bound(NetCertificate((), 0.1, 1.0))

    def test_soundness_sample(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            measured, bound = tail_bound_trial(rng)
            assert measured <= bound + 1e-12

    def test_greedy_net_covers(self):
        rng = np.random.default_rng(8)
        fns = [rng.standard_normal(12) for _ in range(20)]
        centers, assignment, radius = greedy_l1_net(fns, epsilon=4.0)
        assert radius <= 4.0
        assert all(a in centers for a in assignment)

    def test_net_to_bound_pipeline(self):
        # full route: family -> greedy net -> center tails -> certified bound
        # dominating the measured family sup-tail
        rng = np.random.default_rng(15)
        window, support, bound_c = 40, 5, 2.0
        width = 2 * support + 1
        seeds = [rng.standard_normal(width) for _ in range(3)]
        family = []
        for s in seeds:
            for _ in range(6):
                d = rng.standard_normal(width)
                family.append(s + 0.02 * d / np.abs(d).sum())
        eps = 0.1
        centers, assignment, radius = greedy_l1_net(family, epsilon=eps)
        assert radius <= eps
        fs = [rng.standard_normal(2 * window + 1) for _ in range(3)]
        fs = [f * (bound_c / np.abs(f).max()) for f in fs]
        tail = slice(2 * support, 2 * support + 10)

        def sup_tail(h):
            return max(float(np.abs(np.convolve(h, f, "full")[tail]).max()) for f in fs)

        cert = NetCertificate(tuple(sup_tail(family[c]) for c in centers), eps, bound_c)
        bound = certified_tail_bound(cert)
        measured = max(sup_tail(h) for h in family)
        assert measured <= bound + 1e-12


class TestRkModuli:
    def test_smooth_bump_moduli_shrink(self):
        idx = np.arange(-50, 51)
        bump = WindowedFunction(-50, np.exp(-(idx ** 2) / 30.0))
        modulus, tailmass = rk_moduli([bump], max_shift=20, tail_marks=[5, 10, 20, 40])
        assert modulus.values[0] < modulus.values[-1]
        assert tailmass.values[-1] < tailmass.values[0]
        assert tailmass.values[-1] < 1e-10

    def test_shifted_family_has_fat_tails(self):
        idx = np.arange(-60, 61)
        family = []
        for c in (0, 20, 40, 55):
            family.append(WindowedFunction(-60, np.exp(-((idx - c) ** 2) / 4.0)))
        _modulus, tailmass = rk_moduli(family, tail_marks=[10, 25, 50])
        assert tailmass.values.min() > 0.5

    def test_modulus_scales_linearly(self):
        idx = np.arange(-40, 41)
        bump = np.exp(-(idx ** 2) / 20.0)
        m1, _ = rk_moduli([WindowedFunction(-40, bump)], max_shift=10)
        m2, _ = rk_moduli([WindowedFunction(-40, bump), WindowedFunction(-40, 2 * bump)], max_shift=10)
        assert np.allclose(m2.values, 2 * m1.values, rtol=1e-12)


@st.composite
def rk_families(draw, common_size=False):
    """1-4 members of sizes 1..60 (one shared size if asked) at mixed lo,
    with a max_shift below or above the sizes."""
    count = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 60))] * count if common_size else draw(
        st.lists(st.integers(1, 60), min_size=count, max_size=count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = [WindowedFunction(draw(st.integers(-80, 80)), rng.standard_normal(n) + 1j * rng.standard_normal(n))
              for n in sizes]
    return family, draw(st.integers(1, 2 * max(sizes) + 2))


def _rk_hex(family, max_shift):
    modulus, _ = rk_moduli(family, max_shift=max_shift)
    assert np.array_equal(modulus.params, np.arange(1, max_shift + 1))
    return [float(v).hex() for v in modulus.values]


def _loop_hex(family, max_shift):
    return [float(v).hex() for v in ref.rk_modulus(family, np.arange(1, max_shift + 1))]


RK_PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)


class TestRkModulusBlocks:
    """The modulus is one subtract/abs/sum pass per block of shifts over a
    strided view; it must equal the loop over members and shifts bit for bit."""

    @RK_PROPERTY
    @given(drawn=rk_families())
    def test_equals_per_shift_loop(self, drawn):
        family, max_shift = drawn
        assert _rk_hex(family, max_shift) == _loop_hex(family, max_shift)

    @RK_PROPERTY
    @given(drawn=rk_families(common_size=True), rows=st.sampled_from([1, 2, 3]))
    def test_block_boundaries_equal_per_shift_loop(self, drawn, rows):
        family, max_shift = drawn
        with mock.patch.object(qha.tauber, "_BLOCK_ENTRIES", rows * family[0].values.size):
            got = _rk_hex(family, max_shift)
        assert got == _loop_hex(family, max_shift)

    def test_benchmark_shape_crosses_blocks(self):
        # 16 members of 4001 values and 1000 shifts: blocks of 8 rows each.
        rng = np.random.default_rng(2024)
        family = [WindowedFunction(-2000, rng.standard_normal(4001) + 1j * rng.standard_normal(4001))
                  for _ in range(16)]
        assert qha.tauber._BLOCK_ENTRIES // 4001 < 1000
        assert _rk_hex(family, 1000) == _loop_hex(family, 1000)

    def test_whole_lattice_convention_beyond_the_window(self):
        vals = np.array([1.0, -2.0, 0.5j])
        modulus, _ = rk_moduli([WindowedFunction(0, vals)], max_shift=4)
        # s < 3: the part shifted past the right end is dropped; s >= 3: 2 ||h||_1.
        assert modulus.values.tolist() == [1.0 + 3.0 + abs(0.5j + 2.0), 1.0 + 2.0 + abs(0.5j - 1.0), 7.0, 7.0]

    def test_nan_member_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            WindowedFunction(0, [1.0, np.nan, 2.0])


def _bound_member(kind, rng, n, family):
    """One member of kind: alternating (|h(t-1) - h(t)| = |h(t-1)| + |h(t)|,
    the bound exact), a copy or negated copy of an earlier member, huge
    (2 ||h||_1 overflows, distances at s = 1 finite), subnormal, or random."""
    if kind in ("copy", "negated") and family:
        src = family[rng.integers(len(family))].values
        return src.copy() if kind == "copy" else -src
    if kind == "alternating":
        return (-1.0) ** np.arange(n) * rng.exponential(size=n) * np.exp(2j * np.pi * rng.random())
    if kind == "huge":
        return np.full(max(n, 4), 0.6e308) * np.exp(2j * np.pi * rng.random())
    if kind == "subnormal":
        return (rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n)) * 5e-324
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@st.composite
def bound_families(draw):
    """1-5 members that stress the bound of the pruned route, at mixed lo and
    sizes 1..40, with a max_shift below or above the sizes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["alternating", "copy", "negated", "huge", "subnormal", "random"])
    family = []
    for _ in range(draw(st.integers(1, 5))):
        vals = _bound_member(draw(kinds), rng, draw(st.integers(1, 40)), family)
        family.append(WindowedFunction(draw(st.integers(-50, 50)), vals))
    return family, draw(st.integers(1, 2 * max(h.values.size for h in family) + 2))


def _family_rows(family, max_shift):
    """The modulus and the shift rows each member's _shift_distances computed."""
    rows = []
    original = qha.tauber._shift_distances

    def spy(vals, count):
        rows.append(int(count))
        return original(vals, count)

    with mock.patch.object(qha.tauber, "_shift_distances", spy):
        modulus, _ = rk_moduli(family, max_shift=max_shift)
    return modulus.values, rows


class TestRkPrunedRoute:
    """Members go heaviest first and skip the shifts where their bound
    2 ||h||_1 - (mass of the last s points), plus a rounding slack, is
    below the sup held; the modulus must not change by a bit."""

    @RK_PROPERTY
    @given(drawn=bound_families())
    def test_equals_per_shift_loop(self, drawn):
        family, max_shift = drawn
        # rk_moduli takes overflowing sums as inf without a warning, and
        # nothing else (no inf - inf) may warn; the loop's own sums warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _rk_hex(family, max_shift)
        with np.errstate(over="ignore"):
            want = _loop_hex(family, max_shift)
        assert got == want

    def test_computed_distance_within_its_bound(self):
        rng = np.random.default_rng(31)
        for i in range(600):
            kind = ("alternating", "subnormal", "random")[i % 3]
            vals = _bound_member(kind, rng, int(rng.integers(2, 200)), [])
            count = vals.size - 1
            bounds = qha.tauber._distance_bounds(vals, 2 * float(np.abs(vals).sum()), count)
            assert np.all(qha.tauber._shift_distances(vals, count) <= bounds), (i, kind)

    def test_benchmark_shaped_family_skips_most_rows(self):
        # The benchmark's family: 16 members of 4001 values, envelopes
        # exp(-|t - 40k| / (100 + 50k)), 1000 shifts (16,000 rows unpruned).
        rng = np.random.default_rng(606)
        t = np.arange(-2000, 2001)
        family = [WindowedFunction(-2000, (rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size))
                                   * np.exp(-np.abs(t - 40.0 * k) / (100.0 + 50.0 * k))) for k in range(16)]
        modulus, rows = _family_rows(family, 1000)
        assert len(rows) == 16 and sum(rows) <= 7000
        assert modulus.tobytes() == ref.rk_modulus(family, np.arange(1, 1001)).tobytes()

    def test_bound_tying_the_sup_is_computed(self):
        # A skip needs a bound strictly below the sup held: member b's bound
        # at s = 1, 2 equals the heavier member a's distances there.
        b = np.array([2.0, 2.0, 0.0, 0.0])
        tie = qha.tauber._distance_bounds(b, 8.0, 3)
        assert tie[0] == tie[1] > tie[2] and tie[0] / 2 > 4.0
        modulus, rows = _family_rows([WindowedFunction(0, [tie[0] / 2, 0.0, 0.0]), WindowedFunction(0, b)], 4)
        assert modulus.tolist() == [tie[0]] * 4 and rows == [2, 2]

    def test_memory_budget_decides_before_allocating(self, monkeypatch):
        # 41 bytes a shift: 25 for the shift tables, 16 for a member's bounds.
        assert 41 * 26_188_824 <= qha.errors.MEMORY_BUDGET < 41 * 26_188_825
        member = [WindowedFunction(-3, np.arange(7) + 1j)]
        monkeypatch.setattr(qha.errors, "MEMORY_BUDGET", 41 * 1000)
        assert rk_moduli(member, max_shift=1000)[0].values.size == 1000
        with pytest.raises(PreconditionError, match="rk moduli over 1,001 shifts needs 41,041 bytes"):
            rk_moduli(member, max_shift=1001)
        monkeypatch.undo()
        with pytest.raises(PreconditionError, match="over 1,000,000,000 shifts"):
            rk_moduli(member, max_shift=10**9)


class TestLocalizationOperator:
    def test_unit_mass_delta_symbol(self):
        ps = PhaseSpace(4)
        vals = np.zeros(16, dtype=complex)
        vals[0] = ps.n
        rng = np.random.default_rng(9)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = localization_operator(ps.function(vals), phi, psi)
        assert np.abs(out.matrix - rank_one(phi, psi).matrix).max() < 1e-12

    def test_constant_symbol_gives_inner_product_times_identity(self):
        ps = PhaseSpace(5)
        rng = np.random.default_rng(10)
        phi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        out = localization_operator(ps.function(np.ones(25)), phi, psi)
        expected = np.vdot(psi, phi) * np.eye(5)
        assert np.abs(out.matrix - expected).max() < 1e-10

    def test_nonnegative_symbol_gives_psd(self):
        ps = PhaseSpace(4)
        rng = np.random.default_rng(11)
        f = ps.function(rng.random(16))
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = localization_operator(f, phi)
        eigs = np.linalg.eigvalsh(out.matrix)
        assert eigs.min() >= -1e-10


class TestUniformCompactnessProfile:
    def test_zero_operator_gives_zero_profile(self):
        n = 4
        prof = uniform_compactness_profile(
            rank_one(np.zeros(n)), identity_op(n), [(0, 0), (1, 2)]
        )
        assert np.all(prof.values == 0.0)

    def test_identity_second_factor_gives_constant_profile(self):
        n = 4
        a = qha_random_op(n, 12)
        prof = uniform_compactness_profile(a, identity_op(n), [(0, 0), (1, 1), (2, 3)])
        assert prof.values.max() - prof.values.min() < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9])
    def test_matches_dense_reference(self, n):
        ps = PhaseSpace(n)
        rng = np.random.default_rng(50 + n)
        a, b = qha_random_op(n, 60 + n), qha_random_op(n, 70 + n)
        points = [tuple(p) for p in rng.integers(0, n, size=(4, 2))]
        got = uniform_compactness_profile(a, b, points).values
        assert np.abs(got - ref.uniform_compactness_profile(ps, a, b, points)).max() <= 1e-13

    def test_needs_points(self):
        with pytest.raises(PreconditionError):
            uniform_compactness_profile(identity_op(3), identity_op(3), [])

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_bitwise_equal_to_conv_op_op_per_point(self, n):
        # The hoisted F_weyl(B) and self-pairing weight keep conv_op_op's bits.
        from qha.weyl import _shift_tables

        a, b = qha_random_op(n, 80 + n), qha_random_op(n, 90 + n)
        points = [(0, 0), (1, n - 1), (n // 2, 3)]
        rows, phase = _shift_tables(n, points)
        shifted = phase[:, :, None] * a.matrix[rows]
        expected = np.max([np.abs(conv_op_op(HilbertOp(m), b).values) for m in shifted], axis=0)
        assert np.array_equal(uniform_compactness_profile(a, b, points).values, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(GroupMismatchError):
            uniform_compactness_profile(identity_op(3), identity_op(4), [(0, 0)])


def qha_random_op(n, seed):
    return random_op(n, np.random.default_rng(seed))
