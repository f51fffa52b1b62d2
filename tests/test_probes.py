"""Topology probes: classifier semantics and the three canonical sequences."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qha

from qha.asymptotics.gridops import (
    GridOperator,
    ModulationOrbit,
    box_convolution_operator,
)
from qha.asymptotics.probes import (
    PROBE_CASES,
    box_modulation_case,
    halmos_shift_case,
    parity_shift_case,
    topology_probe,
)
from qha.asymptotics.windowed import ShiftedCopies, WindowedZOperator, halmos_operator
from qha.errors import PreconditionError
from qha.numerics import singular_values, spectral_norm

import _reference as ref


def _constant_case(n=6, items=4):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    vecs = [np.eye(n)[0], np.eye(n)[1]]
    tests = [(np.eye(n)[0], np.eye(n)[1])]
    return [m.copy() for _ in range(items)], vecs, tests


class TestClassifier:
    def test_constant_sequence_is_norm_cauchy(self):
        mats, vecs, tests = _constant_case()
        res = topology_probe(mats, vecs, tests, tol=1e-12)
        assert res.classification == "norm"

    def test_divergent_sequence(self):
        rng = np.random.default_rng(1)
        mats = [np.diag([float(i), 0.0]) for i in range(6)]
        vecs = [np.array([1.0, 0.0])]
        tests = [(np.array([1.0, 0.0]), np.array([1.0, 0.0]))]
        res = topology_probe(mats, vecs, tests, tol=0.5)
        assert res.classification == "divergent"

    def test_monotone_in_tolerance(self):
        case = parity_shift_case(half_width=80, support=4, step=6, steps=6)
        order = {"norm": 3, "strong*": 2, "weak*": 1, "divergent": 0}
        prev = -1
        for tol in (1e-6, 1e-2, 10.0):
            res = topology_probe(case.matrices, case.test_vectors, case.trace_tests, tol)
            assert order[res.classification] >= prev
            prev = order[res.classification]

    def test_hierarchy_of_measured_quantities(self):
        # normalized tests make weak* <= strong* <= norm row by row
        for case in (halmos_shift_case(blocks=4, steps=4), box_modulation_case(h=0.25, steps=5)):
            res = topology_probe(case.matrices, case.test_vectors, case.trace_tests, tol=0.1)
            for row in res.rows:
                assert row.weakstar_diff <= row.strongstar_diff + 1e-9
                assert row.strongstar_diff <= row.norm_diff + 1e-9

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            topology_probe([], [np.ones(2)], [(np.ones(2), np.ones(2))], 0.1)

    def test_accepts_plain_matrices(self):
        from qha.asymptotics.windowed import halmos_operator

        ops = [halmos_operator(3).matrix, halmos_operator(3).matrix]
        vecs = [np.eye(6)[0]]
        tests = [(np.eye(6)[0], np.eye(6)[1])]
        res = topology_probe(ops, vecs, tests, tol=1e-12)
        assert res.classification == "norm"

        grids = [
            box_convolution_operator(0.25, 0.0, 4.0).matrix,
            ref.modulated_box(0.25, 0.0, 4.0, freq=3.0),
        ]
        g_vec = [np.ones(len(grids[0]))]
        res = topology_probe(grids, g_vec, [(g_vec[0], g_vec[0])], tol=1e-12)
        assert res.rows

    @pytest.mark.parametrize("c", [2.0**-3, 2.0**5])
    def test_power_of_two_scaling_of_the_tests_changes_no_bit(self, c):
        # A uniform quadrature weight w scales every test vector by sqrt(w);
        # the probe normalizes it away, so it needs no weight.  A power of two
        # scales exactly, so the rows agree bit for bit.
        for case in _scaling_cases():
            assert _rows(_probe_scaled(case, c)) == _rows(_probe_scaled(case, 1.0))

    @pytest.mark.parametrize("c", [np.sqrt(0.02), 7.3])
    def test_any_scaling_of_the_tests_changes_only_rounding(self, c):
        for case in _scaling_cases():
            got, want = _probe_scaled(case, c), _probe_scaled(case, 1.0)
            assert got.classification == want.classification
            for a, b in zip(_rows(got), _rows(want), strict=True):
                assert a[:2] == b[:2]
                assert np.allclose(a[2:], b[2:], rtol=1e-15, atol=0.0)


def _scaling_cases():
    return [halmos_shift_case(blocks=4, steps=4), box_modulation_case(h=0.25, steps=5)]


def _probe_scaled(case, c):
    """The probe with every test vector and both factors of every trace test times c."""
    vecs = [c * v for v in case.test_vectors]
    tests = [(c * u, c * w) for u, w in case.trace_tests]
    return topology_probe(case.matrices, vecs, tests, tol=0.1)


def _rows(res):
    return [(r.i, r.j, r.norm_diff, r.strongstar_diff, r.weakstar_diff) for r in res.rows]


class TestCanonicalCases:
    def test_halmos_shift_strongstar_not_norm(self):
        case = halmos_shift_case()
        res = topology_probe(case.matrices, case.test_vectors, case.trace_tests, tol=0.1)
        assert res.classification == "strong*"
        assert res.all_min("norm_diff") >= 0.99
        assert res.tail_max("strongstar_diff") <= 0.1
        norms = [np.linalg.norm(m, 2) for m in case.matrices]
        assert min(norms) == pytest.approx(1.0, abs=1e-12)

    def test_parity_shift_weakstar_not_strongstar(self):
        case = parity_shift_case()
        res = topology_probe(case.matrices, case.test_vectors, case.trace_tests, tol=1e-3)
        assert res.classification == "weak*"
        assert res.tail_max("weakstar_diff") <= 1e-3
        assert res.tail_max("strongstar_diff") > 1.0
        # exact norm preservation on centrally supported vectors
        for v in case.test_vectors:
            u = v / np.linalg.norm(v)
            for m in case.matrices:
                assert np.linalg.norm(m @ u) == pytest.approx(1.0, abs=1e-14)

    def test_box_modulation_strongstar_not_norm(self):
        case = box_modulation_case()
        res = topology_probe(case.matrices, case.test_vectors, case.trace_tests, tol=0.1)
        assert res.classification == "strong*"
        assert abs(np.linalg.norm(case.matrices[0], 2) - 2.0) <= 0.02
        norms = [np.linalg.norm(m, 2) for m in case.matrices]
        assert max(norms) - min(norms) < 1e-10  # constant operator norm

    def test_box_modulation_gaussian_action_decays(self):
        from qha.asymptotics.profiles import DecayProfile

        freq_step, h = 12.0, 0.02  # the builder's default step
        case = box_modulation_case(h=h, freq_step=freq_step)
        gauss = case.test_vectors[0]
        gauss = gauss / (np.sqrt(h) * np.linalg.norm(gauss))
        freqs = freq_step * np.arange(len(case.matrices))
        vals = np.array(
            [np.sqrt(h) * np.linalg.norm(m @ gauss) for m in case.matrices]
        )
        profile = DecayProfile(freqs[1:], vals[1:])  # skip freq 0 for the log fit
        assert profile.loglog_slope() < -0.5
        assert vals[-1] < 0.05 < vals[0]


class TestNormsAgainstDenseSvd:
    @pytest.mark.parametrize("name", sorted(PROBE_CASES))
    def test_norm_diff_matches_dense_norm(self, name):
        # The only probe norm check sharing no code with qha.numerics; on a
        # modulation orbit one dense norm per shift difference j - i.
        case = PROBE_CASES[name]()
        res = topology_probe(case.matrices, case.test_vectors, case.trace_tests, 0.1)
        orbit = isinstance(case.matrices, ModulationOrbit)
        dense = {}
        for r in res.rows:
            key = r.j - r.i if orbit else (r.i, r.j)
            if key not in dense:
                dense[key] = ref.spectral_norm(case.matrices[r.i] - case.matrices[r.j])
            assert r.norm_diff == pytest.approx(dense[key], rel=1e-12)


def _sparse_item(rng, n, complex_):
    """A sparse n x n item: values from a small shared pool (so two items
    cancel exactly where they agree) or random, an empty row, and signed
    zeros in the empty cells."""
    pool = np.array([1.0, -1.0, 0.5, 2.0]) if not complex_ else np.array([1.0, 1j, -0.5j, 1 - 1j])
    m = np.where(rng.random((n, n)) < 0.5, rng.choice(pool, (n, n)), rng.standard_normal((n, n)))
    m = np.where(rng.random((n, n)) < 0.35, m, 0.0).astype(complex if complex_ else float)
    m[rng.integers(n)] = 0.0
    zero = m == 0
    m[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, complex(0.0, -0.0) if complex_ else 0.0)
    return m


class TestListRouteNorms:
    """The list route reads a pair's norm from the cells where either item is
    nonzero; it must give the bits of spectral_norm on the dense difference.
    Items apart in rows and in columns take the larger item norm instead."""

    @given(st.sampled_from(["real", "complex", "mixed"]), st.integers(1, 7), st.integers(3, 5),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_norm_diff_is_the_dense_difference_norm(self, kind, n, count, seed):
        rng = np.random.default_rng(seed)
        kinds = {"real": [False], "complex": [True], "mixed": [False, True]}[kind]
        items = [_sparse_item(rng, n, kinds[k % len(kinds)]) for k in range(count)]
        items[1] = items[0].copy()  # an identical pair, with flipped signed zeros
        items[1][items[1] == 0] *= -1.0
        edit = rng.random((n, n)) < 0.3  # item 2 agrees with item 0 off `edit`
        items[2] = np.where(edit, items[2], items[0]).astype(np.result_type(items[0], items[2]))
        vecs = [np.ones(n)]
        res = topology_probe(items, vecs, [(vecs[0], np.eye(n)[0])], 0.1)
        assert len(res.rows) == count * (count - 1) // 2
        for r in res.rows:
            d = items[r.i] - items[r.j]
            assert r.norm_diff == spectral_norm(d)
            assert abs(r.norm_diff - ref.spectral_norm(d)) <= 1e-12
        assert res.rows[0].norm_diff == 0.0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the products A v
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_item_raises(self, bad):
        items = [_sparse_item(np.random.default_rng(k), 5, True) for k in range(3)]
        items[2][1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            topology_probe(items, [np.ones(5)], [(np.ones(5), np.ones(5))], 0.1)

    @given(st.sampled_from(["real", "complex", "mixed"]), st.integers(4, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_apart_pairs_take_the_larger_item_norm(self, kind, count, seed):
        # Sparse items as blocks of a 16 x 16 matrix of signed zeros, each with
        # nonzero first and last rows and columns.  Item 1 starts on item 0's
        # last row, right of its columns; item 2 on its last column, below its
        # rows; item 3 is apart from item 0, and the others land anywhere.  A
        # pair apart in rows and in columns is a direct sum: its norm is the
        # larger item norm, bit for bit, and the dense difference's to rounding
        # (an SVD of -B can differ from B's in the last bit where B's blocks
        # hold zero cells).  Every other pair keeps the dense difference's bits.
        rng = np.random.default_rng(seed)
        kinds = {"real": [False], "complex": [True], "mixed": [False, True]}[kind]
        size, items, boxes = 16, [], []
        for k in range(count):
            r, c = (int(x) for x in rng.integers(1, 6, size=2))
            block = _sparse_item(rng, 5, kinds[k % len(kinds)])[:r, :c]
            block[0, 0] = block[-1, -1] = 1.5 - 0.5j if np.iscomplexobj(block) else 1.5
            if k == 0:  # last row and column <= 10: room for items 1 to 3
                top, left = rng.integers(0, size - 9, size=2)
            elif k in (1, 2):
                r1, c1 = boxes[0][1]
                top, left = (r1, c1 + 1) if k == 1 else (r1 + 1, c1)
            elif k == 3:
                top, left = size - r, size - c
            else:
                top, left = rng.integers(0, [size - r + 1, size - c + 1])
            m = np.where(rng.random((size, size)) < 0.5, -0.0, 0.0).astype(block.dtype)
            m[top:top + r, left:left + c] = block
            items.append(m)
            boxes.append(((top, left), (top + r - 1, left + c - 1)))
        vecs = [np.ones(size)]
        res = topology_probe(items, vecs, [(vecs[0], np.eye(size)[0])], 0.1)
        apart = set()
        for row in res.rows:
            (lo_i, hi_i), (lo_j, hi_j) = boxes[row.i], boxes[row.j]
            d = items[row.i] - items[row.j]
            if all(hi_i[x] < lo_j[x] or hi_j[x] < lo_i[x] for x in (0, 1)):
                apart.add((row.i, row.j))
                assert row.norm_diff == max(spectral_norm(items[row.i]), spectral_norm(items[row.j]))
            else:
                assert row.norm_diff == spectral_norm(d)
            assert abs(row.norm_diff - ref.spectral_norm(d)) <= 1e-12
        assert (0, 3) in apart and (0, 1) not in apart and (0, 2) not in apart

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the products A v
    def test_non_finite_item_apart_from_all_raises(self):
        # Three diagonal blocks: every pair is apart, so only the item norms
        # read the cells, and the one holding NaN must still be refused.
        items = [np.zeros((6, 6)) for _ in range(3)]
        for k, m in enumerate(items):
            m[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[1.0, 2.0], [0.0, 3.0]]
        items[1][3, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            topology_probe(items, [np.ones(6)], [(np.ones(6), np.ones(6))], 0.1)

    @pytest.mark.parametrize("shape", [(5, 6), (6, 5), (6, 6)])
    def test_mismatched_shapes_raise(self, shape):
        items = [np.eye(5), np.ones(shape)]
        with pytest.raises(ValueError):
            topology_probe(items, [np.ones(5)], [(np.ones(5), np.ones(5))], 0.1)


class TestModulationOrbit:
    @pytest.mark.parametrize("params", [{"h": 0.02, "steps": 5}, {"h": 0.25, "steps": 5}],
                             ids=["default", "small"])
    def test_orbit_route_matches_dense_route(self, params):
        # The default grid on 5 items (10 pairs, shifts 1-4): the dense route
        # takes a full 601 x 601 SVD per pair.  All 8 default shift norms are
        # checked against the reference SVD in TestNormsAgainstDenseSvd.
        freq_step, h = 12.0, params["h"]
        case = box_modulation_case(freq_step=freq_step, **params)
        assert isinstance(case.matrices, ModulationOrbit)
        for i, m in enumerate(case.matrices):
            assert m.tobytes() == ref.modulated_box(h, -6.0, 6.0, freq_step * i).tobytes()
        args = (case.test_vectors, case.trace_tests, 0.1)
        orbit = topology_probe(case.matrices, *args)
        dense = topology_probe(list(case.matrices), *args)
        assert orbit.classification == dense.classification
        assert orbit.tail_start == dense.tail_start
        assert [(r.i, r.j) for r in orbit.rows] == [(r.i, r.j) for r in dense.rows]
        for a, b in zip(orbit.rows, dense.rows):
            assert a.norm_diff == pytest.approx(b.norm_diff, rel=1e-12)
            assert a.strongstar_diff == pytest.approx(b.strongstar_diff, rel=1e-12)
            assert a.weakstar_diff == pytest.approx(b.weakstar_diff, rel=1e-12)

    @pytest.mark.parametrize("base", ["box-odd", "box-even"])
    def test_difference_has_the_dense_singular_values(self, monkeypatch, base):
        # The dense oracle's difference against the dense M_0 - M_k and one
        # reference SVD; difference_norm takes one real eigvalsh of the
        # floor(n/2)-square Gram of the J-even to J-odd block and no svd.
        h = 0.25
        op = box_convolution_operator(h, 0.0, 4.0 if base == "box-odd" else 3.75)
        n = op.size
        assert n == (17 if base == "box-odd" else 16)
        orbit = ModulationOrbit(op, 3.0, 5)
        calls = []

        def spy(name):
            original = getattr(np.linalg, name)
            return lambda a, *args, **kwargs: (calls.append((name, a.dtype.kind, a.shape[-2:])),
                                               original(a, *args, **kwargs))[1]

        for k in range(1, 5):
            want = ref.singular_values(orbit[0] - orbit[k])
            diff = ref.orbit_difference(op.matrix, h, 3.0, k)
            assert not np.iscomplexobj(diff)
            assert singular_values(diff) == pytest.approx(want, rel=1e-13, abs=1e-13 * want[0])
            with monkeypatch.context() as patch:
                for name in ("svd", "eigvalsh"):
                    patch.setattr(np.linalg, name, spy(name))
                norm = orbit.difference_norm(k)
            assert norm == pytest.approx(want[0], rel=1e-13)
        assert calls == [("eigvalsh", "f", (n // 2, n // 2))] * 4

    @pytest.mark.parametrize("base", ["box-odd", "box-even", "box-default"])
    def test_difference_norm_is_the_spectral_norm(self, base):
        # The half-size Gram route against one dense SVD (of the oracle's real
        # difference on the default grid, whose items are 601 x 601).
        if base == "box-default":
            orbit = box_modulation_case().matrices
        else:
            orbit = ModulationOrbit(box_convolution_operator(0.25, 0.0, 4.0 if base == "box-odd" else 3.75),
                                    3.0, 5)
        for k in range(1, len(orbit)):
            if base == "box-default":
                dense = ref.orbit_difference(orbit[0].real, 0.02, 12.0, k)
            else:
                dense = orbit[0] - orbit[k]
            assert orbit.difference_norm(k) == pytest.approx(ref.spectral_norm(dense), rel=1e-13)

    @pytest.mark.parametrize("base", ["complex", "real-nonpersymmetric", "real-symmetric",
                                      "toeplitz-nonsymmetric", "complex-box"])
    def test_only_a_real_symmetric_toeplitz_base(self, base):
        # The orbit's one norm route needs B_ij = b(|i - j|), real, bit for
        # bit; every other base is refused when the orbit is built.
        h, box = 0.25, box_convolution_operator(0.25, 0.0, 4.0)
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((box.size, box.size))
        mat = {
            "complex": mat + 1j * rng.standard_normal(mat.shape),
            "real-nonpersymmetric": mat,
            "real-symmetric": mat + mat.T,
            "toeplitz-nonsymmetric": np.triu(box.matrix),
            "complex-box": box.matrix.astype(complex),
        }[base]
        with pytest.raises(PreconditionError, match="exactly real, symmetric and Toeplitz"):
            ModulationOrbit(GridOperator(h, 0.0, 4.0, mat), 3.0, 5)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(1, 24), st.integers(0, 2**32 - 1), st.floats(0.5, 20.0), st.integers(1, 4))
    def test_difference_norm_matches_a_dense_svd(self, n, seed, step, k):
        # Any real symmetric Toeplitz base of odd or even size: the half-size
        # Gram route against one dense SVD of the built items' difference.
        first = np.random.default_rng(seed).standard_normal(n)
        idx = np.arange(n)
        base = GridOperator(0.25, 0.0, 0.25 * (n - 1), first[np.abs(idx[:, None] - idx)])
        orbit = ModulationOrbit(base, step, 5)
        want = ref.singular_values(orbit[0] - orbit[k])[0]
        assert orbit.difference_norm(k) == pytest.approx(want, rel=1e-13)

    def test_difference_norm_scales_with_the_base(self):
        # The Gram is formed from the taps over max |d|: a 1e200 base neither
        # overflows nor loses digits.
        box = box_convolution_operator(0.25, 0.0, 4.0)
        huge = GridOperator(0.25, 0.0, 4.0, 1e200 * box.matrix)
        for k in range(1, 5):
            want = 1e200 * ModulationOrbit(box, 3.0, 5).difference_norm(k)
            assert ModulationOrbit(huge, 3.0, 5).difference_norm(k) == pytest.approx(want, rel=1e-13)

    def test_difference_norm_peaks_below_half_a_real_difference(self):
        # The default orbit's norm holds the 301 x 300 block and its 300-square
        # Gram, never the 601 x 601 difference (n^2 doubles).
        orbit = box_modulation_case().matrices
        n = orbit[0].shape[0]
        tracemalloc.start()
        try:
            orbit.difference_norm(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 2

    def test_products_match_the_items(self):
        # M_k r and l* M_k from the real base against the built items.
        orbit = box_modulation_case(h=0.1, steps=5).matrices
        rng = np.random.default_rng(3)
        right, left = (rng.standard_normal((k, 121)) + 1j * rng.standard_normal((k, 121))
                       for k in (3, 2))
        got_right, got_left = orbit.products(right, left)
        assert got_right.shape == (5, 3, 121) and got_left.shape == (5, 2, 121)
        for k, item in enumerate(orbit):
            assert np.abs(got_right[k] - right @ item.T).max() <= 1e-13
            assert np.abs(got_left[k] - left.conj() @ item).max() <= 1e-13

    def test_slices_are_the_items(self):
        orbit = box_modulation_case(h=0.25).matrices
        part = orbit[1:3]
        assert isinstance(part, list) and len(part) == 2
        for got, k in [*zip(part, (1, 2)), (orbit[-1], len(orbit) - 1)]:
            assert got.tobytes() == orbit[k].tobytes()
        assert [m.tobytes() for m in orbit[::-4]] == [orbit[k].tobytes() for k in (8, 4, 0)]
        with pytest.raises(IndexError):
            orbit[len(orbit)]

    def test_read_only_items_and_list_route(self):
        box = box_convolution_operator(0.25, 0.0, 4.0)
        orbit = ModulationOrbit(box, 3.0, 4)
        assert len(orbit) == 4
        assert np.array_equal(orbit[0], box.matrix)
        with pytest.raises(ValueError):
            orbit[1][0, 0] = 0.0
        vec = [np.ones(box.size)]
        res = topology_probe(orbit, vec, [(vec[0], vec[0])], tol=1e-12)
        dense = topology_probe(list(orbit), vec, [(vec[0], vec[0])], tol=1e-12)
        assert [r.strongstar_diff for r in res.rows] == pytest.approx(
            [r.strongstar_diff for r in dense.rows], rel=1e-12)


def _dense_shift_items(name):
    """The default parity-shift or halmos-shift items, each built densely by
    _reference.shift_operator from the dense reflection or padded projection."""
    thetas = 2 * np.pi * np.arange(16) / 16
    if name == "parity-shift":
        window, shifts = ref.parity_window(-200, 200), [12 * i for i in range(8)]
    else:
        total, pad = 36, 8  # 8 blocks
        hi = 9 * total - 1
        base = halmos_operator(8, pad)
        window = WindowedZOperator(-pad, hi, np.pad(base.matrix, (0, hi - base.hi)))
        shifts = [total * i for i in range(8)]
    return [ref.shift_operator(window, k, float(thetas[i % 16])).matrix for i, k in enumerate(shifts)]


def _negative_zeros(m):
    return int(np.count_nonzero((m.real == 0) & np.signbit(m.real))
               + np.count_nonzero((m.imag == 0) & np.signbit(m.imag)))


class TestShiftedCopies:
    """The list cases hold entries, not items; every cell must keep the bits of
    the dense compression, signed zeros included."""

    @pytest.mark.parametrize("name", ["parity-shift", "halmos-shift"])
    def test_items_are_the_dense_compressions_bit_for_bit(self, name):
        seq, dense = PROBE_CASES[name]().matrices, _dense_shift_items(name)
        assert isinstance(seq, ShiftedCopies) and len(seq) == len(dense) == 8
        for got, want in zip(seq, dense, strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert sum(_negative_zeros(m) for m in dense) > 0  # the bytes do compare signed zeros

    @pytest.mark.parametrize("name", ["parity-shift", "halmos-shift"])
    def test_item_form_reads_the_dense_cells(self, name):
        # The flat indices are the dense item's nonzero cells; the cell function
        # gives the dense item's bits on any cells, in the stacked block shapes
        # the norm reads; the products agree with the dense matvecs to rounding.
        seq, dense = PROBE_CASES[name]().matrices, _dense_shift_items(name)
        size = dense[0].shape[0]
        rng = np.random.default_rng(11)
        right, left = (rng.standard_normal((m, size)) + 1j * rng.standard_normal((m, size))
                       for m in (3, 2))
        for k, want in enumerate(dense):
            (shape, flat, cells), got_right, got_left = seq.item_form(k, right, left)
            assert shape == want.shape
            assert np.array_equal(flat, np.flatnonzero(want))
            rows, cols = np.divmod(flat, size)
            assert cells(rows, cols).tobytes() == want[rows, cols].tobytes()
            for ri, ci in [(rows[:20].reshape(5, 4, 1), cols[:15].reshape(5, 1, 3)),
                           (rng.integers(size, size=(5, 4, 1)), rng.integers(size, size=(5, 1, 3)))]:
                assert cells(ri, ci).tobytes() == want[ri, ci].tobytes()
            whole = np.arange(size)  # every cell, at broadcast index vectors
            assert cells(whole[:, None], whole).tobytes() == want.tobytes()
            scale = np.abs(right).max() * np.abs(want).sum(axis=1).max()
            assert np.abs(got_right - right @ want.T).max() <= 1e-15 * scale
            assert np.abs(got_left - left.conj() @ want).max() <= 1e-15 * scale

    def test_every_offset_matches_the_dense_shift(self):
        # A sparse real base, shifted by every offset from all out on the left
        # to all out on the right.
        rng = np.random.default_rng(4)
        lo, hi = -6, 5
        size = hi - lo + 1
        base = np.where(rng.random((size, size)) < 0.4, rng.standard_normal((size, size)), 0.0)
        window = WindowedZOperator(lo, hi, base)
        for theta in (0.0, 0.9, -2.5):
            moves = [(k, theta) for k in range(-size - 4, size + 5)]
            seq = ShiftedCopies(lo, hi, *np.nonzero(base), base[base != 0], moves)
            for (k, _), got in zip(moves, seq, strict=True):
                assert got.tobytes() == ref.shift_operator(window, k, theta).matrix.tobytes()
                kept = slice(max(0, -k), max(0, size - k))  # the base rows and columns left in
                assert np.count_nonzero(got) == np.count_nonzero(base[kept, kept])

    def test_slices_and_negative_indices(self):
        seq = parity_shift_case(half_width=40, support=4, step=3, steps=5).matrices
        assert seq[-1].tobytes() == seq[4].tobytes()
        assert seq[-5].tobytes() == seq[0].tobytes()
        part = seq[1:4:2]
        assert isinstance(part, list) and [m.tobytes() for m in part] == [seq[1].tobytes(), seq[3].tobytes()]
        assert [m.tobytes() for m in seq[::-2]] == [seq[k].tobytes() for k in (4, 2, 0)]
        assert seq[5:] == []
        for k in (5, -6):
            with pytest.raises(IndexError):
                seq[k]

    @pytest.mark.parametrize("name, calls", [("halmos-shift", 8), ("parity-shift", 28)])
    def test_norm_reads_per_case(self, monkeypatch, name, calls):
        # Halmos-shift copies sit a full support apart: one norm per item
        # serves all 28 pairs.  Parity-shift reflections all overlap in the
        # window, so each pair reads its difference.
        seen = []
        original = qha.asymptotics.probes.entry_singular_values
        monkeypatch.setattr(qha.asymptotics.probes, "entry_singular_values",
                            lambda *args: (seen.append(args[0]), original(*args))[1])
        case = PROBE_CASES[name]()
        res = topology_probe(case.matrices, case.test_vectors, case.trace_tests, 0.1)
        assert len(res.rows) == 28 and len(seen) == calls

    @pytest.mark.parametrize("name", ["parity-shift", "halmos-shift"])
    @pytest.mark.parametrize("bad", [{"steps": 0}, {"steps": -1}])
    def test_bad_arguments_raise(self, name, bad):
        with pytest.raises(PreconditionError, match="steps must be >= 1"):
            PROBE_CASES[name](**bad)


class TestPairwiseOracle:
    @pytest.mark.parametrize("name, params, as_list", [
        ("halmos-shift", {}, False), ("parity-shift", {}, False),
        ("box-modulation", {}, False), ("box-modulation", {"h": 0.05}, True),
    ], ids=["halmos-shift", "parity-shift", "box-orbit", "box-list"])
    def test_vector_quantities_match_dense_pairwise_formula(self, name, params, as_list):
        # The probe differences per-item products; the oracle forms each
        # d = A_i - A_j and applies it, and its adjoint, to the tests.  The
        # list route takes a norm per pair, so it runs on a coarser grid.
        case = PROBE_CASES[name](**params)
        mats = list(case.matrices) if as_list else case.matrices
        res = topology_probe(mats, case.test_vectors, case.trace_tests, 0.1)
        want = ref.probe_vector_diffs(mats, case.test_vectors, case.trace_tests)
        assert [(r.i, r.j) for r in res.rows] == [w[:2] for w in want]
        for r, (_, _, strong, weak) in zip(res.rows, want):
            assert abs(r.strongstar_diff - strong) <= 1e-13
            assert abs(r.weakstar_diff - weak) <= 1e-13


def test_box_modulation_probe_holds_under_one_item():
    # The probe builds no orbit item: the products come from the real base,
    # and each norm from a quarter-size even-odd block and its Gram, built
    # from the taps (peak 0.36 items; 0.87 when each norm folded a real
    # difference of half an item's bytes, 1.74 when every item was built and
    # the norm took spectral_norm's route).
    case = box_modulation_case()
    item = case.matrices[0].nbytes
    tracemalloc.start()
    try:
        topology_probe(case.matrices, case.test_vectors, case.trace_tests, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < item


@pytest.mark.parametrize("name", ["parity-shift", "halmos-shift"])
def test_shift_probe_holds_under_half_an_item(name):
    # A parity-shift item has 401 nonzeros in 160,801 cells and a halmos-shift
    # item ~204 in 110,224; the case holds their base entries and the probe
    # never forms an item.  The peak, build included, is 0.42 of one dense
    # item for both: the products of all 8 items (0.12 and 0.24 items) and the
    # pair norms' block reads (1.97 items when every item was built dense).
    tracemalloc.start()
    try:
        case = PROBE_CASES[name]()
        topology_probe(case.matrices, case.test_vectors, case.trace_tests, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 16 * len(case.test_vectors[0]) ** 2


@pytest.mark.parametrize("case", ["parity-shift", "halmos-shift", "box-modulation"])
def test_probe_leaves_numpy_ma_unloaded(tmp_path, case):
    """The probe takes sorted unions without np.unique, union1d or isin, whose
    first call imports numpy.ma (~16 ms for every `qha probe topology`), and
    the cases draw their test vectors from no generator, so numpy.random
    (~10 ms) is not imported either."""
    src = str(Path(qha.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["probe", "topology", "--case", case, "--tol", "0.1", "--out", str(tmp_path / "p.csv")]
    code = (f"import sys, qha.cli; print(qha.cli.dispatch({argv!r}), 'numpy.ma' in sys.modules,"
            " 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split()[-3:] == ["0", "False", "False"]
