"""Topology probes: classifier semantics and the three canonical sequences."""

import tracemalloc

import numpy as np
import pytest

from qha.asymptotics.gridops import (
    GridOperator,
    ModulationOrbit,
    box_convolution_operator,
    modulated_box_operator,
)
from qha.asymptotics.probes import (
    PROBE_CASES,
    box_modulation_case,
    halmos_shift_case,
    parity_shift_case,
    topology_probe,
)
from qha.numerics import singular_values

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
            modulated_box_operator(0.25, 0.0, 4.0, freq=3.0).matrix,
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


class TestModulationOrbit:
    @pytest.mark.parametrize("params", [{"h": 0.02}, {"h": 0.25, "steps": 5}],
                             ids=["default", "small"])
    def test_orbit_route_matches_dense_route(self, params):
        freq_step, h = 12.0, params["h"]
        case = box_modulation_case(freq_step=freq_step, **params)
        assert isinstance(case.matrices, ModulationOrbit)
        for i, m in enumerate(case.matrices):
            ref = modulated_box_operator(h, -6.0, 6.0, freq_step * i).matrix
            assert m.tobytes() == ref.tobytes()
        args = (case.test_vectors, case.trace_tests, 0.1)
        orbit = topology_probe(case.matrices, *args)
        dense = topology_probe(list(case.matrices), *args)
        assert orbit.classification == dense.classification
        assert orbit.tail_start == dense.tail_start
        assert [(r.i, r.j) for r in orbit.rows] == [(r.i, r.j) for r in dense.rows]
        for a, b in zip(orbit.rows, dense.rows):
            assert a.norm_diff == pytest.approx(b.norm_diff, rel=1e-12)
            assert a.strongstar_diff == b.strongstar_diff
            assert a.weakstar_diff == b.weakstar_diff

    @pytest.mark.parametrize("base", ["box-odd", "box-even", "complex", "real-nonpersymmetric"])
    def test_difference_has_the_dense_singular_values(self, monkeypatch, base):
        # ModulationOrbit.difference(k) against the dense M_0 - M_k and one
        # reference SVD; a symmetric Toeplitz box gives a symmetric J-odd
        # matrix (one half-size real SVD), any other base the plain route.
        h, hi = 0.25, (4.0 if base != "box-even" else 3.75)
        op = box_convolution_operator(h, 0.0, hi)
        rng = np.random.default_rng(5)
        if base == "complex":
            op = GridOperator(h, 0.0, hi, rng.standard_normal((op.size, op.size))
                              + 1j * rng.standard_normal((op.size, op.size)))
        elif base == "real-nonpersymmetric":
            op = GridOperator(h, 0.0, hi, rng.standard_normal((op.size, op.size)))
        n = op.size
        assert n == (16 if base == "box-even" else 17)
        orbit = ModulationOrbit(op, 3.0, 5)
        shapes, svd = [], np.linalg.svd
        for k in range(1, 5):
            want = ref.singular_values(orbit[0] - orbit[k])
            diff = orbit.difference(k)
            assert np.iscomplexobj(diff) == (base == "complex")
            monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: (
                shapes.append((a.dtype.kind, a.shape[-2:])), svd(a, *args, **kwargs))[1])
            got = singular_values(diff)
            monkeypatch.setattr(np.linalg, "svd", svd)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13 * want[0])
        if base.startswith("box"):
            assert shapes == [("f", ((n + 1) // 2, n // 2))] * 4
        elif base == "real-nonpersymmetric":
            assert shapes == [("f", (n, n))] * 4

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
        assert [r.strongstar_diff for r in res.rows] == [r.strongstar_diff for r in dense.rows]


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


def test_box_modulation_probe_holds_under_four_items():
    # The orbit builds items on access and the probe keeps one item, then
    # one real difference of half its bytes: building an item (two complex
    # phase products) sets the peak.  The whole stored orbit was 9 items.
    case = box_modulation_case()
    item = case.matrices[0].nbytes
    tracemalloc.start()
    try:
        topology_probe(case.matrices, case.test_vectors, case.trace_tests, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * item
