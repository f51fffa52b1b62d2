"""Topology probes: classifier semantics and the three canonical sequences."""

import numpy as np
import pytest

from qha.asymptotics.gridops import (
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
            res = topology_probe(
                case.matrices, case.test_vectors, case.trace_tests, tol=0.1, weight=case.weight
            )
            for row in res.rows:
                assert row.weakstar_diff <= row.strongstar_diff + 1e-9
                assert row.strongstar_diff <= row.norm_diff + 1e-9

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            topology_probe([], [np.ones(2)], [(np.ones(2), np.ones(2))], 0.1)

    def test_accepts_operator_objects_and_infers_weight(self):
        from qha.asymptotics.windowed import halmos_operator
        from qha.errors import PreconditionError

        ops = [halmos_operator(3), halmos_operator(3)]
        vecs = [np.eye(6)[0]]
        tests = [(np.eye(6)[0], np.eye(6)[1])]
        res = topology_probe(ops, vecs, tests, tol=1e-12)
        assert res.classification == "norm"

        grids = [
            box_convolution_operator(0.25, 0.0, 4.0),
            modulated_box_operator(0.25, 0.0, 4.0, freq=3.0),
        ]
        g_vec = [np.ones(grids[0].size)]
        res = topology_probe(grids, g_vec, [(g_vec[0], g_vec[0])], tol=1e-12)
        assert res.rows  # weight inferred from the grid step

        with pytest.raises(PreconditionError):
            topology_probe([halmos_operator(3), halmos_operator(4)], vecs, tests, 0.1)
        with pytest.raises(PreconditionError):
            topology_probe([halmos_operator(3), np.eye(6)], vecs, tests, 0.1)
        with pytest.raises(PreconditionError):
            topology_probe([grids[0], np.eye(grids[0].size)], g_vec, [(g_vec[0], g_vec[0])], 0.1)


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
        res = topology_probe(
            case.matrices, case.test_vectors, case.trace_tests, tol=0.1, weight=case.weight
        )
        assert res.classification == "strong*"
        assert abs(np.linalg.norm(case.matrices[0], 2) - 2.0) <= 0.02
        norms = [np.linalg.norm(m, 2) for m in case.matrices]
        assert max(norms) - min(norms) < 1e-10  # constant operator norm

    def test_box_modulation_gaussian_action_decays(self):
        from qha.asymptotics.profiles import DecayProfile

        freq_step = 12.0
        case = box_modulation_case(freq_step=freq_step)
        h = case.weight
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
        res = topology_probe(
            case.matrices, case.test_vectors, case.trace_tests, 0.1, weight=case.weight
        )
        orbit = isinstance(case.matrices, ModulationOrbit)
        dense = {}
        for r in res.rows:
            key = r.j - r.i if orbit else (r.i, r.j)
            if key not in dense:
                dense[key] = ref.spectral_norm(case.matrices[r.i] - case.matrices[r.j])
            assert r.norm_diff == pytest.approx(dense[key], rel=1e-12)


class TestModulationOrbit:
    @pytest.mark.parametrize("params", [{}, {"h": 0.25, "steps": 5}], ids=["default", "small"])
    def test_orbit_route_matches_dense_route(self, params):
        freq_step = 12.0
        case = box_modulation_case(freq_step=freq_step, **params)
        assert isinstance(case.matrices, ModulationOrbit)
        h = case.weight
        for i, m in enumerate(case.matrices):
            ref = modulated_box_operator(h, -6.0, 6.0, freq_step * i).matrix
            assert m.tobytes() == ref.tobytes()
        args = (case.test_vectors, case.trace_tests, 0.1)
        orbit = topology_probe(case.matrices, *args, weight=h)
        dense = topology_probe(list(case.matrices), *args, weight=h)
        assert orbit.classification == dense.classification
        assert orbit.tail_start == dense.tail_start
        assert [(r.i, r.j) for r in orbit.rows] == [(r.i, r.j) for r in dense.rows]
        for a, b in zip(orbit.rows, dense.rows):
            assert a.norm_diff == pytest.approx(b.norm_diff, rel=1e-12)
            assert a.strongstar_diff == b.strongstar_diff
            assert a.weakstar_diff == b.weakstar_diff

    def test_read_only_items_and_inferred_weight(self):
        box = box_convolution_operator(0.25, 0.0, 4.0)
        orbit = ModulationOrbit(box, 3.0, 4)
        assert len(orbit) == 4
        assert np.array_equal(orbit[0], box.matrix)
        with pytest.raises(ValueError):
            orbit[1][0, 0] = 0.0
        vec = [np.ones(box.size)]
        res = topology_probe(orbit, vec, [(vec[0], vec[0])], tol=1e-12)
        dense = topology_probe(list(orbit), vec, [(vec[0], vec[0])], tol=1e-12, weight=0.25)
        assert [r.strongstar_diff for r in res.rows] == [r.strongstar_diff for r in dense.rows]
