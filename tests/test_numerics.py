"""Block-split singular values and spectral norms against one dense SVD."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qha import numerics
from qha.numerics import singular_values, spectral_norm

import _reference as ref

KINDS = ("hermitian", "centro", "skew-centro", "neither", "rectangular")


def _block(kind: str, rows: int, cols: int, rng) -> np.ndarray:
    """A random block whose structure is exact in floating point."""
    shape = (rows, cols) if kind == "rectangular" else (rows, rows)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "hermitian":
        return z + z.conj().T
    if kind == "centro":
        return z + z[::-1, ::-1].conj()
    if kind == "skew-centro":  # real symmetric with J b J = -b
        s = (z + z.T).real
        return s - s[::-1, ::-1]
    return z


def _assemble(blocks, rng, interleave: bool, empty_rows: int, empty_cols: int) -> np.ndarray:
    """Place the blocks on disjoint rows and columns of one matrix.

    With `interleave` the blocks are merged in random order but keep their
    own row and column order (so a block is read back exactly as built);
    otherwise rows and columns are permuted at random.
    """
    r_sizes = [b.shape[0] for b in blocks]
    c_sizes = [b.shape[1] for b in blocks]
    n_rows, n_cols = sum(r_sizes) + empty_rows, sum(c_sizes) + empty_cols

    def places(sizes, total):
        owner = np.repeat(np.arange(len(sizes) + 1), sizes + [total - sum(sizes)])
        if interleave:
            owner = rng.permutation(owner)
            return [np.flatnonzero(owner == k) for k in range(len(sizes))]
        perm = rng.permutation(total)
        return [perm[owner == k] for k in range(len(sizes))]

    out = np.zeros((n_rows, n_cols), dtype=complex)
    for b, r, c in zip(blocks, places(r_sizes, n_rows), places(c_sizes, n_cols)):
        out[np.ix_(r, c)] = b
    return out


def _assert_matches_dense(m):
    want = ref.singular_values(m)
    got = singular_values(m)
    assert got.shape == want.shape
    top = want[0] if want.size else 0.0
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * top
    assert spectral_norm(m) == (got[0] if got.size else 0.0)
    return got


@pytest.fixture
def routes(monkeypatch):
    """Record (routine, dtype kind) of every dense LAPACK call."""
    calls = []
    for name in ("svd", "eigvalsh"):
        original = getattr(np.linalg, name)

        def spy(a, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, a.dtype.kind))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


class TestAgainstDenseSvd:
    @given(
        st.lists(
            st.tuples(st.sampled_from(KINDS), st.integers(1, 6), st.integers(1, 6)),
            min_size=1, max_size=6,
        ),
        st.booleans(),
        st.integers(0, 3),
        st.integers(0, 3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_permuted_block_matrices(self, specs, interleave, empty_rows, empty_cols, real, seed):
        rng = np.random.default_rng(seed)
        blocks = [_block(kind, r, c, rng) * 10.0 ** rng.uniform(-3, 3) for kind, r, c in specs]
        m = _assemble(blocks, rng, interleave, empty_rows, empty_cols)
        _assert_matches_dense(m.real if real else m)

    @pytest.mark.parametrize("m, want", [
        (np.array([[-3.0 + 4.0j]]), [5.0]),
        (np.zeros((3, 4)), [0.0, 0.0, 0.0]),
        (np.zeros((0, 3)), []),
    ], ids=["1x1", "all-zero", "empty"])
    def test_fixed_values(self, m, want):
        assert singular_values(m).tolist() == want
        assert spectral_norm(m) == (want[0] if want else 0.0)

    def test_isolated_nonzeros(self):
        m = np.zeros((5, 7), dtype=complex)
        m[[0, 1, 3], [6, 2, 0]] = [2.0, -1j, 0.5 + 0.5j]
        got = _assert_matches_dense(m)
        assert got == pytest.approx([2.0, 1.0, np.sqrt(0.5), 0.0, 0.0], rel=1e-15)

    def test_fully_connected_pattern(self, routes):
        m = np.random.default_rng(1).standard_normal((9, 6)) + 1j
        _assert_matches_dense(m)
        assert ("svd", "c") in routes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_non_finite_raises(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            singular_values(m)
        with pytest.raises(ValueError, match="finite"):
            spectral_norm(m)

    def test_needs_a_matrix(self):
        with pytest.raises(ValueError):
            singular_values(np.ones(3))


class TestRoutes:
    @staticmethod
    def _matrix(kind: str) -> np.ndarray:
        rng = np.random.default_rng(7)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        return {
            "real-symmetric": (z + z.T).real,
            "hermitian": z + z.conj().T,
            "hermitian-centro": (lambda h: h + h[::-1, ::-1].conj())(z + z.conj().T),
            "centro": z + z[::-1, ::-1].conj(),
            "neither": z,
            "real": z.real,
            # real symmetric with J b J = -b
            "skew-centro": (lambda r: r - r[::-1, ::-1])((z + z.T).real),
        }[kind]

    @pytest.mark.parametrize("kind, route", [
        ("real-symmetric", ("svd", "f")),
        ("hermitian", ("svd", "c")),
        ("hermitian-centro", ("svd", "c")),
        ("centro", ("svd", "c")),
        ("neither", ("svd", "c")),
        ("real", ("svd", "f")),
        ("skew-centro", ("svd", "f")),
    ])
    def test_structure_picks_the_route(self, routes, kind, route):
        # Structure is not read off the matrix: every connected block takes
        # one SVD of its own dtype.
        m = self._matrix(kind)
        want = ref.singular_values(m)
        routes.clear()
        assert singular_values(m) == pytest.approx(want, rel=1e-13, abs=1e-13 * want[0])
        assert routes == [route]

    @pytest.mark.parametrize("n", [6, 7])
    def test_even_odd_values_take_one_half_size_svd(self, routes, monkeypatch, n):
        r = np.random.default_rng(n).standard_normal((n, n))
        m = (r + r.T) - (r + r.T)[::-1, ::-1]
        want = ref.singular_values(m)
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: (
            shapes.append(a.shape[-2:]), svd(a, *args, **kwargs))[1])
        routes.clear()
        got = np.sort(numerics._even_odd_values(m[None])[0])[::-1]
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13 * want[0])
        assert routes == [("svd", "f")]
        assert shapes == [((n + 1) // 2, n // 2)]
        assert got[-1] == (0.0 if n % 2 else pytest.approx(want[-1], rel=1e-13))

    @pytest.mark.parametrize("factor", [1e-200, 1e200])
    @pytest.mark.parametrize("kind, route", [
        ("neither", ("svd", "c")),
        ("centro", ("svd", "c")),
        ("real", ("svd", "f")),
        ("skew-centro", ("svd", "f")),
        ("real-symmetric", ("svd", "f")),
        ("hermitian", ("svd", "c")),
        ("hermitian-centro", ("svd", "c")),
    ])
    def test_extreme_scales_refuse_what_does_not_hold(self, routes, kind, route, factor):
        # No norm of the entries is formed, so nothing under- or overflows
        # at 1e+-200: one SVD, with no RuntimeWarning.
        m = factor * self._matrix(kind)
        want = ref.singular_values(m)
        routes.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = singular_values(m)
        assert got == pytest.approx(want, rel=1e-13)
        assert routes == [route]

    def test_dropping_a_block_is_caught(self, monkeypatch):
        m = np.zeros((4, 4))
        m[0, 0] = 3.0
        m[1:3, 1:3] = [[2.0, 1.0], [1.0, 2.0]]
        m[3, 3] = 0.5
        _assert_matches_dense(m)
        kept = numerics._block_stacks
        monkeypatch.setattr(numerics, "_block_stacks", lambda *args: list(kept(*args))[:-1])
        with pytest.raises(AssertionError):
            _assert_matches_dense(m)
