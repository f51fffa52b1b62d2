"""Block-split singular values and spectral norms against one dense SVD."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qha import numerics
from qha.numerics import seeded_uniform, singular_values, spectral_norm

import _reference as ref

KINDS = ("hermitian", "centro", "skew-centro", "neither", "rectangular")

#: float.hex of the first eight entries of seed 0; they freeze the stream.
SEED_0 = ("0x1.8882a0e5ec772p-1", "-0x1.18761955e46a0p-3", "-0x1.e4ee8b9dffdb0p-1",
          "0x1.e22ee2a1c9320p-1", "-0x1.9319da56b95e4p-1", "-0x1.61a3079c5c0b0p-2",
          "-0x1.4df5950782eb4p-1", "0x1.16104ceb245aap-1")

#: The first four 64-bit outputs of SplitMix64 from state 0, as published with
#: the generator; an entry keeps their top 53 bits.
SEED_0_WORDS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC)


class TestSeededUniform:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.one_of(st.sampled_from([0, 1, 2**64 - 1]), st.integers(0, 2**64 - 1)),
           start=st.one_of(st.sampled_from([0, 2**40]), st.integers(0, 2**40)),
           shape=st.lists(st.integers(0, 4), max_size=3).map(tuple))
    def test_equals_textbook_generator(self, seed, start, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = seeded_uniform(seed, shape, start)
        assert got.shape == shape and got.dtype == np.float64
        want = ref.splitmix64_uniform(seed, int(np.prod(shape)), start)
        assert [float(x).hex() for x in got.ravel()] == [x.hex() for x in want]

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("start", [0, 1, 2**32 - 3, 2**40])
    def test_fixed_seeds_and_far_starts(self, seed, start):
        got = seeded_uniform(seed, (3, 7), start)
        assert got.ravel().tolist() == ref.splitmix64_uniform(seed, 21, start)
        # A stretch is the same wherever it is cut.
        assert np.array_equal(got[1:], seeded_uniform(seed, (2, 7), start + 7))

    def test_seed_0_is_frozen(self):
        got = seeded_uniform(0, 8)
        assert tuple(float(x).hex() for x in got) == SEED_0
        assert [int((x + 1.0) * 2**52) for x in got[:4]] == [w >> 11 for w in SEED_0_WORDS]

    def test_values_are_dyadic_in_the_half_open_interval(self):
        x = seeded_uniform(2**63 + 12345, (50, 1000))
        assert -1.0 <= x.min() and x.max() < 1.0
        scaled = x * 2.0**52
        assert np.array_equal(scaled, np.round(scaled))
        assert x.min() < -0.999 and x.max() > 0.999  # the whole interval is reached


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

    @pytest.mark.parametrize("kind", ["real", "complex", "tridiagonal"])
    def test_one_component_is_the_svd_of_the_matrix(self, kind):
        # One component and no empty row or column: the one block is the whole
        # matrix in index order, so LAPACK gets the matrix itself.
        rng = np.random.default_rng(3)
        m = rng.standard_normal((7, 5) if kind == "real" else (6, 6))
        if kind == "complex":
            m = m + 1j * rng.standard_normal((6, 6))
        if kind == "tridiagonal":
            m = np.triu(np.tril(m, 1), -1)
        got = singular_values(m)
        assert got.tobytes() == np.linalg.svd(m, compute_uv=False).tobytes()

    def test_cells_only_receive_index_arrays(self):
        # Two blocks with an empty row and column between them, and one
        # component filling the matrix: every read is at index arrays.
        split = np.zeros((5, 6))
        split[:2, :3], split[3:, 4:] = 1.0, [[1.0, 2.0], [3.0, 4.0]]
        for m in (split, np.ones((3, 4)) + 1j):
            seen = []

            def cells(ri, ci, m=m):
                seen.append((type(ri), type(ci)))
                return m[ri, ci]

            rows, cols = np.nonzero(m)
            got = numerics.entry_singular_values(m.shape, rows, cols, cells)
            assert got.tobytes() == singular_values(m).tobytes()
            assert len(seen) > 1 and set(seen) == {(np.ndarray, np.ndarray)}

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


def _block_diagonal(stack: np.ndarray) -> np.ndarray:
    """The (B R) x (B C) block-diagonal matrix of a (B, R, C) stack."""
    b, r, c = stack.shape
    out = np.zeros((b * r, b * c), dtype=stack.dtype)
    for k in range(b):
        out[k * r : (k + 1) * r, k * c : (k + 1) * c] = stack[k]
    return out


def _with_values(svals, rows, cols, rng) -> np.ndarray:
    """A random rows x cols complex matrix with the given singular values."""
    q = [np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
         for m in (rows, cols)]
    middle = np.zeros((rows, cols))
    middle[np.arange(len(svals)), np.arange(len(svals))] = svals
    return q[0] @ middle @ q[1].conj().T


class TestSvdRankStack:
    """svd_rank reads a (B, R, C) stack as the block-diagonal matrix of its
    blocks: the same rank, values and warnings as that 2-D matrix."""

    @staticmethod
    def _assert_same(stack):
        got, want = numerics.svd_rank(stack), numerics.svd_rank(_block_diagonal(stack))
        assert got.singular_values.shape == want.singular_values.shape
        top = want.singular_values[0] if want.singular_values.size else 0.0
        assert np.abs(got.singular_values - want.singular_values).max(initial=0.0) <= 1e-13 * top
        assert np.all(np.diff(got.singular_values) <= 0)
        assert got.rank == want.rank
        assert got.warnings == want.warnings
        return got

    @pytest.mark.parametrize("shape", [(1, 3, 3), (4, 6, 3), (3, 2, 5), (5, 4, 4), (2, 0, 3)])
    def test_random_stacks(self, shape):
        rng = np.random.default_rng(sum(shape))
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = self._assert_same(stack)
        assert got.rank == shape[0] * min(shape[1:]) and not got.warnings

    def test_values_straddling_the_tie_band(self):
        # cut = 1e-8: 4e-8 and 2e-8 count, 7e-9 and 5e-9 do not; all four sit
        # within a decade of the cut and 3e-10 below it.
        rng = np.random.default_rng(5)
        svals = [[1.0, 0.2], [4e-8, 2e-8], [7e-9, 3e-10], [0.5, 5e-9]]
        stack = np.stack([_with_values(s, 3, 2, rng) for s in svals])
        got = self._assert_same(stack)
        assert got.rank == 5
        assert got.warnings == [f"4 singular value(s) within a decade of the rank threshold "
                                f"{1e-8 * got.singular_values[0]:.3e}; rank decision may be unstable"]

    def test_zero_stack(self):
        got = self._assert_same(np.zeros((3, 2, 2)))
        assert got.rank == 0 and not got.singular_values.any()
