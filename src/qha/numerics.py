"""Numerical defaults and small linear-algebra helpers.

All arithmetic in the package is double-precision complex.  Two tolerance
scales are used throughout: DEFAULT_EQ_TOL for equality of computed
quantities, DEFAULT_ZERO_TOL for rank decisions and "vanishes nowhere"
thresholds (always relative to the largest magnitude present).

Spectral norms and singular values of the sequence-space and grid models
(topology probes, compactness trends, grid operator norms) come from one
routine, :func:`entry_singular_values`.  It
reads entries, not cells: finiteness, the tolerance and the block split
come from a list of cells covering the nonzero ones, and a cell function
reads each block (:func:`singular_values` lists a matrix's nonzero cells in
one scan; the topology probe lists two items' and reads A_i - A_j there):

* exact block split: rows and columns are grouped into the connected
  components of the bipartite graph of the exact nonzero pattern (never
  thresholded), and each diagonal block of the permuted matrix is taken
  alone, equally shaped blocks in one batched LAPACK call;
* a complex block with ``J b J = conj(b)`` (J the exchange matrix) is made
  real by ``Q = (I + iJ)/sqrt(2)`` (Cantoni & Butler, Linear Algebra Appl.
  13, 1976), and a Hermitian (real symmetric) block goes to ``eigvalsh``;
* a real symmetric block with ``J b J = -b`` is split by the same authors'
  J-even/J-odd basis into ``[[0, X], [X^T, 0]]``: its singular values are
  those of the ceil(n/2) x floor(n/2) block X, each twice, from one
  half-size ``svd``;
* each shortcut is taken only when the part it discards, E, satisfies
  ``sqrt(||E||_1 ||E||_inf) <= 1e-12`` times the largest column norm of the
  matrix, so it moves no singular value by more than 1e-12 of the norm;
  the bound is a product of square roots, so it neither under- nor
  overflows at any scale of the entries;
* every other block takes a dense ``svd``.

The structure is read off the matrix; there is no flag to pass, except in
``gridops.ModulationOrbit.difference_norm``: the differences of an orbit of
an exactly symmetric Toeplitz base are real symmetric with ``J b J = -b`` bit
for bit, so it takes :func:`_even_odd_values` of the whole difference
directly.  Dense random operators (``weyl.HilbertOp``) keep a plain SVD.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_EQ_TOL = 1e-10
DEFAULT_ZERO_TOL = 1e-8

# Singular values within [band_lo, band_hi] * (tol * s_max) are too close to
# the rank threshold to classify reliably; they are reported, not decided.
_TIE_BAND = (0.1, 10.0)


@dataclass
class RankResult:
    rank: int
    singular_values: np.ndarray
    warnings: list[str] = field(default_factory=list)


def svd_rank(rows: np.ndarray, rel_tol: float = DEFAULT_ZERO_TOL) -> RankResult:
    """Numerical rank of the row span of `rows`, relative SVD threshold.

    Ties near the threshold are flagged as warnings rather than silently
    classified.
    """
    mat = np.asarray(rows, dtype=complex)
    if mat.size == 0:
        return RankResult(0, np.zeros(0))
    svals = np.linalg.svd(mat, compute_uv=False)
    smax = svals[0] if svals.size else 0.0
    if smax == 0.0:
        return RankResult(0, svals)
    cut = rel_tol * smax
    rank = int(np.count_nonzero(svals > cut))
    warnings = []
    near = svals[(svals > _TIE_BAND[0] * cut) & (svals < _TIE_BAND[1] * cut)]
    if near.size:
        warnings.append(
            f"{near.size} singular value(s) within a decade of the rank "
            f"threshold {cut:.3e}; rank decision may be unstable"
        )
    return RankResult(rank, svals, warnings)


# A structural shortcut may discard a part E of a block only while
# sqrt(||E||_1 ||E||_inf) >= ||E||_2 stays below this fraction of the
# largest column norm of the whole matrix, itself a lower bound on its
# spectral norm.  By Weyl's inequality every singular value then moves by
# at most that much.
_STRUCTURE_TOL = 1e-12


def singular_values(m) -> np.ndarray:
    """All min(R, C) singular values of a finite R x C matrix, descending.

    The matrix is split exactly into the connected components of the
    bipartite row-column graph of its nonzero pattern; equally shaped blocks
    are stacked, and each stack takes the cheapest route its structure allows
    (see the module docstring).  Non-finite entries raise ValueError.
    """
    mat = np.asarray(m)
    mat = mat.astype(complex if np.iscomplexobj(mat) else float, copy=False)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {mat.shape}")
    rows, cols = np.divmod(np.flatnonzero(mat != 0), mat.shape[1])
    return entry_singular_values(mat.shape, rows, cols, lambda ri, ci: mat[ri, ci])


def entry_singular_values(shape, rows, cols, cells) -> np.ndarray:
    """:func:`singular_values` of an R x C float or complex matrix read through
    ``cells(ri, ci)`` (the whole matrix for two full slices); (rows, cols)
    lists, in row-major order, cells that include every nonzero one."""
    vals = cells(rows, cols)
    if not np.isfinite(vals).all():  # NaN and inf are nonzero: they are listed
        raise ValueError("matrix entries must be finite")
    out = np.zeros(min(shape))
    nonzero = vals != 0
    rows, cols, power = rows[nonzero], cols[nonzero], np.abs(vals[nonzero])
    if out.size == 0 or power.size == 0:
        return out
    top = float(power.max())
    power /= top  # no overflow in the squares
    power *= power
    # bincount adds each column's squares in row order, as a dense column sum would.
    tol = _STRUCTURE_TOL * top * float(np.sqrt(np.bincount(cols, weights=power).max()))
    stacks = _block_stacks(shape, rows, cols, cells)
    vals = np.concatenate([_stack_values(s, tol).ravel() for s in stacks])
    out[: vals.size] = np.sort(vals)[::-1]
    return out


def spectral_norm(m) -> float:
    """Operator 2-norm of a finite matrix (0 for an empty one), through
    :func:`singular_values`."""
    vals = singular_values(m)
    return float(vals[0]) if vals.size else 0.0


def _components(rows: np.ndarray, cols: np.ndarray, shape) -> np.ndarray:
    """Component label of every row, then every column, of the bipartite
    graph of an R x C pattern whose edges are the cells (rows, cols).

    Each round hooks the larger label of every edge whose ends disagree onto
    the smaller one, then jumps every label to its root.  Labels only shrink,
    so the rounds end; edges whose ends agree stay agreed and are dropped.
    """
    n_rows = shape[0]
    cols = cols + n_rows
    label = np.arange(n_rows + shape[1])
    while rows.size:
        lr, lc = label[rows], label[cols]
        differ = lr != lc
        rows, cols, lr, lc = rows[differ], cols[differ], lr[differ], lc[differ]
        np.minimum.at(label, np.maximum(lr, lc), np.minimum(lr, lc))
        while True:
            root = label[label]
            if np.array_equal(root, label):
                break
            label = root
    return label


def _block_stacks(shape, rows: np.ndarray, cols: np.ndarray, cells):
    """Yield the diagonal blocks, read through `cells`, of the matrix with
    nonzero cells (rows, cols) permuted to block-diagonal form, as stacks of
    equally shaped blocks.  Empty rows and columns only add zero singular
    values and are left out."""
    n_rows, n_cols = shape
    label = _components(rows, cols, shape)
    # np.unique would do, but its first call imports numpy.ma (~35 ms).
    root = label == np.arange(label.size)
    count = int(root.sum())
    if count == 1:
        yield cells(slice(None), slice(None))[None]
        return
    comp = np.cumsum(root)[label] - 1
    row_comp, col_comp = comp[:n_rows], comp[n_rows:]
    r_count = np.bincount(row_comp, minlength=count)
    c_count = np.bincount(col_comp, minlength=count)
    keys = np.where((r_count > 0) & (c_count > 0), r_count * (n_cols + 1) + c_count, -1)
    r_order = np.argsort(row_comp, kind="stable")
    c_order = np.argsort(col_comp, kind="stable")
    r_start = np.cumsum(r_count) - r_count
    c_start = np.cumsum(c_count) - c_count
    for key in sorted(set(keys[keys >= 0].tolist())):
        ks = np.flatnonzero(keys == key)
        r, c = divmod(key, n_cols + 1)
        ri = r_order[r_start[ks][:, None] + np.arange(r)]
        ci = c_order[c_start[ks][:, None] + np.arange(c)]
        yield cells(ri[:, :, None], ci[:, None, :])


def _bound(e: np.ndarray) -> float:
    """Largest sqrt(||E||_1 ||E||_inf) over a stack of |E| blocks, as a product
    of square roots: the product of the norms under- or overflows at 1e+-200."""
    return float((np.sqrt(e.sum(axis=-2).max(axis=-1)) * np.sqrt(e.sum(axis=-1).max(axis=-1))).max())


def _stack_values(stack: np.ndarray, tol: float) -> np.ndarray:
    """Singular values of every block of a stack, shape (blocks, min(r, c)).

    A complex stack with J b J = conj(b) (J the exchange matrix) within tol
    is carried to a real stack by Q = (I + iJ)/sqrt(2): Q* b Q has real part
    (X + J X J + J Y - Y J)/2 and imaginary part (Y + J Y J + X J - J X)/2
    for b = X + iY, and only the imaginary part is discarded.
    """
    if np.iscomplexobj(stack):
        x, y = stack.real, stack.imag
        e = y + y[..., ::-1, ::-1]
        e += x[..., :, ::-1]
        e -= x[..., ::-1, :]
        centro = 0.5 * _bound(np.abs(e, out=e)) <= tol
        del e
        if centro:
            real = x + x[..., ::-1, ::-1]
            real += y[..., ::-1, :]
            real -= y[..., :, ::-1]
            real *= 0.5
            return _stack_values(real, tol)
    if stack.shape[-1] == stack.shape[-2]:
        # eigvalsh reads the lower triangle only: it discards the strictly
        # upper part of b - b* and the imaginary diagonal, both dominated
        # entrywise by |b - b*|.
        if np.iscomplexobj(stack):
            x, y = stack.real, stack.imag
            skew = x - x.swapaxes(-1, -2)
            np.hypot(skew, y + y.swapaxes(-1, -2), out=skew)
        else:
            skew = stack - stack.swapaxes(-1, -2)
            np.abs(skew, out=skew)
        hermitian = _bound(skew) <= tol
        del skew
        if hermitian:
            if not np.iscomplexobj(stack) and stack.shape[-1] > 1 and _j_odd(stack, tol):
                return _even_odd_values(stack)
            return np.abs(np.linalg.eigvalsh(stack))
    return np.linalg.svd(stack, compute_uv=False)


def _j_odd(stack: np.ndarray, tol: float) -> bool:
    """Whether J b J = -b holds within tol: the J-even part E = (b + J b J)/2
    that the even-odd split discards passes the bound.  An entry of E is at
    most ||E||_2, so one scalar refuses most stacks before any array exists."""
    if abs(stack[0, 0, 0] + stack[0, -1, -1]) > 2.0 * tol:
        return False
    e = stack + stack[..., ::-1, ::-1]
    return 0.5 * _bound(np.abs(e, out=e)) <= tol


def _even_odd_values(stack: np.ndarray) -> np.ndarray:
    """Singular values of a real symmetric stack with J b J = -b.

    In the orthonormal basis of J-even vectors (e_i + e_(n-1-i))/sqrt(2), and
    e_m for odd n = 2m + 1, then J-odd vectors (e_i - e_(n-1-i))/sqrt(2), b is
    [[0, X], [X^T, 0]]: b carries each parity to the other.  So b has the
    singular values of the ceil(n/2) x floor(n/2) block X twice, and one zero
    for odd n; only the J-even part (b + J b J)/2 is discarded.
    """
    n = stack.shape[-1]
    m, r = n // 2, n - n // 2
    top, bottom = stack[..., :r, :], stack[..., ::-1, :][..., :r, :]
    # X = ((b + J b)[:r] - ((b + J b) J)[:r])[:, :m] / 2, one column half at a time.
    x = top[..., :m] + bottom[..., :m]
    x -= top[..., ::-1][..., :m] + bottom[..., ::-1][..., :m]
    x *= 0.5
    if r > m:
        x[..., m, :] *= np.sqrt(0.5)  # the middle row was counted twice
    vals = np.linalg.svd(x, compute_uv=False)
    return np.concatenate([vals, vals, np.zeros(vals.shape[:-1] + (r - m,))], axis=-1)
