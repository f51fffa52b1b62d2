"""Numerical defaults and small linear-algebra helpers.

All arithmetic in the package is double-precision complex.  Two tolerance
scales are used throughout: DEFAULT_EQ_TOL for equality of computed
quantities, DEFAULT_ZERO_TOL for rank decisions and "vanishes nowhere"
thresholds (always relative to the largest magnitude present).

Spectral norms and singular values of the sequence-space and grid models
(topology probes, compactness trends, grid operator norms) come from one
routine, :func:`entry_singular_values`.  It reads entries, not cells:
finiteness and the block split come from a list of cells covering the
nonzero ones, and a cell function reads each block (:func:`singular_values`
lists a matrix's nonzero cells in one scan; the topology probe lists one
item's, or two items' and reads A_i - A_j there).  Rows and columns are grouped into the
connected components of the bipartite graph of the exact nonzero pattern
(never thresholded); each diagonal block of the permuted matrix is taken
alone, and equally shaped blocks take one batched ``svd``.  Nothing is
discarded, so the values are exact SVDs of the exact blocks.

Dense random operators (``weyl.HilbertOp``) keep a plain SVD; only the norms of
``gridops.ModulationOrbit``, on its real symmetric Toeplitz base, take a structured route.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError

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
    """Numerical rank of the row span of `rows`, relative SVD threshold; a
    stack (blocks, R, C) is read as its block-diagonal matrix (one batched SVD).

    Ties near the threshold are flagged as warnings rather than silently
    classified.
    """
    mat = np.asarray(rows, dtype=complex)
    if mat.size == 0:
        return RankResult(0, np.zeros(0))
    svals = np.sort(np.linalg.svd(mat, compute_uv=False), axis=None)[::-1]
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


def seeded_uniform(seed: int, shape, start: int = 0) -> np.ndarray:
    """Entries start, start + 1, ... (C order) of the SplitMix64 stream of a seed in [0, 2^64):
    entry k is mix(seed + (k + 1) gamma mod 2^64) as (mix >> 11) 2^-52 - 1 in [-1, 1), by exact
    uint64 arithmetic and a dyadic scaling, so the bits are the same on every CPU."""
    if not 0 <= seed < 2**64:
        raise PreconditionError(f"seed must be in [0, 2**64), got {seed}")
    z = np.arange(start + 1, start + 1 + np.prod(shape, dtype=int), dtype=np.uint64)
    z *= 0x9E3779B97F4A7C15  # in place throughout: one uint64 temporary at a time
    z += seed
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= mult
    z ^= z >> 31
    z >>= 11
    return z.reshape(shape) * 2.0**-52 - 1.0


def singular_values(m) -> np.ndarray:
    """All min(R, C) singular values of a finite R x C matrix, descending.

    The matrix is split exactly into the connected components of the
    bipartite row-column graph of its nonzero pattern; equally shaped blocks
    are stacked and take one batched SVD.  Non-finite entries raise
    ValueError.
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
    if out.size == 0 or not nonzero.any():
        return out
    stacks = _block_stacks(shape, rows[nonzero], cols[nonzero], cells)
    vals = np.concatenate([np.linalg.svd(s, compute_uv=False).ravel() for s in stacks])
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
