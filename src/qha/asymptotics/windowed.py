"""Finite compressions of operators on two-sided sequence space.

A WindowedZOperator is a matrix over an explicit integer index window
{lo..hi}; shifting and reflecting act by compression (entries pushed past
the window are truncated), so every diagnostic that claims exactness must
be read on a boundary-free interior range.  A real matrix stays real.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import PreconditionError, check_memory
from ..numerics import singular_values
from .profiles import DecayProfile


@dataclass
class WindowedFunction:
    """Complex sequence supported on a window of the integer lattice."""

    lo: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 1:
            raise ValueError("windowed function values must be one-dimensional")
        if not np.isfinite(self.values).all():
            raise ValueError("windowed function values must be finite")

    @property
    def hi(self) -> int:
        return self.lo + self.values.size - 1

    def support(self) -> tuple[int, int]:
        """Smallest index interval carrying all nonzero entries."""
        nz = np.flatnonzero(np.abs(self.values) > 0)
        if nz.size == 0:
            return (0, -1)
        return (self.lo + int(nz[0]), self.lo + int(nz[-1]))


@dataclass
class WindowedZOperator:
    lo: int
    hi: int
    matrix: np.ndarray

    def __post_init__(self):
        size = self.hi - self.lo + 1
        mat = np.asarray(self.matrix, dtype=complex if np.iscomplexobj(self.matrix) else float)
        if mat.shape != (size, size):
            raise ValueError(f"matrix shape {mat.shape} does not match window size {size}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        self.matrix = mat

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def indices(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)


def halmos_operator(blocks: int, pad: int = 0) -> WindowedZOperator:
    """Block operator: block n is the n x n matrix with all entries 1/n.

    Blocks n = 1..blocks sit on consecutive indices starting at 0; indices
    below 0 (the pad region) are zero.  The result is an orthogonal
    projection of rank `blocks` on its window, and the columns of block n
    have l2 norm 1/sqrt(n) (:func:`halmos_column_profile` gives them without
    the matrix).  The S x S matrix and its column and row profiles peak at 16
    bytes an entry: unpadded, blocks <= 127 fits MEMORY_BUDGET.
    """
    if blocks < 1:
        raise PreconditionError("halmos_operator needs at least one block")
    if pad < 0:
        raise PreconditionError("pad must be nonnegative")
    total = blocks * (blocks + 1) // 2
    size = pad + total
    check_memory(16 * size**2, f"a block projection on {size} points")
    mat = np.zeros((size, size))
    start = pad
    for n in range(1, blocks + 1):
        mat[start : start + n, start : start + n] = 1.0 / n
        start += n
    return WindowedZOperator(-pad, total - 1, mat)


def halmos_column_profile(blocks: int) -> DecayProfile:
    """The column profile of column_row_profiles(halmos_operator(blocks)), in
    O(S) without the matrix, bit for bit: each of block n's n columns holds n
    entries 1/n, and their squares are added in row order, as the dense
    column sum adds them.  With the CSV rows ``qha example halmos`` makes of
    it, a point takes about 320 bytes: blocks <= 2,590 fits MEMORY_BUDGET.
    """
    if blocks < 1:
        raise PreconditionError("halmos_column_profile needs at least one block")
    total = blocks * (blocks + 1) // 2
    check_memory(320 * total, f"a block-projection profile on {total} points")
    norms = [np.sqrt(np.cumsum(np.full(n, 1.0 / n) ** 2)[-1]) for n in range(1, blocks + 1)]
    return DecayProfile(np.arange(total, dtype=float), np.repeat(norms, np.arange(1, blocks + 1)))


class ShiftedCopies(Sequence):
    """Items e^(i t j) B[j - k, l - k] e^(-i t l) on the window {lo..hi}: shifts
    by (k, e^(i t)) of a real base B, compressed, held as B's nonzero entries
    (window positions, row-major, and values) and each item's (k, t).  A cell,
    zero or not, is (p[j] B[j - k, l - k]) conj(p[l]) for p = e^(i t j), as in
    the dense compression, bit for bit; the window truncates the rest."""

    def __init__(self, lo: int, hi: int, rows, cols, vals, moves: list[tuple[int, float]]):
        self._lo, self._size, self._base, self._moves = lo, hi - lo + 1, (rows, cols, vals), moves

    def __len__(self) -> int:
        return len(self._moves)

    def __getitem__(self, k):  # items built dense, from their cell functions
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        return self.item_form(k, *2 * [np.zeros((0, self._size))])[0][2](slice(None), slice(None))

    def item_form(self, k: int, right: np.ndarray, left: np.ndarray):
        """((shape, sorted nonzero flat indices, cells), A r, l* A) of item k, in O(nnz)."""
        (shift, theta), (rows, cols, vals), size = self._moves[k], self._base, self._size
        if right.shape[-1] != size or left.shape[-1] != size:
            raise ValueError(f"test vectors must have the window's {size} entries")
        keep = (np.minimum(rows, cols) + shift >= 0) & (np.maximum(rows, cols) + shift < size)
        rows, cols = rows[keep] + shift, cols[keep] + shift
        flat, vals = np.append(rows * size + cols, -1), np.append(vals[keep], 0.0)  # end marks
        phase = np.exp(1j * theta * np.arange(self._lo, self._lo + size))

        def cells(ri, ci):
            if isinstance(ri, slice):
                ri, ci = np.arange(size)[ri, None], np.arange(size)[None, ci]
            cell = ri * size + ci
            at = np.searchsorted(flat[:-1], cell)
            at[flat[at] != cell] = -1  # no entry there: the 0.0 end mark
            out = phase[ri] * vals[at]
            return np.multiply(out, phase[ci].conj(), out=out)

        terms, out = cells(rows, cols), [np.zeros((len(x), size), dtype=complex) for x in (right, left)]
        np.add.at(out[0], (slice(None), rows), terms * right[:, cols])
        np.add.at(out[1], (slice(None), cols), left.conj()[:, rows] * terms)
        return ((size, size), flat[:-1], cells), *out


def column_row_profiles(op: WindowedZOperator) -> tuple[DecayProfile, DecayProfile]:
    """l2 norms of the columns (indexed by k) and rows (indexed by j)."""
    cols = np.sqrt((np.abs(op.matrix) ** 2).sum(axis=0))
    rows = np.sqrt((np.abs(op.matrix) ** 2).sum(axis=1))
    idx = op.indices().astype(float)
    return DecayProfile(idx, cols), DecayProfile(idx, rows)


@dataclass
class B0Verdict:
    consistent: bool
    max_outer_column: float
    max_outer_row: float


def b0_diagnostic(op: WindowedZOperator, tol: float, margin: int) -> B0Verdict:
    """Vanishing-at-infinity consistency check.

    Consistent when both the column and row l2-norm profiles are <= tol on
    the outer region {|index| >= margin} of the window.  The margin must
    leave a nonempty outer region.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise PreconditionError(f"tol must be finite and positive, got {tol}")
    outer = np.abs(op.indices()) >= margin
    if not outer.any():
        raise PreconditionError(
            f"margin {margin} leaves no outer region in window [{op.lo}, {op.hi}]"
        )
    col_profile, row_profile = column_row_profiles(op)
    max_col = float(col_profile.values[outer].max())
    max_row = float(row_profile.values[outer].max())
    return B0Verdict(
        consistent=(max_col <= tol and max_row <= tol),
        max_outer_column=max_col,
        max_outer_row=max_row,
    )


@dataclass
class CompactnessTrend:
    counts: list[int]
    verdict: str  # 'non-compact-trend' | 'compact-consistent' | 'inconclusive'


def compactness_proxy(builder, sizes: list[int], epsilon: float) -> CompactnessTrend:
    """Count singular values >= epsilon across a family of growing models.

    Counts that keep growing signal non-compactness; counts that stabilize
    are consistent with compactness.  A finite window can only ever witness
    a trend, not certify the limit.
    """
    if not 0 < epsilon < 1:
        raise PreconditionError("epsilon must lie in (0, 1)")
    if sorted(sizes) != list(sizes) or len(set(sizes)) != len(sizes):
        raise PreconditionError("sizes must be strictly increasing")
    counts = []
    for size in sizes:
        svals = singular_values(builder(size).matrix)
        counts.append(int(np.count_nonzero(svals >= epsilon)))
    if len(counts) >= 2 and all(b > a for a, b in zip(counts, counts[1:])):
        verdict = "non-compact-trend"
    elif len(counts) >= 2 and counts[-1] == counts[-2]:
        verdict = "compact-consistent"
    else:
        verdict = "inconclusive"
    return CompactnessTrend(counts, verdict)
