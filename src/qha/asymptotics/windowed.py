"""Finite compressions of operators on two-sided sequence space.

A WindowedZOperator is a matrix over an explicit integer index window
{lo..hi}; shifting and reflecting act by compression (entries pushed past
the window are truncated), so every diagnostic that claims exactness must
be read on a boundary-free interior range.  A real matrix stays real.
"""
from __future__ import annotations

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
    have l2 norm 1/sqrt(n).  The S x S matrix and its column and row profiles
    (``qha example halmos``) peak at 16 bytes an entry: unpadded, blocks <= 127
    fits MEMORY_BUDGET.
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


def identity_window(lo: int, hi: int) -> WindowedZOperator:
    return WindowedZOperator(lo, hi, np.eye(hi - lo + 1))


def point_mass_operator(lo: int, hi: int, at: int = 0) -> WindowedZOperator:
    """Rank-one delta_at (x) delta_at compression."""
    size = hi - lo + 1
    mat = np.zeros((size, size))
    mat[at - lo, at - lo] = 1.0
    return WindowedZOperator(lo, hi, mat)


def diagonal_decay_operator(size: int) -> WindowedZOperator:
    """diag(1, 1/2, ..., 1/size): compact-consistent reference."""
    return WindowedZOperator(0, size - 1, np.diag(1.0 / np.arange(1, size + 1)))


def parity_window(lo: int, hi: int) -> WindowedZOperator:
    """Reflection about 0; needs a symmetric window lo = -hi."""
    if lo != -hi:
        raise PreconditionError("parity needs a symmetric window lo == -hi")
    size = hi - lo + 1
    mat = np.zeros((size, size))
    j = np.arange(lo, hi + 1)
    mat[j - lo, (-j) - lo] = 1.0
    return WindowedZOperator(lo, hi, mat)


def shift_operator(op: WindowedZOperator, k: int, theta: float = 0.0) -> WindowedZOperator:
    """Phase-space shift by (k, e^(i theta)) acting by compression.

    New entries are e^(i theta (j-l)) a(j-k, l-k); whatever leaves the
    window is truncated.
    """
    size = op.size
    out = np.zeros((size, size), dtype=complex)
    # rows/cols j with j-k inside the window; |k| >= size shifts everything out
    d0 = max(0, k)
    d1 = min(size, size + k)
    if d1 > d0:
        s0, s1 = d0 - k, d1 - k
        out[d0:d1, d0:d1] = op.matrix[s0:s1, s0:s1]
    j = np.arange(op.lo, op.hi + 1)
    phase = np.exp(1j * theta * j)
    out = phase[:, None] * out * phase.conj()[None, :]
    return WindowedZOperator(op.lo, op.hi, out)


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
    if tol <= 0:
        raise PreconditionError("tol must be positive")
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
