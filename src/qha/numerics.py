"""Numerical defaults and small linear-algebra helpers.

All arithmetic in the package is double-precision complex.  Two tolerance
scales are used throughout: DEFAULT_EQ_TOL for equality of computed
quantities, DEFAULT_ZERO_TOL for rank decisions and "vanishes nowhere"
thresholds (always relative to the largest magnitude present).
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

