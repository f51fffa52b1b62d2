"""Scalar decay profiles.

A DecayProfile is the numerical surrogate for a "tends to zero at
infinity" claim: an ordered list of (parameter, value) pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DecayProfile:
    params: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.params, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if p.shape != v.shape or p.ndim != 1:
            raise ValueError("params and values must be 1d arrays of equal length")
        if p.size > 1 and not np.all(np.diff(p) > 0):
            raise ValueError("params must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("profile values must be nonnegative")
        self.params, self.values = p, v

    def __len__(self) -> int:
        return int(self.params.size)
