"""Convergence-topology probes for sequences of windowed/grid operators.

A probe classifies the strongest of three topologies in which the tail of
an operator sequence is Cauchy within a tolerance: operator norm, strong*
(vector seminorms ||Bv|| and ||B*v|| over a test set), or weak* (pairings
|<Bu, w>| against normalized rank-one trace-class tests).  Test vectors are
normalized in the weighted l2 norm and trace tests in trace norm, so the
hierarchy norm => strong* => weak* holds for the measured quantities.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import PreconditionError
from ..numerics import spectral_norm
from .gridops import GridOperator, ModulationOrbit, box_convolution_operator
from .windowed import WindowedZOperator, halmos_operator, parity_window, shift_operator

CLASSIFICATIONS = ("norm", "strong*", "weak*", "divergent")


@dataclass
class ProbeRow:
    i: int
    j: int
    norm_diff: float
    strongstar_diff: float
    weakstar_diff: float


@dataclass
class TopologyProbeResult:
    classification: str
    tail_start: int
    rows: list[ProbeRow]

    def tail_max(self, kind: str) -> float:
        vals = [
            getattr(r, kind) for r in self.rows if r.i >= self.tail_start and r.j >= self.tail_start
        ]
        return float(np.max(vals, initial=0.0))  # a NaN propagates and fails every <= tol

    def all_min(self, kind: str) -> float:
        vals = [getattr(r, kind) for r in self.rows]
        return min(vals) if vals else 0.0


def _normalize(vec: np.ndarray, weight: float) -> np.ndarray:
    nrm = np.sqrt(weight) * np.linalg.norm(vec)
    if nrm == 0:
        raise ValueError("test vectors must be nonzero")
    return np.asarray(vec, dtype=complex) / nrm


def _coerce_sequence(sequence) -> tuple[list[np.ndarray], float]:
    """Unwrap operator objects to matrices; return the inner-product weight.

    Windowed operators must share one window, grid operators one grid; a
    modulation orbit carries its grid step; plain matrices pass through with
    weight 1.
    """
    if isinstance(sequence, ModulationOrbit):
        return list(sequence), float(sequence.h)
    first = sequence[0]
    if isinstance(first, WindowedZOperator):
        frame = (first.lo, first.hi)
        if any(not isinstance(op, WindowedZOperator) or (op.lo, op.hi) != frame
               for op in sequence):
            raise PreconditionError("windowed operators must share one window")
        return [op.matrix for op in sequence], 1.0
    if isinstance(first, GridOperator):
        frame = (first.h, first.x_lo, first.x_hi)
        if any(not isinstance(op, GridOperator) or (op.h, op.x_lo, op.x_hi) != frame
               for op in sequence):
            raise PreconditionError("grid operators must share one grid")
        return [op.matrix for op in sequence], float(first.h)
    return [np.asarray(m, dtype=complex) for m in sequence], 1.0


def topology_probe(
    sequence,
    test_vectors: list[np.ndarray],
    trace_tests: list[tuple[np.ndarray, np.ndarray]],
    tol: float,
    weight: float | None = None,
) -> TopologyProbeResult:
    """Classify the strongest topology whose pairwise differences over the
    second half of the sequence (the tail) stay within tol (finite and >= 0).

    The sequence may hold windowed operators, grid operators (their common
    window/grid is validated and the grid quadrature weight is picked up
    automatically), or plain matrices, or be a ModulationOrbit, for which one
    spectral norm per shift difference j - i serves every pair.  trace_tests
    are (u, w) pairs standing for the rank-one pairing B -> <Bu, w> in the
    weighted inner product; both factors are normalized so the pairing is
    dominated by the operator norm.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise PreconditionError(f"tolerance must be finite and >= 0, got {tol}")
    if not len(sequence):
        raise ValueError("empty operator sequence")
    if not test_vectors or not trace_tests:
        raise ValueError("need nonempty test vector and trace test sets")
    matrices, inferred = _coerce_sequence(sequence)
    if weight is None:
        weight = inferred
    vecs = [_normalize(v, weight) for v in test_vectors]
    pairs = [(_normalize(u, weight), _normalize(w, weight)) for u, w in trace_tests]

    count = len(matrices)
    tail_start = min(count - 1, (count + 1) // 2)
    orbit = isinstance(sequence, ModulationOrbit)
    norms: dict = {}
    rows: list[ProbeRow] = []
    for i in range(count):
        for j in range(i + 1, count):
            d = matrices[i] - matrices[j]
            key = j - i if orbit else (i, j)
            if key not in norms:
                norms[key] = spectral_norm(d)
            nd = norms[key]
            sd = 0.0
            for v in vecs:
                sd = max(sd, np.sqrt(weight) * float(np.linalg.norm(d @ v)))
                # ||d* v|| = ||v* d||, since d* v = conj(v* d): no adjoint copy
                sd = max(sd, np.sqrt(weight) * float(np.linalg.norm(v.conj() @ d)))
            wd = 0.0
            for u, w in pairs:
                wd = max(wd, abs(weight * np.vdot(w, d @ u)))
            rows.append(ProbeRow(i, j, nd, sd, float(wd)))
    result = TopologyProbeResult("divergent", tail_start, rows)
    kinds = ("norm_diff", "strongstar_diff", "weakstar_diff")
    result.classification = next(
        (cls for kind, cls in zip(kinds, CLASSIFICATIONS) if result.tail_max(kind) <= tol),
        "divergent",
    )
    return result


@dataclass
class ProbeCase:
    """A canonical operator sequence plus its test sets."""

    matrices: Sequence[np.ndarray]
    test_vectors: list[np.ndarray]
    trace_tests: list[tuple[np.ndarray, np.ndarray]]
    weight: float


def halmos_shift_case(
    blocks: int = 8, steps: int = 8, theta_points: int = 16, seed: int = 0
) -> ProbeCase:
    """Right-shifted copies of the block projection, spaced one full support
    apart: unit operator norm forever, vanishing action on any fixed vector."""
    total = blocks * (blocks + 1) // 2
    pad = blocks
    hi = total * steps + total - 1
    base = halmos_operator(blocks)
    window = WindowedZOperator(-pad, hi, _embed(base, -pad, hi))
    thetas = 2 * np.pi * np.arange(theta_points) / theta_points
    mats = []
    shifts = [total * i for i in range(steps)]
    for i, k in enumerate(shifts):
        mats.append(shift_operator(window, k, float(thetas[i % theta_points])).matrix)
    size = window.size
    rng = np.random.default_rng(seed)
    vecs = []
    for t in (0, 1, total // 2):
        e = np.zeros(size)
        e[t - window.lo] = 1.0
        vecs.append(e)
    v = np.zeros(size, dtype=complex)
    v[-window.lo : -window.lo + total] = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    vecs.append(v)
    tests = [(vecs[0], vecs[1]), (vecs[-1], vecs[0])]
    return ProbeCase(mats, vecs, tests, 1.0)


def parity_shift_case(
    half_width: int = 200, support: int = 10, step: int = 12, steps: int = 8,
    theta_points: int = 16, seed: int = 0,
) -> ProbeCase:
    """Shifted reflections: every item is a partial isometry preserving the
    norm of centrally supported vectors exactly, yet all pairings with fixed
    trace-class tests die off."""
    if 2 * (step * (steps - 1)) + support > half_width:
        raise PreconditionError("window too small for the requested shifts")
    refl = parity_window(-half_width, half_width)
    thetas = 2 * np.pi * np.arange(theta_points) / theta_points
    mats = [
        shift_operator(refl, step * i, float(thetas[i % theta_points])).matrix
        for i in range(steps)
    ]
    size = refl.size
    rng = np.random.default_rng(seed)
    vecs = []
    for _ in range(2):
        v = np.zeros(size, dtype=complex)
        span = slice(half_width - support, half_width + support + 1)
        v[span] = rng.standard_normal(2 * support + 1) + 1j * rng.standard_normal(2 * support + 1)
        vecs.append(v)
    tests = [(vecs[0], vecs[1]), (vecs[1], vecs[0])]
    return ProbeCase(mats, vecs, tests, 1.0)


def box_modulation_case(
    h: float = 0.02, half_width: float = 6.0, freq_step: float = 12.0, steps: int = 9,
    gauss_width: float = 0.8,
) -> ProbeCase:
    """Frequency-conjugated box smoothing: constant spectral norm (unitary
    equivalence) while the action on a fixed Gaussian fades with frequency."""
    box = box_convolution_operator(h, -half_width, half_width)
    grid = box.grid()
    mats = ModulationOrbit(box, freq_step, steps)
    gauss = np.exp(-(grid**2) / (2 * gauss_width**2))
    bump = np.exp(-((grid - 1.0) ** 2) / (2 * gauss_width**2))
    vecs = [gauss, bump]
    tests = [(gauss, bump), (bump, gauss)]
    return ProbeCase(mats, vecs, tests, h)


def _embed(op: WindowedZOperator, lo: int, hi: int) -> np.ndarray:
    """Zero-pad a windowed operator into the larger window [lo, hi]."""
    if lo > op.lo or hi < op.hi:
        raise PreconditionError("target window must contain the source window")
    size = hi - lo + 1
    out = np.zeros((size, size), dtype=complex)
    o = op.lo - lo
    out[o : o + op.size, o : o + op.size] = op.matrix
    return out


PROBE_CASES = {
    "halmos-shift": halmos_shift_case,
    "parity-shift": parity_shift_case,
    "box-modulation": box_modulation_case,
}
