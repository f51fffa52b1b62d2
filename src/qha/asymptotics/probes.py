"""Convergence-topology probes for sequences of windowed/grid operators.

A probe classifies the strongest of three topologies in which the tail of
an operator sequence is Cauchy within a tolerance: operator norm, strong*
(vector seminorms ||Bv|| and ||B*v|| over a test set), or weak* (pairings
|<Bu, w>| against normalized rank-one trace-class tests).  Test vectors are
normalized in plain l2 and trace tests in trace norm, so the hierarchy
norm => strong* => weak* holds for the measured quantities.  The probe takes
no quadrature weight: a uniform weight scales every norm, every pairing and
every normalization alike, so it cancels in each reported quantity.  The
vector quantities come from per-item products, (A_i - A_j) v = A_i v - A_j v.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import PreconditionError
from ..numerics import entry_singular_values
from .gridops import ModulationOrbit, box_convolution_operator
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


def _normalize(vec: np.ndarray) -> np.ndarray:
    """vec / ||vec|| in plain l2: a uniform weight would cancel in every probe quantity."""
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        raise ValueError("test vectors must be nonzero")
    return np.asarray(vec, dtype=complex) / nrm


def topology_probe(
    sequence,
    test_vectors: list[np.ndarray],
    trace_tests: list[tuple[np.ndarray, np.ndarray]],
    tol: float,
) -> TopologyProbeResult:
    """Classify the strongest topology whose pairwise differences over the
    second half of the sequence (the tail) stay within tol (finite and >= 0).

    The sequence is a list of matrices or a ModulationOrbit.  An orbit builds
    no item: its products come from its real base, and one norm per shift
    difference j - i, ``ModulationOrbit.difference_norm``, serves every pair.
    A list takes one norm per pair, reading A_i - A_j only on the cells where
    A_i or A_j is nonzero, and stays the independent route.  trace_tests
    are (u, w) pairs standing for the rank-one pairing B -> <Bu, w>; both
    factors are normalized so the pairing is dominated by the operator norm.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise PreconditionError(f"tolerance must be finite and >= 0, got {tol}")
    if not len(sequence):
        raise ValueError("empty operator sequence")
    if not test_vectors or not trace_tests:
        raise ValueError("need nonempty test vector and trace test sets")
    vecs = [_normalize(v) for v in test_vectors]
    pairs = [(_normalize(u), _normalize(w)) for u, w in trace_tests]

    count = len(sequence)
    tail_start = min(count - 1, (count + 1) // 2)
    # (A_i - A_j) v = A_i v - A_j v: each item's products A v, A u and v* A
    # (||d* v|| = ||v* d||) are taken once.  An orbit gives them, and
    # ||M_0 - M_k||, from its real base; a list keeps each item's nonzero
    # flat indices and reads every pair's norm from them.
    rights = vecs + [u for u, _ in pairs]
    if isinstance(sequence, ModulationOrbit):
        right, left = sequence.products(np.stack(rights), np.stack(vecs))
        by_shift = [0.0] + [sequence.difference_norm(k) for k in range(1, count)]
        norm = {(i, j): by_shift[j - i] for i in range(count) for j in range(i + 1, count)}
    else:
        right, left, items = [], [], []
        for k in range(count):
            item = np.asarray(sequence[k])
            item = item.astype(complex if np.iscomplexobj(item) else float, copy=False)
            right.append(np.stack([item @ r for r in rights]))
            left.append(np.stack([v.conj() @ item for v in vecs]))
            items.append((item, np.flatnonzero(item != 0)))
        norm = {(i, j): _difference_norm(items[i], items[j])
                for i in range(count) for j in range(i + 1, count)}
    nv = len(vecs)
    rows: list[ProbeRow] = []
    for i in range(count):
        for j in range(i + 1, count):
            dr, dl = right[i] - right[j], left[i] - left[j]
            sd = max(0.0, *(float(np.linalg.norm(x)) for x in (*dr[:nv], *dl)))
            wd = max(0.0, *(float(abs(np.vdot(w, x))) for (_, w), x in zip(pairs, dr[nv:])))
            rows.append(ProbeRow(i, j, norm[i, j], sd, wd))
    result = TopologyProbeResult("divergent", tail_start, rows)
    kinds = ("norm_diff", "strongstar_diff", "weakstar_diff")
    result.classification = next(
        (cls for kind, cls in zip(kinds, CLASSIFICATIONS) if result.tail_max(kind) <= tol),
        "divergent",
    )
    return result


def _difference_norm(first, second) -> float:
    """||A - B|| read on the sorted union of A's and B's nonzero flat indices,
    each cell the dense difference's own, signed zeros included."""
    (a, flat_a), (b, flat_b) = first, second
    flat = np.concatenate([flat_a, flat_b])
    flat.sort()
    # A sorted union without np.union1d, whose first call imports numpy.ma.
    flat = flat[np.diff(flat, prepend=-1) > 0]
    rows, cols = np.divmod(flat, a.shape[1])
    vals = entry_singular_values(a.shape, rows, cols, lambda ri, ci: a[ri, ci] - b[ri, ci])
    return float(vals.max(initial=0.0))


@dataclass
class ProbeCase:
    """A canonical operator sequence plus its test sets."""

    matrices: Sequence[np.ndarray]
    test_vectors: list[np.ndarray]
    trace_tests: list[tuple[np.ndarray, np.ndarray]]


def halmos_shift_case(
    blocks: int = 8, steps: int = 8, theta_points: int = 16, seed: int = 0
) -> ProbeCase:
    """Right-shifted copies of the block projection, spaced one full support
    apart: unit operator norm forever, vanishing action on any fixed vector."""
    total = blocks * (blocks + 1) // 2
    pad = blocks
    hi = total * steps + total - 1
    base = halmos_operator(blocks, pad)  # window [-pad, total - 1], zero-padded up to hi
    window = WindowedZOperator(-pad, hi, np.pad(base.matrix, (0, hi - base.hi)))
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
    return ProbeCase(mats, vecs, tests)


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
    return ProbeCase(mats, vecs, tests)


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
    return ProbeCase(mats, vecs, tests)


PROBE_CASES = {
    "halmos-shift": halmos_shift_case,
    "parity-shift": parity_shift_case,
    "box-modulation": box_modulation_case,
}
