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
Items come as a ModulationOrbit, a ShiftedCopies held as its base's nonzero
entries, or a list of dense matrices (the independent route).  Pairs of items
apart in rows and in columns take O(count) item norms, not one SVD per pair.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import PreconditionError, check_memory
from ..numerics import entry_singular_values
from .gridops import ModulationOrbit, box_convolution_operator
from .windowed import ShiftedCopies, halmos_operator

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

    The sequence is a ModulationOrbit, a ShiftedCopies or a list of matrices.
    An orbit builds no item: products come from its base, and one norm per shift
    difference j - i (``ModulationOrbit.difference_norm``) serves every pair.
    Any other item gives its nonzero flat indices, cell function and products.
    Items on disjoint row ranges and disjoint column ranges differ by a direct
    sum: their pair's norm is max(||A_i||, ||A_j||), each item norm read once.
    Any other pair's norm reads A_i - A_j where A_i or A_j is nonzero.  trace_tests
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
    # (||d* v|| = ||v* d||) are taken once.
    rights, lefts = np.stack(vecs + [u for u, _ in pairs]), np.stack(vecs)
    per_entry = 32 if isinstance(sequence, ShiftedCopies) else 56  # bytes, by route (tracemalloc)
    check_memory(per_entry * count * (rights.size + lefts.size), f"the products of {count:,} items")
    if isinstance(sequence, ModulationOrbit):
        right, left = sequence.products(rights, lefts)
        by_shift = [0.0] + [sequence.difference_norm(k) for k in range(1, count)]
        norm = {(i, j): by_shift[j - i] for i in range(count) for j in range(i + 1, count)}
    else:
        form = (sequence.item_form if isinstance(sequence, ShiftedCopies)
                else lambda k, *tests: _matrix_form(sequence[k], *tests))
        items, right, left = zip(*(form(k, rights, lefts) for k in range(count)))
        # First and last row, and column, of each item's nonzero cells (R or C, and -1, for none).
        ends = np.array([[(x.min(initial=n), x.max(initial=-1)) for x, n in zip(np.divmod(f, s[1]), s)]
                         for s, f, _ in items])
        lo, hi = ends[..., 0], ends[..., 1]
        apart = ((hi[:, None] < lo) | (hi < lo[:, None])).all(axis=2)
        alone = {k: _difference_norm(items[k]) for k in np.flatnonzero(apart.any(axis=0))}
        norm = {(i, j): max(alone[i], alone[j]) if apart[i, j] else _difference_norm(items[i], items[j])
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


def _matrix_form(item, right: np.ndarray, left: np.ndarray):
    """``ShiftedCopies.item_form`` of a plain matrix, by scan, gather and matvec."""
    item = np.asarray(item, dtype=complex if np.iscomplexobj(item) else float)
    rows, cols = np.nonzero(item)  # no S x S mask: the flat indices from the cells alone
    return ((item.shape, rows * item.shape[1] + cols, lambda ri, ci: item[ri, ci]),
            np.stack([item @ r for r in right]), np.stack([v.conj() @ item for v in left]))


def _difference_norm(first, second=None) -> float:
    """||A - B||, or ||A|| with no B, read on the sorted union of A's and B's
    nonzero flat indices, each cell the dense difference's own, signed zeros included."""
    (shape, flat_a, a), (_, flat_b, b) = first, second or (None, first[1][:0], lambda ri, ci: 0.0)
    flat = np.concatenate([flat_a, flat_b])
    flat.sort()
    # A sorted union without np.union1d, whose first call imports numpy.ma.
    flat = flat[np.diff(flat, prepend=-1) > 0]
    rows, cols = np.divmod(flat, shape[1])
    vals = entry_singular_values(shape, rows, cols, lambda ri, ci: a(ri, ci) - b(ri, ci))
    return float(vals.max(initial=0.0))


@dataclass
class ProbeCase:
    """A canonical operator sequence plus its test sets."""

    matrices: Sequence[np.ndarray]
    test_vectors: list[np.ndarray]
    trace_tests: list[tuple[np.ndarray, np.ndarray]]


def _moves(shifts: list[int]) -> list[tuple[int, float]]:
    """(k, 2 pi m / 16) per item, m cycling through 0..15."""
    if not shifts:
        raise PreconditionError("steps must be >= 1")
    return [(k, 2 * np.pi * (i % 16) / 16) for i, k in enumerate(shifts)]


def _chirp(n: int) -> np.ndarray:
    """exp(-(4t/n)^2 / 2 + i (t + t^2/4)), t = p - (n-1)/2 for p < n: a nonzero Gaussian chirp."""
    t = np.arange(n) - (n - 1) / 2
    return np.exp(-0.5 * (4 * t / n) ** 2 + 1j * (t + t * t / 4))


def halmos_shift_case(blocks: int = 8, steps: int = 8) -> ProbeCase:
    """Right-shifted copies of the block projection, spaced one full support
    apart: unit operator norm forever, vanishing action on any fixed vector.
    Item phases cycle through 16 angles; the last test vector is _chirp.  The
    case takes 48 B per window point (steps <= 621,377 fits MEMORY_BUDGET at
    8 blocks), and its probe 32 B per item, test and point (steps <= 304)."""
    total = blocks * (blocks + 1) // 2
    pad = blocks
    hi = total * steps + total - 1
    check_memory(48 * (hi + pad + 1), f"a halmos-shift case on {hi + pad + 1:,} points")
    moves = _moves([total * i for i in range(steps)])
    base = halmos_operator(blocks, pad).matrix  # window [-pad, total - 1], zero up to hi
    mats = ShiftedCopies(-pad, hi, *np.nonzero(base), base[base != 0], moves)
    vecs = [np.eye(1, hi + pad + 1, t + pad)[0] for t in (0, 1, total // 2)]
    vecs.append(np.pad(_chirp(total), (pad, hi + 1 - total)))
    tests = [(vecs[0], vecs[1]), (vecs[-1], vecs[0])]
    return ProbeCase(mats, vecs, tests)


def parity_shift_case(
    half_width: int = 200, support: int = 10, step: int = 12, steps: int = 8
) -> ProbeCase:
    """Shifted reflections: every item is a partial isometry preserving the
    norm of centrally supported vectors exactly, yet all pairings with fixed
    trace-class tests die off.  Item phases cycle through 16 angles; the test
    vectors are _chirp(2 support + 1) and its conjugate, centred on 0.  The case
    takes 50 B per window point (half_width <= 10,737,417 fits MEMORY_BUDGET), and
    the block stacks of its probe's pair norms fit up to half_width = 9,658."""
    if 2 * (step * (steps - 1)) + support > half_width:
        raise PreconditionError("window too small for the requested shifts")
    check_memory(50 * (2 * half_width + 1), f"a parity-shift case on {2 * half_width + 1:,} points")
    moves = _moves([step * i for i in range(steps)])
    size = 2 * half_width + 1
    index = np.arange(size)  # the reflection j -> -j: one entry 1 per row
    mats = ShiftedCopies(-half_width, half_width, index, index[::-1], np.ones(size), moves)
    chirp = np.pad(_chirp(2 * support + 1), half_width - support)
    vecs = [chirp, chirp.conj()]
    tests = [(vecs[0], vecs[1]), (vecs[1], vecs[0])]
    return ProbeCase(mats, vecs, tests)


def box_modulation_case(
    h: float = 0.02, freq_step: float = 12.0, steps: int = 9
) -> ProbeCase:
    """Frequency-conjugated box smoothing on [-6, 6]: constant spectral norm
    (unitary equivalence) while the action on fixed Gaussians of width 0.8,
    centred at 0 and 1, fades with frequency."""
    box = box_convolution_operator(h, -6.0, 6.0)
    grid = box.grid()
    mats = ModulationOrbit(box, freq_step, steps)
    gauss = np.exp(-(grid**2) / (2 * 0.8**2))
    bump = np.exp(-((grid - 1.0) ** 2) / (2 * 0.8**2))
    vecs = [gauss, bump]
    tests = [(gauss, bump), (bump, gauss)]
    return ProbeCase(mats, vecs, tests)


PROBE_CASES = {
    "halmos-shift": halmos_shift_case,
    "parity-shift": parity_shift_case,
    "box-modulation": box_modulation_case,
}
