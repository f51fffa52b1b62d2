"""Short-time Fourier analysis, certified tail bounds, and uniform
compactness profiles.

The windowed transform of f against a window function Phi is

    V(x, xi) = haar_weight * sum_t Phi(t) xi(t) f(t - x),

computed either on a finite group (exhaustive dual) or on a window of the
integer lattice (torus dual sampled on a grid, profiles restricted to the
boundary-free shift range).  The certified tail bound max_j t_j + eps*C is
the quantity controlling sup-tails of convolutions over any family covered
by an eps-net with generator tails t_j and sup bound C.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics.profiles import DecayProfile
from .asymptotics.windowed import WindowedFunction
from .conv import _conv_op_op, conv_fn_op
from .errors import GroupMismatchError, PreconditionError
from .groups import FiniteAbelianGroup, GroupFunction, _same_group
from .weyl import HilbertOp, _shift_tables, rank_one


# --- short-time Fourier transform --------------------------------------------


def stft(f: GroupFunction, window: GroupFunction) -> np.ndarray:
    """Matrix V[x, xi] over (group element, character) index pairs.

    Linear in both arguments; satisfies the energy identity
    sum_{x,xi} |V|^2 w_G w_dual = ||window||_2^2 ||f||_2^2.
    """
    _same_group(f.group, window.group)
    group = f.group
    orders, card = group.orders, group.cardinality
    # Row x is sum_t Phi(t) f(t - x) xi(t) for every character xi at once:
    # the positive-frequency DFT, ifftn scaled by |G|, of the x-th translate.
    coords = np.indices(orders).reshape(len(orders), 1, card)
    moved = f.values[np.ravel_multi_index(coords - coords.swapaxes(1, 2), orders, mode="wrap")]
    # phi carries the stack's leading axis: at |G| = 1 numpy multiplies a
    # broadcast (1,) * (1, 1) in a different loop from the same-shape product
    # of the one-translate route, and the last bits differ.
    phi = window.values.reshape(1, *orders)
    v = np.fft.ifftn(phi * moved.reshape(card, *orders), axes=tuple(range(1, len(orders) + 1)))
    return (group.haar_weight * card) * v.reshape(card, card)


def stft_energy(v: np.ndarray, group: FiniteAbelianGroup) -> float:
    """Weighted energy of a transform matrix."""
    return float((np.abs(v) ** 2).sum() * group.haar_weight * group.dual().haar_weight)


def windowed_stft_profile(
    f: WindowedFunction, window: WindowedFunction, angles: np.ndarray
) -> DecayProfile:
    """sup over sampled dual angles of |V(x, .)|, on the boundary-free range.

    The window function must be supported strictly inside f's index window;
    the valid shifts x are those for which every translate t - x stays
    inside f's window for t in the support of the window function.
    """
    s_lo, s_hi = window.support()
    if s_hi < s_lo:
        raise PreconditionError("window function is identically zero")
    if s_lo < f.lo or s_hi > f.hi:
        raise PreconditionError("window support exceeds the function window")
    angles = np.asarray(angles, dtype=float)
    sup_t = np.arange(s_lo, s_hi + 1)
    phi = window.values[s_lo - window.lo : s_hi - window.lo + 1]
    xs = np.arange(s_hi - f.hi, s_lo - f.lo + 1)
    weighted = np.exp(1j * np.outer(angles, sup_t)) * phi  # (angle, t)
    # win[s_lo - x - f.lo] is f(t - x) on the support; stacked matvecs, 512 shifts a block.
    win, starts = np.lib.stride_tricks.sliding_window_view(f.values, sup_t.size), s_lo - xs - f.lo
    vals = np.concatenate([np.abs(weighted @ win[starts[i : i + 512], :, None]).max(axis=(1, 2))
                           for i in range(0, xs.size, 512)])
    return DecayProfile(xs.astype(float), vals)


# --- certified tail bounds ----------------------------------------------------


@dataclass(frozen=True)
class NetCertificate:
    """Data extracted from an eps-net covering of a convolver family.

    generator_tails: measured sup-tails of the net centers; epsilon: net
    radius in the L1 norm; bound_c: sup bound on the convolved family.
    """

    generator_tails: tuple[float, ...]
    epsilon: float
    bound_c: float

    def __post_init__(self):
        tails = tuple(float(t) for t in self.generator_tails)
        if not all(0 <= t < np.inf for t in (*tails, self.epsilon, self.bound_c)):
            raise ValueError("certificate entries must be finite and nonnegative")
        object.__setattr__(self, "generator_tails", tails)


def certified_tail_bound(cert: NetCertificate) -> float:
    """max_j t_j + eps * C; an upper bound for the covered family's sup-tail."""
    if not cert.generator_tails:
        raise PreconditionError("certificate needs at least one generator tail")
    return max(cert.generator_tails) + cert.epsilon * cert.bound_c


def greedy_l1_net(functions: list[np.ndarray], epsilon: float, weight: float = 1.0):
    """Greedy eps-net in the weighted l1 metric.

    Returns (center_indices, assignment, max_radius) with every member
    assigned to a center within epsilon (max_radius is the verified
    worst-case distance).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    centers: list[int] = []
    assignment = [-1] * len(functions)
    for i, f in enumerate(functions):
        for c in centers:
            if weight * np.abs(f - functions[c]).sum() <= epsilon:
                assignment[i] = c
                break
        else:
            centers.append(i)
            assignment[i] = i
    radius = max(
        (weight * float(np.abs(functions[i] - functions[a]).sum()) for i, a in enumerate(assignment)),
        default=0.0,
    )
    return centers, assignment, radius


def tail_bound_trial(
    rng: np.random.Generator,
    window: int = 48,
    support: int = 6,
    generators: int = 3,
    perturbations: int = 4,
    bound_c: float = 3.0,
    epsilon: float = 0.05,
) -> tuple[float, float]:
    """One randomized soundness instance: (measured sup-tail, certified bound).

    Generators are finitely supported convolvers on a lattice window, the
    family consists of l1-perturbations of radius <= epsilon, the convolved
    functions are sup-bounded by C, and the tail region is the outer third
    of the valid shift range.
    """
    width = 2 * support + 1
    gens = [
        rng.standard_normal(width) + 1j * rng.standard_normal(width)
        for _ in range(generators)
    ]
    fs = []
    for _ in range(3):
        f = rng.standard_normal(2 * window + 1) + 1j * rng.standard_normal(2 * window + 1)
        f = f / max(1.0, np.abs(f).max() / bound_c)
        fs.append(f)
    valid = slice(2 * support, 2 * window + 1)  # where np.convolve's window played no role
    # tail region: outer third of the valid range, both ends
    n_valid = valid.stop - valid.start

    def tail_values(h):
        out = []
        for f in fs:
            conv = np.convolve(h, f, mode="full")[valid]
            third = max(1, n_valid // 3)
            out.append(np.abs(np.concatenate([conv[:third], conv[-third:]])))
        return np.concatenate(out)

    tails = tuple(float(tail_values(g).max()) for g in gens)
    cert = NetCertificate(tails, epsilon, bound_c)
    bound = certified_tail_bound(cert)

    measured = 0.0
    for g in gens:
        for _ in range(perturbations):
            d = rng.standard_normal(width) + 1j * rng.standard_normal(width)
            d = d * (epsilon * rng.random() / max(np.abs(d).sum(), 1e-300))
            measured = max(measured, float(tail_values(g + d).max()))
    return measured, bound


# --- relative-compactness moduli ----------------------------------------------


def rk_moduli(
    family: list[WindowedFunction], max_shift: int | None = None, tail_marks: list[int] | None = None
) -> tuple[DecayProfile, DecayProfile]:
    """Equicontinuity modulus and tail-mass curves for a function family.

    modulus(s) = sup over the family of ||shift_s(h) - h||_1, shift_s(h)(t) =
    h(t - s); tailmass(M) = sup of the l1 mass at indices |t| > M.  The two
    shift ranges follow different conventions: for s < size the norm is taken
    over the member's own window, so the mass shifted past its right end is
    dropped; for s >= size it is the whole-lattice value 2 ||h||_1.

    Any finite family on a bounded window trivially passes both conditions
    in the limit; the curves are informative for families meant to model
    unbounded spreading (growing shifts, slow tails) inside the window.
    """
    if not family:
        raise ValueError("rk_moduli needs a nonempty family")
    lo = min(h.lo for h in family)
    hi = max(h.hi for h in family)
    span = hi - lo
    if max_shift is None:
        max_shift = max(1, span // 4)
    shifts = np.arange(1, max_shift + 1)
    modulus = np.zeros(shifts.size)
    for h in family:
        inside = int(np.searchsorted(shifts, h.values.size))  # the shifts s < size
        dist = np.full(shifts.size, 2 * float(np.abs(h.values).sum()))
        dist[:inside] = _shift_distances(h.values, inside)
        modulus = np.maximum(modulus, dist)
    if tail_marks is None:
        tail_marks = sorted({span // 8, span // 4, span // 2, span} - {0})
    marks = np.asarray(sorted(tail_marks), dtype=float)
    tail = np.zeros(marks.size)
    for h in family:
        idx = np.arange(h.lo, h.hi + 1)
        for i, m in enumerate(marks):
            tail[i] = max(tail[i], float(np.abs(h.values[np.abs(idx) > m]).sum()))
    return DecayProfile(shifts.astype(float), modulus), DecayProfile(marks, tail)


#: Complex entries per block of shifted differences in ``_shift_distances`` (~0.5 MB).
_BLOCK_ENTRIES = 2**15


def _shift_distances(vals: np.ndarray, count: int) -> np.ndarray:
    """||shift_s(h) - h||_1 over the window of h for s = 1..count < size.

    Row size - s of the sliding windows over [zeros(size), vals] is shift_s(h),
    so a block of consecutive shifts is a reversed slice of those rows; each
    block is one subtract, one abs and one row sum.  Each row sum reduces a
    contiguous row pairwise, as ``.sum()`` of that row alone does, so the
    distances equal the one-shift-at-a-time values bit for bit.
    """
    size = vals.size
    out = np.empty(count)
    if not count:
        return out
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([np.zeros_like(vals), vals]), size)
    rows = min(count, max(1, _BLOCK_ENTRIES // size))
    diff, mag = np.empty((rows, size), dtype=complex), np.empty((rows, size))
    for a in range(0, count, rows):
        k = min(rows, count - a)
        np.subtract(windows[size - a - k : size - a][::-1], vals, out=diff[:k])
        out[a : a + k] = np.abs(diff[:k], out=mag[:k]).sum(axis=1)
    return out


# --- localization and uniform compactness --------------------------------------


def localization_operator(f: GroupFunction, phi, psi=None) -> HilbertOp:
    """Time-frequency filter with symbol f: f * (phi (x) psi).

    Positive semidefinite whenever f >= 0 and psi = phi.
    """
    op = rank_one(np.asarray(phi, dtype=complex), None if psi is None else np.asarray(psi, dtype=complex))
    return conv_fn_op(f, op)


def uniform_compactness_profile(
    a: HilbertOp, b: HilbertOp, points: list[tuple[int, int]]
) -> DecayProfile:
    """Profile over y of sup_{x in points} |((U_x A) * B)(y)| on the phase space."""
    if not points:
        raise PreconditionError("need a nonempty set of phase-space points")
    if a.dim != b.dim:
        raise GroupMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    rows, phase = _shift_tables(a.dim, points)
    shifted = phase[:, :, None] * a.matrix[rows]  # U_x A for every x
    sup = np.abs(_conv_op_op(shifted, b.matrix)).max(axis=0).ravel()
    return DecayProfile(np.arange(a.dim**2, dtype=float), sup)


def modulate_family_is_regular(window: GroupFunction, threshold: float = 1e-8) -> bool:
    """Whether the family of all modulations of the window is regular.

    Equivalent to the window's transform having at least one nonvanishing
    point (modulation translates the transform over the whole dual).
    """
    from .groups import modulate
    from .wiener import regular_set_fn

    group = window.group
    family = [modulate(window, group.character(freqs)) for freqs in group.elements()]
    return regular_set_fn(family, threshold).is_regular
