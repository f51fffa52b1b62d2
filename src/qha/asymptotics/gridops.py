"""Step-h discretizations of convolution/integral operators on an interval.

Matrices carry the quadrature weight: an operator with kernel k acts as
(Af)(x_i) = sum_j h * k(x_i, x_j) f(x_j), and vectors use the weighted
pairing <u, v> = h * sum u_i conj(v_i).  Indicators are resolved with the
half-open convention [a, b) on the grid, which keeps aligned interval
projections exact.  A real matrix stays real (float64), not a complex copy.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import PreconditionError, check_memory
from ..numerics import spectral_norm


def _near_int(x: float, tol: float = 1e-9) -> bool:
    return abs(x - round(x)) <= tol


def _check_step(h: float) -> None:
    if not (math.isfinite(h) and h > 0):
        raise PreconditionError(f"step h must be finite and positive, got {h}")


@dataclass
class GridOperator:
    h: float
    x_lo: float
    x_hi: float
    matrix: np.ndarray

    def __post_init__(self):
        _check_step(self.h)
        steps = (self.x_hi - self.x_lo) / self.h
        if not _near_int(steps):
            raise PreconditionError(
                f"(x_hi - x_lo)/h = {steps} must be integral for a uniform grid"
            )
        size = int(round(steps)) + 1
        mat = np.asarray(self.matrix, dtype=complex if np.iscomplexobj(self.matrix) else float)
        if mat.shape != (size, size):
            raise ValueError(f"matrix shape {mat.shape} does not match grid size {size}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        self.matrix = mat

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def grid(self) -> np.ndarray:
        return self.x_lo + self.h * np.arange(self.size)

    def vec_norm(self, f: np.ndarray) -> float:
        """Weighted l2 norm sqrt(h * sum |f|^2)."""
        return float(np.sqrt(self.h * (np.abs(f) ** 2).sum()))

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Matrix times f; a real matrix takes the real and imaginary parts of
        a complex f apart, never a complex copy of itself."""
        f = np.asarray(f)
        if np.iscomplexobj(self.matrix) or not np.iscomplexobj(f):
            return self.matrix @ f
        return self.matrix @ f.real + 1j * (self.matrix @ f.imag)

    def op_norm(self) -> float:
        # The uniform weight cancels, so the weighted operator norm is the
        # plain spectral norm of the matrix.
        return spectral_norm(self.matrix)


def box_convolution_operator(h: float, x_lo: float, x_hi: float) -> GridOperator:
    """Convolution by the indicator of [-1, 1]: entries h * 1(|x_i - x_j| <= 1).

    Symmetric Toeplitz; interior row sums are 2 + h, and the operator norm
    tends to 2 (the peak of the kernel's transform) as h -> 0.
    """
    _check_step(h)
    if h > 0.5:
        raise PreconditionError("box_convolution_operator needs h <= 0.5")
    if x_hi <= x_lo:
        raise PreconditionError("degenerate range: x_hi must exceed x_lo")
    steps = (x_hi - x_lo) / h
    if not _near_int(steps):
        raise PreconditionError(f"(x_hi - x_lo)/h = {steps} must be integral")
    size = int(round(steps)) + 1
    band = int(np.floor(1.0 / h + 1e-9))
    i = np.arange(size)
    mat = (np.abs(i[:, None] - i[None, :]) <= band).astype(float) * h
    return GridOperator(h, x_lo, x_hi, mat)


def modulated_box_operator(h: float, x_lo: float, x_hi: float, freq: float) -> GridOperator:
    """Conjugation of the box operator by the phase e^(-i freq x).

    Unitarily equivalent to the box operator (same spectral norm) while its
    action on any fixed smooth vector fades as |freq| grows.
    """
    box = box_convolution_operator(h, x_lo, x_hi)
    return GridOperator(h, x_lo, x_hi, _modulate(box, freq))


def _modulate(op: GridOperator, freq: float) -> np.ndarray:
    """Matrix of Phi op Phi* with Phi = diag(e^(-i freq x)) on op's grid."""
    phase = np.exp(-1j * freq * op.grid())
    return phase[:, None] * op.matrix * phase.conj()[None, :]


class ModulationOrbit(Sequence):
    """Orbit M_k = Phi_k B Phi_k* of a grid operator B, where
    Phi_k = diag(e^(-i k step x)) and k = 0..steps-1; items are read-only
    matrices, each built on access from (B, step, steps), which is all it stores.

    Phi_i* Phi_j = Phi_(j-i), so ||M_i - M_j|| = ||M_0 - M_(j-i)||: a norm
    of a difference depends only on j - i, and :meth:`difference` gives it
    without forming a complex item.  Item 0 equals B.
    """

    def __init__(self, base: GridOperator, step: float, steps: int):
        self._base, self._step, self._ks = base, step, range(steps)

    def __len__(self) -> int:
        return len(self._ks)

    def __getitem__(self, k: int) -> np.ndarray:
        item = _modulate(self._base, self._step * self._ks[k])
        item.setflags(write=False)
        return item

    def difference(self, k: int) -> np.ndarray:
        """A matrix with the singular values of M_0 - M_k, real for a real B.

        With t = k step, (M_0 - M_k)_ij = B_ij (1 - e^(-i t h (i - j))) is
        Psi (2i sin(t h (i - j) / 2) B_ij) Psi* for the diagonal unitary
        Psi = diag(e^(-i t x / 2)).  The result is J (S o B), J the row
        reversal and S the odd Toeplitz sine factor, built from n - 1 sines:
        (J S)_ij = s(n - 1 - i - j) is a Hankel view of 2n - 1 values.  For a
        symmetric Toeplitz B it is symmetric with J D J = -D.
        """
        base = self._base
        n = base.size
        half = 2.0 * np.sin((0.5 * self._step * self._ks[k] * base.h) * np.arange(1, n))
        hankel = np.concatenate([half[::-1], [0.0], -half])
        return sliding_window_view(hankel, n) * base.matrix[::-1]


def _interval_mask(grid_lo: float, h: float, size: int, a: float, b: float) -> np.ndarray:
    """Indicator of [a, b) sampled on the grid, resolved by index arithmetic."""
    start = (a - grid_lo) / h
    stop = (b - grid_lo) / h
    if not (_near_int(start) and _near_int(stop)):
        raise PreconditionError(
            f"interval [{a}, {b}) endpoints must land on the step-{h} grid"
        )
    i0 = max(0, int(round(start)))
    i1 = min(size, int(round(stop)))
    mask = np.zeros(size)
    mask[i0:i1] = 1.0
    return mask


def piecewise_box_smoothed_indicator(n: int, x: np.ndarray) -> np.ndarray:
    """Closed form of 1_{I_n} * 1_{[-1,1]} for I_n = [n^2 - n/2, n^2 + n/2].

    Trapezoid with plateau value 2 on [n^2 - n/2 + 1, n^2 + n/2 - 1]; the
    case boundaries are consistent only for n >= 2 (for n = 1 the window is
    longer than the interval and the plateau is empty).
    """
    if n < 2:
        raise PreconditionError("closed-form comparison is defined for n >= 2")
    c, half = n * n, n / 2.0
    up = x + (1.0 + half - c)
    down = -x + (c + half + 1.0)
    out = np.full_like(x, 2.0, dtype=float)
    out = np.where(x <= c - half + 1.0, up, out)
    out = np.where(x >= c + half - 1.0, down, out)
    out = np.where(x <= c - half - 1.0, 0.0, out)
    out = np.where(x >= c + half + 1.0, 0.0, out)
    return out


@dataclass
class CacRecord:
    """Verification record for the projection/box-convolution product."""

    projector: GridOperator         # A, the block integral operator
    box: GridOperator               # C
    product: GridOperator           # C A C
    projection_residual: float      # ||A^2 - A||_op
    g_max_errors: dict[int, float]  # n >= 2: max |discrete conv - closed form|
    plateau_max_dev: dict[int, float]  # n >= 3: deviation from 2 at interior plateau points
    min_kernel_gap: float           # min over the grid of k' - k
    product_norms: dict[int, float]  # n -> ||CAC f_n|| with f_n = n^(-1/2) 1_{I_n}

    def worst_g_error(self) -> float:
        return max(self.g_max_errors.values()) if self.g_max_errors else 0.0


def cac_example(h: float, n_max: int, x_lo: float = 0.0, x_hi: float | None = None) -> CacRecord:
    """Build A (block projection), C (box convolution) and CAC on a grid.

    Preconditions: h <= 0.5, 0.5/h integral (so every interval endpoint
    n^2 +- n/2 lands on the grid), and the grid covering
    [0, n_max^2 + n_max/2 + 2].  The S x S matrices of an S-point grid peak
    at 48 bytes an entry (42-47 measured as ru_maxrss growth, S = 821..3041):
    S <= 4729 fits MEMORY_BUDGET (n_max <= 15 at h = 0.05).
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    _check_step(h)
    if h > 0.5:
        raise PreconditionError("step h must satisfy h <= 0.5")
    if not _near_int(0.5 / h):
        raise PreconditionError(
            f"step h = {h} must divide 0.5 so interval endpoints land on the grid"
        )
    needed = n_max * n_max + n_max / 2.0 + 2.0
    if x_hi is None:
        x_hi = needed
    if x_lo > 0.0 or x_hi < needed:
        raise PreconditionError(
            f"grid [{x_lo}, {x_hi}] must cover [0, {needed}] for n_max = {n_max}"
        )
    size = int(round((x_hi - x_lo) / h)) + 1
    check_memory(48 * size**2, f"cac_example on a {size}-point grid")

    box = box_convolution_operator(h, x_lo, x_hi)
    grid = box.grid()

    masks = {}
    proj = np.zeros((size, size))
    for n in range(1, n_max + 1):
        a, b = n * n - n / 2.0, n * n + n / 2.0
        mask = _interval_mask(x_lo, h, size, a, b)
        masks[n] = mask
        proj += (h / n) * np.outer(mask, mask)
    projector = GridOperator(h, x_lo, x_hi, proj)
    # C is real symmetric, so C A C = sum_n (h/n) (C m_n)(C m_n)^T.
    smoothed = box.matrix.real @ np.stack(list(masks.values()), axis=1)
    weights = h / np.arange(1, n_max + 1)
    product = GridOperator(h, x_lo, x_hi, (smoothed * weights) @ smoothed.T)

    projection_residual = spectral_norm(proj @ proj - proj)

    # Discrete smoothing of each interval indicator with the half-open box
    # (offsets in [-1, 1)), against the closed-form trapezoid.
    band = int(round(1.0 / h))
    kernel = np.ones(2 * band)
    g_max_errors: dict[int, float] = {}
    plateau_max_dev: dict[int, float] = {}
    for n in range(2, n_max + 1):
        conv_full = np.convolve(masks[n], kernel)
        g_disc = h * conv_full[band : band + size]
        g_exact = piecewise_box_smoothed_indicator(n, grid)
        g_max_errors[n] = float(np.abs(g_disc - g_exact).max())
        interior = (grid > n * n - n / 2.0 + 1.0) & (grid < n * n + n / 2.0 - 1.0)
        if interior.any():
            plateau_max_dev[n] = float(np.abs(g_disc[interior] - 2.0).max())

    min_kernel_gap = float(((product.matrix - proj).real / h).min())

    product_norms: dict[int, float] = {}
    for n in range(1, n_max + 1):
        f_n = masks[n] / np.sqrt(n)
        product_norms[n] = product.vec_norm(product.apply(f_n))

    return CacRecord(
        projector=projector,
        box=box,
        product=product,
        projection_residual=projection_residual,
        g_max_errors=g_max_errors,
        plateau_max_dev=plateau_max_dev,
        min_kernel_gap=min_kernel_gap,
        product_norms=product_norms,
    )
