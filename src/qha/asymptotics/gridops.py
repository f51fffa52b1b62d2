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
from ..numerics import _even_odd_values, spectral_norm


def _near_int(x: float, tol: float = 1e-9) -> bool:
    return math.isfinite(x) and abs(x - round(x)) <= tol


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
    taps = np.where(np.abs(np.arange(1 - size, size)) <= band, h, 0.0)
    # Row i is taps[size - 1 - i:][:size]: a copy of the row-reversed Hankel view.
    return GridOperator(h, x_lo, x_hi, sliding_window_view(taps, size)[::-1].copy())


def _rows_times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat for complex rows; a real mat takes the real and imaginary
    rows in one real product, never a complex copy of itself."""
    if np.iscomplexobj(mat):
        return rows @ mat
    both = np.concatenate([rows.real, rows.imag]) @ mat
    return both[: len(rows)] + 1j * both[len(rows):]


class ModulationOrbit(Sequence):
    """Orbit M_k = Phi_k B Phi_k* of a grid operator B, where
    Phi_k = diag(e^(-i k step x)) and k = 0..steps-1; items are read-only
    matrices, each built on access from (B, step, steps), which is all it stores.

    Phi_i* Phi_j = Phi_(j-i), so ||M_i - M_j|| = ||M_0 - M_(j-i)||: a norm
    of a difference depends only on j - i.  :meth:`difference_norm` gives it,
    and :meth:`products` every item's action on test vectors, from B alone,
    without forming a complex item.  Item 0 equals B.
    """

    def __init__(self, base: GridOperator, step: float, steps: int):
        self._base, self._step, self._ks = base, step, range(steps)
        mat = base.matrix  # exactly real symmetric Toeplitz: J D J = -D bit for bit
        self._even_odd = (not np.iscomplexobj(mat) and base.size > 1 and np.array_equal(mat, mat.T)
                          and np.array_equal(mat[1:, 1:], mat[:-1, :-1]))

    def __len__(self) -> int:
        return len(self._ks)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in self._ks[k]]
        phase = np.exp(-1j * (self._step * self._ks[k]) * self._base.grid())
        item = phase[:, None] * self._base.matrix
        item *= phase.conj()[None, :]  # in place: one complex S x S array
        item.setflags(write=False)
        return item

    def products(self, right: np.ndarray, left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """M_k r and l* M_k for the rows r of `right` and l of `left`, stacked
        (k, row, point), as p_k o (B (conj(p_k) o r)) and ((conj(l) o p_k) B) o
        conj(p_k) for p_k the diagonal of Phi_k: one product with B per side."""
        base = self._base
        phase = np.exp(-1j * np.multiply.outer(self._step * np.arange(len(self)), base.grid()))
        x = phase.conj()[:, None, :] * right
        y = phase[:, None, :] * left.conj()
        bx = _rows_times(x.reshape(-1, base.size), base.matrix.T).reshape(x.shape)
        yb = _rows_times(y.reshape(-1, base.size), base.matrix).reshape(y.shape)
        return phase[:, None, :] * bx, yb * phase.conj()[:, None, :]

    def difference_norm(self, k: int) -> float:
        """||M_0 - M_k|| of difference(k).  For a real symmetric Toeplitz B it
        is taken straight from the half-size SVD of the J-even to J-odd block,
        the one structured route of qha.numerics, with no nonzero scan; any
        other B takes spectral_norm (exact block split, one batched SVD)."""
        diff = self.difference(k)
        if not self._even_odd:
            return spectral_norm(diff)
        norm = float(_even_odd_values(diff[None]).max())
        if not math.isfinite(norm):
            raise ValueError("matrix entries must be finite")
        return norm

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


def _box_counts(idx: np.ndarray, i0: int, i1: int, below: int, above: int) -> np.ndarray:
    """The banded sum #{j in [i0, i1) : idx - below <= j <= idx + above}."""
    return np.maximum(0, np.minimum(i1 - 1, idx + above) - np.maximum(i0, idx - below) + 1)


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

    projection_residual: float      # ||A^2 - A||_op
    g_max_errors: dict[int, float]  # n >= 2: max |discrete conv - closed form|
    plateau_max_dev: dict[int, float]  # n >= 3: deviation from 2 at interior plateau points
    min_kernel_gap: float           # min over the grid of k' - k
    product_norms: dict[int, float]  # n -> ||CAC f_n|| with f_n = n^(-1/2) 1_{I_n}

    def worst_g_error(self) -> float:
        return max(self.g_max_errors.values()) if self.g_max_errors else 0.0


def cac_example(h: float, n_max: int, x_lo: float = 0.0, x_hi: float | None = None) -> CacRecord:
    """Verify C A C, A the block projection and C the box convolution on a
    grid of step h, from their exact structure, with no S x S array.

    A = sum_n (h/n) m_n m_n^T for the indicators m_n of I_n = [n^2 - n/2,
    n^2 + n/2) is block diagonal and C is real symmetric, so C A C =
    sum_n (h/n) s_n s_n^T with s_n = C m_n, a banded sum on [n^2 - n/2 - 1,
    n^2 + n/2 + 1].  Only s_1 and s_2 overlap, so C A C - A is block diagonal
    over {1, 2}, {3}, ..., {n_max} and exactly 0 elsewhere (the grid always
    reaches past the last support): min_kernel_gap is min(0, block minima),
    product_norms come from the rank form, and projection_residual from
    A's blocks c 1 1^T.

    Preconditions: h <= 0.5, 0.5/h integral, x_lo and x_hi on the grid of the
    endpoints n^2 +- n/2, and [x_lo, x_hi] covering [0, n_max^2 + n_max/2 + 2].
    The largest block, (n_max + 2)/h points a side from n_max = 4 on, takes 8
    bytes an entry: 2040 points (33 MB) at n_max = 100 and h = 0.05, where
    n_max <= 577 fits MEMORY_BUDGET.
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
    if not (_near_int(x_lo / h) and _near_int(x_hi / h)):
        raise PreconditionError(f"grid [{x_lo}, {x_hi}] must lie on the step-{h} grid")
    band, zero = round(1.0 / h), round(-x_lo / h)
    spans = {n: (zero + round((n * n - n / 2.0) / h), zero + round((n * n + n / 2.0) / h))
             for n in range(1, n_max + 1)}
    groups = [[1, 2][:n_max]] + [[n] for n in range(3, n_max + 1)]
    ends = [(max(0, spans[g[0]][0] - band), spans[g[-1]][1] + band) for g in groups]
    widest = max(hi - lo for lo, hi in ends)
    check_memory(8 * widest**2, f"cac_example with a {widest}-point block")

    projection_residual, min_kernel_gap, product_norms = 0.0, 0.0, {}
    for members, (lo, hi) in zip(groups, ends):
        idx = np.arange(lo, hi)
        smoothed = h * np.stack([_box_counts(idx, *spans[n], band, band) for n in members])
        weighted = smoothed.T * (h / np.array(members))
        block = weighted @ smoothed  # C A C on the group
        for n in members:
            i0, i1 = spans[n]
            image = weighted @ (smoothed[:, i0 - lo : i1 - lo].sum(axis=1) / np.sqrt(n))
            product_norms[n] = float(np.sqrt(h * (image * image).sum()))
            block[i0 - lo : i1 - lo, i0 - lo : i1 - lo] -= h / n
            # A's block is c 1 1^T on L points, c = h/n = p/q: A^2 - A is
            # (L c^2 - c) 1 1^T there, of norm L c |L c - 1|, here exactly.
            p, q = (h / n).as_integer_ratio()
            L = i1 - i0
            projection_residual = max(projection_residual, L * p * abs(L * p - q) / q**2)
        min_kernel_gap = min(min_kernel_gap, float(block.min()) / h)
        del block  # before the next group's block exists

    # Discrete smoothing of each interval indicator with the half-open box
    # (offsets in [-1, 1)), against the closed-form trapezoid.  Both vanish
    # off [i0 - band, i1 + band); the window keeps one more point a side.
    g_max_errors, plateau_max_dev = {}, {}
    for n in range(2, n_max + 1):
        i0, i1 = spans[n]
        idx = np.arange(max(0, i0 - band - 1), i1 + band + 1)  # inside [x_lo, x_hi]
        grid = x_lo + h * idx
        g_disc = h * _box_counts(idx, i0, i1, band - 1, band)
        g_max_errors[n] = float(np.abs(g_disc - piecewise_box_smoothed_indicator(n, grid)).max())
        interior = (grid > n * n - n / 2.0 + 1.0) & (grid < n * n + n / 2.0 - 1.0)
        if interior.any():
            plateau_max_dev[n] = float(np.abs(g_disc[interior] - 2.0).max())
    return CacRecord(projection_residual, g_max_errors, plateau_max_dev, min_kernel_gap,
                     product_norms)
