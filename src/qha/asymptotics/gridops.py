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
    tends to 2 (the peak of the kernel's transform) as h -> 0.  The matrix
    and GridOperator's finiteness mask peak at 9 bytes an entry (9.003-9.015
    measured by tracemalloc, S = 1201..6001): S <= 10922 fits MEMORY_BUDGET.
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
    check_memory(9 * size**2, f"a box convolution on {size} points")
    band = int(np.floor(1.0 / h + 1e-9))
    taps = np.where(np.abs(np.arange(1 - size, size)) <= band, h, 0.0)
    # Row i is taps[size - 1 - i:][:size]: a copy of the row-reversed Hankel view.
    return GridOperator(h, x_lo, x_hi, sliding_window_view(taps, size)[::-1].copy())


def _rows_times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat for complex rows and a real mat: the real and imaginary rows
    take one real product, never a complex copy of mat."""
    both = np.concatenate([rows.real, rows.imag]) @ mat
    return both[: len(rows)] + 1j * both[len(rows):]


class ModulationOrbit(Sequence):
    """Orbit M_k = Phi_k B Phi_k* of a grid operator B, where
    Phi_k = diag(e^(-i k step x)) and k = 0..steps-1; items are read-only
    matrices, each built on access from (B, step, steps), which is all it stores.
    B must be exactly real, symmetric and Toeplitz (B_ij = b(|i - j|) bit for
    bit, as a box convolution is), step finite and steps >= 1, else PreconditionError.

    Phi_i* Phi_j = Phi_(j-i), so ||M_i - M_j|| = ||M_0 - M_(j-i)||: a norm
    of a difference depends only on j - i.  :meth:`difference_norm` gives it,
    and :meth:`products` every item's action on test vectors, from B alone,
    without forming a complex item.  Item 0 equals B.
    """

    def __init__(self, base: GridOperator, step: float, steps: int):
        mat = base.matrix
        if np.iscomplexobj(mat) or not (np.array_equal(mat, mat.T)
                                        and np.array_equal(mat[1:, 1:], mat[:-1, :-1])):
            raise PreconditionError("the base must be exactly real, symmetric and Toeplitz")
        if steps < 1 or not math.isfinite(step):
            raise PreconditionError("steps must be >= 1" if steps < 1 else f"step must be finite: {step}")
        self._base, self._step, self._ks = base, step, range(steps)

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
        """||M_0 - M_k||, finite or ValueError, for the real symmetric Toeplitz B.

        With t = k step, (M_0 - M_k)_ij = B_ij (1 - e^(-i t h (i - j))) is
        Psi (2i sin(t h (i - j) / 2) B_ij) Psi* for the diagonal unitary
        Psi = diag(e^(-i t x / 2)), so ||M_0 - M_k|| = ||D|| for the row
        reversal D_ij = d(n - 1 - i - j) of that real matrix, with the taps
        d(q) = 2 sin(k step h q / 2) b(|q|), odd in q, b the first row of B.
        In the basis of J-even vectors (e_i + e_(n-1-i))/sqrt(2), and e_m for
        odd n = 2m + 1, then J-odd ones, D is [[0, X], [X^T, 0]]: X_ij =
        d(i - j) + d(n - 1 - i - j), row m times sqrt(1/2) for odd n.  So ||D||
        is the root of the top eigenvalue of X^T X, X two window views of the
        taps over max |d| (the Gram cannot overflow); no n x n array is formed.
        """
        n, m, b = self._base.size, self._base.size // 2, self._base.matrix[0]
        taps = 2.0 * np.sin((0.5 * self._step * self._ks[k] * self._base.h) * np.arange(1, n))
        with np.errstate(over="ignore"):  # the check below reports it; taps[p] = d(n - 1 - p)
            taps = np.concatenate([taps[::-1], [0.0], -taps]) * np.concatenate([b[:0:-1], b])
        scale = float(np.abs(taps).max())
        if not math.isfinite(scale):
            raise ValueError("matrix entries must be finite")
        if scale == 0.0:
            return 0.0
        taps /= scale
        x = sliding_window_view(taps, m)
        x = x[: n - m] + x[n - 1 : m - 1 : -1]
        del taps  # X and its Gram set the peak: n^2 / 2 doubles, not an n x n D
        x[m : n - m] *= np.sqrt(0.5)  # odd n: e_m is its own J-even vector
        x = x.T @ x  # rebinding frees X before eigvalsh
        norm = scale * math.sqrt(np.linalg.eigvalsh(x)[-1])
        if not math.isfinite(norm):  # finite taps, a norm past the float range
            raise ValueError("matrix entries must be finite")
        return norm


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


def _rank_one_min(a: np.ndarray, s: np.ndarray, i0: int, i1: int, c: float) -> float:
    """min(a s^T less c on [i0, i1)^2), a, s >= 0, bit for bit in O(L): rounding keeps order."""
    a_out, s_out = np.delete(a, slice(i0, i1)), np.delete(s, slice(i0, i1))
    return min(a_out.min() * s.min(), a.min() * s_out.min(), a[i0:i1].min() * s[i0:i1].min() - c)


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


def cac_example(h: float, n_max: int) -> CacRecord:
    """Verify C A C, A the block projection and C the box convolution on the
    grid of step h that starts at 0, from their exact structure, with no
    S x S array.

    A = sum_n (h/n) m_n m_n^T for the indicators m_n of I_n = [n^2 - n/2,
    n^2 + n/2) is block diagonal and C is real symmetric, so C A C =
    sum_n (h/n) s_n s_n^T with s_n = C m_n, a banded sum on [n^2 - n/2 - 1,
    n^2 + n/2 + 1].  Only s_1 and s_2 overlap, so C A C - A is block diagonal
    over {1, 2}, {3}, ..., {n_max} and exactly 0 elsewhere (the grid always
    reaches past the last support): min_kernel_gap is min(0, block minima),
    a one-member block's from its rank-one factors in O(L), product_norms
    from the rank form, and projection_residual from A's blocks c 1 1^T.

    Preconditions: h <= 0.5 and 0.5/h integral, so the endpoints n^2 +- n/2
    lie on the grid.  The budget counts the largest block, (n_max + 2)/h
    points a side from n_max = 4 on, at 8 bytes an entry (only {1, 2} is
    formed): 2040 points (33 MB) at n_max = 100 and h = 0.05, where
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
    band = round(1.0 / h)
    spans = {n: (round((n * n - n / 2.0) / h), round((n * n + n / 2.0) / h))
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
        block = weighted @ smoothed if len(members) > 1 else None  # C A C on the group {1, 2}
        for n in members:
            i0, i1 = spans[n]
            image = weighted @ (smoothed[:, i0 - lo : i1 - lo].sum(axis=1) / np.sqrt(n))
            product_norms[n] = float(np.sqrt(h * (image * image).sum()))
            if block is not None:
                block[i0 - lo : i1 - lo, i0 - lo : i1 - lo] -= h / n
            # A's block is c 1 1^T on L points, c = h/n = p/q: A^2 - A is
            # (L c^2 - c) 1 1^T there, of norm L c |L c - 1|, here exactly.
            p, q = (h / n).as_integer_ratio()
            L = i1 - i0
            projection_residual = max(projection_residual, L * p * abs(L * p - q) / q**2)
        least = (block.min() if block is not None  # else one member n, points on both sides
                 else _rank_one_min(weighted[:, 0], smoothed[0], i0 - lo, i1 - lo, h / n))
        min_kernel_gap = min(min_kernel_gap, float(least) / h)

    # Discrete smoothing of each interval indicator with the half-open box
    # (offsets in [-1, 1)), against the closed-form trapezoid.  Both vanish
    # off [i0 - band, i1 + band); the window keeps one more point a side.
    g_max_errors, plateau_max_dev = {}, {}
    for n in range(2, n_max + 1):
        i0, i1 = spans[n]
        idx = np.arange(max(0, i0 - band - 1), i1 + band + 1)  # the grid starts at 0
        grid = h * idx
        g_disc = h * _box_counts(idx, i0, i1, band - 1, band)
        g_max_errors[n] = float(np.abs(g_disc - piecewise_box_smoothed_indicator(n, grid)).max())
        interior = (grid > n * n - n / 2.0 + 1.0) & (grid < n * n + n / 2.0 - 1.0)
        if interior.any():
            plateau_max_dev[n] = float(np.abs(g_disc[interior] - 2.0).max())
    return CacRecord(projection_residual, g_max_errors, plateau_max_dev, min_kernel_gap,
                     product_norms)
