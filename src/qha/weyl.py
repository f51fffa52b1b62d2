"""Finite phase space Z_N x Z_N, projective Weyl operators and their calculus.

The phase space carries the Heisenberg multiplier
``m((a,b),(c,d)) = omega^(-a*d)`` with ``omega = exp(2*pi*i/N)``, Haar weight
1/N per point, and the Weyl operators ``U_(a,b) f(t) = omega^(b*t) f(t-a)``
on C^N.  This phase convention makes ``U_x U_y = m(x,y) U_{x+y}`` hold with
no auxiliary phase.  The antisymmetrized pairing
``sigma(x,y) = m(x,y) * conj(m(y,x))`` is a perfect pairing of the phase
space with its dual (the multiplier itself is not injective as a map into
the dual, so sigma is the self-duality used everywhere downstream).

Operators are immutable; norm attributes are computed lazily and
idempotently (concurrent readers may recompute but always observe equal
values).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PreconditionError
from .groups import FiniteAbelianGroup, GroupFunction


@dataclass(frozen=True)
class PhaseSpace:
    """Z_N x Z_N with the canonical Heisenberg multiplier and weight 1/N."""

    n: int

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValueError("phase space dimension must be >= 1")
        object.__setattr__(self, "n", int(self.n))

    @property
    def omega(self) -> complex:
        return complex(np.exp(2j * np.pi / self.n))

    @property
    def haar_weight(self) -> float:
        return 1.0 / self.n

    def points(self):
        """All N^2 points (a, b) in lexicographic order."""
        n = self.n
        return [(a, b) for a in range(n) for b in range(n)]

    def point(self, x) -> tuple[int, int]:
        a, b = x
        return (int(a) % self.n, int(b) % self.n)

    def index(self, x) -> int:
        a, b = self.point(x)
        return a * self.n + b

    def add(self, x, y) -> tuple[int, int]:
        return ((x[0] + y[0]) % self.n, (x[1] + y[1]) % self.n)

    def neg(self, x) -> tuple[int, int]:
        return ((-x[0]) % self.n, (-x[1]) % self.n)

    def roots(self) -> np.ndarray:
        """omega^k for k = 0..N-1: the values multiplier and pairing return."""
        return np.array([complex(self.omega ** k) for k in range(self.n)])

    def multiplier_exponent(self, x, y):
        """k with m(x,y) = omega^k; coordinates may be integer arrays."""
        return -(x[0] * y[1]) % self.n

    def pairing_exponent(self, x, y):
        """k with sigma(x,y) = omega^k; coordinates may be integer arrays."""
        (a, b), (c, d) = x, y
        return (c * b - a * d) % self.n

    def multiplier(self, x, y) -> complex:
        """m((a,b),(c,d)) = omega^(-a*d); satisfies the cocycle relation."""
        return complex(self.omega ** self.multiplier_exponent(self.point(x), self.point(y)))

    def pairing(self, x, y) -> complex:
        """sigma(x,y) = m(x,y)*conj(m(y,x)) = omega^(c*b - a*d); perfect pairing."""
        return complex(self.omega ** self.pairing_exponent(self.point(x), self.point(y)))

    def as_group(self) -> FiniteAbelianGroup:
        """The phase space as a plain group (functions on it live here)."""
        return FiniteAbelianGroup((self.n, self.n), 1.0 / self.n)

    def function(self, values) -> GroupFunction:
        return GroupFunction(self.as_group(), np.asarray(values, dtype=complex))


class HilbertOp:
    """N x N complex matrix with lazily computed operator and trace norms."""

    def __init__(self, matrix):
        mat = np.array(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("HilbertOp expects a square matrix")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        mat.setflags(write=False)
        self.matrix = mat

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def singular_values(self) -> np.ndarray:
        sv = _singular_values(self.matrix)
        sv.setflags(write=False)
        return sv

    @property
    def op_norm(self) -> float:
        return float(self.singular_values[0]) if self.dim else 0.0

    @property
    def trace_norm(self) -> float:
        return float(self.singular_values.sum())

    def __repr__(self) -> str:
        return f"HilbertOp(dim={self.dim})"


def _singular_values(mats: np.ndarray) -> np.ndarray:
    """Singular values, descending, of each matrix on the trailing two axes."""
    return np.linalg.svd(mats, compute_uv=False)


def identity_op(n: int) -> HilbertOp:
    return HilbertOp(np.eye(n))


def rank_one(phi, psi=None) -> HilbertOp:
    """Sesquilinear tensor phi (x) psi: g -> <g, psi> phi."""
    phi = np.asarray(phi, dtype=complex)
    psi = phi if psi is None else np.asarray(psi, dtype=complex)
    return HilbertOp(np.outer(phi, psi.conj()))


def reflection_symmetric_unit(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vector along v + R v for one complex Gaussian draw v, or along
    v + 1 when the draw is reflection-antisymmetric (|v + R v| < 1e-9)."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phi = v + v[(-np.arange(n)) % n]
    if np.linalg.norm(phi) < 1e-9:
        phi = v + 1.0
    return phi / np.linalg.norm(phi)


def random_op(n: int, rng: np.random.Generator) -> HilbertOp:
    return HilbertOp(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def weyl(ps: PhaseSpace, x) -> HilbertOp:
    """Weyl operator U_(a,b): f(t) -> omega^(b*t) f(t-a).

    Unitary, and U_x U_y = m(x,y) U_{x+y} exactly.
    """
    n = ps.n
    (rows,), (phase,) = _shift_tables(n, [ps.point(x)])
    mat = np.zeros((n, n), dtype=complex)
    mat[np.arange(n), rows] = phase
    return HilbertOp(mat)


def parity_op(ps: PhaseSpace) -> HilbertOp:
    """Reflection R f(t) = f(-t mod N); R = R* = R^-1 and R U_x R = U_{-x}."""
    n = ps.n
    t = np.arange(n)
    mat = np.zeros((n, n))
    mat[t, (-t) % n] = 1.0
    return HilbertOp(mat)


def op_translate(op: HilbertOp, x) -> HilbertOp:
    """Phase-space translation alpha_x(A) = U_x A U_x*; a *-automorphism."""
    return HilbertOp(op_translate_stack(op, [x])[0])


def _shift_tables(n: int, points) -> tuple[np.ndarray, np.ndarray]:
    """Row and phase tables of U_(a,b) for each point: row s of U_(a,b) A is
    omega^(b s) times row s - a of A, so rows[k, s] = s - a mod N and
    phase[k, s] = omega^(b s) for the k-th point."""
    a, b = (np.asarray(points).reshape(-1, 2) % n).T[..., None]
    rows = (np.arange(n) - a) % n
    phase = PhaseSpace(n).omega ** ((b * np.arange(n)) % n)
    return rows, phase


def op_translate_stack(op: HilbertOp, points) -> np.ndarray:
    """alpha_x(A) for each point x, stacked along axis 0.  U_(a,b) is a shift
    times a phase, so alpha_(a,b)(A)[s,t] = omega^(b s) A[s-a, t-a] conj(omega^(b t))."""
    n = op.dim
    rows, phase = _shift_tables(n, points)
    out = phase[:, :, None] * op.matrix.ravel()[rows[:, :, None] * n + rows[:, None, :]]
    out *= phase.conj()[:, None, :]  # in place: a second temporary took 4x longer at N = 12
    return out


def op_parity(op: HilbertOp) -> HilbertOp:
    """Operator parity beta(A) = R A R, i.e. A[-s, -t]; involutive."""
    neg = (-np.arange(op.dim)) % op.dim
    return HilbertOp(op.matrix[neg][:, neg])


def op_modulate(op: HilbertOp, xi) -> HilbertOp:
    """Operator modulation gamma_xi(B) = U_{-xi/2} B U_{-xi/2}.

    With (a, b) = -xi/2 the entries are omega^(b s) B[s-a, t+a] omega^(b (t+a)).
    Needs 2 invertible mod N, i.e. odd N; xi/2 is computed with the modular
    inverse of 2.
    """
    n = op.dim
    if n % 2 == 0:
        raise PreconditionError(f"op_modulate needs odd dimension, got N={n}")
    inv2 = pow(2, -1, n)
    p, q = PhaseSpace(n).point(xi)
    a = (-p * inv2) % n
    (rows,), (phase,) = _shift_tables(n, [(a, -q * inv2)])
    cols = (np.arange(n) + a) % n
    return HilbertOp(phase[:, None] * op.matrix[rows][:, cols] * phase[cols])


def _shifted_diagonals(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays [a, t] -> (t - a mod N, t): row a is the a-th shifted
    diagonal, and every matrix entry appears exactly once."""
    t = np.arange(n)
    return (t[None, :] - t[:, None]) % n, np.broadcast_to(t, (n, n))


def _fourier_weyl(mats: np.ndarray) -> np.ndarray:
    """F_weyl on the trailing (N, N) axes: [..., a, b] = Tr(A U_(a,b))."""
    n = mats.shape[-1]
    # Tr(A U_(a,b)) = sum_t A[t-a, t] omega^(b t): a positive-frequency DFT
    # of the a-th shifted diagonal.
    return np.fft.ifft(mats[(..., *_shifted_diagonals(n))], axis=-1) * n


def _fourier_weyl_inverse(spec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_fourier_weyl` on the trailing (N, N) axes."""
    n = spec.shape[-1]
    # U_(a,b)* carries omega^(-b t) at (t-a, t), so the a-th shifted
    # diagonal is (1/N) sum_b F(a,b) omega^(-b t): a negative-frequency DFT.
    mats = np.empty(spec.shape, dtype=complex)
    mats[(..., *_shifted_diagonals(n))] = np.fft.fft(spec, axis=-1) / n
    return mats


def fourier_weyl(op: HilbertOp) -> GroupFunction:
    """Fourier transform of an operator: xi -> Tr(A U_xi).

    Linear, injective, and an isometry from the HS norm into
    L^2(phase space, weight 1/N).
    """
    return PhaseSpace(op.dim).function(_fourier_weyl(op.matrix).ravel())


def fourier_weyl_inverse(ps: PhaseSpace, values: GroupFunction) -> HilbertOp:
    """Reconstruction A = (1/N) sum_xi F(xi) U_xi*."""
    return HilbertOp(_fourier_weyl_inverse(values.values.reshape(ps.n, ps.n)))


def weyl_identity_residuals(n: int) -> dict[str, float]:
    """Exhaustive max residuals of the defining identities at dimension n.

    Keys: 'projective' (U_x U_y = m(x,y) U_{x+y}), 'parity' (R U_x R = U_{-x}),
    'cocycle' (multiplier cocycle relation), 'parity_symmetric'
    (m(x,y) = m(-x,-y)), 'pairing_perfect' (sigma enumerates every character
    of the phase space exactly once).  Every pair (x, y), and every triple for
    the cocycle, is checked; points are indexed lexicographically.
    """
    ps = PhaseSpace(n)
    a, b = np.divmod(np.arange(n * n), n)
    add = (a[:, None] + a) % n * n + (b[:, None] + b) % n  # index of x + y
    neg = (-a) % n * n + (-b) % n  # index of -x
    m = ps.roots()[ps.multiplier_exponent((a[:, None], b[:, None]), (a, b))]
    us = np.stack([weyl(ps, x).matrix for x in ps.points()])
    r = parity_op(ps).matrix

    proj = max(
        float(np.abs(us[i] @ us - m[i, :, None, None] * us[add[i]]).max()) for i in range(n * n)
    )
    par = float(np.abs(r @ us @ r - us[neg]).max())
    sym = float(np.abs(m - m[neg][:, neg]).max())
    # m(x+y, z) m(x, y) = m(x, y+z) m(y, z), one N^2 x N^2 slab (y, z) per x.
    coc = max(
        float(np.abs(m[add[i]] * m[i, :, None] - m[i][add] * m).max()) for i in range(n * n)
    )

    # Row y holds the exponents of sigma(., y): each row must be the character
    # fixed by its values at (1,0) and (0,1), and no two rows may coincide.
    sig = ps.pairing_exponent((a, b), (a[:, None], b[:, None]))
    gen = sig[:, [ps.index((1, 0)), ps.index((0, 1))]]
    characters = np.array_equal(sig, (gen[:, :1] * a + gen[:, 1:] * b) % n)
    # Given `characters`, rows coincide exactly when their generator values do.
    distinct = np.bincount(gen[:, 0] * n + gen[:, 1], minlength=n * n).max() == 1
    pairing_ok = 0.0 if characters and distinct else 1.0

    return {
        "projective": proj,
        "parity": par,
        "cocycle": coc,
        "parity_symmetric": sym,
        "pairing_perfect": pairing_ok,
    }
