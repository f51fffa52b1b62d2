"""Convolutions between functions and operators on the finite phase space.

Three products, all with the 1/N Haar weight pinned by the normalization
identity 1 * A = Tr(A) I:

* function * function  -> function      (weighted circular convolution)
* function * operator  -> operator      f*A = (1/N) sum_y f(y) alpha_y(A)
* operator * operator  -> function      A*B(x) = Tr(A alpha_x(beta(B)))

The symplectic Fourier transform on the phase space uses the kernel
``conj(sigma(x, xi))``.  This orientation is pinned by the brute-force
oracle in :func:`pin_orientation`: it is the unique kernel (the four sign
variants collapse pairwise by antisymmetry of sigma) under which

    F_sigma(f*g)  = F_sigma(f) . F_sigma(g)
    F_weyl(f*A)   = F_sigma(f) . F_weyl(A)

hold exactly.  The operator-operator product transforms with an extra
multiplier weight that is identically 1 only in the symmetric-cocycle
setting; at finite N with the asymmetric canonical multiplier the exact
identity is

    F_sigma(A*B)(xi) . m(xi, -xi) = F_weyl(A)(xi) . F_weyl(B)(xi)

with m(xi,-xi) = omega^(xi_1 * xi_2) (see :func:`self_pairing_weight` and
the oracle report; no orientation removes the weight).  F_sigma is an
involution.

Both phase-space products are computed through the second and third
identities (solved for the product, in the pinned orientation), with
F_sigma a reindexed 2-D FFT and F_weyl an FFT along shifted diagonals, so
each costs O(N^2 log N); the direct sums survive only as test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupMismatchError
from .groups import GroupFunction, _convolve, _same_group, lp_norm
from .weyl import (
    HilbertOp, PhaseSpace, _fourier_weyl, _fourier_weyl_inverse, _singular_values, rank_one,
    reflection_symmetric_unit,
)

#: Sign s per kernel variant, as formulas in (x, xi): the kernel is
#: omega^(s * (p*b - q*a)) at x = (a,b), xi = (p,q).  By antisymmetry
#: sigma(xi, x) = conj(sigma(x, xi)), so the four variants collapse to two.
_VARIANT_SIGNS = {
    "sigma(x,xi)": 1,
    "conj(sigma(x,xi))": -1,
    "sigma(xi,x)": -1,
    "conj(sigma(xi,x))": 1,
}

#: Kernel variants for the symplectic transform.
ORIENTATION_VARIANTS = tuple(_VARIANT_SIGNS)

#: The orientation pinned by the N=3 oracle (equals "sigma(xi,x)" pointwise).
PINNED_ORIENTATION = "conj(sigma(x,xi))"
_PINNED_SIGN = _VARIANT_SIGNS[PINNED_ORIENTATION]


# The kernels below act on the trailing (N, N) axes of stacked arrays: a
# function as its values on the grid, an operator as its matrix.  Complex
# factors are named before they are multiplied: numpy may evaluate
# ``x * <temporary>`` as ``temporary *= x``, and its FMA complex product is
# not bitwise commutative, so an unnamed right factor could move last digits.


def _conv_fn_op(f: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """f * A as F_weyl^-1(F_sigma(f) . F_weyl(A))."""
    sf, fw = _symplectic_fourier(f, _PINNED_SIGN), _fourier_weyl(mats)
    return _fourier_weyl_inverse(sf * fw)


def _conv_op_op(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A * B as F_sigma(conj(m(xi,-xi)) . F_weyl(A) . F_weyl(B))."""
    n = a.shape[-1]
    w = self_pairing_weight(PhaseSpace(n)).conj().reshape(n, n)
    fa, fb = _fourier_weyl(a), _fourier_weyl(b)
    return _symplectic_fourier(w * fa * fb, _PINNED_SIGN)


def _symplectic_fourier(f: np.ndarray, s: int) -> np.ndarray:
    """(1/N) sum_x omega^(s (p*b - q*a)) f(a, b) at xi = (p, q): fft2(f)[s*q, -s*p] / N."""
    n = f.shape[-1]
    p, q = np.indices((n, n))
    return np.fft.fft2(f)[..., (s * q) % n, (-s * p) % n] / n


def _sign(variant: str) -> int:
    if variant not in _VARIANT_SIGNS:
        raise ValueError(f"unknown orientation variant {variant!r}")
    return _VARIANT_SIGNS[variant]


def conv_fn_op(f: GroupFunction, op: HilbertOp) -> HilbertOp:
    """f * A = (1/N) sum_y f(y) U_y A U_y*; linear in each argument."""
    n = op.dim
    _same_group(f.group, PhaseSpace(n).as_group())
    return HilbertOp(_conv_fn_op(f.values.reshape(n, n), op.matrix))


def conv_op_op(a: HilbertOp, b: HilbertOp) -> GroupFunction:
    """A * B(x) = Tr(A U_x R B R U_x*); commutative, positivity-preserving."""
    if a.dim != b.dim:
        raise GroupMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return PhaseSpace(a.dim).function(_conv_op_op(a.matrix, b.matrix).ravel())


def symplectic_fourier(f: GroupFunction, variant: str = PINNED_ORIENTATION) -> GroupFunction:
    """Symplectic Fourier transform, (1/N) sum_x kernel(x, xi) f(x).

    The default kernel conj(sigma(x,xi)) is the oracle-pinned orientation;
    the transform is an involution for every variant.  With sign s of the
    variant, the sum is a reindexed 2-D DFT: fft2(f)[s*q, -s*p] / N.
    """
    orders = f.group.orders
    if len(orders) != 2 or orders[0] != orders[1]:
        raise GroupMismatchError("symplectic transform needs a function on Z_N x Z_N")
    spec = _symplectic_fourier(f.values.reshape(orders), _sign(variant))
    return GroupFunction(f.group, spec.ravel())


def self_pairing_weight(ps: PhaseSpace) -> np.ndarray:
    """Vector xi -> m(xi, -xi) = omega^(xi_1 * xi_2) over the phase space.

    This is the weight appearing in the exact operator-operator transform
    identity at finite N.
    """
    n = ps.n
    p, q = np.divmod(np.arange(n * n), n)
    return np.exp(2j * np.pi * ((p * q) % n) / n)


# --- convolution-theorem oracle ----------------------------------------------


@dataclass
class OrientationReport:
    """Residuals of the three transform identities per kernel orientation."""

    residuals: dict[str, tuple[float, float, float]]
    weighted_op_op: dict[str, float]
    pinned: str | None


#: Samples per stacked block: at most 2**16 complex entries per (k, N, N) array.
_BLOCK_ENTRIES = 2**16


def _sample_blocks(n: int, samples: int, seed: int):
    """(first index, f, g, A, B) per block of random samples, each a (k, N, N)
    complex stack.  One draw per block gives the stream of one draw per part:
    f re, f im, g re, g im, A re, A im, B re, B im, sample after sample."""
    rng = np.random.default_rng(seed)
    step = max(1, _BLOCK_ENTRIES // (n * n))
    for start in range(0, samples, step):
        x = rng.standard_normal((min(step, samples - start), 8, n, n))
        yield start, *(x[:, i] + 1j * x[:, i + 1] for i in range(0, 8, 2))


def convolution_theorem_residuals(
    n: int, seed: int, samples: int = 5, variant: str = PINNED_ORIENTATION
) -> dict[str, float]:
    """Max residuals of the transform identities on random data.

    Keys: 'fn_fn', 'fn_op', 'op_op' for the three product identities with
    the given orientation, and 'op_op_weighted' for the identity carrying
    the m(xi,-xi) weight on the left-hand side.
    """
    s = _sign(variant)
    w = self_pairing_weight(PhaseSpace(n)).reshape(n, n)
    out = {"fn_fn": 0.0, "fn_op": 0.0, "op_op": 0.0, "op_op_weighted": 0.0}
    for _, f, g, a, b in _sample_blocks(n, samples, seed):
        sf_f, sf_g = _symplectic_fourier(f, s), _symplectic_fourier(g, s)
        fw_a, fw_b = _fourier_weyl(a), _fourier_weyl(b)
        op_lhs, op_rhs = _symplectic_fourier(_conv_op_op(a, b), s), fw_a * fw_b
        pairs = {
            "fn_fn": (_symplectic_fourier(_convolve(f, g, 1.0 / n, (-2, -1)), s), sf_f * sf_g),
            "fn_op": (_fourier_weyl(_conv_fn_op(f, a)), sf_f * fw_a),
            "op_op": (op_lhs, op_rhs),
            "op_op_weighted": (op_lhs * w, op_rhs),
        }
        for key, (lhs, rhs) in pairs.items():
            out[key] = max(out[key], float(np.abs(lhs - rhs).max()))
    return out


def pin_orientation(n: int = 3, seed: int = 0, samples: int = 5, tol: float = 1e-10) -> OrientationReport:
    """Brute-force oracle over the four kernel orientations at dimension n.

    Pins the variant with the most identities satisfied (ties broken by the
    documented default).  No variant satisfies all three in the unweighted
    classical form; the report carries the weighted operator-operator
    residual showing the exact finite-N identity.
    """
    residuals: dict[str, tuple[float, float, float]] = {}
    weighted: dict[str, float] = {}
    for variant in ORIENTATION_VARIANTS:
        r = convolution_theorem_residuals(n, seed, samples, variant)
        residuals[variant] = (r["fn_fn"], r["fn_op"], r["op_op"])
        weighted[variant] = r["op_op_weighted"]
    best: str | None = None
    best_score = -1
    for variant in ORIENTATION_VARIANTS:
        score = sum(1 for r in residuals[variant] if r <= tol)
        if score > best_score or (score == best_score and variant == PINNED_ORIENTATION):
            best, best_score = variant, score
    return OrientationReport(residuals, weighted, best)


# --- norm-estimate audit ------------------------------------------------------

INEQUALITY_NAMES = (
    "fn_fn_sup",     # ||f*g||_inf  <= ||f||_1 ||g||_inf
    "fn_op_op",      # ||f*B||_op   <= ||f||_1 ||B||_op
    "op_fn_op",      # ||A*g||_op   <= ||A||_tr ||g||_inf
    "op_op_sup",     # ||A*B||_inf  <= ||A||_tr ||B||_op
)


@dataclass
class NormAuditReport:
    max_ratio: dict[str, float]
    argmax_index: dict[str, int]

    def worst(self) -> float:
        return max(self.max_ratio.values()) if self.max_ratio else 0.0


def _ratio(num, den):
    """num / den, and 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den != 0.0)


def _sup_norms(stack: np.ndarray) -> np.ndarray:
    """Sup norm of each item of a stack."""
    return np.abs(stack).reshape(len(stack), -1).max(axis=1)


def verify_norm_estimates(n: int, samples: int, seed: int) -> NormAuditReport:
    """Randomized audit of the four convolution norm inequalities.

    Reports the max observed ratio (bound side over product of norms) per
    inequality together with the sample index attaining it (the first one).
    Deterministic given the seed.
    """
    PhaseSpace(n)  # rejects n < 1 before any draw
    if samples < 1:
        raise ValueError("samples must be >= 1")
    report = NormAuditReport(dict.fromkeys(INEQUALITY_NAMES, 0.0), dict.fromkeys(INEQUALITY_NAMES, 0))
    for start, f, g, a, b in _sample_blocks(n, samples, seed):
        l1_f = np.abs(f).reshape(len(f), -1).sum(axis=1) * (1.0 / n)
        sup_g, op_b = _sup_norms(g), _singular_values(b)[:, 0]
        tr_a = _singular_values(a).sum(axis=1)
        ratios = {
            "fn_fn_sup": (_sup_norms(_convolve(f, g, 1.0 / n, (-2, -1))), l1_f * sup_g),
            "fn_op_op": (_singular_values(_conv_fn_op(f, b))[:, 0], l1_f * op_b),
            "op_fn_op": (_singular_values(_conv_fn_op(g, a))[:, 0], tr_a * sup_g),
            "op_op_sup": (_sup_norms(_conv_op_op(a, b)), tr_a * op_b),
        }
        for name, (num, den) in ratios.items():
            r = _ratio(num, den)
            i = int(r.argmax())
            if r[i] > report.max_ratio[name]:
                report.max_ratio[name], report.argmax_index[name] = float(r[i]), start + i
    return report


def sharpness_witness(n: int, seed: int = 0) -> float:
    """Ratio ||A*B||_inf / (||A||_tr ||B||_op) for A = B = phi (x) phi with
    a reflection-symmetric unit vector phi; equals 1, attained at the origin."""
    a = rank_one(reflection_symmetric_unit(n, np.random.default_rng(seed)))
    return float(_ratio(lp_norm(conv_op_op(a, a), np.inf), a.trace_norm * a.op_norm))
