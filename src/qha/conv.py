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

from dataclasses import dataclass, field

import numpy as np

from .errors import GroupMismatchError
from .groups import GroupFunction, convolve, lp_norm
from .weyl import HilbertOp, PhaseSpace, fourier_weyl, fourier_weyl_inverse, random_op

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


def _check_phase_function(ps: PhaseSpace, f: GroupFunction) -> None:
    g = ps.as_group()
    if f.group.orders != g.orders or not np.isclose(f.group.haar_weight, g.haar_weight):
        raise GroupMismatchError(
            f"function lives on {f.group}, expected phase space Z_{ps.n} x Z_{ps.n} "
            f"with weight 1/{ps.n}"
        )


def conv_fn_op(f: GroupFunction, op: HilbertOp) -> HilbertOp:
    """f * A = (1/N) sum_y f(y) U_y A U_y*; linear in each argument.

    Computed as F_weyl^-1(F_sigma(f) . F_weyl(A)).
    """
    ps = PhaseSpace(op.dim)
    _check_phase_function(ps, f)
    spec = symplectic_fourier(f).values * fourier_weyl(op).values
    return fourier_weyl_inverse(ps, ps.function(spec))


def conv_op_op(a: HilbertOp, b: HilbertOp) -> GroupFunction:
    """A * B(x) = Tr(A U_x R B R U_x*); commutative, positivity-preserving.

    Computed as F_sigma(conj(m(xi,-xi)) . F_weyl(A) . F_weyl(B)).
    """
    if a.dim != b.dim:
        raise GroupMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    ps = PhaseSpace(a.dim)
    spec = self_pairing_weight(ps).conj() * fourier_weyl(a).values * fourier_weyl(b).values
    return symplectic_fourier(ps.function(spec))


def symplectic_fourier(f: GroupFunction, variant: str = PINNED_ORIENTATION) -> GroupFunction:
    """Symplectic Fourier transform, (1/N) sum_x kernel(x, xi) f(x).

    The default kernel conj(sigma(x,xi)) is the oracle-pinned orientation;
    the transform is an involution for every variant.  With sign s of the
    variant, the sum is a reindexed 2-D DFT: fft2(f)[s*q, -s*p] / N.
    """
    orders = f.group.orders
    if len(orders) != 2 or orders[0] != orders[1]:
        raise GroupMismatchError("symplectic transform needs a function on Z_N x Z_N")
    if variant not in _VARIANT_SIGNS:
        raise ValueError(f"unknown orientation variant {variant!r}")
    s = _VARIANT_SIGNS[variant]
    n = orders[0]
    p, q = np.indices((n, n))
    spec = np.fft.fft2(f.values.reshape(n, n))[(s * q) % n, (-s * p) % n]
    return GroupFunction(f.group, spec.ravel() / n)


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

    n: int
    samples: int
    residuals: dict[str, tuple[float, float, float]]
    weighted_op_op: dict[str, float]
    pinned: str | None

    def rows(self):
        for name, (r1, r2, r3) in self.residuals.items():
            yield name, r1, r2, r3, self.weighted_op_op[name]


def convolution_theorem_residuals(
    n: int, seed: int, samples: int = 5, variant: str = PINNED_ORIENTATION
) -> dict[str, float]:
    """Max residuals of the transform identities on random data.

    Keys: 'fn_fn', 'fn_op', 'op_op' for the three product identities with
    the given orientation, and 'op_op_weighted' for the identity carrying
    the m(xi,-xi) weight on the left-hand side.
    """
    ps = PhaseSpace(n)
    rng = np.random.default_rng(seed)
    w = self_pairing_weight(ps)
    out = {"fn_fn": 0.0, "fn_op": 0.0, "op_op": 0.0, "op_op_weighted": 0.0}
    for _ in range(samples):
        f = _random_phase_function(ps, rng)
        g = _random_phase_function(ps, rng)
        a = random_op(n, rng)
        b = random_op(n, rng)

        lhs = symplectic_fourier(convolve(f, g), variant).values
        rhs = symplectic_fourier(f, variant).values * symplectic_fourier(g, variant).values
        out["fn_fn"] = max(out["fn_fn"], float(np.abs(lhs - rhs).max()))

        lhs = fourier_weyl(conv_fn_op(f, a)).values
        rhs = symplectic_fourier(f, variant).values * fourier_weyl(a).values
        out["fn_op"] = max(out["fn_op"], float(np.abs(lhs - rhs).max()))

        lhs = symplectic_fourier(conv_op_op(a, b), variant).values
        rhs = fourier_weyl(a).values * fourier_weyl(b).values
        out["op_op"] = max(out["op_op"], float(np.abs(lhs - rhs).max()))
        out["op_op_weighted"] = max(
            out["op_op_weighted"], float(np.abs(lhs * w - rhs).max())
        )
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
    return OrientationReport(n, samples, residuals, weighted, best)


# --- norm-estimate audit ------------------------------------------------------

INEQUALITY_NAMES = (
    "fn_fn_sup",     # ||f*g||_inf  <= ||f||_1 ||g||_inf
    "fn_op_op",      # ||f*B||_op   <= ||f||_1 ||B||_op
    "op_fn_op",      # ||A*g||_op   <= ||A||_tr ||g||_inf
    "op_op_sup",     # ||A*B||_inf  <= ||A||_tr ||B||_op
)


@dataclass
class NormAuditReport:
    n: int
    samples: int
    seed: int
    max_ratio: dict[str, float] = field(default_factory=dict)
    argmax_index: dict[str, int] = field(default_factory=dict)

    def worst(self) -> float:
        return max(self.max_ratio.values()) if self.max_ratio else 0.0


def _random_phase_function(ps: PhaseSpace, rng: np.random.Generator) -> GroupFunction:
    m = ps.n * ps.n
    return ps.function(rng.standard_normal(m) + 1j * rng.standard_normal(m))


def _ratio(num: float, den: float) -> float:
    return 0.0 if den == 0.0 else num / den


def verify_norm_estimates(n: int, samples: int, seed: int) -> NormAuditReport:
    """Randomized audit of the four convolution norm inequalities.

    Reports the max observed ratio (bound side over product of norms) per
    inequality together with the sample index attaining it.  Deterministic
    given the seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    ps = PhaseSpace(n)
    rng = np.random.default_rng(seed)
    report = NormAuditReport(n, samples, seed)
    for name in INEQUALITY_NAMES:
        report.max_ratio[name] = 0.0
        report.argmax_index[name] = 0
    for i in range(samples):
        f = _random_phase_function(ps, rng)
        g = _random_phase_function(ps, rng)
        a = random_op(n, rng)
        b = random_op(n, rng)
        ratios = {
            "fn_fn_sup": _ratio(lp_norm(convolve(f, g), np.inf), lp_norm(f, 1) * lp_norm(g, np.inf)),
            "fn_op_op": _ratio(conv_fn_op(f, b).op_norm, lp_norm(f, 1) * b.op_norm),
            "op_fn_op": _ratio(conv_fn_op(g, a).op_norm, a.trace_norm * lp_norm(g, np.inf)),
            "op_op_sup": _ratio(lp_norm(conv_op_op(a, b), np.inf), a.trace_norm * b.op_norm),
        }
        for name, r in ratios.items():
            if r > report.max_ratio[name]:
                report.max_ratio[name] = r
                report.argmax_index[name] = i
    return report


def sharpness_witness(n: int, seed: int = 0) -> float:
    """Ratio ||A*B||_inf / (||A||_tr ||B||_op) for A = B = phi (x) phi with
    a reflection-symmetric unit vector phi; equals 1, attained at the origin."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phi = v + v[(-np.arange(n)) % n]  # v + R v
    if np.linalg.norm(phi) < 1e-9:  # reflection-antisymmetric draw
        phi = v + 1.0
    phi = phi / np.linalg.norm(phi)
    a = HilbertOp(np.outer(phi, phi.conj()))
    return _ratio(lp_norm(conv_op_op(a, a), np.inf), a.trace_norm * a.op_norm)
