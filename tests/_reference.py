"""Direct-sum definitions of the phase-space products, transforms and
operator actions, the corresponding space by one SVD, and dense singular
values.

Test oracles only: each one evaluates its defining formula with dense Weyl
matrices, explicit characters or one dense LAPACK SVD, and shares no code
with the FFT routes and index gathers in ``qha.conv``, ``qha.weyl``,
``qha.wiener`` and ``qha.tauber`` or the structured spectral norms in
``qha.numerics``.  Costs are O(N^5) for the
products, O(N^6) for the identity loop and O(|G|^3) for the STFT, so the
ladders using them stay small.
"""

import numpy as np

from qha import HilbertOp, PhaseSpace, parity_op, weyl


def conv_fn_op(ps: PhaseSpace, f, a) -> np.ndarray:
    """f * A = (1/N) sum_y f(y) U_y A U_y*."""
    acc = np.zeros((ps.n, ps.n), dtype=complex)
    for y in ps.points():
        u = weyl(ps, y).matrix
        acc += f.values[ps.index(y)] * (u @ a.matrix @ u.conj().T)
    return acc / ps.n


def conv_op_op(ps: PhaseSpace, a, b) -> np.ndarray:
    """A * B(x) = Tr(A U_x R B R U_x*)."""
    r = parity_op(ps).matrix
    rbr = r @ b.matrix @ r
    out = np.empty(ps.n * ps.n, dtype=complex)
    for x in ps.points():
        u = weyl(ps, x).matrix
        out[ps.index(x)] = np.trace(a.matrix @ u @ rbr @ u.conj().T)
    return out


def op_translate(ps: PhaseSpace, a) -> np.ndarray:
    """alpha_x(A) = U_x A U_x* for every x, stacked in point order."""
    us = [weyl(ps, x).matrix for x in ps.points()]
    return np.stack([u @ a.matrix @ u.conj().T for u in us])


def op_parity(ps: PhaseSpace, a) -> np.ndarray:
    """beta(A) = R A R with the dense reflection."""
    r = parity_op(ps).matrix
    return r @ a.matrix @ r


def op_modulate(ps: PhaseSpace, b, xi) -> np.ndarray:
    """gamma_xi(B) = U B U for U = U_{-xi/2}, the dense Weyl matrix (odd N)."""
    inv2 = pow(2, -1, ps.n)
    u = weyl(ps, (-xi[0] * inv2, -xi[1] * inv2)).matrix
    return u @ b.matrix @ u


def uniform_compactness_profile(ps: PhaseSpace, a, b, points) -> np.ndarray:
    """max over x in points of |(U_x A) * B|, with dense U_x A and the direct sum."""
    return np.max(
        [np.abs(conv_op_op(ps, HilbertOp(weyl(ps, x).matrix @ a.matrix), b)) for x in points],
        axis=0,
    )


def corresponding_space(ps: PhaseSpace, d0_basis, threshold: float = 1e-8) -> list[np.ndarray]:
    """Orthonormal basis of span{f * E_uv : E_uv a matrix unit, f in d0_basis}:
    one SVD of the stacked direct sums, keeping singular values above
    threshold times the largest."""
    n = ps.n
    rows = []
    for f in d0_basis:
        for k in range(n * n):
            unit = np.zeros(n * n, dtype=complex)
            unit[k] = 1.0
            rows.append(conv_fn_op(ps, f, HilbertOp(unit.reshape(n, n))).ravel())
    _u, s, vh = np.linalg.svd(np.stack(rows), full_matrices=False)
    if not s.size or s[0] == 0.0:
        return []
    return [vh[i].reshape(n, n) for i in np.flatnonzero(s > threshold * s[0])]


def weyl_identity_residuals(n: int) -> dict[str, float]:
    """The defining identities pair by pair: dense Weyl products, the
    multiplier point by point, and the pairing through the orthogonality
    of distinct characters (S S* = N^2 I for S[y, x] = sigma(x, y))."""
    ps = PhaseSpace(n)
    pts = ps.points()
    us = {x: weyl(ps, x).matrix for x in pts}
    r = parity_op(ps).matrix

    proj = 0.0
    for x in pts:
        for y in pts:
            lhs = us[x] @ us[y]
            rhs = ps.multiplier(x, y) * us[ps.add(x, y)]
            proj = max(proj, float(np.abs(lhs - rhs).max()))

    par = max(
        float(np.abs(r @ us[x] @ r - us[ps.neg(x)]).max()) for x in pts
    )

    coc = 0.0
    sym = 0.0
    for x in pts:
        for y in pts:
            sym = max(sym, abs(ps.multiplier(x, y) - ps.multiplier(ps.neg(x), ps.neg(y))))
            for z in pts:
                lhs = ps.multiplier(ps.add(x, y), z) * ps.multiplier(x, y)
                rhs = ps.multiplier(x, ps.add(y, z)) * ps.multiplier(y, z)
                coc = max(coc, abs(lhs - rhs))

    s = np.array([[ps.pairing(x, y) for x in pts] for y in pts])
    gram = s @ s.conj().T / (n * n)
    pairing_ok = 0.0 if np.abs(gram - np.eye(n * n)).max() <= 1e-9 else 1.0

    return {
        "projective": proj,
        "parity": par,
        "cocycle": coc,
        "parity_symmetric": sym,
        "pairing_perfect": pairing_ok,
    }


def sigma_kernel(ps: PhaseSpace, variant: str) -> np.ndarray:
    """Dense K[xi, x] for the four kernel variants, read off the pairing."""
    kernel = {
        "sigma(x,xi)": lambda x, xi: ps.pairing(x, xi),
        "conj(sigma(x,xi))": lambda x, xi: np.conj(ps.pairing(x, xi)),
        "sigma(xi,x)": lambda x, xi: ps.pairing(xi, x),
        "conj(sigma(xi,x))": lambda x, xi: np.conj(ps.pairing(xi, x)),
    }[variant]
    pts = ps.points()
    return np.array([[kernel(x, xi) for x in pts] for xi in pts])


def symplectic_fourier(ps: PhaseSpace, f, variant: str) -> np.ndarray:
    """(1/N) sum_x kernel(x, xi) f(x)."""
    return sigma_kernel(ps, variant) @ f.values / ps.n


def fourier_weyl_inverse(ps: PhaseSpace, values) -> np.ndarray:
    """(1/N) sum_xi F(xi) U_xi*."""
    acc = np.zeros((ps.n, ps.n), dtype=complex)
    for xi in ps.points():
        acc += values.values[ps.index(xi)] * weyl(ps, xi).matrix.conj().T
    return acc / ps.n


def stft(f, window) -> np.ndarray:
    """V[x, xi] = haar_weight * sum_t Phi(t) xi(t) f(t - x), character by character."""
    g = f.group
    card = g.cardinality
    out = np.zeros((card, card), dtype=complex)
    for xi, x in enumerate(g.elements()):
        for ci, freqs in enumerate(g.elements()):
            chi = g.character(freqs)
            out[xi, ci] = g.haar_weight * sum(
                window.values[g.index(t)] * chi(t)
                * f.values[g.index(tuple(a - b for a, b in zip(t, x)))]
                for t in g.elements()
            )
    return out


def singular_values(m) -> np.ndarray:
    """All min(R, C) singular values, descending, by one dense SVD."""
    return np.linalg.svd(np.asarray(m), compute_uv=False)


def spectral_norm(m) -> float:
    """Dense operator 2-norm."""
    return float(np.linalg.norm(np.asarray(m), 2))
