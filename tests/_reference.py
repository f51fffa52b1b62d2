"""Direct-sum definitions of the phase-space products, transforms and
operator actions, the corresponding space by one SVD, dense singular
values, the topology probe's vector quantities on dense pairwise
differences, the modulated box, the shifted reflection and block
projection and the projection sandwich from dense S x S matrices, the
windowed transform profile shift by shift, and the CSV
readers and writers on the ``csv`` module with per-field conversion.

Test oracles only: each one evaluates its defining formula with dense Weyl
matrices, explicit characters or one dense LAPACK SVD, and shares no code
with the FFT routes and index gathers in ``qha.conv``, ``qha.weyl``,
``qha.wiener`` and ``qha.tauber`` or the structured spectral norms in
``qha.numerics``.  Costs are O(N^5) for the
products, O(N^6) for the identity loop and O(|G|^3) for the STFT, so the
ladders using them stay small.

The exception is the per-item loops (the STFT one translate at a time, the
norm audit and the convolution-theorem residuals one sample at a time):
they call the public single-item functions of ``qha`` and are oracles for
the sample-stacked passes, which must equal them bit for bit.  The rk
modulus loop, one shifted copy per member and shift, is likewise the bitwise
oracle for the block-stacked strided differences in ``qha.tauber``.  The
audit samples come from :func:`splitmix64_uniform`, the textbook stepped
generator in Python ints, which shares no code with the vectorised counter
stream ``qha.numerics.seeded_uniform``.
"""

import csv
import json
import sys

import numpy as np

import qha.conv
import qha.groups
import qha.weyl
from qha.asymptotics.windowed import WindowedZOperator
from qha.conv import INEQUALITY_NAMES, PINNED_ORIENTATION
from qha.errors import PreconditionError
from qha.weyl import HilbertOp, PhaseSpace, parity_op, weyl


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

    m = {(x, y): ps.multiplier(x, y) for x in pts for y in pts}  # each value once
    coc = 0.0
    sym = 0.0
    for x in pts:
        for y in pts:
            sym = max(sym, abs(m[x, y] - m[ps.neg(x), ps.neg(y)]))
            for z in pts:
                lhs = m[ps.add(x, y), z] * m[x, y]
                rhs = m[x, ps.add(y, z)] * m[y, z]
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


def stft_loop(f, window) -> np.ndarray:
    """V[x, xi], one translate and one inverse DFT per group element x."""
    group = f.group
    card = group.cardinality
    phi = window.values.reshape(group.orders)
    v = np.empty((card, card), dtype=complex)
    for i, x in enumerate(group.elements()):
        v[i] = np.fft.ifftn(phi * qha.groups.translate(f, x).values.reshape(group.orders)).ravel()
    return (group.haar_weight * card) * v


# --- the audits, one sample at a time through the public products -------------


def splitmix64_uniform(seed: int, count: int, start: int = 0) -> list[float]:
    """Entries start, ..., start + count - 1 of the SplitMix64 generator of
    Steele, Lea & Flood (2014) in its textbook form: a 64-bit state, starting
    at seed, advanced by gamma before each output, and each output mixed and
    mapped to (z >> 11) 2^-52 - 1.  Python ints masked to 64 bits, one value
    at a time; skipping to `start` advances the state start times at once."""
    mask = 2**64 - 1
    state = (seed + start * 0x9E3779B97F4A7C15) & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.append((z >> 11) / 2**52 - 1.0)
    return out


def audit_sample(n: int, seed: int, i: int) -> tuple:
    """Sample i of the audits, (f, g, A, B): the 8 N^2 stream entries from
    8 N^2 i on, as the N^2-vectors f re, f im, g re, g im, A re, ..., B im
    (operators row by row)."""
    ps = PhaseSpace(n)
    m = n * n
    parts = np.array(splitmix64_uniform(seed, 8 * m, 8 * m * i)).reshape(4, 2, m)
    f, g, a, b = (re + 1j * im for re, im in parts)
    return ps.function(f), ps.function(g), HilbertOp(a.reshape(n, n)), HilbertOp(b.reshape(n, n))


def _ratio(num: float, den: float) -> float:
    return 0.0 if den == 0.0 else num / den


def convolution_theorem_residuals(n: int, seed: int, samples: int = 5,
                                  variant: str = PINNED_ORIENTATION) -> dict[str, float]:
    """Max residuals of the three transform identities and the weighted one."""
    w = qha.conv.self_pairing_weight(PhaseSpace(n))
    out = {"fn_fn": 0.0, "fn_op": 0.0, "op_op": 0.0, "op_op_weighted": 0.0}
    for i in range(samples):
        f, g, a, b = audit_sample(n, seed, i)

        lhs = qha.conv.symplectic_fourier(qha.groups.convolve(f, g), variant).values
        rhs = qha.conv.symplectic_fourier(f, variant).values * qha.conv.symplectic_fourier(g, variant).values
        out["fn_fn"] = max(out["fn_fn"], float(np.abs(lhs - rhs).max()))

        lhs = qha.weyl.fourier_weyl(qha.conv.conv_fn_op(f, a)).values
        rhs = qha.conv.symplectic_fourier(f, variant).values * qha.weyl.fourier_weyl(a).values
        out["fn_op"] = max(out["fn_op"], float(np.abs(lhs - rhs).max()))

        lhs = qha.conv.symplectic_fourier(qha.conv.conv_op_op(a, b), variant).values
        rhs = qha.weyl.fourier_weyl(a).values * qha.weyl.fourier_weyl(b).values
        out["op_op"] = max(out["op_op"], float(np.abs(lhs - rhs).max()))
        out["op_op_weighted"] = max(
            out["op_op_weighted"], float(np.abs(lhs * w - rhs).max())
        )
    return out


def verify_norm_estimates(n: int, samples: int, seed: int) -> tuple[dict, dict]:
    """(max ratio, index of the first sample attaining it) per inequality."""
    max_ratio = dict.fromkeys(INEQUALITY_NAMES, 0.0)
    argmax_index = dict.fromkeys(INEQUALITY_NAMES, 0)
    for i in range(samples):
        f, g, a, b = audit_sample(n, seed, i)
        ratios = {
            "fn_fn_sup": _ratio(qha.groups.lp_norm(qha.groups.convolve(f, g), np.inf),
                                qha.groups.lp_norm(f, 1) * qha.groups.lp_norm(g, np.inf)),
            "fn_op_op": _ratio(qha.conv.conv_fn_op(f, b).op_norm, qha.groups.lp_norm(f, 1) * b.op_norm),
            "op_fn_op": _ratio(qha.conv.conv_fn_op(g, a).op_norm, a.trace_norm * qha.groups.lp_norm(g, np.inf)),
            "op_op_sup": _ratio(qha.groups.lp_norm(qha.conv.conv_op_op(a, b), np.inf), a.trace_norm * b.op_norm),
        }
        for name, r in ratios.items():
            if r > max_ratio[name]:
                max_ratio[name] = r
                argmax_index[name] = i
    return max_ratio, argmax_index


def singular_values(m) -> np.ndarray:
    """All min(R, C) singular values, descending, by one dense SVD."""
    return np.linalg.svd(np.asarray(m), compute_uv=False)


def spectral_norm(m) -> float:
    """Dense operator 2-norm."""
    return float(np.linalg.norm(np.asarray(m), 2))


def probe_vector_diffs(matrices, test_vectors, trace_tests) -> list[tuple[int, int, float, float]]:
    """(i, j, strong*, weak*) for every pair i < j of the dense pairwise formula:
    d = A_i - A_j, max over v of ||d v|| and ||d* v||, and max over (u, w) of
    |<w, d u>|, with every test vector scaled to unit l2 norm."""
    unit = [np.asarray(v, dtype=complex) / np.sqrt(np.sum(np.abs(v) ** 2)) for v in test_vectors]
    pairs = [tuple(np.asarray(x, dtype=complex) / np.sqrt(np.sum(np.abs(x) ** 2)) for x in t)
             for t in trace_tests]
    rows = []
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            d = np.asarray(matrices[i]) - np.asarray(matrices[j])
            strong = max(np.sqrt(np.sum(np.abs(x) ** 2)) for v in unit for x in (d @ v, d.conj().T @ v))
            weak = max(abs(np.sum(w.conj() * (d @ u))) for u, w in pairs)
            rows.append((i, j, float(strong), float(weak)))
    return rows


def modulated_box(h: float, x_lo: float, x_hi: float, freq: float) -> np.ndarray:
    """Phi C Phi* for the box convolution C (entries h where |i - j| <= 1/h)
    and Phi = diag(e^(-i freq x)) on the step-h grid of [x_lo, x_hi]."""
    idx = np.arange(round((x_hi - x_lo) / h) + 1)
    box = np.where(np.abs(idx[:, None] - idx[None, :]) <= round(1 / h), h, 0.0)
    phase = np.exp(-1j * freq * (x_lo + h * idx))
    return phase[:, None] * box * phase.conj()[None, :]


def orbit_difference(matrix, h: float, step: float, k: int) -> np.ndarray:
    """A real matrix with the singular values of M_0 - M_k for the orbit
    M_k = Phi_k B Phi_k*, Phi_k = diag(e^(-i k step x)), of a real B on a step-h
    grid: with t = k step, (M_0 - M_k)_ij = B_ij (1 - e^(-i t h (i - j))) is
    Psi (2i sin(t h (i - j) / 2) B_ij) Psi* for the diagonal unitary
    Psi = diag(e^(-i t x / 2)), so the dense sine factor times B has them."""
    idx = np.arange(len(matrix))
    return 2.0 * np.sin(0.5 * k * step * h * (idx[:, None] - idx[None, :])) * np.asarray(matrix)


def parity_window(lo: int, hi: int) -> WindowedZOperator:
    """Reflection about 0; needs a symmetric window lo = -hi."""
    if lo != -hi:
        raise PreconditionError("parity needs a symmetric window lo == -hi")
    size = hi - lo + 1
    mat = np.zeros((size, size))
    j = np.arange(lo, hi + 1)
    mat[j - lo, (-j) - lo] = 1.0
    return WindowedZOperator(lo, hi, mat)


def shift_operator(op: WindowedZOperator, k: int, theta: float = 0.0) -> WindowedZOperator:
    """Phase-space shift by (k, e^(i theta)) acting by compression, densely.

    New entries are e^(i theta (j-l)) a(j-k, l-k); whatever leaves the
    window is truncated.  The dense oracle of ``windowed.ShiftedCopies``,
    whose cells must have its bits.
    """
    size = op.size
    out = np.zeros((size, size), dtype=complex)
    # rows/cols j with j-k inside the window; |k| >= size shifts everything out
    d0 = max(0, k)
    d1 = min(size, size + k)
    if d1 > d0:
        s0, s1 = d0 - k, d1 - k
        out[d0:d1, d0:d1] = op.matrix[s0:s1, s0:s1]
    j = np.arange(op.lo, op.hi + 1)
    phase = np.exp(1j * theta * j)
    np.multiply(phase[:, None], out, out=out)  # in place, the products in the same order
    out *= phase.conj()[None, :]
    return WindowedZOperator(op.lo, op.hi, out)


def cac_dense(h: float, n_max: int) -> dict:
    """The projection sandwich on [0, n_max^2 + n_max/2 + 2] from dense S x S
    matrices: the block projection A = sum_n (h/n) m_n m_n^T, the box
    convolution C (entries h where |i - j| <= 1/h), C A C as
    sum_n (h/n) (C m_n)(C m_n)^T, and every quantity of ``CacRecord``, with
    g_n against the overlap length |I_n cap [x - 1, x + 1]|."""
    size = round((n_max * n_max + n_max / 2 + 2) / h) + 1
    band = round(1 / h)
    idx = np.arange(size)
    grid = h * idx
    box = np.where(np.abs(idx[:, None] - idx[None, :]) <= band, h, 0.0)
    masks = np.zeros((size, n_max))
    for n in range(1, n_max + 1):
        masks[round((n * n - n / 2) / h) : round((n * n + n / 2) / h), n - 1] = 1.0
    weights = h / np.arange(1, n_max + 1)
    proj = (masks * weights) @ masks.T
    smoothed = box @ masks
    product = (smoothed * weights) @ smoothed.T
    g_errors, plateau = {}, {}
    for n in range(2, n_max + 1):
        a, b = n * n - n / 2, n * n + n / 2
        g_disc = h * np.convolve(masks[:, n - 1], np.ones(2 * band))[band : band + size]
        g_exact = np.maximum(0.0, np.minimum(b, grid + 1) - np.maximum(a, grid - 1))
        g_errors[n] = float(np.abs(g_disc - g_exact).max())
        interior = (grid > a + 1) & (grid < b - 1)
        if interior.any():
            plateau[n] = float(np.abs(g_disc[interior] - 2.0).max())
    return {
        "projector": proj,
        "box": box,
        "product": product,
        "projection_residual": spectral_norm(proj @ proj - proj),
        "g_max_errors": g_errors,
        "plateau_max_dev": plateau,
        "min_kernel_gap": float(((product - proj) / h).min()),
        "product_norms": {n: float(np.sqrt(h * np.sum((product @ (masks[:, n - 1] / np.sqrt(n))) ** 2)))
                          for n in range(1, n_max + 1)},
    }


def windowed_stft_profile(f, window, angles) -> np.ndarray:
    """sup over the angles of |V(x, .)|, one matrix-vector product per shift x."""
    s_lo, s_hi = window.support()
    phi = window.values[s_lo - window.lo : s_hi - window.lo + 1]
    weighted = np.exp(1j * np.outer(np.asarray(angles, dtype=float), np.arange(s_lo, s_hi + 1)))
    weighted = weighted * phi[None, :]
    xs = np.arange(s_hi - f.hi, s_lo - f.lo + 1)
    return np.array(
        [float(np.abs(weighted @ f.values[s_lo - x - f.lo : s_hi - x - f.lo + 1]).max()) for x in xs]
    )


def rk_modulus(family, shifts) -> np.ndarray:
    """sup over the family of ||shift_s(h) - h||_1, one shifted copy per (member, shift)."""
    modulus = np.zeros(shifts.size)
    for h in family:
        vals = h.values
        for i, s in enumerate(shifts):
            if s >= vals.size:
                diff = 2 * float(np.abs(vals).sum())
            else:
                shifted = np.zeros_like(vals)
                shifted[s:] = vals[:-s]
                diff = float(np.abs(shifted - vals).sum())
            modulus[i] = max(modulus[i], diff)
    return modulus


# --- CSV: the csv-module readers and writers ------------------------------------


def read_csv_records(path, header) -> list[list[str]]:
    """Data rows of a CSV with the given header, each with len(header) fields.

    Blank lines and '#' comment lines are skipped; a wrong header, a row
    with the wrong number of fields, or no data rows raise ValueError.
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows or [c.strip() for c in rows[0]] != list(header):
        raise ValueError(f"{path}: expected header {','.join(header)}")
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: data row {i} has {len(row)} fields, expected {len(header)}")
    if len(rows) == 1:
        raise ValueError(f"{path}: no data rows")
    return rows[1:]


def read_indexed_csv(path):
    """Shared reader for index,re,im files; returns (indices, complex values)."""
    indices: list[int] = []
    values: list[complex] = []
    for row in read_csv_records(path, ("index", "re", "im")):
        v = complex(float(row[1]), float(row[2]))
        if not np.isfinite(v):
            raise ValueError(f"{path}: non-finite value at index {row[0]}")
        indices.append(int(row[0]))
        values.append(v)
    return indices, values


def write_group_function(f, path, comment: str | None = None) -> None:
    """CSV with header index,re,im; rows in lexicographic index order."""
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(("index", "re", "im"))
        for i, v in enumerate(f.values):
            writer.writerow([i, f"{v.real:.17g}", f"{v.imag:.17g}"])


def format_value(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (np.floating,)):
        return f"{float(v):.17g}"
    return str(v)


def emit_csv(path, header, rows, manifest: dict | None = None) -> None:
    """Rows with 17-significant-digit reals and an optional manifest line."""
    if len(header) and rows and any(len(r) != len(header) for r in rows):
        raise ValueError("record arity does not match header")
    lines = []
    if manifest is not None:
        lines.append("# manifest: " + json.dumps(manifest, sort_keys=True))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-" or path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)
