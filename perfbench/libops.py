"""Library operations that have no ``qha`` subcommand.

Each operation is ``(prepare, run, check)``: ``prepare(**params)`` makes
the inputs from the seed with plain numpy, ``run(inputs)`` is the timed
call into ``qha``, and ``check(inputs, result)`` returns named residuals
that the parent compares with the workload's limits.  The checks use
routes that share no code with ``qha`` where one exists.

Modules are looked up through ``sys.modules`` at call time: ``qha.weyl``
as an attribute of the package is the function ``weyl``, and the tracer
replaces functions after this module is imported.
"""
from __future__ import annotations

import sys

import numpy as np


def _mod(name: str):
    return sys.modules[name]


def _random_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _weyl_matrix(n: int, a: int, b: int) -> np.ndarray:
    """U_(a,b) f(t) = omega^(b t) f(t - a), built without qha."""
    t = np.arange(n)
    u = np.zeros((n, n), dtype=complex)
    u[t, (t - a) % n] = np.exp(2j * np.pi * ((b * t) % n) / n)
    return u


# --- C4 convolution-theorem identities ------------------------------------------


def c4_prepare(n: int, seed: int):
    return {"n": n, "seed": seed}


def c4_run(inputs):
    conv = _mod("qha.conv")
    return conv.convolution_theorem_residuals(inputs["n"], inputs["seed"], 1), conv.pin_orientation()


def c4_check(inputs, result):
    residuals, report = result
    # 'op_op' is the documented known gap (C4c): it is neither checked nor counted.
    fn_fn, fn_op, _known_gap = report.residuals[report.pinned]
    return {
        "fn_fn": residuals["fn_fn"],
        "fn_op": residuals["fn_op"],
        "op_op_weighted": residuals["op_op_weighted"],
        "pin_fn_fn": fn_fn,
        "pin_fn_op": fn_op,
        "pin_op_op_weighted": report.weighted_op_op[report.pinned],
        "pin_mismatch": float(report.pinned != _mod("qha.conv").PINNED_ORIENTATION),
    }


# --- uniform compactness profile ------------------------------------------------


def ucp_prepare(n: int, points: int, seed: int):
    rng = np.random.default_rng(seed)
    hilbert = _mod("qha.weyl").HilbertOp
    a, b = _random_matrix(rng, n), _random_matrix(rng, n)
    pts = [(int(p), int(q)) for p, q in rng.integers(0, n, size=(points, 2))]
    probe = sorted(int(y) for y in rng.choice(n * n, size=16, replace=False))
    return {"a": hilbert(a), "b": hilbert(b), "points": pts, "probe": probe}


def ucp_run(inputs):
    return _mod("qha.tauber").uniform_compactness_profile(inputs["a"], inputs["b"], inputs["points"])


def ucp_check(inputs, profile):
    """Dense traces Tr(U_x A U_y R B R U_y*) at sampled y, against the profile."""
    a, b = inputs["a"].matrix, inputs["b"].matrix
    n = a.shape[0]
    t = np.arange(n)
    rbr = b[np.ix_((-t) % n, (-t) % n)]
    shifted = [_weyl_matrix(n, p, q) @ a for p, q in inputs["points"]]
    worst = 0.0
    for y in inputs["probe"]:
        u = _weyl_matrix(n, *divmod(y, n))
        moved = u @ rbr @ u.conj().T
        expected = max(abs(np.trace(s @ moved)) for s in shifted)
        worst = max(worst, abs(profile.values[y] - expected))
    return {"profile_residual": worst / float(profile.values.max())}


# --- operator Fourier round trip ------------------------------------------------


def fw_prepare(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return {"op": _mod("qha.weyl").HilbertOp(_random_matrix(rng, n))}


def fw_run(inputs):
    weyl = _mod("qha.weyl")
    op = inputs["op"]
    return weyl.fourier_weyl_inverse(weyl.PhaseSpace(op.dim), weyl.fourier_weyl(op))


def fw_check(inputs, back):
    a = inputs["op"].matrix
    return {"roundtrip_residual": float(np.abs(back.matrix - a).max() / np.abs(a).max())}


# --- short-time Fourier transform on a finite group -----------------------------


def stft_prepare(orders: list[int], seed: int):
    groups = _mod("qha.groups")
    rng = np.random.default_rng(seed)
    group = groups.FiniteAbelianGroup(tuple(orders))
    size = group.cardinality
    f, w = (rng.standard_normal(size) + 1j * rng.standard_normal(size) for _ in range(2))
    return {"f": groups.GroupFunction(group, f), "window": groups.GroupFunction(group, w)}


def stft_run(inputs):
    return _mod("qha.tauber").stft(inputs["f"], inputs["window"])


def stft_check(inputs, v):
    """Energy identity sum |V|^2 w w_dual = ||window||^2 ||f||^2 (weight 1)."""
    f, w = inputs["f"].values, inputs["window"].values
    energy = float((np.abs(v) ** 2).sum()) / f.size
    expected = float(np.vdot(f, f).real * np.vdot(w, w).real)
    return {"energy_residual": abs(energy - expected) / expected}


# --- compactness trend of the block projection ----------------------------------


def cproxy_prepare(sizes: list[int], epsilon: float):
    return {"sizes": list(sizes), "epsilon": epsilon}


def cproxy_run(inputs):
    asym = _mod("qha.asymptotics")
    return asym.compactness_proxy(asym.halmos_operator, inputs["sizes"], inputs["epsilon"])


def cproxy_check(inputs, trend):
    # Block n of the projection has the single singular value 1, so the
    # count at size s is exactly s.
    return {
        "verdict_mismatch": float(trend.verdict != "non-compact-trend"),
        "count_mismatch": float(trend.counts != inputs["sizes"]),
    }


LIB_OPS = {
    "c4": (c4_prepare, c4_run, c4_check),
    "ucp": (ucp_prepare, ucp_run, ucp_check),
    "fourier_weyl_roundtrip": (fw_prepare, fw_run, fw_check),
    "stft": (stft_prepare, stft_run, stft_check),
    "compactness_proxy": (cproxy_prepare, cproxy_run, cproxy_check),
}
