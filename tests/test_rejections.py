"""Rejection and reporting branches of the library, one table row each.

Each row is a call and what it must end in: an exception of the given type
whose message contains the fragment, or, where the type is None, a returned
string that contains it (a verdict, a report's warning or a value).  Every
row runs in a fresh temporary directory, under the ``np.errstate`` the
``qha`` command runs under.
"""

import contextlib
import dataclasses
import io
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qha.errors
from qha.asymptotics.gridops import GridOperator, ModulationOrbit, box_convolution_operator
from qha.asymptotics.probes import (
    box_modulation_case,
    halmos_shift_case,
    parity_shift_case,
    topology_probe,
)
from qha.asymptotics.profiles import DecayProfile
from qha.asymptotics.windowed import (
    WindowedFunction,
    WindowedZOperator,
    compactness_proxy,
    halmos_operator,
)
from qha.cli import dispatch
from qha.conv import (
    conv_op_op,
    convolution_theorem_residuals,
    pin_orientation,
    sharpness_witness,
    symplectic_fourier,
    verify_norm_estimates,
)
from qha.errors import GroupMismatchError, PreconditionError
from qha.groups import FiniteAbelianGroup, GroupFunction
from qha.numerics import seeded_uniform, svd_rank
from qha.tauber import greedy_l1_net, rk_moduli, windowed_stft_profile
from qha.weyl import identity_op, reflection_symmetric_unit
from qha.wiener import degenerate_operator_set, regular_op_set, regular_set_fn

import _reference as ref


def _stft_decay_on_gapped_indices() -> str:
    Path("f.csv").write_text("index,re,im\n-1,1,0\n1,1,0\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = dispatch(["stft", "decay", "--f", "f.csv", "--phi", "f.csv", "--k", "grid:4",
                         "--out", "d.csv"])
    return f"exit {code}, {Path('d.csv').exists()}: {err.getvalue()}"


def _huge_box_orbit(entry: float) -> ModulationOrbit:
    """The orbit, step 2 pi, of a real symmetric Toeplitz box of the given entries."""
    base = box_convolution_operator(0.5, 0.0, 2.0)
    return ModulationOrbit(GridOperator(0.5, 0.0, 2.0, base.matrix * entry / 0.5), 2 * np.pi, 2)


def _overflowing_difference_norm() -> float:
    # Entries 1e308: the sine factor 2 sin(pi/2) = 2 overflows the taps d(q).
    return _huge_box_orbit(1e308).difference_norm(1)


def _under_budget(budget: int, call, *args):
    """call(*args) with MEMORY_BUDGET set to `budget` bytes."""
    with mock.patch.object(qha.errors, "MEMORY_BUDGET", budget):
        return call(*args)


def _as_list(case):
    """The case with its items as a list of dense matrices: the probe's list route."""
    return dataclasses.replace(case, matrices=list(case.matrices))


def _probe(case) -> str:
    return topology_probe(case.matrices, case.test_vectors, case.trace_tests, 0.1).classification


#: Every seeded entry point, called with a seed: each must refuse one outside [0, 2**64).
SEEDED = {
    "seeded_uniform": lambda seed: seeded_uniform(seed, (2, 3)),
    "verify_norm_estimates": lambda seed: verify_norm_estimates(3, 2, seed),
    "convolution_theorem_residuals": lambda seed: convolution_theorem_residuals(3, seed),
    "pin_orientation": lambda seed: pin_orientation(3, seed),
    "sharpness_witness": lambda seed: sharpness_witness(3, seed),
    "degenerate_operator_set": lambda seed: degenerate_operator_set(3, seed),
    "reflection_symmetric_unit": lambda seed: reflection_symmetric_unit(3, seed),
}

BRANCHES = [
    *((f"{name}-seed{seed}", lambda call=call, seed=seed: call(seed), PreconditionError,
       f"seed must be in [0, 2**64), got {seed}")
      for name, call in SEEDED.items() for seed in (-1, 2**64)),
    ("cli-stft-decay-gapped-indices", _stft_decay_on_gapped_indices, None,
     "exit 2, False: error: f.csv: indices must be contiguous"),
    ("conv_op_op-dimensions", lambda: conv_op_op(identity_op(2), identity_op(3)),
     GroupMismatchError, "dimension mismatch: 2 vs 3"),
    ("symplectic_fourier-not-square",
     lambda: symplectic_fourier(GroupFunction(FiniteAbelianGroup((2, 3)), np.ones(6))),
     GroupMismatchError, "needs a function on Z_N x Z_N"),
    ("group-no-factor", lambda: FiniteAbelianGroup(()), ValueError, "at least one cyclic factor"),
    ("group-element-residues", lambda: FiniteAbelianGroup((2, 3)).element((1,)),
     ValueError, "expected 2 residues"),
    ("group-function-length", lambda: GroupFunction(FiniteAbelianGroup((3,)), np.ones(2)),
     ValueError, "values must have length 3"),
    ("group-function-getitem",
     lambda: str(GroupFunction(FiniteAbelianGroup((2, 3)), np.arange(6))[(1, -1)]), None, "(5+0j)"),
    ("svd_rank-empty-stack", lambda: f"rank {svd_rank(np.zeros((0, 4))).rank}", None, "rank 0"),
    ("svd_rank-near-threshold", lambda: svd_rank(np.diag([1.0, 2e-8])).warnings[0],
     None, "1 singular value(s) within a decade of the rank threshold 1.000e-08"),
    ("windowed_stft_profile-zero-window",
     lambda: windowed_stft_profile(WindowedFunction(-3, np.ones(7)), WindowedFunction(0, np.zeros(1)),
                                   np.zeros(2)),
     PreconditionError, "window function is identically zero"),
    ("greedy_l1_net-epsilon", lambda: greedy_l1_net([np.ones(2)], 0.0),
     ValueError, "epsilon must be positive"),
    ("rk_moduli-empty", lambda: rk_moduli([]), ValueError, "rk_moduli needs a nonempty family"),
    ("rk_moduli-max-shift", lambda: rk_moduli([WindowedFunction(0, np.ones(3))], max_shift=-3),
     PreconditionError, "max_shift must be at least 1, got -3"),
    ("regular_op_set-empty", lambda: regular_op_set([]), ValueError, "nonempty set of operators"),
    ("regular_op_set-dimensions", lambda: regular_op_set([identity_op(2), identity_op(3)]),
     ValueError, "operators must share one dimension"),
    # On Z_2 the transform's 2e-8 entry is computed just at the threshold
    # 1e-8 * max = 2e-8, and its singular value just above it.
    ("regular_set_fn-disagree",
     lambda: regular_set_fn([GroupFunction(FiniteAbelianGroup((2,)), [1 + 1e-8, 1 - 1e-8])]).warnings[-1],
     None, "transform zero set and translate-span rank disagree"),
    ("grid-operator-non-integral", lambda: GridOperator(0.3, 0.0, 1.0, np.eye(4)),
     PreconditionError, "must be integral"),
    ("grid-operator-shape", lambda: GridOperator(0.5, 0.0, 1.0, np.eye(2)),
     ValueError, "matrix shape (2, 2) does not match grid size 3"),
    ("difference_norm-overflow", _overflowing_difference_norm, ValueError, "matrix entries must be finite"),
    ("modulation-orbit-nonsymmetric", lambda: ModulationOrbit(GridOperator(
        0.5, 0.0, 2.0, np.triu(np.full((5, 5), 1e308))), 2 * np.pi, 2),
     PreconditionError, "the base must be exactly real, symmetric and Toeplitz"),
    *((f"box_modulation_case-freq-step-{step}", lambda step=step: box_modulation_case(freq_step=step),
       PreconditionError, f"step must be finite: {step}") for step in (np.inf, -np.inf, np.nan)),
    ("box_modulation_case-steps", lambda: box_modulation_case(steps=0), PreconditionError,
     "steps must be >= 1"),
    # Entries 8e307 give finite taps (at most 1.6e308), but the norm of the
    # 17-point box is past the float range.
    ("difference_norm-norm-overflow",
     lambda: ModulationOrbit(GridOperator(0.25, 0.0, 4.0, box_convolution_operator(
         0.25, 0.0, 4.0).matrix * 8e307 / 0.25), 3.0, 5).difference_norm(2),
     ValueError, "matrix entries must be finite"),
    ("topology_probe-zero-vector",
     lambda: topology_probe([np.eye(2)], [np.zeros(2)], [(np.ones(2), np.ones(2))], 0.1),
     ValueError, "test vectors must be nonzero"),
    ("topology_probe-no-tests", lambda: topology_probe([np.eye(2)], [np.ones(2)], [], 0.1),
     ValueError, "need nonempty test vector and trace test sets"),
    ("parity_shift_case-window", lambda: parity_shift_case(half_width=10),
     PreconditionError, "window too small"),
    # 48 B per window point of 36 (steps + 1) + 8; 50 B per point of 2 half_width + 1;
    # 32 B per item, test vector and point for the probe's products on shifted
    # copies, 56 B on an orbit or a list.
    ("halmos_shift_case-budget", lambda: _under_budget(48 * 3644 - 1, halmos_shift_case, 8, 100),
     PreconditionError, "a halmos-shift case on 3,644 points needs 174,912 bytes"),
    ("halmos_shift_case-at-budget",
     lambda: str(len(_under_budget(48 * 3644, halmos_shift_case, 8, 100).test_vectors[0])), None, "3644"),
    ("halmos_shift_case-steps-1e6", lambda: halmos_shift_case(steps=10**6),
     PreconditionError, "a halmos-shift case on 36,000,044 points needs 1,728,002,112 bytes"),
    ("parity_shift_case-budget", lambda: _under_budget(50 * 401 - 1, parity_shift_case),
     PreconditionError, "a parity-shift case on 401 points needs 20,050 bytes"),
    ("topology_probe-budget", lambda: _under_budget(32 * 8 * 10 * 332 - 1, _probe, halmos_shift_case()),
     PreconditionError, "the products of 8 items needs 849,920 bytes"),
    ("topology_probe-at-budget", lambda: _under_budget(32 * 8 * 10 * 332, _probe, halmos_shift_case()),
     None, "strong*"),
    ("topology_probe-halmos-steps-1000", lambda: _probe(halmos_shift_case(steps=1000)),
     PreconditionError, "the products of 1,000 items needs 11,534,080,000 bytes"),
    ("topology_probe-list-budget",
     lambda: _under_budget(56 * 8 * 10 * 332 - 1, _probe, _as_list(halmos_shift_case())),
     PreconditionError, "the products of 8 items needs 1,487,360 bytes"),
    ("topology_probe-orbit-budget", lambda: _under_budget(56 * 9 * 6 * 601 - 1, _probe, box_modulation_case()),
     PreconditionError, "the products of 9 items needs 1,817,424 bytes"),
    # 72 B per entry of a stack of k blocks of (r + 1) x (c + 1): parity-shift's
    # pair (0, 1) at half_width 400 reads a stack of 15 blocks of 33 x 33, and a
    # box convolution on 601 points one 601 x 601 block.
    ("block-stack-budget",
     lambda: _under_budget(72 * 15 * 34 * 34 - 1, _probe, parity_shift_case(half_width=400)),
     PreconditionError, "a 15 x 33 x 33 block stack needs 1,248,480 bytes"),
    ("block-stack-at-budget",
     lambda: _under_budget(72 * 15 * 34 * 34, _probe, parity_shift_case(half_width=400)), None, "weak*"),
    ("block-stack-op-norm",
     lambda: _under_budget(72 * 602 * 602 - 1, lambda: box_convolution_operator(0.02, -6, 6).op_norm()),
     PreconditionError, "a 1 x 601 x 601 block stack needs 26,093,088 bytes"),
    ("decay-profile-shape", lambda: DecayProfile(np.arange(2.0), np.ones(3)),
     ValueError, "1d arrays of equal length"),
    ("decay-profile-negative", lambda: DecayProfile(np.arange(2.0), [1.0, -1.0]),
     ValueError, "profile values must be nonnegative"),
    ("windowed-function-2d", lambda: WindowedFunction(0, np.ones((2, 2))),
     ValueError, "values must be one-dimensional"),
    ("windowed-operator-shape", lambda: WindowedZOperator(0, 2, np.eye(2)),
     ValueError, "does not match window size 3"),
    ("halmos_operator-pad", lambda: halmos_operator(2, pad=-1), PreconditionError, "pad must be nonnegative"),
    ("compactness_proxy-sizes", lambda: compactness_proxy(halmos_operator, [3, 2], 0.5),
     PreconditionError, "sizes must be strictly increasing"),
    ("compactness_proxy-inconclusive", lambda: compactness_proxy(halmos_operator, [2], 0.5).verdict,
     None, "inconclusive"),
]


@pytest.mark.parametrize("call, error, fragment", [pytest.param(*row[1:], id=row[0]) for row in BRANCHES])
def test_branch(call, error, fragment, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with np.errstate(over="ignore", invalid="ignore"):
        if error is None:
            assert fragment in call()
        else:
            with pytest.raises(error) as caught:
                call()
            assert fragment in str(caught.value)


def test_difference_norm_overflow_raises_without_errstate():
    # Under numpy's default error state an overflow in the taps would warn;
    # with warnings as errors the ValueError must still come first.
    assert np.geterr()["over"] == "warn"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            _overflowing_difference_norm()


@pytest.mark.parametrize("step", [np.inf, np.nan])
def test_non_finite_orbit_step_raises_without_errstate(step):
    # The step is refused before any phase is computed: no RuntimeWarning
    # from exp or sin comes first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="step must be finite"):
            box_modulation_case(freq_step=step)


def test_difference_norm_up_to_the_float_range_is_finite():
    # Entries 3e307 keep the taps finite (6e307), and the norm 6e307 sqrt(3)
    # is below the largest float: the Gram of the block over max |d| gives it
    # with no warning, matching one dense SVD of the difference over 1e307.
    orbit = _huge_box_orbit(3e307)
    want = 1e307 * np.linalg.norm(ref.orbit_difference(orbit[0].real / 1e307, 0.5, 2 * np.pi, 1), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert orbit.difference_norm(1) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("extra", [-3, 3])
@pytest.mark.parametrize("route", ["shifted-copies", "list", "orbit"])
def test_wrong_length_test_vectors_raise_value_error(route, extra):
    # Test vectors 3 entries short of the window, or 3 past it, on each of the
    # probe's three routes: a ValueError, never an IndexError from a gather.
    case = (box_modulation_case(steps=3) if route == "orbit"
            else parity_shift_case(half_width=40, support=4, step=3, steps=5))
    items = list(case.matrices) if route == "list" else case.matrices
    fit = (lambda v: v[:extra]) if extra < 0 else (lambda v: np.pad(v, (0, extra)))
    vecs = [fit(v) for v in case.test_vectors]
    tests = [(fit(u), fit(w)) for u, w in case.trace_tests]
    with pytest.raises(ValueError) as caught:
        topology_probe(items, vecs, tests, 0.1)
    if route == "shifted-copies":
        assert "test vectors must have the window's 81 entries" in str(caught.value)
