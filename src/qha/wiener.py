"""Regularity predicates and translate-span diagnostics.

A function (or a set of functions) is regular when its Fourier transform
vanishes nowhere (for sets: when the transforms have no common zero); an
operator set is regular when the operator Fourier transforms have no common
zero on the phase space.  At finite scale the approximation theorem is an
exact rank identity — the span of all translates has dimension
|G| - #(common zeros) — and both sides are computed here through
independent routes (transform magnitudes vs. an SVD of the stacked
translates) so their agreement is a genuine cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_memory
from .groups import GroupFunction, _same_group, fourier, translate
from .numerics import DEFAULT_ZERO_TOL, svd_rank
from .weyl import (
    HilbertOp, PhaseSpace, fourier_weyl, identity_op, op_translate_stack, parity_op, rank_one,
    reflection_symmetric_unit, weyl,
)


@dataclass
class RegularityReport:
    min_abs_transform: float
    zero_set: list
    translate_span_rank: int
    is_regular: bool
    ambient_dim: int
    warnings: list[str] = field(default_factory=list)

    @property
    def predicates_agree(self) -> bool:
        """Transform predicate vs. rank predicate (full span <=> no zero)."""
        return (self.translate_span_rank == self.ambient_dim) == self.is_regular


def _common_zeros(transforms, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The pointwise l2 combination of the transforms and the mask where it is
    at most threshold times its maximum: the common zero set."""
    if not threshold > 0:  # also rejects NaN
        raise ValueError("threshold must be positive")
    joint = np.sqrt(np.stack([np.abs(t) ** 2 for t in transforms]).sum(axis=0))
    cut = threshold * (float(joint.max()) if joint.size else 0.0)
    return joint, joint <= cut


def _report(transforms, points, rows, threshold: float, ambient_dim: int) -> RegularityReport:
    """Both predicates of one set: the common zero set of the transforms and
    the SVD rank of the stacked translates."""
    joint, zero = _common_zeros(transforms, threshold)
    pts = list(points)
    zeros = [pts[i] for i in np.flatnonzero(zero)]
    rank = svd_rank(rows, threshold)
    report = RegularityReport(
        min_abs_transform=float(joint.min()),
        zero_set=zeros,
        translate_span_rank=rank.rank,
        is_regular=not zeros,
        ambient_dim=ambient_dim,
        warnings=list(rank.warnings),
    )
    if not report.predicates_agree:
        report.warnings.append(
            "transform zero set and translate-span rank disagree; "
            "inputs sit on the decision threshold"
        )
    return report


def regular_set_fn(
    functions: list[GroupFunction], threshold: float = DEFAULT_ZERO_TOL
) -> RegularityReport:
    """Regularity of a set of functions on a common group.

    zero_set is the common zero set of the transforms (computed from the
    joint magnitude); translate_span_rank is the SVD rank of the span of
    all translates of all members.
    """
    if not functions:
        raise ValueError("regular_set_fn needs a nonempty set of functions")
    group = functions[0].group
    rows = np.stack([translate(f, x).values for f in functions for x in group.elements()])
    transforms = [fourier(f).values for f in functions]
    return _report(transforms, group.elements(), rows, threshold, group.cardinality)


def regular_op_set(
    operators: list[HilbertOp], threshold: float = DEFAULT_ZERO_TOL
) -> RegularityReport:
    """Regularity of a set of operators on a common dimension.

    zero_set lives on the phase space; translate_span_rank is the rank of
    span{alpha_x(A) : A in the set, x in the phase space} inside the
    N^2-dimensional matrix space.  The stacked translates and their SVD peak
    at 40 bytes per operator and N^4 entry (33 measured as ru_maxrss growth
    for one operator at N = 40..56, 34-37 per operator for two to four), so
    one operator fits MEMORY_BUDGET up to N = 71.
    """
    if not operators:
        raise ValueError("regular_op_set needs a nonempty set of operators")
    n = operators[0].dim
    if any(op.dim != n for op in operators):
        raise ValueError("operators must share one dimension")
    check_memory(40 * len(operators) * n**4,
                 f"the translate span of {len(operators)} operator(s) at N = {n}")
    ps = PhaseSpace(n)
    rows = np.concatenate(
        [op_translate_stack(op, ps.points()).reshape(n * n, n * n) for op in operators]
    )
    transforms = [fourier_weyl(op).values for op in operators]
    return _report(transforms, ps.points(), rows, threshold, n * n)


def degenerate_operator_set(n: int, seed: int = 0) -> dict[str, HilbertOp]:
    """Fixed operators with structured transform zero sets, for audits.

    Identity, a diagonal point mass, three Weyl unitaries, the reflection
    operator, and a rank-one built from a reflection-symmetric vector.
    """
    ps = PhaseSpace(n)
    phi = reflection_symmetric_unit(n, np.random.default_rng(seed))
    e0 = np.zeros(n)
    e0[0] = 1.0
    ops = {
        "identity": identity_op(n),
        "diag_point_mass": rank_one(e0),
        "reflection": parity_op(ps),
        "rank_one_symmetric": rank_one(phi),
    }
    for x in [(1, 0), (0, 1), (1, 1)]:
        ops[f"weyl_{x[0]}_{x[1]}"] = weyl(ps, x)
    return ops


def corresponding_space(
    ps: PhaseSpace, d0_basis: list[GroupFunction], threshold: float = DEFAULT_ZERO_TOL
) -> list[HilbertOp]:
    """Orthonormal (HS) basis of span{f * A : A an operator, f in d0_basis}.

    F_weyl(f * A) = F_sigma(f) . F_weyl(A) makes A -> f * A diagonal in the
    Weyl basis, so the span is that of the U_xi* with xi outside the common
    zero set of the F_sigma(f), decided by the joint-magnitude rule of the
    regularity reports (the joint magnitude is exactly the singular-value
    profile of the stacked maps A -> f * A).  The basis is canonical: U_xi* /
    sqrt(N) for each such xi in point order; no SVD is taken.

    Returns [] for an empty basis.  Enlarging d0_basis never shrinks the
    result.  At finite dimension every translation-invariant function space
    that separates points produces the full matrix space here (the compact
    and bounded operator classes coincide), so the construction
    distinguishes only proper subspaces such as the constants (which give
    the identity line, since 1 * A = Tr(A) I).
    """
    from .conv import symplectic_fourier

    if not d0_basis:
        return []
    for f in d0_basis:
        _same_group(f.group, ps.as_group())
    _joint, zero = _common_zeros([symplectic_fourier(f).values for f in d0_basis], threshold)
    return [
        HilbertOp(weyl(ps, xi).matrix.conj().T / np.sqrt(ps.n))
        for xi, z in zip(ps.points(), zero) if not z
    ]
