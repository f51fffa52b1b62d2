"""Finite abelian groups and their classical function calculus.

A group is a product of cyclic groups Z_{N1} x ... x Z_{Nk} carrying a
weighted counting (Haar) measure: every singleton has measure
``haar_weight``.  Elements and character frequencies are integer tuples,
one residue per cyclic factor; functions are dense complex vectors in
lexicographic index order (last factor varies fastest).

Everything here is immutable after construction and all operations are
pure functions, so values can be shared freely between threads.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GroupMismatchError, PreconditionError
from .io import CSV_HEADER, read_table, write_table


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups with a weighted counting measure."""

    orders: tuple[int, ...]
    haar_weight: float = 1.0

    def __post_init__(self):
        orders = tuple(int(n) for n in self.orders)
        if len(orders) == 0:
            raise ValueError("group needs at least one cyclic factor")
        if any(n < 1 for n in orders):
            raise ValueError(f"cyclic orders must be >= 1, got {orders}")
        if not (math.isfinite(self.haar_weight) and self.haar_weight > 0):
            raise ValueError("haar_weight must be finite and positive")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "haar_weight", float(self.haar_weight))

    @property
    def cardinality(self) -> int:
        return math.prod(self.orders)

    def element(self, residues) -> tuple[int, ...]:
        """Canonical representative (all residues reduced mod the orders)."""
        residues = tuple(residues)
        if len(residues) != len(self.orders):
            raise ValueError(f"expected {len(self.orders)} residues, got {residues}")
        return tuple(int(r) % n for r, n in zip(residues, self.orders))

    def elements(self):
        """All elements in lexicographic order."""
        return itertools.product(*(range(n) for n in self.orders))

    def index(self, x) -> int:
        x = self.element(x)
        return int(np.ravel_multi_index(x, self.orders))

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % n for a, b, n in zip(self.element(x), self.element(y), self.orders))

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-a) % n for a, n in zip(self.element(x), self.orders))

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def dual(self) -> "FiniteAbelianGroup":
        """Dual group, with the weight that makes the Fourier transform unitary."""
        return FiniteAbelianGroup(self.orders, 1.0 / (self.haar_weight * self.cardinality))

    def character(self, frequencies) -> "Character":
        return Character(self, self.element(frequencies))


@dataclass(frozen=True)
class Character:
    """Character x -> prod_j exp(2*pi*i * m_j * x_j / N_j), unimodular everywhere."""

    group: FiniteAbelianGroup
    frequencies: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "frequencies", self.group.element(self.frequencies))

    def __call__(self, x) -> complex:
        x = self.group.element(x)
        phase = sum(m * r / n for m, r, n in zip(self.frequencies, x, self.group.orders))
        return complex(np.exp(2j * np.pi * phase))

    def values(self) -> np.ndarray:
        """Vector of character values over the whole group, lexicographic order."""
        phase = np.zeros(self.group.orders)
        for axis, (m, n) in enumerate(zip(self.frequencies, self.group.orders)):
            shape = [1] * len(self.group.orders)
            shape[axis] = n
            phase = phase + (m * np.arange(n) / n).reshape(shape)
        return np.exp(2j * np.pi * phase).ravel()


@dataclass(eq=False)
class GroupFunction:
    """Complex-valued function on a finite abelian group."""

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)
        if vals.shape != (self.group.cardinality,):
            raise ValueError(
                f"values must have length {self.group.cardinality}, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("function values must be finite")
        vals.setflags(write=False)
        self.values = vals

    def __getitem__(self, x) -> complex:
        return complex(self.values[self.group.index(x)])

    def _reshaped(self) -> np.ndarray:
        return self.values.reshape(self.group.orders)


def _same_group(a: FiniteAbelianGroup, b: FiniteAbelianGroup) -> None:
    if a.orders != b.orders or not np.isclose(a.haar_weight, b.haar_weight, rtol=1e-12, atol=0):
        raise GroupMismatchError(f"group mismatch: {a} vs {b}")


def delta(group: FiniteAbelianGroup, at=None) -> GroupFunction:
    """Indicator of a single point (value 1 there, 0 elsewhere)."""
    vals = np.zeros(group.cardinality, dtype=complex)
    vals[group.index(at if at is not None else group.identity)] = 1.0
    return GroupFunction(group, vals)


def constant(group: FiniteAbelianGroup, value=1.0) -> GroupFunction:
    return GroupFunction(group, np.full(group.cardinality, value, dtype=complex))


def random_function(group: FiniteAbelianGroup, rng: np.random.Generator) -> GroupFunction:
    vals = rng.standard_normal(group.cardinality) + 1j * rng.standard_normal(group.cardinality)
    return GroupFunction(group, vals)


def lp_norm(f: GroupFunction, p: float) -> float:
    """Weighted L^p norm for p >= 1; p = inf gives the sup norm (no weight)."""
    if not p >= 1:
        raise PreconditionError(f"lp_norm needs p >= 1, got {p}")
    if np.isinf(p):
        return float(np.abs(f.values).max()) if f.values.size else 0.0
    w = f.group.haar_weight
    return float((w * (np.abs(f.values) ** p).sum()) ** (1.0 / p))


def translate(f: GroupFunction, x) -> GroupFunction:
    """result(y) = f(y - x); a norm-preserving reindexing."""
    x = f.group.element(x)
    shifted = np.roll(f._reshaped(), shift=x, axis=tuple(range(len(x))))
    return GroupFunction(f.group, shifted.ravel())


def parity(f: GroupFunction) -> GroupFunction:
    """result(y) = f(-y); an involution."""
    cube = f._reshaped()
    sel = np.ix_(*[(-np.arange(n)) % n for n in f.group.orders])
    return GroupFunction(f.group, cube[sel].ravel())


def modulate(f: GroupFunction, chi: Character) -> GroupFunction:
    """Pointwise multiplication by a character; preserves every p-norm."""
    _same_group(f.group, chi.group)
    return GroupFunction(f.group, f.values * chi.values())


def fourier(f: GroupFunction) -> GroupFunction:
    """Fourier transform onto the dual group.

    Convention: (Ff)(chi) = haar_weight * sum_x conj(chi(x)) f(x), indexed by
    character frequencies.  With the dual weight 1/(haar_weight * |G|) the
    transform is unitary and the double transform is the parity map.
    """
    spec = np.fft.fftn(f._reshaped()) * f.group.haar_weight
    return GroupFunction(f.group.dual(), spec.ravel())


def _convolve(f: np.ndarray, g: np.ndarray, weight: float, axes=None) -> np.ndarray:
    """weight * circular convolution of f and g over `axes` (all by default)."""
    prod = np.fft.fftn(f, axes=axes) * np.fft.fftn(g, axes=axes)
    return np.fft.ifftn(prod, axes=axes) * weight


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """result(x) = haar_weight * sum_y f(y) g(x - y)."""
    _same_group(f.group, g.group)
    vals = _convolve(f._reshaped(), g._reshaped(), f.group.haar_weight)
    return GroupFunction(f.group, vals.ravel())


# --- serialization -----------------------------------------------------------


def write_group_function(f: GroupFunction, path, comment: str | None = None) -> None:
    """CSV with header index,re,im; rows in lexicographic index order."""
    columns = (range(f.values.size), f.values.real.tolist(), f.values.imag.tolist())
    write_table(path, CSV_HEADER, "%d,%.17g,%.17g", columns, comment, eol="\r\n")


def read_group_function(path, group: FiniteAbelianGroup) -> GroupFunction:
    indices, values = _read_indexed_csv(path)
    if not np.array_equal(indices, np.arange(group.cardinality)):
        raise ValueError(f"{path}: expected indices 0..{group.cardinality - 1} in order")
    return GroupFunction(group, values)


def _read_indexed_csv(path):
    """Shared reader for index,re,im files; returns (indices, complex values) arrays."""
    return read_table(path)
