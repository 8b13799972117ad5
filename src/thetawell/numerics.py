"""Shared numerical substrate: truncation control, tagged samples, quadrature.

Every series in the package is a Gaussian-weighted sum over odd harmonic
indices 2k+1.  ``cutoff_for`` turns an inverse-temperature-like width and a
tolerance into the smallest admissible index window, so truncation error is
budgeted in exactly one place.  ``FieldSample`` carries field values together
with a tag for the points where a field is genuinely undefined (poles at
density zeros, 0/0 nodes); downstream code never emits fake large numbers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Truncation",
    "TruncationOverflowError",
    "NonIntegrableSampleError",
    "FieldTag",
    "FieldSample",
    "DEFAULT_TRUNCATION",
    "cutoff_for",
    "integrate",
]


class TruncationOverflowError(RuntimeError):
    """No cutoff within max_index satisfies the tail bound."""


class NonIntegrableSampleError(ValueError):
    """A quadrature node inside the open interval evaluated to a non-finite value."""


def _keep_hash(obj, fields: tuple) -> None:
    """Store hash(fields), the frozen dataclass's own hash, for its explicit ``__hash__``.

    Every lookup of the per-state record (``wavefunction._state_constants``)
    hashes its parameter objects, and the generated ``__hash__`` builds the
    field tuple anew each time.
    """
    object.__setattr__(obj, "_hash", hash(fields))


@dataclass(frozen=True)
class Truncation:
    """Tail-bound policy for the Gaussian-weighted harmonic sums.

    ``tol`` bounds the first discarded weight relative to the leading weight
    of the sum, so accuracy is relative and uniform in the width parameter.
    ``max_index`` is a hard cap on the harmonic index; if the bound cannot be
    met below it, evaluation fails loudly instead of silently degrading.
    """

    tol: float = 1e-14
    max_index: int = 4096

    def __post_init__(self) -> None:
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must lie in (0, 1), got {self.tol!r}")
        if int(self.max_index) != self.max_index or self.max_index < 1:
            raise ValueError(f"max_index must be a positive integer, got {self.max_index!r}")
        _keep_hash(self, (self.tol, self.max_index))

    def __hash__(self) -> int:
        return self._hash


DEFAULT_TRUNCATION = Truncation()


class FieldTag(enum.Enum):
    """Classification of a field sample."""

    FINITE = "finite"
    POLE = "pole"
    NODE_UNDEFINED = "node-undefined"

    def __str__(self) -> str:  # serialized form used by the CLI
        return self.value


@dataclass(frozen=True)
class FieldSample:
    """Field values together with their definedness tags, at a point or on a grid.

    For one point ``value`` is a float and ``tag`` a FieldTag; for a grid both
    are arrays of the grid's shape, the tags in an object array.  A value is
    finite exactly where its tag is FINITE; pole and node-undefined samples
    carry NaN so accidental arithmetic poisons the result instead of
    fabricating numbers.
    """

    value: float | np.ndarray
    tag: FieldTag | np.ndarray = FieldTag.FINITE

    def __post_init__(self) -> None:
        finite_tag = np.asarray(self.tag) == FieldTag.FINITE
        if np.shape(self.value) != finite_tag.shape or np.any(np.isfinite(self.value) != finite_tag):
            raise ValueError(f"value {self.value!r} inconsistent with tag {self.tag}")

    @property
    def is_finite(self):
        return np.isfinite(self.value)


def tagged(value, defined, undefined_tag: FieldTag) -> FieldSample:
    """``value`` where ``defined``, NaN tagged ``undefined_tag`` elsewhere.

    Compute ``value`` everywhere first, dividing under ``np.errstate`` with
    numpy operands; a 0-d result gives a point sample with a float value.
    """
    value = np.where(defined, value, math.nan)
    if value.ndim == 0:
        return FieldSample(float(value), FieldTag.FINITE if defined else undefined_tag)
    tags = np.where(np.broadcast_to(defined, value.shape), FieldTag.FINITE, undefined_tag)
    return FieldSample(value, tags)


def _satisfies_tail_bound(k, beta, tol):
    # exp(-(pi*beta/4)(2k+1)^2) <= tol * exp(-pi*beta/2), compared in logs
    return math.pi * beta / 4.0 * (2 * k + 1) ** 2 >= math.pi * beta / 2.0 + math.log(1.0 / tol)


def cutoff_for(beta, trunc: Truncation = DEFAULT_TRUNCATION):
    """Smallest index K whose first discarded Gaussian weight is below tolerance.

    The governing weights are exp(-(pi*beta/4)(2k+1)^2); the returned K is the
    smallest integer with exp(-(pi*beta/4)(2K+1)^2) <= tol * exp(-pi*beta/2),
    i.e. (2K+1)^2 >= 2 + (4/(pi*beta)) ln(1/tol).  Monotone: smaller beta or
    smaller tol never shrink K.  A float gives an int; an array of beta gives
    an integer array of the same shape, each element's K (``_cutoff_array``).
    """
    if np.ndim(beta):
        return _cutoff_array(beta, trunc)
    return int(_cutoff_array(beta, trunc))


def _cutoff_array(beta, trunc: Truncation = DEFAULT_TRUNCATION) -> np.ndarray:
    """``cutoff_for`` over an array of beta, 0-d too: one closed form, settled exactly per element.

    Raises for the first bad or overflowing element, naming its beta (a 0-d
    input as the caller gave it).
    """
    b = np.asarray(beta, dtype=float)[()]  # 0-d as a numpy scalar: cheaper arithmetic
    bad = ~((b > 0.0) & np.isfinite(b))
    if bad.any():
        got = beta if b.ndim == 0 else float(b[bad][0])
        raise ValueError(f"beta must be a positive finite number, got {got!r}")
    rhs = 2.0 + 4.0 * math.log(1.0 / trunc.tol) / (math.pi * b)
    closed = np.maximum(np.ceil((np.sqrt(rhs) - 1.0) / 2.0), 1.0)
    # the closed form can be off by one ulp either way; settle it exactly,
    # unless it is past twice the cap: then it fails anyway, and at huge k
    # (beta ~ 1e-100) k and k - 1 round to the same float and never settle;
    # clipped there, so the integers cannot overflow
    cap = 2 * trunc.max_index
    k = np.minimum(closed, cap + 1).astype(np.int64)
    # _satisfies_tail_bound is elementwise as written
    while (down := (k > 1) & (k <= cap) & _satisfies_tail_bound(k - 1, b, trunc.tol)).any():
        k -= down
    while (up := (k <= cap) & ~_satisfies_tail_bound(k, b, trunc.tol)).any():
        k += up
    over = k > trunc.max_index
    if over.any():
        need = int(np.where(closed > cap, closed, k)[over][0])
        got = beta if b.ndim == 0 else float(b[over][0])
        raise TruncationOverflowError(
            f"truncation overflow: required cutoff {need} exceeds max_index "
            f"{trunc.max_index} (beta={got}, tol={trunc.tol})"
        )
    return k


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, n_panels: int):
    """Composite Simpson quadrature on [a, b] with ``n_panels`` parabolic panels.

    ``f`` is called once, on the array of the 2 * n_panels + 1 nodes, and its
    last axis is contracted with the weights 1, 4, 2, ..., 4, 1: a 1-D
    integrand gives a float, a 2-D one an array of one integral per row.
    Convergence order 4 on smooth integrands (halving the panel width
    shrinks the error by ~16x).  Every sample must be finite.
    """
    if n_panels < 1:
        raise ValueError(f"n_panels must be >= 1, got {n_panels}")
    if not (b > a):
        raise ValueError(f"need b > a, got [{a}, {b}]")
    n = 2 * n_panels
    h = (b - a) / n
    nodes = a + np.arange(n + 1) * h
    y = np.asarray(f(nodes), dtype=float)
    bad = np.argwhere(~np.isfinite(y))
    if bad.size:
        x, sample = float(nodes[bad[0][-1]]), float(y[tuple(bad[0])])
        raise NonIntegrableSampleError(f"non-integrable sample at x={x!r}: {sample!r}")
    weights = np.full(n + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    total = np.add.reduce(y * weights, axis=-1) * h / 3.0
    return float(total) if total.ndim == 0 else total
