"""Gaussian-weighted harmonic sums over the momentum rows of the phase-space comb.

The fields themselves come from ``wavefunction.psi_jet`` in O(K) per point.
The comb rows C_s here are kept as the independent oracle: ``comb_rows``
returns them, or their x-derivatives, and ``CombRows.moment`` reduces them
with weights s^a.  ``comb_atoms`` and ``velocity_from_vlasov`` read the rows;
``pressure_gradient``, the moment-law checks (continuity, momentum-law,
energy-law) and the density-identity check read their moments.

All densities and moments here are lattice sums over index pairs (n, k) with
weights exp(-(pi*beta/4)[(2n+1)^2 + (2k+1)^2]) and phases built from

    G(x, t) = pi*(2*mu*x/l + 1) - (pi*t/T_mu)*(n + k + 1).

Substituting s = n + k + 1 (the momentum label of the phase-space comb) and
j = k - n (the harmonic order of the phase) factorizes the weight into
exp(-(pi*beta/2)(s^2 + j^2)) on the lattice {s + j odd}, and the index window
becomes the diamond |s| + |j| <= 2K + 1 with K from the truncation policy.
Each row s sees one angle G_s = u - s*w with u = pi*(2*mu*x/l + 1) and
w = (pi/T_mu)*t, so with c = cos G_s its harmonics are Chebyshev polynomials,
cos(j G_s) = T_j(c) and sin(j G_s) = sin G_s U_{j-1}(c), and one three-term
recurrence sums every row without a transcendental per term.  The weight is
a product of a row weight and an order weight, two vectors of 2K + 2 entries,
so no (s, j) table is ever built.  The rows s and -s share c at t = 0, which
keeps the parity cancellations (zero flux at t = 0) exact in floating point.

Weights are rescaled by the leading term exp(-pi*beta/2) throughout, matching
``wavefunction.scaled_norm_sum``, so every normalized field stays
representable for arbitrarily large beta.

``TermTable``, ``build_table`` and ``folded_sum`` (the (s, j) term table and
its lattice sum) are read by no route of the package; they are kept only
because the benchmark under ``bench/`` imports and traces them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TRUNCATION, Truncation, cutoff_for
from .wavefunction import (
    NATURAL_UNITS,
    QuantumState,
    SystemParams,
    _phase_coords,
    scaled_norm_sum,
)

__all__ = ["TermTable", "CombRows", "build_table", "folded_sum", "comb_rows"]


def _weights(beta: float, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Row weights g_s and order weights 2^[j>0] g_j over labels 0..m_max.

    g_n = exp(-(pi*beta/2)(n^2 - [n odd])).  On the lattice exactly one of
    s, j is odd, so g_|s| g_j = exp(-(pi*beta/2)(s^2 + j^2 - 1)): the scaled
    weight W(s, j) with the fold of +-j, and neither factor exceeds 2 at any
    beta.
    """
    labels = np.arange(m_max + 1.0)
    rows = np.exp(-math.pi * beta / 2.0 * (labels * labels - labels % 2))
    return rows, np.where(labels > 0, 2.0, 1.0) * rows


@functools.lru_cache(maxsize=64)
def _comb_weights(beta: float, trunc: Truncation) -> tuple[np.ndarray, np.ndarray]:
    """The cached ``_weights`` for m_max = 2K + 1; read-only, shared by callers."""
    weights = _weights(beta, 2 * cutoff_for(beta, trunc) + 1)
    for arr in weights:
        arr.flags.writeable = False
    return weights


def _rows(
    weights: tuple[np.ndarray, np.ndarray], uf: np.ndarray, wf: np.ndarray, j_power: int
) -> np.ndarray:
    """R_s = sum_j W(|s|, j) j^b trig(j G_s) for s = +-sigma: shape (m_max + 1, 2, points).

    ``[sigma, 0]`` holds s = +sigma and ``[sigma, 1]`` s = -sigma, the latter
    zeroed at sigma = 0 so that row is counted once.  trig is cos for even b,
    summed as T_j(c), and sin for odd b, summed as sin G_s U_{j-1}(c); both
    polynomials follow X_{j+1} = 2c X_j - X_{j-1} from their own two starts.
    Order j adds into the rows sigma of the other parity only, and row sigma
    stops at its last lattice order j = m_max - sigma; the row weights are
    multiplied in at the end.  Every step is elementwise in the points, so a
    grid rounds exactly like one point.
    """
    row_w, order_w = weights
    m_max = row_w.size - 1
    if j_power:
        order_w = order_w * np.arange(m_max + 1.0) ** j_power
    shift = np.multiply.outer(np.arange(m_max + 1), wf)
    angles = np.stack([uf - shift, uf + shift], axis=1)
    c = np.cos(angles)
    two_c = 2.0 * c
    x_prev, x_cur = (np.zeros_like(c), np.ones_like(c)) if j_power % 2 else (np.ones_like(c), c)
    acc = np.zeros_like(c)
    acc[1::2] = order_w[0] * x_prev[1::2]
    acc[0::2] = order_w[1] * x_cur[0::2]
    for j in range(2, m_max + 1):
        n = m_max + 1 - j  # rows sigma < n still have lattice terms at order j
        x_prev, x_cur = x_cur[:n], two_c[:n] * x_cur[:n] - x_prev[:n]
        first = (j + 1) % 2  # the rows sigma + j odd
        acc[first:n:2] += order_w[j] * x_cur[first::2]
    if j_power % 2:
        acc *= np.sin(angles)
    acc *= row_w[:, None, None]
    acc[0, 1] = 0.0
    return acc


def _moment(plus: np.ndarray, minus: np.ndarray, s_power: int) -> np.ndarray:
    """Per point, sum_s s^a C_s over rows C_{+sigma} = plus[sigma], C_{-sigma} = minus[sigma].

    Each point's rows are reduced by one dot product over a contiguous last
    axis, as for one point, so a grid rounds exactly like per-point calls; a
    reduction over the row axis, or a matrix product, would round differently.
    """
    pair = plus - minus if s_power % 2 else plus + minus
    sigmas = np.arange(len(plus), dtype=float)
    return np.vecdot(np.ascontiguousarray(np.moveaxis(pair, 0, -1)), sigmas**s_power)


@dataclass(frozen=True)
class CombRows:
    """Momentum-resolved rows C_s of the comb (or their x-derivatives) at fixed points.

    ``plus[q]`` and ``minus[q]`` hold the rows for s = +sigmas[q] and
    s = -sigmas[q]; the sigma = 0 row appears once (in ``plus``) with
    ``minus[0]`` zeroed so moment formulas can sum both arrays uniformly.
    Rows carry the exp(+pi*beta/2) rescaling; ``norm`` is the scaled
    normalization sum N(beta)/(l*exp(-pi*beta/2)) that undoes it.
    """

    sigmas: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    norm: float
    m_max: int

    def by_label(self) -> np.ndarray:
        """The rows for s = -m_max, ..., m_max in order: shape (2 m_max + 1, *points)."""
        return np.concatenate([self.minus[:0:-1], self.plus])

    def moment(self, s_power: int) -> np.ndarray:
        """Per point, sum_s s^a C_s; a grid rounds exactly like per-point calls."""
        return _moment(self.plus, self.minus, s_power)


def comb_rows(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
    order: int = 0,
) -> CombRows:
    """Every comb row C_s = sum_j W(s,j) T_|j|(cos G_s), or its x-derivative of ``order``.

    An evaluation path independent of the psi jet, used for two-route
    consistency checks.  Order k gives (2 pi mu/l)^k sum_j W j^k
    cos(j G_s + k pi/2), since dG_s/dx = 2 pi mu/l.  All rows s = +-sigma
    advance through the recurrence together, one order j at a time; K and
    the weights come from the cached ``_comb_weights``.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order!r}")
    weights = _comb_weights(state.beta, trunc)
    uf, wf, shape = _phase_coords(x, t, state, sys, trunc)
    rows = _rows(weights, uf, wf, order)
    if order:  # cos(a + k pi/2) is -sin a, -cos a, sin a, cos a for k = 1, 2, 3, 4 mod 4
        rows *= (-1.0 if order % 4 in (1, 2) else 1.0) * (2.0 * math.pi * state.mu / sys.l) ** order
    size = (rows.shape[0], *shape)
    return CombRows(
        sigmas=np.arange(size[0]),
        plus=rows[:, 0].reshape(size),
        minus=rows[:, 1].reshape(size),
        norm=scaled_norm_sum(state, trunc),
        m_max=size[0] - 1,
    )


@dataclass(frozen=True)
class TermTable:
    """Folded (|s|, |j|) term table for one (state, truncation) pair; kept for ``bench/``.

    ``w`` holds the scaled Gaussian weight W(sigma, iota) including the
    sign-fold multiplicity; ``norm`` is the scaled normalization sum;
    ``m_max`` = 2K+1 bounds |s| and |j|.  The table is cached and shared, so
    its arrays are read-only.  No route of the package reads it.
    """

    sigma: np.ndarray
    iota: np.ndarray
    w: np.ndarray
    m_max: int
    norm: float


def build_table(state: QuantumState, trunc: Truncation = DEFAULT_TRUNCATION) -> TermTable:
    """The cached term table of (state, trunc), kept for ``bench/``, which counts its terms."""
    return _cached_table(state, trunc)


@functools.lru_cache(maxsize=64)
def _cached_table(state: QuantumState, trunc: Truncation) -> TermTable:
    m_max = 2 * cutoff_for(state.beta, trunc) + 1
    labels = np.arange(m_max + 1)
    parity = labels % 2
    lattice = np.not_equal.outer(parity, parity) & np.less_equal.outer(labels, m_max - labels)
    sigma, iota = np.nonzero(lattice)  # sigma + iota odd and <= m_max
    fold = np.where(sigma > 0, 2.0, 1.0) * np.where(iota > 0, 2.0, 1.0)
    w = fold * np.exp(
        -math.pi * state.beta / 2.0 * (sigma.astype(float) ** 2 + iota.astype(float) ** 2 - 1.0)
    )
    for arr in (sigma, iota, w):
        arr.flags.writeable = False
    return TermTable(sigma=sigma, iota=iota, w=w, m_max=m_max, norm=scaled_norm_sum(state, trunc))


def folded_sum(
    table: TermTable,
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    s_power: int = 0,
    j_power: int = 0,
) -> np.ndarray | float:
    """Scaled lattice sum sum_{s,j} W(s,j) s^a j^b trig(j G_s(x, t)), for ``bench/`` only.

    trig is cos for even b and sin for odd b (the other combinations vanish
    identically).  The row kernel of ``comb_rows`` at the table's K, reduced
    per point as sum_sigma sigma^a (R_{+sigma} + (-1)^a R_{-sigma}).
    Broadcasts over x and t; scalar inputs return a float.
    """
    uf, wf, shape = _phase_coords(x, t, state, sys)
    rows = _rows(_weights(state.beta, table.m_max), uf, wf, j_power)
    out = _moment(rows[:, 0], rows[:, 1], s_power).reshape(shape)
    if out.ndim == 0:
        return float(out)
    return out
