"""Gaussian-weighted harmonic sums over the momentum rows of the phase-space comb.

The fields themselves come from ``wavefunction.psi_jet`` in O(K) per point.
The O(K^2) lattice sums here are kept as independent oracles, and all of them
are reductions of one set of rows: ``comb_rows`` returns the rows C_s of the
comb (``velocity_from_vlasov`` and ``comb_atoms`` read them), and
``folded_sum`` reduces the same rows, weighted by s^a, for the density-identity
check, the moment-law checks (continuity, momentum-law, energy-law) and
``pressure_gradient``.

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
recurrence sums every row without a transcendental per term.  The rows s and
-s share c at t = 0, which keeps the parity cancellations (zero flux at
t = 0) exact in floating point.

Weights are rescaled by the leading term exp(-pi*beta/2) throughout, matching
``wavefunction.scaled_norm_sum``, so every normalized field stays
representable for arbitrarily large beta.
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


@dataclass(frozen=True)
class TermTable:
    """Folded (|s|, |j|) term table for one (state, truncation) pair.

    ``w`` holds the scaled Gaussian weight including the sign-fold
    multiplicity; ``norm`` is the scaled normalization sum
    N(beta)/(l*exp(-pi*beta/2)); ``m_max`` = 2K+1 bounds |s| and |j|.
    ``dense[j, sigma]`` is the same weight with only the fold over +-j, as the
    rows s = +sigma and s = -sigma are summed apart, and zero off the lattice.
    The table is cached and shared, so its arrays are read-only.
    """

    sigma: np.ndarray
    iota: np.ndarray
    w: np.ndarray
    m_max: int
    norm: float
    dense: np.ndarray


def build_table(state: QuantumState, trunc: Truncation = DEFAULT_TRUNCATION) -> TermTable:
    return _cached_table(state, trunc)


@functools.lru_cache(maxsize=64)
def _cached_table(state: QuantumState, trunc: Truncation) -> TermTable:
    cutoff = cutoff_for(state.beta, trunc)
    m_max = 2 * cutoff + 1
    labels = np.arange(m_max + 1)
    parity = labels % 2
    lattice = np.not_equal.outer(parity, parity) & np.less_equal.outer(labels, m_max - labels)
    sigma, iota = np.nonzero(lattice)  # sigma + iota odd and <= m_max; sigma-major, iota rising
    order = np.argsort(sigma * sigma + iota * iota, kind="stable")  # center-out
    sigma, iota = sigma[order], iota[order]
    sigma_fold = np.where(sigma > 0, 2.0, 1.0)
    fold = sigma_fold * np.where(iota > 0, 2.0, 1.0)
    w = fold * np.exp(
        -math.pi * state.beta / 2.0 * (sigma.astype(float) ** 2 + iota.astype(float) ** 2 - 1.0)
    )
    dense = np.zeros((m_max + 1, m_max + 1))
    dense[iota, sigma] = w / sigma_fold  # a power of two: exact
    for arr in (sigma, iota, w, dense):
        arr.flags.writeable = False
    return TermTable(
        sigma=sigma, iota=iota, w=w, m_max=m_max, norm=scaled_norm_sum(state, trunc), dense=dense
    )


def _rows(table: TermTable, uf: np.ndarray, wf: np.ndarray, j_power: int) -> np.ndarray:
    """R_s = sum_j W(|s|, j) j^b trig(j G_s) for s = +-sigma: shape (m_max + 1, 2, points).

    ``[sigma, 0]`` holds s = +sigma and ``[sigma, 1]`` s = -sigma, the latter
    zeroed at sigma = 0 so that row is counted once.  trig is cos for even b,
    summed as T_j(c), and sin for odd b, summed as sin G_s U_{j-1}(c); both
    polynomials follow X_{j+1} = 2c X_j - X_{j-1} from their own two starts.
    Row sigma stops at its last lattice order j = m_max - sigma.  Every step
    is elementwise in the points, so a grid rounds exactly like one point.
    """
    m_max = table.m_max
    weights = table.dense
    if j_power:
        weights = weights * np.arange(m_max + 1.0)[:, None] ** j_power
    weights = weights[:, :, None, None]
    shift = np.multiply.outer(np.arange(m_max + 1), wf)
    angles = np.stack([uf - shift, uf + shift], axis=1)
    c = np.cos(angles)
    two_c = 2.0 * c
    x_prev, x_cur = (np.zeros_like(c), np.ones_like(c)) if j_power % 2 else (np.ones_like(c), c)
    acc = weights[0] * x_prev + weights[1] * x_cur
    for j in range(2, m_max + 1):
        n = m_max + 1 - j  # rows sigma < n still have lattice terms at order j
        x_prev, x_cur = x_cur[:n], two_c[:n] * x_cur[:n] - x_prev[:n]
        acc[:n] += weights[j, :n] * x_cur
    if j_power % 2:
        acc *= np.sin(angles)
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


def folded_sum(
    table: TermTable,
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    s_power: int = 0,
    j_power: int = 0,
    trig: str = "cos",
) -> np.ndarray | float:
    """Scaled lattice sum  sum_{s,j} W(s,j) * s^a * j^b * trig(j * G_s(x, t)).

    ``trig`` is applied to the unfolded phase j*G_s; parity demands b even for
    cos sums and b odd for sin sums (the opposite combinations vanish
    identically).  Broadcasts over x and t; scalar inputs return a float.
    The result carries the exp(+pi*beta/2) rescaling of the table weights.
    It is sum_sigma sigma^a (R_{+sigma} + (-1)^a R_{-sigma}) over the rows of
    ``comb_rows``' kernel with the weights j^b W, reduced per point.
    """
    if trig == "cos":
        if j_power % 2 != 0:
            raise ValueError("cos sums need an even j_power (odd ones vanish)")
    elif trig == "sin":
        if j_power % 2 != 1:
            raise ValueError("sin sums need an odd j_power (even ones vanish)")
    else:
        raise ValueError(f"trig must be 'cos' or 'sin', got {trig!r}")
    uf, wf, shape = _phase_coords(x, t, state, sys)
    rows = _rows(table, uf, wf, j_power)
    out = _moment(rows[:, 0], rows[:, 1], s_power).reshape(shape)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class CombRows:
    """Momentum-resolved rows C_s of the comb at fixed points, scaled like TermTable.

    ``plus[q]`` and ``minus[q]`` hold the rows for s = +sigmas[q] and
    s = -sigmas[q]; the sigma = 0 row appears once (in ``plus``) with
    ``minus[0]`` zeroed so moment formulas can sum both arrays uniformly.
    """

    sigmas: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    norm: float
    m_max: int

    def by_label(self) -> np.ndarray:
        """The rows for s = -m_max, ..., m_max in order: shape (2 m_max + 1, *points)."""
        return np.concatenate([self.minus[:0:-1], self.plus])

    def sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Per point, sum_s C_s and sum_s s C_s, the comb's zeroth and first momentum sums.

        The same per-point reductions as ``folded_sum`` with a = 0 and 1.
        """
        return _moment(self.plus, self.minus, 0), _moment(self.plus, self.minus, 1)


def comb_rows(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> CombRows:
    """Evaluate every comb row C_s = sum_j W(s,j) T_|j|(cos G_s) by the Chebyshev recurrence.

    An evaluation path independent of the psi jet, used for two-route
    consistency checks.  All rows s = +-sigma advance through the recurrence
    together, one order j at a time; K and the weights come from the cached
    ``build_table``.
    """
    table = build_table(state, trunc)
    uf, wf, shape = _phase_coords(x, t, state, sys)
    rows = _rows(table, uf, wf, 0)
    size = (table.m_max + 1, *shape)
    return CombRows(
        sigmas=np.arange(table.m_max + 1),
        plus=rows[:, 0].reshape(size),
        minus=rows[:, 1].reshape(size),
        norm=table.norm,
        m_max=table.m_max,
    )
