"""Gaussian-weighted harmonic tables: the folded double series and the comb rows.

The fields themselves come from ``wavefunction.psi_jet`` in O(K) per point.
The O(K^2) double series here are kept as independent oracles: the
density-identity check and the moment-law checks (continuity, momentum-law,
energy-law) compare the jet against ``folded_sum``, and ``comb_rows`` is the
Chebyshev route of the phase-space comb.

All densities and moments here are lattice sums over index pairs (n, k) with
weights exp(-(pi*beta/4)[(2n+1)^2 + (2k+1)^2]) and phases built from

    G(x, t) = pi*(2*mu*x/l + 1) - (pi*t/T_mu)*(n + k + 1).

Substituting s = n + k + 1 (the momentum label of the phase-space comb) and
j = k - n (the harmonic order of the phase) factorizes the weight into
exp(-(pi*beta/2)(s^2 + j^2)) on the lattice {s + j odd}, and the index window
becomes the diamond |s| + |j| <= 2K + 1 with K from the truncation policy.
Folding the sign pairs (+-s, +-j) turns every moment into a short sum of
products cos/sin(j*u) * cos/sin(j*s*w) with u = pi*(2*mu*x/l + 1) and
w = (pi/T_mu)*t, which keeps the parity cancellations (zero flux at t = 0 and
at the walls) exact in floating point.

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

# points per evaluation chunk, bounding the (terms x points) trig workspaces
_CHUNK_BUDGET = 1 << 21


@dataclass(frozen=True)
class TermTable:
    """Folded (|s|, |j|) term table for one (state, truncation) pair.

    ``w`` holds the scaled Gaussian weight including the sign-fold
    multiplicity; ``norm`` is the scaled normalization sum
    N(beta)/(l*exp(-pi*beta/2)); ``m_max`` = 2K+1 bounds |s| and |j|.  The
    table is cached and shared, so its arrays are read-only.
    """

    sigma: np.ndarray
    iota: np.ndarray
    w: np.ndarray
    m_max: int
    norm: float


def build_table(state: QuantumState, trunc: Truncation = DEFAULT_TRUNCATION) -> TermTable:
    return _cached_table(state, trunc)


@functools.lru_cache(maxsize=64)
def _cached_table(state: QuantumState, trunc: Truncation) -> TermTable:
    cutoff = cutoff_for(state.beta, trunc)
    m_max = 2 * cutoff + 1
    sigmas, iotas = [], []
    for sg in range(m_max + 1):
        for it in range((sg + 1) % 2, m_max - sg + 1, 2):
            sigmas.append(sg)
            iotas.append(it)
    sigma = np.array(sigmas, dtype=np.int64)
    iota = np.array(iotas, dtype=np.int64)
    order = np.argsort(sigma * sigma + iota * iota, kind="stable")  # center-out
    sigma, iota = sigma[order], iota[order]
    fold = np.where(sigma > 0, 2.0, 1.0) * np.where(iota > 0, 2.0, 1.0)
    w = fold * np.exp(
        -math.pi * state.beta / 2.0 * (sigma.astype(float) ** 2 + iota.astype(float) ** 2 - 1.0)
    )
    for arr in (sigma, iota, w):
        arr.flags.writeable = False
    return TermTable(
        sigma=sigma, iota=iota, w=w, m_max=m_max, norm=scaled_norm_sum(state, trunc)
    )


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
    Each point's terms are reduced by one dot product over a contiguous row,
    as for a single point, so a grid call equals per-point calls bit for bit
    (a matrix product over the points rounds differently).
    """
    a, b = s_power, j_power
    if trig == "cos":
        if b % 2 != 0:
            raise ValueError("cos sums need an even j_power (odd ones vanish)")
    elif trig == "sin":
        if b % 2 != 1:
            raise ValueError("sin sums need an odd j_power (even ones vanish)")
    else:
        raise ValueError(f"trig must be 'cos' or 'sin', got {trig!r}")

    uf, wf, shape = _phase_coords(x, t, state, sys)

    sf = table.sigma.astype(float)
    jf = table.iota.astype(float)
    coeff = table.w * sf**a * jf**b
    keep = coeff != 0.0  # sigma^a kills sigma=0 rows for a >= 1
    coeff, sf_k, jf_k = coeff[keep], sf[keep], jf[keep]
    js = jf_k * sf_k

    # fold rule: which trig hits the u angle and which the time angle
    #   cos, a even: cosU*cosT   cos, a odd: sinU*sinT
    #   sin, a even: sinU*cosT   sin, a odd: -cosU*sinT
    u_is_cos = (trig == "cos") == (a % 2 == 0)
    t_is_cos = a % 2 == 0
    sign = -1.0 if (trig == "sin" and a % 2 == 1) else 1.0

    n_terms = coeff.size
    out = np.empty(uf.size, dtype=float)
    chunk = max(1, _CHUNK_BUDGET // max(1, n_terms))
    for lo in range(0, uf.size, chunk):
        hi = min(lo + chunk, uf.size)
        ang_u = np.multiply.outer(uf[lo:hi], jf_k)
        ang_t = np.multiply.outer(wf[lo:hi], js)
        fu = np.cos(ang_u, out=ang_u) if u_is_cos else np.sin(ang_u, out=ang_u)
        ft = np.cos(ang_t, out=ang_t) if t_is_cos else np.sin(ang_t, out=ang_t)
        fu *= ft
        out[lo:hi] = np.vecdot(fu, coeff)
    if sign < 0:
        out = -out
    out = out.reshape(shape)
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

        Each point's rows are reduced over a contiguous last axis, as for one
        point, so a grid rounds exactly like per-point calls; a reduction over
        the row axis, or a matrix product, would round differently.
        """
        plus = np.ascontiguousarray(np.moveaxis(self.plus, 0, -1))
        minus = np.ascontiguousarray(np.moveaxis(self.minus, 0, -1))
        total = np.add.reduce(plus, axis=-1) + np.add.reduce(minus, axis=-1)
        return total, np.vecdot(plus - minus, self.sigmas.astype(float))


def comb_rows(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> CombRows:
    """Evaluate every comb row C_s via the Chebyshev route.

    Each row is sum_j W(s,j) T_|j|(cos G_s) with the polynomials expanded by
    the recurrence T_{n+1} = 2c T_n - T_{n-1}; an evaluation path independent
    of the direct cos(j*G_s) sums, used for two-route consistency checks.
    All rows s = +-sigma advance through the recurrence together, one order
    j at a time.
    """
    cutoff = cutoff_for(state.beta, trunc)
    m_max = 2 * cutoff + 1
    uf, wf, shape = _phase_coords(x, t, state, sys)
    weights = _comb_weights(state.beta, m_max)

    sigmas = np.arange(m_max + 1)
    shift = np.multiply.outer(sigmas, wf)
    c = np.cos(np.stack([uf - shift, uf + shift]))  # [0]: s = +sigma, [1]: s = -sigma
    acc = weights[0][:, None] + weights[1][:, None] * c  # T_0 = 1, T_1 = c
    t_prev, t_cur = 1.0, c
    for j in range(2, m_max + 1):
        t_prev, t_cur = t_cur, 2.0 * c * t_cur - t_prev
        acc += weights[j][:, None] * t_cur
    acc[1, 0] = 0.0  # the sigma = 0 row is counted once, in ``plus``
    return CombRows(
        sigmas=sigmas,
        plus=acc[0].reshape((m_max + 1, *shape)),
        minus=acc[1].reshape((m_max + 1, *shape)),
        norm=scaled_norm_sum(state, trunc),
        m_max=m_max,
    )


@functools.lru_cache(maxsize=16)
def _comb_weights(beta: float, m_max: int) -> np.ndarray:
    """Row weights W(sigma, j) indexed [j, sigma], zero off the lattice sigma + j odd.

    Built with ``math.exp`` term by term; the zeros add exactly nothing to
    the recurrence sums.
    """
    weights = np.zeros((m_max + 1, m_max + 1))
    for sg in range(m_max + 1):
        for it in range((sg + 1) % 2, m_max - sg + 1, 2):
            weights[it, sg] = (2.0 if it > 0 else 1.0) * math.exp(
                -math.pi * beta / 2.0 * (sg * sg + it * it - 1.0)
            )
    weights.flags.writeable = False
    return weights
