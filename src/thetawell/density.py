"""Probability density of the well state, its derivatives, and time averages.

The squared modulus of the wavefunction is a double series over odd-harmonic
pairs; each term is constant along a straight characteristic line in the
(x, t) plane (row s of ``series.comb_rows``, moving at P_s/m; the registry's
comb-transport check follows it) and the whole field is periodic with the
level period T_mu.
Averaging over one period leaves the Gaussian-weighted stationary profile
``averaged_density``, which collapses onto the single-mode profile
``stationary_density`` as beta grows and flattens toward the uniform mixture
as beta shrinks; it is bounded by 2/l for every beta.  The comb of spikes
that forms as beta shrinks belongs to the instantaneous ``density``.

Routes: ``density`` and ``density_derivatives`` are the psi jet at every
beta.  ``averaged_density`` is its mode sum (K ~ beta^(-1/2) terms) above
``_GIBBS_DUAL_MAX_BETA`` and its Poisson dual (a few Gaussians per point,
``theta.theta_dual``) at and below it; ``thermo.gibbs_sums`` switches at the
same beta.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import DEFAULT_TRUNCATION, Truncation
from .theta import ThetaArgs, _dual, _split
from .wavefunction import (
    NATURAL_UNITS,
    QuantumState,
    SystemParams,
    _check_domain,
    _unbox,
    derived_scales,
    jet_forms,
    mode_table,
)

__all__ = [
    "density",
    "density_derivatives",
    "stationary_density",
    "averaged_density",
    "period",
]


def density(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
):
    """Probability density at (x, t): the squared modulus of the wavefunction.

    |psi|^2 from the order-0 ``psi_jet``, one O(K) sum per point; the sum
    of the comb rows, ``series.comb_rows(...).moment(0)``, is its independent
    oracle in the density-identity check.  Values may undershoot 0 by the
    truncation floor near nodes; they are never clamped here.  Broadcasts
    over x and t.
    """
    return _unbox(jet_forms(x, t, state, sys, trunc).re(0, 0))


def density_derivatives(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
):
    """Density and its first three spatial derivatives, all analytic.

    Returns (f, df/dx, d2f/dx2, d3f/dx3) from one order-3 ``psi_jet`` by the
    Leibniz rule: f' = 2 Re(psi* psi'), f'' = 2|psi'|^2 + 2 Re(psi* psi''),
    f''' = 2 Re(psi* psi''') + 6 Re(psi'* psi'').  No finite differences, so
    the tuple is consistent to rounding accuracy; used by the
    quantum-potential identities.  Broadcasts over x and t.
    """
    j = jet_forms(x, t, state, sys, trunc, order=3)
    f0 = j.re(0, 0)
    f1 = 2.0 * j.re(0, 1)
    f2 = 2.0 * (j.re(1, 1) + j.re(0, 2))
    f3 = 2.0 * j.re(0, 3) + 6.0 * j.re(1, 2)
    return _unbox(f0), _unbox(f1), _unbox(f2), _unbox(f3)


def stationary_density(x, state: QuantumState, sys: SystemParams = NATURAL_UNITS):
    """Single-mode density (2/l) sin^2(pi*mu*x/l), the beta -> infinity limit."""
    _check_domain(x, sys)
    s = np.sin(math.pi * state.mu * np.asarray(x, dtype=float) / sys.l)
    return _unbox(2.0 / sys.l * s * s)


# averaged_density and thermo.gibbs_sums take the Poisson dual at and below
# this beta and their mode sums above it.  Against 30-digit mode sums from
# beta = 1e-3 to 5e-2 the dual is within 2.2e-16 (averaged density) and 2e-16
# relative (S0, S2/S0), the mode sums within 1.3e-15 and 2.1e-14.  On 1024
# points the dual costs 0.2-0.4 ms at every beta, the mode sum 1.6-1.7 ms at
# 1e-3, 0.4-0.6 at 1e-2, 0.4 at 2e-2 and 0.2 at 5e-2: grids cross between
# 2e-2 and 5e-2 (a single point costs the dual about 100 us, the mode sum
# 5-8).  The switch stays below 2e-2, the smallest beta of any registry check
# or README grid, so none of their figures moves.
_GIBBS_DUAL_MAX_BETA = 1e-2


def averaged_density(
    x,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
):
    """Density averaged over one period: a Gaussian-weighted sum of sin^2 modes.

    Equals (2/N) sum_m exp(-(pi*beta/2) m^2) sin^2(m*pi*mu*x/l) over odd m of
    both signs.  As beta grows this tends to ``stationary_density``.  Being a
    convex combination of mode densities each bounded by 2/l, it never
    exceeds 2/l; as beta -> 0 the weights spread over many modes and the
    profile flattens, so the mass in a central window falls toward its
    uniform share.  The spikes at the centers of the level's sub-wells belong
    to the instantaneous ``density``.

    Two routes, chosen by beta alone.  Above ``_GIBBS_DUAL_MAX_BETA`` it is
    the mode sum, weights rescaled by the leading term, one dot product per
    point.  At and below it, it is the Poisson dual of that theta ratio,

        (1/l) (1 - theta[1/2,0](2 mu x/l, 2i beta) / theta[1/2,0](0, 2i beta)),

    1/l plus alternating Gaussians of width ~ sqrt(beta) on the lines
    x = n l/(2 mu), from ``theta.theta_dual``: a few terms per point and no
    cutoff.  Broadcasts over x; a grid call equals per-point calls bit for
    bit on either route.
    """
    _check_domain(x, sys)
    xa = np.asarray(x, dtype=float)
    if state.beta <= _GIBBS_DUAL_MAX_BETA:
        return _unbox(_averaged_dual(xa, state, sys, trunc))
    return _unbox(_averaged_modes(xa, state, sys, trunc))


def _averaged_modes(xa: np.ndarray, state: QuantumState, sys: SystemParams, trunc: Truncation):
    """``averaged_density`` from its K + 1 positive odd modes."""
    modes = mode_table(state.beta, trunc)
    phases = np.multiply.outer(xa, modes.m) * (math.pi * state.mu / sys.l)
    s2 = np.sin(phases) ** 2
    return 4.0 / (sys.l * modes.norm) * np.vecdot(s2, modes.w)


def _averaged_dual(xa: np.ndarray, state: QuantumState, sys: SystemParams, trunc: Truncation):
    """``averaged_density`` from the Poisson dual of theta[1/2,0](2 mu x/l, 2i beta).

    One ``theta_dual`` call takes w = 0 ahead of the points.  The exact
    w = 2 mu (x/l) is carried as two parts, each half of x/l's Veltkamp split
    times 2 mu (exact for mu < 2**26), so the offsets k - w are rounded once:
    on a Gaussian flank, where the slope is ~ mu / sqrt(beta), a rounded w
    would cost up to its one ulp times that slope.  x/l is taken first, so
    the walls give w = 0 and 2 mu exactly and the value there is exactly 0.
    """
    hi, lo = _split(xa / sys.l)
    two_mu = 2.0 * state.mu
    w_hi, w_lo = (np.append(0.0, part * two_mu) for part in (hi, lo))
    theta = _dual(ThetaArgs(0.5, 0.0, w_hi, 2j * state.beta), trunc, w_lo).real
    return (1.0 - theta[1:].reshape(xa.shape) / theta[0]) / sys.l


def period(state: QuantumState, sys: SystemParams = NATURAL_UNITS) -> float:
    """Recurrence time T_mu of every squared-modulus quantity of the state."""
    return derived_scales(state, sys).T_mu
