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
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import DEFAULT_TRUNCATION, Truncation
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

    |psi|^2 from the order-0 ``psi_jet``, one O(K) sum per point; the folded
    double series ``series.folded_sum`` is its independent oracle in the
    density-identity check.  Values may undershoot 0 by the truncation floor
    near nodes; they are never clamped here.  Broadcasts over x and t.
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


def averaged_density(
    x,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
):
    """Density averaged over one period: a Gaussian-weighted sum of sin^2 modes.

    Equals (2/N) sum_m exp(-(pi*beta/2) m^2) sin^2(m*pi*mu*x/l) over odd m of
    both signs; evaluated with weights rescaled by the leading term.  As beta
    grows this tends to ``stationary_density``.  Being a convex combination of
    mode densities each bounded by 2/l, it never exceeds 2/l; as beta -> 0 the
    weights spread over many modes and the profile flattens, so the mass in a
    central window falls toward its uniform share.  The spikes at the centers
    of the level's sub-wells belong to the instantaneous ``density``.
    Broadcasts over x, with one dot product per point, so a grid call equals
    per-point calls bit for bit.
    """
    _check_domain(x, sys)
    modes = mode_table(state.beta, trunc)
    xa = np.asarray(x, dtype=float)
    phases = np.multiply.outer(xa, modes.m) * (math.pi * state.mu / sys.l)
    s2 = np.sin(phases) ** 2
    return _unbox(4.0 / (sys.l * modes.norm) * np.vecdot(s2, modes.w))


def period(state: QuantumState, sys: SystemParams = NATURAL_UNITS) -> float:
    """Recurrence time T_mu of every squared-modulus quantity of the state."""
    return derived_scales(state, sys).T_mu
