"""Probability density of the well state, its characteristics, and time averages.

The squared modulus of the wavefunction is a double series over odd-harmonic
pairs; each term is constant along a straight characteristic line in the
(x, t) plane and the whole field is periodic with the level period T_mu.
Averaging over one period leaves the Gaussian-weighted stationary profile
``averaged_density``, which collapses onto the single-mode profile
``stationary_density`` as beta grows and flattens toward the uniform mixture
as beta shrinks; it is bounded by 2/l for every beta.  The comb of spikes
that forms as beta shrinks belongs to the instantaneous ``density``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TRUNCATION, Truncation
from .series import _phase_coords, build_table, folded_sum
from .wavefunction import (
    NATURAL_UNITS,
    QuantumState,
    SystemParams,
    _check_domain,
    derived_scales,
    mode_table,
)

__all__ = [
    "Characteristic",
    "g_phase",
    "density",
    "density_derivatives",
    "stationary_density",
    "averaged_density",
    "period",
]


@dataclass(frozen=True)
class Characteristic:
    """Straight line traced by one density term, labeled by its harmonic pair (n, k).

    ``angle_tan`` is the ridge slope (n+k+1)/(2*mu) in the (x/l, t/T_mu)
    plane; terms with n + k + 1 = 0 are stationary.
    """

    n: int
    k: int
    mu: int

    def __post_init__(self) -> None:
        for name in ("n", "k"):
            v = getattr(self, name)
            if int(v) != v:
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if int(self.mu) != self.mu or self.mu < 1:
            raise ValueError(f"mu must be a positive integer, got {self.mu!r}")

    @property
    def angle_tan(self) -> float:
        return (self.n + self.k + 1) / (2.0 * self.mu)

    def speed(self, sys: SystemParams = NATURAL_UNITS) -> float:
        """Transport speed dx/dt of the term's phase, (n+k+1) * pi*hbar*mu/(m*l)."""
        return (self.n + self.k + 1) * math.pi * sys.hbar * self.mu / (sys.m * sys.l)


def g_phase(
    n: int,
    k: int,
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
):
    """Characteristic phase pi*(2*mu*x/l + 1) - (pi*t/T_mu)*(n + k + 1), in radians.

    Exact affine function of (x, t); broadcasts over array arguments.  The
    same angle u - s*w that ``series.comb_rows`` evaluates for row s.
    """
    u, w, shape = _phase_coords(x, t, state, sys)
    val = (u - (n + k + 1) * w).reshape(shape)
    if val.ndim == 0:
        return float(val)
    return val


def density(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
):
    """Probability density at (x, t): the squared modulus of the wavefunction.

    Evaluated as the folded harmonic double series, never via the complex
    wavefunction, so the two routes can be compared as independent oracles.
    Values may undershoot 0 by the truncation floor near nodes; they are never
    clamped here.  Broadcasts over x and t.
    """
    _check_domain(x, sys)
    table = build_table(state, trunc)
    raw = folded_sum(table, x, t, state, sys, s_power=0, j_power=0, trig="cos")
    return raw / (sys.l * table.norm)


def density_derivatives(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
):
    """Density and its first three spatial derivatives, all term-wise analytic.

    Returns (f, df/dx, d2f/dx2, d3f/dx3).  Each derivative multiplies the
    series by the harmonic order instead of finite-differencing, so the tuple
    is consistent to rounding accuracy; used by the pressure-gradient and
    quantum-potential identities.  Broadcasts over x and t.
    """
    _check_domain(x, sys)
    table = build_table(state, trunc)
    den = sys.l * table.norm
    ux = 2.0 * math.pi * state.mu / sys.l  # d(phase)/dx of the u coordinate
    f0 = folded_sum(table, x, t, state, sys, s_power=0, j_power=0, trig="cos") / den
    f1 = -ux * folded_sum(table, x, t, state, sys, s_power=0, j_power=1, trig="sin") / den
    f2 = -(ux**2) * folded_sum(table, x, t, state, sys, s_power=0, j_power=2, trig="cos") / den
    f3 = ux**3 * folded_sum(table, x, t, state, sys, s_power=0, j_power=3, trig="sin") / den
    return f0, f1, f2, f3


def stationary_density(x, state: QuantumState, sys: SystemParams = NATURAL_UNITS):
    """Single-mode density (2/l) sin^2(pi*mu*x/l), the beta -> infinity limit."""
    _check_domain(x, sys)
    s = np.sin(math.pi * state.mu * np.asarray(x, dtype=float) / sys.l)
    val = 2.0 / sys.l * s * s
    if np.ndim(val) == 0:
        return float(val)
    return val


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
    """
    _check_domain(x, sys)
    modes = mode_table(state.beta, trunc)
    xa = np.asarray(x, dtype=float)
    phases = np.multiply.outer(xa, modes.m) * (math.pi * state.mu / sys.l)
    s2 = np.sin(phases) ** 2
    val = 4.0 / (sys.l * modes.norm) * (s2 @ modes.w)
    if np.ndim(val) == 0:
        return float(val)
    return val


def period(state: QuantumState, sys: SystemParams = NATURAL_UNITS) -> float:
    """Recurrence time T_mu of every squared-modulus quantity of the state."""
    return derived_scales(state, sys).T_mu
