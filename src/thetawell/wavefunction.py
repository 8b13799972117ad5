"""Exact time-dependent bound states of the infinite square well.

The state is a Gaussian-weighted superposition of every (2k+1)-th stationary
mode of one well level mu, normalized on [0, l]:

    psi(x, t) = Theta(mu*x/l, tau(t)) / sqrt(N(beta)),
    tau(t)    = -mu^2 * (2*pi*hbar / (m*l^2)) * t + i*beta,

where Theta is the half-integer-characteristic theta series (the positive
series; ``theta.theta1`` equals minus it) and beta > 0 is the width of the
Gaussian weights exp(-(pi*beta/4)(2k+1)^2).  The squared modulus is periodic
in time with period T_mu; the wavefunction itself returns to a global phase.

Internally the series is evaluated with weights rescaled by the leading term,
so psi stays finite for arbitrarily large beta even where N(beta) itself
underflows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import DEFAULT_TRUNCATION, Truncation, cutoff_for

__all__ = [
    "SystemParams",
    "QuantumState",
    "DerivedScales",
    "NATURAL_UNITS",
    "derived_scales",
    "ModeTable",
    "mode_table",
    "norm_constant",
    "psi",
    "stationary_psi",
    "schrodinger_residual",
    "schrodinger_residual_of",
]


@dataclass(frozen=True)
class SystemParams:
    """Particle mass, well width, and Planck constant (natural units by default)."""

    m: float = 1.0
    l: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("m", "l", "hbar"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")


NATURAL_UNITS = SystemParams()


@dataclass(frozen=True)
class QuantumState:
    """Well level mu (positive integer) and superposition width beta (> 0)."""

    mu: int
    beta: float

    def __post_init__(self) -> None:
        if int(self.mu) != self.mu or self.mu < 1:
            raise ValueError(f"mu must be a positive integer, got {self.mu!r}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")


@dataclass(frozen=True)
class DerivedScales:
    """Scales derived from (mu, system): base/level energies, period, momentum unit.

    eps_mu = hbar^2 mu^2 / (2 m l^2)   base energy
    E_mu   = pi^2 * eps_mu             level-mu well energy
    T_mu   = pi*hbar / (4 E_mu)        period of every squared-modulus quantity
    P_unit = sqrt(2 m E_mu)            momentum quantum of the phase-space comb
    """

    eps_mu: float
    E_mu: float
    T_mu: float
    P_unit: float


def derived_scales(state: QuantumState, sys: SystemParams = NATURAL_UNITS) -> DerivedScales:
    eps = sys.hbar**2 * state.mu**2 / (2.0 * sys.m * sys.l**2)
    e_mu = math.pi**2 * eps
    t_mu = math.pi * sys.hbar / (4.0 * e_mu)
    p_unit = math.pi * sys.hbar * state.mu / sys.l
    return DerivedScales(eps_mu=eps, E_mu=e_mu, T_mu=t_mu, P_unit=p_unit)


@dataclass(frozen=True)
class ModeTable:
    """The state's Gibbs mode distribution, truncated and scaled by its leading term.

    ``m`` holds the positive odd harmonics 1, 3, ..., 2K+1 with K chosen for
    the weights exp(-(pi*beta/2) m^2); ``w`` holds exp(-(pi*beta/2)(m^2-1));
    ``norm`` = 2 * sum(w) counts both signs of every harmonic.  The arrays are
    read-only because the table is shared between callers.
    """

    m: np.ndarray
    w: np.ndarray
    norm: float


@functools.lru_cache(maxsize=64)
def mode_table(beta: float, trunc: Truncation = DEFAULT_TRUNCATION) -> ModeTable:
    """The cached odd-mode table for width beta; independent of mu and units."""
    k = cutoff_for(2.0 * beta, trunc)
    m = np.arange(1, 2 * k + 2, 2, dtype=float)
    w = np.exp(-math.pi * beta / 2.0 * (m * m - 1.0))
    m.flags.writeable = False
    w.flags.writeable = False
    return ModeTable(m=m, w=w, norm=2.0 * float(np.sum(w)))


def scaled_norm_sum(state: QuantumState, trunc: Truncation = DEFAULT_TRUNCATION) -> float:
    """N(beta) / (l * exp(-pi*beta/2)): the normalization sum relative to its leading term.

    Always >= 2 and representable for any beta, unlike raw N(beta).
    """
    return mode_table(state.beta, trunc).norm


def norm_constant(
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> float:
    """Normalization constant N(beta) = l * sum_k exp(-(pi*beta/2)(2k+1)^2).

    Proportional to l, asymptotically 2*l*exp(-pi*beta/2) for large beta.
    """
    return sys.l * math.exp(-math.pi * state.beta / 2.0) * scaled_norm_sum(state, trunc)


def _check_domain(x, sys: SystemParams) -> None:
    """Raise ValueError unless every x lies in the closed well [0, l]."""
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= 0.0) & (xa <= sys.l)):
        raise ValueError(f"x outside the well domain [0, {sys.l}]")


def psi(
    x: float,
    t: float,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> complex:
    """The wavefunction at (x, t), normalized so the probability on [0, l] is 1.

    Boundary evaluations return the raw series value, which cancels to the
    truncation floor rather than being forced to exactly 0.
    """
    _check_domain(x, sys)
    mu, beta = state.mu, state.beta
    z = mu * x / sys.l
    tau_re = -(mu**2) * (2.0 * math.pi * sys.hbar / (sys.m * sys.l**2)) * t

    cutoff = cutoff_for(beta, trunc)
    m = np.arange(1, 2 * cutoff + 2, 2, dtype=float)
    m = np.concatenate([m, -m])  # odd harmonics of both signs, center-out
    # scaled by exp(+pi*beta/4): weight exp(-(pi*beta/4)(m^2-1)) stays representable
    exponent = (
        1j * math.pi * tau_re / 4.0 * m * m
        - math.pi * beta / 4.0 * (m * m - 1.0)
        + 1j * math.pi / 2.0 * (2.0 * z + 1.0) * m
    )
    theta_scaled = complex(np.sum(np.exp(exponent)))
    return theta_scaled / math.sqrt(sys.l * scaled_norm_sum(state, trunc))


def stationary_psi(
    x: float,
    t: float,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
) -> complex:
    """The single stationary mode of level mu: sqrt(2/l) sin(pi mu x / l) e^{-i E_mu t / hbar}.

    The large-beta limit of ``psi`` up to a constant phase; used as a
    comparator in residual checks.
    """
    _check_domain(x, sys)
    scales = derived_scales(state, sys)
    amp = math.sqrt(2.0 / sys.l) * math.sin(math.pi * state.mu * x / sys.l)
    return amp * complex(np.exp(-1j * scales.E_mu * t / sys.hbar))


def schrodinger_residual_of(
    wave: Callable[[float, float], complex],
    x: float,
    t: float,
    sys: SystemParams,
    h_x: float,
    h_t: float,
) -> float:
    """|i hbar dw/dt + (hbar^2/2m) d2w/dx2| with central differences, O(h^2).

    The free equation inside the well (zero potential).  The five-point
    stencil must stay inside the open interval (0, l).
    """
    if not (h_x > 0.0 and h_t > 0.0):
        raise ValueError("h_x and h_t must be positive")
    if not (0.0 < x - h_x and x + h_x < sys.l):
        raise ValueError(f"x stencil [{x - h_x}, {x + h_x}] leaves the open well (0, {sys.l})")
    w_c = wave(x, t)
    d2x = (wave(x + h_x, t) - 2.0 * w_c + wave(x - h_x, t)) / (h_x * h_x)
    dt = (wave(x, t + h_t) - wave(x, t - h_t)) / (2.0 * h_t)
    return abs(1j * sys.hbar * dt + sys.hbar**2 / (2.0 * sys.m) * d2x)


def schrodinger_residual(
    x: float,
    t: float,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    h_x: float = 1e-4,
    h_t: float = 1e-4,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> float:
    """Finite-difference free-equation residual of ``psi`` at (x, t).

    ``h_x`` and ``h_t`` are absolute steps in the caller's units; pick them
    around 1e-4 of l and of the period for the O(h^2) regime.
    """
    return schrodinger_residual_of(
        lambda xx, tt: psi(xx, tt, state, sys, trunc), x, t, sys, h_x, h_t
    )
