"""Gibbs-distribution layer: partition sum, mean energy, entropy, quantum potential.

The Gaussian weights of the well state are exactly a Gibbs distribution over
wave-number modes kappa = (pi*mu/l)(2k+1) with mode energies
E_kappa = E_mu (2k+1)^2 at thermodynamic inverse temperature

    beta_thermo = pi*beta / (2*E_mu),

so beta_thermo * E_kappa = (pi*beta/2)(2k+1)^2 depends on the solution
parameter beta alone.  Every statistical quantity here (partition sum, mean
energy in units of E_mu, entropy) is therefore independent of the level mu and
of the system units; energies re-enter only through the factor E_mu.

Entropy is measured in units of k_B with the additive constant fixed to
-k_B ln 2, the choice that sends the entropy to zero in the frozen
(beta -> infinity) two-mode limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import _GIBBS_DUAL_MAX_BETA, averaged_density, density_derivatives
from .numerics import (
    DEFAULT_TRUNCATION,
    FieldSample,
    FieldTag,
    Truncation,
    _cutoff_array,
    cutoff_for,
    integrate,
    tagged,
)
from .phase_space import _floor_for, kinetic_energy_density
from .theta import ThetaArgs, _dual_terms, theta_char, theta_dual
from .wavefunction import (
    NATURAL_UNITS,
    QuantumState,
    SystemParams,
    derived_scales,
    mode_table,
    scaled_norm_sum,
)

__all__ = [
    "GibbsParams",
    "gibbs_params",
    "partition",
    "partition_theta_form",
    "gibbs_sums",
    "gibbs_table",
    "mean_energy_gibbs",
    "entropy",
    "entropy_from_factor",
    "quantum_potential",
    "quantum_potential_gradient",
    "avg_energy_profile",
    "double_avg_energy",
]


@dataclass(frozen=True)
class GibbsParams:
    """Thermodynamic inverse temperature and its reciprocal temperature.

    beta_thermo carries units 1/energy; tau_temp = 1/beta_thermo.
    """

    beta_thermo: float
    tau_temp: float

    def __post_init__(self) -> None:
        if not (self.beta_thermo > 0.0 and math.isfinite(self.beta_thermo)):
            raise ValueError(f"beta_thermo must be positive and finite, got {self.beta_thermo!r}")
        if not math.isclose(self.tau_temp * self.beta_thermo, 1.0, rel_tol=1e-12):
            raise ValueError("tau_temp must be the reciprocal of beta_thermo")


def gibbs_params(state: QuantumState, sys: SystemParams = NATURAL_UNITS) -> GibbsParams:
    """Thermodynamic parameters equivalent to the state's width beta."""
    scales = derived_scales(state, sys)
    bt = math.pi * state.beta / (2.0 * scales.E_mu)
    return GibbsParams(beta_thermo=bt, tau_temp=1.0 / bt)


def _base_energy(beta_thermo, beta):
    """E_mu recovered from beta_thermo * E_mu = pi*beta/2; floats or arrays, the same bits."""
    return math.pi * beta / (2.0 * beta_thermo)


def _check_consistent(gp: GibbsParams, state: QuantumState, sys: SystemParams) -> None:
    scales = derived_scales(state, sys)
    if not math.isclose(gp.beta_thermo * scales.E_mu, math.pi * state.beta / 2.0, rel_tol=1e-9):
        raise ValueError(
            "GibbsParams inconsistent with (state, sys): "
            f"beta_thermo*E_mu={gp.beta_thermo * scales.E_mu!r} vs pi*beta/2={math.pi * state.beta / 2.0!r}"
        )


def partition(
    gp: GibbsParams,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> float:
    """Partition sum Z = sum over modes of exp(-beta_thermo * E_kappa).

    Summed directly over the signed mode list; equals the normalization
    constant divided by the well width.  Raises ValueError if ``gp`` does not
    match the state's beta (they parametrize the same distribution).
    """
    _check_consistent(gp, state, sys)
    scales = derived_scales(state, sys)
    m = mode_table(state.beta, trunc).m
    return 2.0 * float(np.sum(np.exp(-gp.beta_thermo * scales.E_mu * m * m)))


# partition_theta_form takes the Poisson dual up to this beta and the direct
# theta series above it.  The dual sums O(1) Gaussians of alternating sign to
# Z ~ 2 exp(-pi beta / 2), so its rounding grows like exp(pi beta / 2) /
# (2 sqrt(2 beta)) ulps.  Against a 40-digit Z over beta (1 +- 1e-2) it is
# within 2.3e-16 of Z at 0.1, 7.5e-16 at 2, 2.2e-15 at 2.1, 4.8e-15 at 2.5 and
# 1.6e-14 at 3.5; the direct series (positive terms) stays within 7e-16
# from 0.05 to 4.
_DUAL_MAX_BETA = 2.1


def partition_theta_form(
    gp: GibbsParams,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> float:
    """Partition sum evaluated as the half-characteristic theta function.

    Z = theta[1/2,1/2](-1/2, tau) with tau = i*(4*E_mu/pi)*beta_thermo = 2i*beta.
    Up to beta = 2.1 it is the Poisson dual (2 beta)^(-1/2) sum_k (-1)^k
    exp(-pi k^2 / (2 beta)), which shares no term with ``partition``'s sum
    over modes.  Above 2.1, where the dual's alternating terms cancel, it is
    the direct series, which sums the same Gaussians exp(-beta_thermo E_mu m^2)
    as ``partition`` and so is no independent oracle there: gibbs-layer's
    theta-form sub-check stops at beta = 2 for that reason.  The direct branch
    is kept for its accuracy above 2.1.  Note this is minus ``theta.theta1``
    under the package's sign convention.
    """
    _check_consistent(gp, state, sys)
    scales = derived_scales(state, sys)
    kappa = (4.0 * scales.E_mu / math.pi) * gp.beta_thermo
    args = ThetaArgs(a=0.5, b=0.5, z=-0.5, tau=1j * kappa)
    if kappa <= 2.0 * _DUAL_MAX_BETA:
        return theta_dual(args, trunc).real
    return theta_char(args, trunc).real


def gibbs_sums(beta, trunc: Truncation = DEFAULT_TRUNCATION):
    """S0 = sum w_m and S2 = sum m^2 w_m over positive odd m, for a float or an array of beta.

    w_m = exp(-(pi*beta/2)(m^2 - 1)).  The one route of the Gibbs means, in
    two branches chosen per beta.  Above ``density._GIBBS_DUAL_MAX_BETA`` the
    sums run over m = 1, 3, ..., 2K+1 with K = cutoff_for(2 beta), the
    weights of ``mode_table`` summed as it sums them: the betas are grouped
    by K, and each group is one exp over an (n, K+1) block and one pairwise
    row sum per moment.  At and below it they come from the Poisson dual
    Z = (2 beta)^(-1/2) sum_k (-1)^k exp(-pi k^2/(2 beta)) (``_gibbs_dual``),
    a few terms and no cutoff.  Either way every sum equals the scalar one
    bit for bit.
    """
    betas = np.asarray(beta, dtype=float)
    flat = betas.ravel()
    s0, s2 = np.empty(flat.size), np.empty(flat.size)
    dual = (flat > 0.0) & (flat <= _GIBBS_DUAL_MAX_BETA)
    for i in np.flatnonzero(dual).tolist():
        s0[i], s2[i] = _gibbs_dual(float(flat[i]), trunc)
    summed = np.flatnonzero(~dual)  # bad betas too: the cutoff names them
    if summed.size:
        # the array kernel, not cutoff_for: the benchmark's tracer keys each
        # cutoff_for call by its beta, which an array cannot be
        ks = _cutoff_array(2.0 * flat[summed], trunc)
        # a set, not np.unique, which imports numpy.ma (about 1 MiB) on first use
        for k in set(ks.tolist()):
            rows = summed[ks == k]
            m = np.arange(1, 2 * k + 2, 2, dtype=float)
            w = np.exp((-math.pi * flat[rows] / 2.0)[:, None] * (m * m - 1.0))
            s0[rows] = np.add.reduce(w, axis=1)
            s2[rows] = np.add.reduce(m * m * w, axis=1)
    if betas.ndim == 0:
        return float(s0[0]), float(s2[0])
    return s0.reshape(betas.shape), s2.reshape(betas.shape)


def _gibbs_dual(beta: float, trunc: Truncation) -> tuple[float, float]:
    """(S0, S2) at one beta from the terms of ``theta_dual`` for Z = theta[1/2,1/2](-1/2, 2i beta).

    With D = sum_k (-1)^k exp(-pi k^2/(2 beta)), Z = (2 beta)^(-1/2) D,
    S0 = exp(pi beta/2) Z/2 and S2/S0 = -(2/pi) d ln Z/d beta
    = 1/(pi beta) - sum_k (-1)^k k^2 exp(-pi k^2/(2 beta)) / (beta^2 D),
    the derivative taken term by term: exactly 1/(pi beta) once the k != 0
    terms underflow.
    """
    k, terms = _dual_terms(ThetaArgs(0.5, 0.5, -0.5, 2j * beta), trunc)  # w = z + b = 0: offsets are k
    terms = terms.real
    d = float(np.add.reduce(terms))
    s0 = math.exp(math.pi * beta / 2.0) * (d / math.sqrt(2.0 * beta)) / 2.0
    ratio = 1.0 / (math.pi * beta) - float(np.add.reduce(k * k * terms)) / (beta * beta * d)
    return s0, s0 * ratio


def _mean_energy(beta_thermo, beta, s0, s2):
    """E_mu S2/S0; floats or arrays, the same bits."""
    return _base_energy(beta_thermo, beta) * s2 / s0


def _entropy(beta_thermo, beta, s0, s2, log_s0):
    """(pi*beta/2)(S2/S0 - 1) + ln S0, pi*beta/2 taken as beta_thermo * E_mu."""
    return beta_thermo * _base_energy(beta_thermo, beta) * (s2 / s0 - 1.0) + log_s0


def mean_energy_gibbs(
    gp: GibbsParams,
    state: QuantumState,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> float:
    """Gibbs-average mode energy, E_mu * sum m^2 w_m / sum w_m over odd m.

    Equals minus the beta_thermo-derivative of ln Z; always >= E_mu and tends
    to E_mu as beta grows (only the two lowest modes survive).  Reads
    ``gibbs_sums``.
    """
    s0, s2 = gibbs_sums(state.beta, trunc)
    return _mean_energy(gp.beta_thermo, state.beta, s0, s2)


def entropy(
    gp: GibbsParams,
    state: QuantumState,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> float:
    """Entropy in units of k_B: beta_thermo * <E> + ln Z - ln 2.

    Evaluated in the rescaled form (pi*beta/2)(S2/S0 - 1) + ln(S0), whose two
    terms each vanish as beta -> infinity, so the frozen limit is an exact 0
    rather than a difference of large numbers.  Independent of mu and of the
    system units.  Reads ``gibbs_sums``.
    """
    s0, s2 = gibbs_sums(state.beta, trunc)
    return _entropy(gp.beta_thermo, state.beta, s0, s2, math.log(s0))


def gibbs_table(
    betas,
    mus=(1,),
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """beta_thermo, mean energy and entropy for every level in ``mus`` and width in ``betas``.

    Three (len(mus), len(betas)) arrays whose entries equal
    ``gibbs_params(state, sys).beta_thermo``, ``mean_energy_gibbs`` and
    ``entropy`` of QuantumState(mu, beta) bit for bit, from one ``gibbs_sums``
    call: the sums depend on beta alone.
    """
    betas = np.asarray(betas, dtype=float)
    s0, s2 = gibbs_sums(betas, trunc)
    # math.log per width: numpy's vectorized log rounds differently
    log_s0 = np.array([math.log(v) for v in s0.tolist()])
    e_mu = np.array([[derived_scales(QuantumState(mu, 1.0), sys).E_mu] for mu in mus])
    bt = math.pi * betas / (2.0 * e_mu)  # gibbs_params, per entry
    return bt, _mean_energy(bt, betas, s0, s2), _entropy(bt, betas, s0, s2, log_s0)


def entropy_from_factor(
    gp: GibbsParams,
    state: QuantumState,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> float:
    """Entropy as -ln of the compound Gibbs factor (2/Z) exp(-beta_thermo <E>).

    The literal composition, kept as an independent path; it loses accuracy
    once Z underflows (beta of order several hundred), where ``entropy``
    remains exact.
    """
    z = math.exp(-math.pi * state.beta / 2.0) * scaled_norm_sum(state, trunc)
    mean_e = mean_energy_gibbs(gp, state, trunc)
    factor = (2.0 / z) * math.exp(-gp.beta_thermo * mean_e)
    return -math.log(factor)


def quantum_potential(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> FieldSample:
    """Quantum potential Q = -(hbar^2/2m) (sqrt f)'' / sqrt f, from analytic derivatives.

    Evaluated as -(hbar^2/2m)[f''/(2f) - (f')^2/(4f^2)] with the analytic
    derivatives of ``density_derivatives``; tagged pole where the density is
    below the floor.  In the frozen limit Q tends to the level energy at every
    interior non-node point.  Broadcasts over x and t.
    """
    f, f1, f2, _ = (np.asarray(d) for d in density_derivatives(x, t, state, sys, trunc))
    coef = -(sys.hbar**2) / (2.0 * sys.m)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = coef * (f2 / (2.0 * f) - f1 * f1 / (4.0 * f * f))
    return tagged(val, f >= _floor_for(sys), FieldTag.POLE)


def quantum_potential_gradient(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> FieldSample:
    """Analytic dQ/dx; pole-tagged like ``quantum_potential``.

    Matches the pressure-gradient identity: (1/f) dP11/dx equals dQ/dx for the
    flow of this state (checked to rounding accuracy by the test-suite).  The
    cubes are written as products, which round alike for a point and a grid.
    Broadcasts over x and t.
    """
    f, f1, f2, f3 = (np.asarray(d) for d in density_derivatives(x, t, state, sys, trunc))
    coef = -(sys.hbar**2) / (2.0 * sys.m)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = coef * (f3 / (2.0 * f) - f1 * f2 / (f * f) + f1 * f1 * f1 / (2.0 * f * f * f))
    return tagged(val, f >= _floor_for(sys), FieldTag.POLE)


def avg_energy_profile(
    x,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> FieldSample:
    """Period-averaged mean energy at x: (1/l) <E>_Gibbs / averaged_density(x).

    The period average of the energy-weighted density divided by the period
    average of the density; the numerator collapses to the constant Gibbs mean
    energy per unit length.  Pole-tagged at zeros of the averaged density
    (walls and, for mu > 1, the stationary nodes).  Broadcasts over x.
    """
    fbar = np.asarray(averaged_density(x, state, sys, trunc))
    gp = gibbs_params(state, sys)
    # a zero or subnormal averaged density divides to inf or overflows: pole-tagged below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        val = mean_energy_gibbs(gp, state, trunc) / (sys.l * fbar)
    return tagged(val, fbar >= _floor_for(sys), FieldTag.POLE)


def _time_panels(state: QuantumState, trunc: Truncation) -> int:
    """Simpson panel count resolving every time harmonic of a quadratic moment.

    The highest harmonic is max s*j over the folded diamond s + j <= 2K + 1
    with s + j odd, which is K(K + 1) at s = K, j = K + 1.
    """
    k = cutoff_for(state.beta, trunc)
    return max(16, k * (k + 1) // 2 + 8)


def double_avg_energy(
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> float:
    """Space-and-period average of the flow energy: quadrature of f-bar times
    the averaged energy profile.

    Evaluated as the nested quadrature (1/T_mu) int_0^l int_0^T f<E> dt dx of
    the everywhere-finite kinetic energy density, which is the same product
    with the averaged density cancelled analytically.  Reproduces the Gibbs
    mean mode energy exactly (up to quadrature rounding): the double average
    adds no information beyond the weights.
    """
    scales = derived_scales(state, sys)
    t_panels = _time_panels(state, trunc)

    def time_avg(xs: np.ndarray) -> np.ndarray:
        # one (x, t) grid call: a row of time samples per x node
        val = integrate(
            lambda ts: kinetic_energy_density(xs[:, None], ts, state, sys, trunc),
            0.0,
            scales.T_mu,
            t_panels,
        )
        return val / scales.T_mu

    return integrate(time_avg, 0.0, sys.l, 32)
