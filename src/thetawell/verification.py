"""Machine verification of every law the library claims to satisfy.

Each check reproduces one verifiable statement (an exact identity, a proved
limit, or a qualitative phenomenon) at fixed parameters, as a list of
(label, figure, bound) sub-checks.  The registry is shared by the CLI
``verify`` command and the acceptance test suite, so both always agree on what
"correct" means.

Sample points are drawn from a seeded generator: runs are deterministic, and
the reported numbers are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import _averaged_dual, _averaged_modes, averaged_density, density, period, stationary_density
from .numerics import DEFAULT_TRUNCATION, Truncation, integrate
from .phase_space import (
    _energy_field,
    _floor_for,
    _m2_form,
    _m3_form,
    comb_atoms,
    flux,
    moment_law_residual,
    moment_rate,
    moments,
    pressure_gradient,
    velocity_field,
    velocity_from_vlasov,
)
from .series import comb_rows
from .thermo import (
    _time_panels,
    double_avg_energy,
    entropy,
    entropy_from_factor,
    gibbs_params,
    gibbs_table,
    mean_energy_gibbs,
    partition,
    partition_theta_form,
    quantum_potential_gradient,
)
from .wavefunction import (
    NATURAL_UNITS,
    QuantumState,
    SystemParams,
    derived_scales,
    jet_forms,
    norm_constant,
    psi,
    schrodinger_residual,
)

__all__ = ["CheckResult", "CHECK_NAMES", "run_check", "run_all_checks", "comb_window_masses"]

_SEED = 20260819


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check.

    ``measured`` and ``tolerance`` are the figure and bound of the deciding
    sub-check: the one with the largest figure/bound ratio, a NaN first;
    ``margin`` is their ratio, how many times over that figure fits its bound.
    ``detail`` lists every sub-check as ``label figure (<bound)``, then the
    parameters and qualitative witnesses.
    """

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str

    @property
    def margin(self) -> float:
        """tolerance / measured: inf for a figure of exactly 0, NaN for a NaN figure."""
        return math.inf if self.measured == 0.0 else self.tolerance / self.measured


def _verdict(name: str, parts: list[tuple[str, float, float]], note: str = "", holds: bool = True) -> CheckResult:
    """The result of a check from its (label, figure, bound) sub-checks.

    It passes when every figure is below its bound (a NaN is not) and the
    qualitative witnesses, ``holds``, hold.
    """
    _, measured, tolerance = max(parts, key=lambda part: (math.isnan(part[1]), part[1] / part[2]))
    passed = holds and all(figure < bound for _, figure, bound in parts)
    shown = [
        f"{label} {figure:.3e} (<{np.format_float_scientific(bound, 3, trim='-', exp_digits=1)})"
        for label, figure, bound in parts
    ]
    return CheckResult(name, passed, measured, tolerance, "; ".join(shown + [note] if note else shown))


def _check_normalization(sys: SystemParams, trunc: Truncation, state: QuantumState) -> CheckResult:
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for mu in (1, 2, 5):
        for beta in (0.05, 0.1, 1.0, 10.0):
            s = QuantumState(mu, beta)
            ts = rng.uniform(0.0, period(s, sys), size=5)[:, None]
            totals = integrate(lambda x: np.abs(psi(x, ts, s, sys, trunc)) ** 2, 0.0, sys.l, 512)
            worst = max(worst, float(np.max(np.abs(totals - 1.0))))
    return _verdict(
        "normalization",
        [("max |int |psi|^2 dx - 1|", worst, 1e-10)],
        "mu in {1,2,5}, beta in {0.05,0.1,1,10}, 5 random t",
    )


def _check_schrodinger(sys: SystemParams, trunc: Truncation, state: QuantumState) -> CheckResult:
    rng = np.random.default_rng(_SEED)
    s = QuantumState(1, 0.5)
    scales = derived_scales(s, sys)
    t_mu = scales.T_mu
    xs, ts = rng.uniform([0.05 * sys.l, 0.0], [0.95 * sys.l, t_mu], size=(50, 2)).T
    amp = np.abs(psi(xs, ts, s, sys, trunc))
    resid = schrodinger_residual(xs, ts, s, sys, 1e-4 * sys.l, 1e-4 * t_mu, trunc)
    worst = float(np.max(resid / (scales.E_mu / sys.hbar * sys.hbar * amp)))
    return _verdict(
        "schrodinger-residual",
        [("max residual / ((E_mu/hbar)*hbar*|psi|)", worst, 1e-5)],
        "50 random points, mu=1, beta=0.5",
    )


def _check_density_identity(sys: SystemParams, trunc: Truncation, state: QuantumState) -> CheckResult:
    # |psi|^2 from the O(K) psi jet against the sum of the comb rows,
    # one time row per call to keep the rows' workspace small
    t_mu = period(state, sys)
    xs = np.linspace(0.0, sys.l, 101)
    worst = 0.0
    for t in np.linspace(0.0, t_mu, 11):
        rows = comb_rows(xs, t, state, sys, trunc)
        series = rows.moment(0) / (sys.l * rows.norm)
        worst = max(worst, float(np.max(np.abs(density(xs, t, state, sys, trunc) - series))))
    per = float(np.max(np.abs(density(xs, 0.0, state, sys, trunc) - density(xs, t_mu, state, sys, trunc))))
    return _verdict(
        "density-identity",
        [("max(||psi|^2 - sum of comb rows| on 101x11, |f(x,0)-f(x,T)|)", max(worst, per), 1e-10)],
        f"mu={state.mu}, beta={state.beta}",
    )


def _check_stationary_limit(sys: SystemParams, trunc: Truncation, state: QuantumState) -> CheckResult:
    worst = 0.0
    for mu in (1, 5):
        s = QuantumState(mu, 10.0)
        t_mu = period(s, sys)
        xs = np.linspace(0.0, sys.l, 201)
        for t in (0.0, 0.37 * t_mu, 0.81 * t_mu):
            diff = np.abs(density(xs, t, s, sys, trunc) - stationary_density(xs, s, sys))
            worst = max(worst, float(np.max(diff)))
    return _verdict(
        "stationary-limit", [("sup |f - single-mode profile|", worst, 1e-6 * 2.0 / sys.l)], "beta=10, mu in {1,5}"
    )


def _check_time_average(sys: SystemParams, trunc: Truncation, state: QuantumState) -> CheckResult:
    s = QuantumState(1, 0.1)
    t_mu = period(s, sys)
    panels = _time_panels(s, trunc)
    xs = np.linspace(0.0, sys.l, 51)
    quad = integrate(lambda t: density(xs[:, None], t, s, sys, trunc), 0.0, t_mu, panels) / t_mu
    worst_avg = float(np.max(np.abs(quad - averaged_density(xs, s, sys, trunc))))

    frozen = QuantumState(1, 10.0)
    xs = np.linspace(0.0, sys.l, 201)
    frozen_diff = float(
        np.max(np.abs(averaged_density(xs, frozen, sys, trunc) - stationary_density(xs, frozen, sys)))
    )
    mass = integrate(lambda x: averaged_density(x, s, sys, trunc), 0.0, sys.l, 1024)

    # the two routes of averaged_density where both are cheap and accurate
    narrow = QuantumState(1, 1e-3)
    xs = np.linspace(0.0, sys.l, 51)
    routes = float(
        np.max(np.abs(_averaged_dual(xs, narrow, sys, trunc) - _averaged_modes(xs, narrow, sys, trunc)))
    )
    return _verdict(
        "time-average",
        [
            ("avg-vs-quadrature", worst_avg, 1e-8),
            ("frozen-limit", frozen_diff, 1e-6 * 2.0 / sys.l),
            ("mass", abs(mass - 1.0), 1e-10),
            ("poisson-dual-vs-mode-sum at beta=1e-3", routes, 1e-8),
        ],
    )


def _check_wigner_marginal(sys: SystemParams, trunc: Truncation, state: QuantumState) -> CheckResult:
    xs, ts = np.linspace(0.0, sys.l, 51), np.linspace(0.0, period(state, sys), 11)[:, None]
    _, _, weights = comb_atoms(xs, ts, state, sys, trunc)
    marginal = sys.hbar * np.add.reduce(weights, axis=0)
    worst = float(np.max(np.abs(marginal - density(xs, ts, state, sys, trunc))))
    return _verdict(
        "wigner-marginal",
        [("max |marginal - density|", worst, 1e-10)],
        f"51x11 grid at mu={state.mu}, beta={state.beta}",
    )


def _check_comb_transport(sys: SystemParams, trunc: Truncation, state: QuantumState) -> CheckResult:
    rng = np.random.default_rng(_SEED)
    xs, ts = rng.uniform([0.0, 0.0], [sys.l, period(state, sys)], size=(20, 2)).T
    cell = sys.l / state.mu  # x-period of every comb coefficient
    all_labels, all_momenta, now = comb_atoms(xs, ts, state, sys, trunc)
    rows = np.arange(-3, 4) - all_labels[0]  # rows of s = -3..3
    shifted = (xs - all_momenta[rows, None] / sys.m * ts) % cell
    _, _, before = comb_atoms(shifted, 0.0, state, sys, trunc)
    # atom s at every point; in ``before``, at the points shifted for s
    diff = now[rows] - before[rows, np.arange(rows.size)]
    return _verdict(
        "comb-transport",
        [("max |C_s(x,t) - C_s(x - P_s t/m, 0)|", float(np.max(np.abs(diff))), 1e-10)],
        "s in -3..3, 20 random (x,t)",
    )


def _check_velocity(sys: SystemParams, trunc: Truncation, state: QuantumState) -> CheckResult:
    t_mu = period(state, sys)
    rng = np.random.default_rng(_SEED)

    xs, ts = np.linspace(0.0, sys.l, 21), np.linspace(0.0, t_mu, 11)
    v1 = velocity_field(xs[:, None], ts[None, :], state, sys, trunc)
    v2 = velocity_from_vlasov(xs[:, None], ts[None, :], state, sys, trunc)
    if np.any(v1.tag != v2.tag):
        two_path = math.inf
    else:
        two_path = float(np.max(np.abs(v1.value - v2.value)[v2.is_finite], initial=0.0))

    v = velocity_field(np.linspace(0.02 * sys.l, 0.98 * sys.l, 49), 0.0, state, sys, trunc)
    start = float(np.max(np.abs(v.value[v.is_finite]), initial=0.0))

    t_rand = rng.uniform(0.0, t_mu, size=3)
    totals = integrate(lambda x: flux(x, t_rand[:, None], state, sys, trunc), 0.0, sys.l, 512)

    frozen = QuantumState(state.mu, 10.0)
    t10 = period(frozen, sys)
    xs10, ts10 = np.linspace(0.05 * sys.l, 0.95 * sys.l, 19), np.linspace(0.0, t10, 7)
    v = velocity_field(xs10[:, None], ts10[None, :], frozen, sys, trunc)
    sup_frozen = float(np.max(np.abs(v.value[v.is_finite]), initial=0.0))
    return _verdict(
        "velocity-two-path",
        [
            ("two-path", two_path, 1e-9),
            ("start", start, 1e-9),
            ("flux integral", float(np.max(np.abs(totals))), 1e-10),
            ("frozen sup/(l/T)", sup_frozen / (sys.l / t10), 1e-6),
        ],
    )


def _law_grid(sys: SystemParams, state: QuantumState) -> tuple[np.ndarray, np.ndarray]:
    """The moment-law checks' 21x11 grid over [0.05 l, 0.95 l] x [0, T_mu], as x and t columns."""
    xs = np.linspace(0.05 * sys.l, 0.95 * sys.l, 21)
    ts = np.linspace(0.0, period(state, sys), 11)
    return xs[:, None], ts[None, :]


def _law_ratio(k: int, sys: SystemParams, trunc: Truncation, state: QuantumState) -> float:
    """max |d M_k/dt + d M_{k+1}/dx| / max |d M_k/dt| on the law grid."""
    xs, ts = _law_grid(sys, state)
    res = moment_law_residual(xs, ts, k, state, sys, trunc)
    return float(np.max(res) / np.max(np.abs(moment_rate(xs, ts, k, state, sys, trunc))))


def _check_continuity(sys: SystemParams, trunc: Truncation, state: QuantumState) -> CheckResult:
    worst_rel = 0.0
    for mu, beta in ((1, 0.1), (5, 0.1), (1, 1.0)):
        s = QuantumState(mu, beta)
        scale = 1.0 / (sys.l * period(s, sys))
        xs, ts = _law_grid(sys, s)
        res = moment_law_residual(xs, ts, 0, s, sys, trunc)
        worst_rel = max(worst_rel, float(np.max(res)) / scale)
    return _verdict(
        "continuity",
        [("max |df/dt + dflux/dx| * l * T_mu", worst_rel, 1e-9)],
        "21x11 grids, (mu,beta) in {(1,0.1),(5,0.1),(1,1)}",
    )


def _check_momentum_law(sys: SystemParams, trunc: Truncation, state: QuantumState) -> CheckResult:
    law = _law_ratio(1, sys, trunc, state)
    rng = np.random.default_rng(_SEED)
    xs, ts = rng.uniform([0.05 * sys.l, 0.0], [0.95 * sys.l, period(state, sys)], size=(20, 2)).T
    # d P11/dx = f dQ/dx, compared without dividing by f, which loses
    # digits pointwise where f nears the floor
    grad = pressure_gradient(xs, ts, state, sys, trunc)
    qgrad = quantum_potential_gradient(xs, ts, state, sys, trunc)
    ok = grad.is_finite & qgrad.is_finite
    force = density(xs, ts, state, sys, trunc)[ok] * qgrad.value[ok]
    madelung = float(np.max(np.abs(grad.value[ok] - force)) / np.max(np.abs(grad.value[ok])))
    return _verdict(
        "momentum-law",
        [
            ("k=1 law |dM1/dt + dM2/dx| / max|dM1/dt| on 21x11", law, 1e-10),
            ("dP11/dx vs f dQ/dx, max gap / max|dP11/dx| at 20 points", madelung, 1e-6),
        ],
    )


def _check_energy_law(sys: SystemParams, trunc: Truncation, state: QuantumState) -> CheckResult:
    laws = [_law_ratio(k, sys, trunc, state) for k in (2, 3)]
    # the paper's brackets, composed from the central moments as written,
    # reduce exactly to (m/2) M2 and (m/2) M3 where the mean velocity exists
    xs, ts = _law_grid(sys, state)
    ms = moments(xs, ts, state, sys, trunc)
    j = jet_forms(xs, ts, state, sys, trunc, order=3)
    defined = ms.density >= _floor_for(sys)
    f = ms.density[defined]
    v, p11, p111 = ms.flux[defined] / f, ms.pressure[defined], ms.heat_flux[defined]
    half_m = 0.5 * sys.m
    energy = half_m * f * v**2 + 0.5 * p11
    energy_flux = half_m * f * v**3 + 1.5 * v * p11 + half_m * p111
    brackets = [
        float(np.max(np.abs(bracket - raw)) / np.max(np.abs(raw)))
        for bracket, raw in (
            (energy, half_m * _m2_form(j, sys)[defined]),
            (energy_flux, half_m * _m3_form(j, sys)[defined]),
        )
    ]
    return _verdict(
        "energy-law",
        [
            ("k=2 law", laws[0], 1e-10),
            ("k=3 law", laws[1], 1e-10),
            ("energy bracket as written vs (m/2)M2", brackets[0], 1e-12),
            ("energy-flux bracket as written vs (m/2)M3", brackets[1], 1e-12),
        ],
        f"laws |dMk/dt + dMk+1/dx| / max|dMk/dt| on 21x11; mu={state.mu}, beta={state.beta}",
    )


def _check_gibbs(sys: SystemParams, trunc: Truncation, state: QuantumState) -> CheckResult:
    s = QuantumState(1, 0.7)
    z_err = abs(partition(gibbs_params(s, sys), s, sys, trunc) * sys.l - norm_constant(s, sys, trunc))
    # the sum over modes against its Poisson dual, which shares no term with it
    theta_err = 0.0
    for beta in (0.05, 0.1, 0.7, 1.0, 2.0):
        s = QuantumState(1, beta)
        g = gibbs_params(s, sys)
        theta_err = max(theta_err, abs(partition_theta_form(g, s, sys, trunc) - partition(g, s, sys, trunc)))

    state1 = QuantumState(1, 1.0)
    gp1 = gibbs_params(state1, sys)
    h = 1e-5 * gp1.beta_thermo
    e_mu1 = derived_scales(state1, sys).E_mu

    def ln_z(bt: float) -> float:
        beta_equiv = 2.0 * bt * e_mu1 / math.pi
        s = QuantumState(1, beta_equiv)
        return math.log(partition(gibbs_params(s, sys), s, sys, trunc))

    fd = -(ln_z(gp1.beta_thermo + h) - ln_z(gp1.beta_thermo - h)) / (2.0 * h)
    fd_err = abs(fd - mean_energy_gibbs(gp1, state1, trunc)) / mean_energy_gibbs(gp1, state1, trunc)

    state20 = QuantumState(1, 20.0)
    gp20 = gibbs_params(state20, sys)
    frozen_err = abs(mean_energy_gibbs(gp20, state20, trunc) / derived_scales(state20, sys).E_mu - 1.0)

    dbl_err = 0.0
    for mu, beta in ((1, 0.5), (3, 0.5), (1, 20.0)):
        s = QuantumState(mu, beta)
        g = gibbs_params(s, sys)
        dbl_err = max(dbl_err, abs(double_avg_energy(s, sys, trunc) - mean_energy_gibbs(g, s, trunc)))
    return _verdict(
        "gibbs-layer",
        [
            ("Z*l-N", z_err, 1e-12),
            ("theta-form", theta_err, 1e-12),
            ("dlnZ FD rel", fd_err, 1e-6),
            ("frozen mean energy", frozen_err, 1e-10),
            ("double-average", dbl_err, 1e-8),
        ],
        "theta-form over beta 0.05..2",
    )


def _check_entropy(sys: SystemParams, trunc: Truncation, state: QuantumState) -> CheckResult:
    state20 = QuantumState(1, 20.0)
    s20 = abs(entropy(gibbs_params(state20, sys), state20, trunc))

    (values,) = gibbs_table((0.05, 0.1, 0.2, 0.5, 1.0, 2.0), (1,), sys, trunc)[2]
    monotone = bool(np.all(values[:-1] > values[1:]))

    s1, s5 = gibbs_table((0.1, 1.0), (1, 5), sys, trunc)[2]
    mu_dev = float(np.max(np.abs(s1 - s5)))

    # second law: delta S must match the integral of beta_thermo d<E> along beta
    (bts,), (energies,), (entropies,) = gibbs_table(np.linspace(0.2, 1.0, 2001), (1,), sys, trunc)
    integral = float(np.sum(0.5 * (bts[1:] + bts[:-1]) * np.diff(energies)))
    delta_s = float(entropies[-1] - entropies[0])

    two_path = 0.0
    for b in (0.1, 0.5, 2.0):
        s = QuantumState(1, b)
        g = gibbs_params(s, sys)
        two_path = max(two_path, abs(entropy(g, s, trunc) - entropy_from_factor(g, s, trunc)))
    return _verdict(
        "entropy",
        [
            ("frozen value", s20, 1e-8),
            ("mu-dependence", mu_dev, 1e-12),
            ("second-law rel", abs(integral - delta_s) / abs(delta_s), 1e-4),
            ("two-form agreement", two_path, 1e-10),
        ],
        f"strictly decreasing {monotone}",
        holds=monotone,
    )


def comb_window_masses(
    sys: SystemParams = NATURAL_UNITS, trunc: Truncation = DEFAULT_TRUNCATION
) -> tuple[list[float], list[float]]:
    """Probability mass in |x - l/2| <= l/10 for beta in (0.1, 0.05, 0.02), mu=1.

    Returns (initial-state masses, period-averaged masses).  The initial-state
    density concentrates into a narrowing spike as beta drops, so its window
    mass rises toward 1.  The period-averaged profile cannot concentrate: it is
    a convex combination of mode densities, each bounded by 2/l, so it stays
    below 2/l everywhere and its window mass falls toward the uniform value
    1/5.  Both lists are reported so the direction of each trend is on record.
    """
    t0, avg = [], []
    for beta in (0.1, 0.05, 0.02):
        s = QuantumState(1, beta)
        lo, hi = 0.4 * sys.l, 0.6 * sys.l
        t0.append(integrate(lambda x: density(x, 0.0, s, sys, trunc), lo, hi, 256))
        avg.append(integrate(lambda x: averaged_density(x, s, sys, trunc), lo, hi, 256))
    return t0, avg


def _check_phenomena(sys: SystemParams, trunc: Truncation, state: QuantumState) -> CheckResult:
    t_mu = period(state, sys)
    xs, ts = np.linspace(0.02 * sys.l, 0.98 * sys.l, 49), np.linspace(0.0, t_mu, 13)
    e = _energy_field(jet_forms(xs[None, :], ts[:, None], state, sys, trunc, order=2), sys)
    min_energy = float(np.min(e.value[e.is_finite], initial=math.inf))
    negative = min_energy < 0.0

    masses_t0, masses_avg = comb_window_masses(sys, trunc)
    comb_trend = masses_t0[0] < masses_t0[1] < masses_t0[2]
    avg_falls = masses_avg[0] > masses_avg[1] > masses_avg[2]

    xs = np.linspace(0.07 * sys.l, 0.93 * sys.l, 13)[:, None]
    fracs = np.array([0.05, 0.17, 0.33, 0.46])
    va = velocity_field(xs, (0.5 + fracs) * t_mu, state, sys, trunc)
    vb = velocity_field(xs, (0.5 - fracs) * t_mu, state, sys, trunc)
    both = va.is_finite & vb.is_finite
    anti = float(np.max(np.abs(va.value + vb.value)[both], initial=0.0))
    return _verdict(
        "phenomena",
        [("half-period velocity antisymmetry", anti, 1e-9)],
        f"negative mean energy witness {negative} (min {min_energy:.3e}); "
        f"initial-state central mass rising as beta drops {comb_trend} "
        f"({', '.join(f'{m:.3f}' for m in masses_t0)}); "
        f"period-averaged mass falling toward uniform {avg_falls} "
        f"({', '.join(f'{m:.3f}' for m in masses_avg)})",
        holds=negative and comb_trend and avg_falls,
    )


# the registry, in report order; every check takes (sys, trunc, state) and
# the enumerated ones ignore ``state`` for their own fixed parameter sets
_CHECKS = {
    "normalization": _check_normalization,
    "schrodinger-residual": _check_schrodinger,
    "density-identity": _check_density_identity,
    "stationary-limit": _check_stationary_limit,
    "time-average": _check_time_average,
    "wigner-marginal": _check_wigner_marginal,
    "comb-transport": _check_comb_transport,
    "velocity-two-path": _check_velocity,
    "continuity": _check_continuity,
    "momentum-law": _check_momentum_law,
    "energy-law": _check_energy_law,
    "gibbs-layer": _check_gibbs,
    "entropy": _check_entropy,
    "phenomena": _check_phenomena,
}

CHECK_NAMES: tuple[str, ...] = tuple(_CHECKS)


def run_check(
    name: str,
    state: QuantumState | None = None,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> CheckResult:
    """Run one named check; ``state`` selects (mu, beta) for the grid-based checks.

    The enumerated checks (normalization, limits, thermodynamics) always use
    their own fixed parameter sets; the default state is (mu=1, beta=0.1).
    """
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    return _CHECKS[name](sys, trunc, QuantumState(1, 0.1) if state is None else state)


def run_all_checks(
    state: QuantumState | None = None,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> list[CheckResult]:
    """Run the full registry in order and return every result."""
    return [run_check(name, state, sys, trunc) for name in CHECK_NAMES]
