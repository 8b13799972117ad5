"""Momentum comb, velocity flow, and the hydrodynamic conservation laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetawell.density import density, period
from thetawell.numerics import (
    DEFAULT_TRUNCATION,
    FieldTag,
    Truncation,
    cutoff_for,
    integrate,
)
from thetawell.phase_space import (
    DENSITY_FLOOR,
    _density_form,
    _flux_form,
    _m2_form,
    _m3_form,
    _probe_velocity,
    flux,
    kinetic_energy_density,
    moment_law_residual,
    moment_rate,
    moments,
    pressure_gradient,
    velocity_field,
    velocity_from_vlasov,
    wigner_comb,
)
from thetawell.thermo import quantum_potential_gradient
from thetawell.wavefunction import (
    NATURAL_UNITS,
    QuantumState,
    SystemParams,
    derived_scales,
    jet_forms,
)

from stencils import finite_diff

STATE = QuantumState(mu=1, beta=0.1)
T = period(STATE)
L = NATURAL_UNITS.l


def atom_by_s(comb):
    return {a.s: a for a in comb.atoms}


# ---------------------------------------------------------------- comb


def test_comb_atom_layout():
    comb = wigner_comb(0.3, 0.2 * T, STATE)
    scales = derived_scales(STATE)
    m_max = 2 * cutoff_for(STATE.beta) + 1
    labels = [a.s for a in comb.atoms]
    assert labels == list(range(-m_max, m_max + 1))
    for a in comb.atoms:
        assert a.momentum == pytest.approx(a.s * scales.P_unit, rel=1e-15)
        assert isinstance(a.weight, float)


@pytest.mark.parametrize("x", [0.1, 0.35, 0.5, 0.82])
@pytest.mark.parametrize("t_frac", [0.0, 0.13, 0.5])
def test_comb_marginal_is_density(x, t_frac):
    comb = wigner_comb(x, t_frac * T, STATE)
    assert comb.marginal() == pytest.approx(density(x, t_frac * T, STATE), abs=1e-10)


def test_comb_marginal_other_units():
    sys = SystemParams(m=1.3, l=0.8, hbar=0.9)
    state = QuantumState(mu=2, beta=0.4)
    x, t = 0.3, 0.41 * period(state, sys)
    comb = wigner_comb(x, t, state, sys)
    assert comb.marginal(sys) == pytest.approx(density(x, t, state, sys), abs=1e-10)


@pytest.mark.parametrize("s", [-1, 1])
def test_comb_transport_shift(s):
    # every atom coefficient rides its own characteristic; the coefficient is
    # periodic in x with period l/mu, so the shifted argument wraps into [0, l)
    scales = derived_scales(STATE)
    x, t = 0.62, 0.37 * T
    moved = atom_by_s(wigner_comb(x, t, STATE))[s].weight
    x0 = (x - s * scales.P_unit * t / NATURAL_UNITS.m) % (L / STATE.mu)
    frozen = atom_by_s(wigner_comb(x0, 0.0, STATE))[s].weight
    assert moved == pytest.approx(frozen, abs=1e-10)


@given(
    s=st.integers(min_value=-5, max_value=5),
    x=st.floats(min_value=0.0, max_value=1.0),
    t_frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_comb_transport_shift_everywhere(s, x, t_frac):
    scales = derived_scales(STATE)
    t = t_frac * T
    moved = atom_by_s(wigner_comb(x, t, STATE))[s].weight
    x0 = (x - s * scales.P_unit * t / NATURAL_UNITS.m) % (L / STATE.mu)
    frozen = atom_by_s(wigner_comb(x0, 0.0, STATE))[s].weight
    assert moved == pytest.approx(frozen, abs=1e-10)


def test_comb_has_negative_weights():
    # quasi-probability: the distribution is not pointwise nonnegative
    comb = wigner_comb(0.05, 0.0, STATE)
    assert min(a.weight for a in comb.atoms) < 0.0


def test_comb_rejects_outside_domain():
    with pytest.raises(ValueError):
        wigner_comb(-0.1, 0.0, STATE)
    with pytest.raises(ValueError):
        wigner_comb(1.2, 0.0, STATE)


# ---------------------------------------------------------------- velocity


def test_velocity_zero_at_start():
    for x in np.linspace(0.02, 0.98, 25):
        v = velocity_field(float(x), 0.0, STATE)
        if v.is_finite:
            assert abs(v.value) < 1e-9


def test_velocity_node_undefined_at_walls():
    for x in (0.0, L):
        for t in (0.0, 0.31 * T):
            assert velocity_field(x, t, STATE).tag is FieldTag.NODE_UNDEFINED


def test_velocity_vanishes_toward_wall():
    # near the wall psi ~ x, so flux ~ x^3 and f ~ x^2: the flow dies linearly
    t = 0.37 * T
    samples = [abs(velocity_field(d * L, t, STATE).value) for d in (1e-2, 1e-3, 1e-4)]
    assert samples[0] > samples[1] > samples[2]
    assert samples[2] < 1e-3 * (L / T)


def test_velocity_two_path_agreement():
    worst = 0.0
    for x in np.linspace(0.0, L, 21):
        for t in np.linspace(0.0, T, 11):
            a = velocity_field(float(x), float(t), STATE)
            b = velocity_from_vlasov(float(x), float(t), STATE)
            assert a.tag is b.tag
            if a.is_finite:
                worst = max(worst, abs(a.value - b.value))
    assert worst < 1e-9


def test_velocity_two_path_agreement_mu5():
    # rounding floor of the near-zero start velocities scales with the mu^2
    # velocity unit l/T, so the tolerance is stated against it
    state = QuantumState(mu=5, beta=0.1)
    t5 = period(state)
    for x in np.linspace(0.07, 0.93, 9):
        for t in np.linspace(0.0, t5, 5):
            a = velocity_field(float(x), float(t), state)
            b = velocity_from_vlasov(float(x), float(t), state)
            assert a.tag is b.tag
            if a.is_finite:
                assert abs(a.value - b.value) < 1e-10 * (L / t5)


def test_velocity_frozen_limit():
    state = QuantumState(mu=1, beta=10.0)
    t10 = period(state)
    sup = max(
        abs(velocity_field(float(x), float(t), state).value)
        for x in np.linspace(0.05, 0.95, 19)
        for t in np.linspace(0.0, t10, 7)
    )
    assert sup < 1e-6 * (L / t10)


def test_velocity_half_period_reversal():
    # second half of the period replays the first with the flow reversed
    for x in np.linspace(0.1, 0.9, 9):
        for tau in np.linspace(0.01 * T, 0.45 * T, 5):
            a = velocity_field(float(x), 0.5 * T + float(tau), STATE)
            b = velocity_field(float(x), 0.5 * T - float(tau), STATE)
            assert a.tag is b.tag
            if a.is_finite:
                assert abs(a.value + b.value) < 1e-9


# ---------------------------------------------------------------- flux


def test_flux_zero_at_start():
    for x in np.linspace(0.0, L, 31):
        assert abs(flux(float(x), 0.0, STATE)) < 1e-10


@pytest.mark.parametrize("t_frac", [0.11, 0.43, 0.77])
def test_flux_integrates_to_zero(t_frac):
    total = integrate(lambda x: flux(x, t_frac * T, STATE), 0.0, L, 512)
    assert abs(total) < 1e-10


def test_flux_is_density_times_velocity():
    for x in np.linspace(0.05, 0.95, 13):
        for t in np.linspace(0.0, T, 7):
            v = velocity_field(float(x), float(t), STATE)
            if v.is_finite:
                f = density(float(x), float(t), STATE)
                assert flux(float(x), float(t), STATE) == pytest.approx(
                    f * v.value, abs=1e-9
                )


def test_flux_flow_constant_offset():
    base = flux(0.4, 0.2 * T, STATE)
    shifted = flux(0.4, 0.2 * T, STATE, flow_constant=0.25)
    assert shifted - base == pytest.approx(0.25, abs=1e-15)


def test_flux_broadcasts():
    xs = np.linspace(0.0, L, 7)[:, None]
    ts = np.linspace(0.0, T, 5)[None, :]
    grid = flux(xs, ts, STATE)
    assert grid.shape == (7, 5)
    assert grid[3, 2] == pytest.approx(flux(float(xs[3, 0]), float(ts[0, 2]), STATE))


# ---------------------------------------------------------------- moments


def test_moments_match_flux_and_density():
    x, t = 0.27, 0.19 * T
    ms = moments(x, t, STATE)
    assert ms.density == pytest.approx(density(x, t, STATE), abs=1e-13)
    assert ms.flux == pytest.approx(flux(x, t, STATE), abs=1e-13)


def test_pressure_nonnegative_at_start():
    # P11 = -(hbar^2/4m) f (ln f)'' can dip negative at interference minima
    # (like the mean energy does); at t=0 the comb is classical-like and
    # the pressure is nonnegative across the well
    for x in np.linspace(0.02, 0.98, 49):
        assert moments(float(x), 0.0, STATE).pressure >= -1e-12


def test_pressure_frozen_constant():
    # single surviving comb row: P11 = pi^2 (natural units), x-independent,
    # even though the density itself still varies as sin^2
    state = QuantumState(mu=1, beta=10.0)
    t10 = period(state)
    for x in np.linspace(0.05, 0.95, 19):
        for t in np.linspace(0.0, t10, 5):
            ms = moments(float(x), float(t), state)
            assert ms.pressure == pytest.approx(math.pi**2, rel=1e-9)


def test_energy_density_pole_at_walls():
    for x in (0.0, L):
        ms = moments(x, 0.23 * T, STATE)
        assert ms.energy_density.tag is FieldTag.POLE
        assert math.isnan(ms.energy_density.value)


@pytest.mark.parametrize("mu,beta", [(1, 0.1), (2, 0.02), (3, 1e-3)])
def test_probe_velocity_matches_per_point_definition(mu, beta):
    # the node center of the central moments: the mean of flux/density over
    # the admissible probes x -+ delta with density above the floor, 0 if none
    state = QuantumState(mu, beta)
    t_mu = period(state)
    delta, floor = 1e-6 * L, DENSITY_FLOOR / L
    xs = np.array([k / mu for k in range(mu + 1)] * 3)  # walls and stationary nodes
    ts = np.repeat([0.0, 0.29 * t_mu, 0.5 * t_mu], mu + 1)
    got = _probe_velocity(xs, ts, state, NATURAL_UNITS, DEFAULT_TRUNCATION)
    for x, t, v in zip(xs, ts, got):
        ratios = [
            flux(xx, float(t), state) / density(xx, float(t), state)
            for xx in (float(x) - delta, float(x) + delta)
            if 0.0 < xx < L and density(xx, float(t), state) >= floor
        ]
        assert v == (math.fsum(ratios) / len(ratios) if ratios else 0.0)


def test_energy_density_goes_negative():
    vals = [
        moments(float(x), float(t), STATE).energy_density.value
        for x in np.linspace(0.05, 0.95, 19)
        for t in np.linspace(0.0, T, 9)
    ]
    assert min(v for v in vals if not math.isnan(v)) < 0.0


def test_kinetic_energy_density_is_moment_numerator():
    x, t = 0.31, 0.47 * T
    ms = moments(x, t, STATE)
    lhs = kinetic_energy_density(x, t, STATE)
    assert lhs == pytest.approx(ms.energy_density.value * ms.density, rel=1e-12)


def test_kinetic_energy_integrates_to_gibbs_mean():
    # spatial integral of f<E> is the conserved total energy
    from thetawell.thermo import gibbs_params, mean_energy_gibbs

    total = integrate(lambda x: kinetic_energy_density(x, 0.28 * T, STATE), 0.0, L, 512)
    expected = mean_energy_gibbs(gibbs_params(STATE), STATE)
    assert total == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- conservation


@pytest.mark.parametrize("state", [QuantumState(1, 0.1), QuantumState(1, 1.0)])
def test_continuity_analytic(state):
    t_mu = period(state)
    scale = 1.0 / (L * t_mu)
    for x in np.linspace(0.05, 0.95, 21):
        for t in np.linspace(0.0, t_mu, 11):
            assert moment_law_residual(float(x), float(t), 0, state) < 1e-9 * scale


def test_continuity_finite_difference_consistency():
    # the FD residual of the same law shrinks O(h^2) toward the analytic zero
    x, t = 0.43, 0.29 * T

    def fd_residual(h):
        df_dt = finite_diff(lambda tt: density(x, tt, STATE), t, 1, h * T)
        dphi_dx = finite_diff(lambda xx: flux(xx, t, STATE), x, 1, h * L)
        return abs(df_dt + dphi_dx)

    r1, r2 = fd_residual(1e-3), fd_residual(5e-4)
    assert r1 / r2 > 3.0
    assert r2 < 1e-4 / (L * T)


@pytest.mark.parametrize("k", range(4))
def test_moment_rate_matches_finite_difference(k):
    # the rate comes from the jet two orders up; a central difference in t
    # of the moment itself approaches it as O(h^2)
    form = (_density_form, _flux_form, _m2_form, _m3_form)[k]
    x, t = 0.43, 0.29 * T

    def m_k(tt):
        return form(jet_forms(x, tt, STATE, order=3), NATURAL_UNITS)

    rate = moment_rate(x, t, k, STATE)
    assert finite_diff(m_k, t, 1, 1e-5 * T) == pytest.approx(rate, rel=1e-6)


def test_moment_rate_order_check():
    for k in (-1, 4):
        with pytest.raises(ValueError):
            moment_rate(0.5, 0.0, k, STATE)
        with pytest.raises(ValueError):
            moment_law_residual(0.5, 0.0, k, STATE)


def test_momentum_law_small_residual():
    rng = np.random.default_rng(4)
    xs, ts = rng.uniform([0.08, 0.0], [0.92, T], size=(20, 2)).T
    scale = np.max(np.abs(moment_rate(xs, ts, 1, STATE)))
    assert np.max(moment_law_residual(xs, ts, 1, STATE)) < 1e-12 * scale


def test_momentum_law_is_quantum_potential_gradient():
    # the pressure term is the gradient of the quantum potential, exactly
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = float(rng.uniform(0.08, 0.92))
        t = float(rng.uniform(0.0, T))
        f = density(x, t, STATE)
        if f < DENSITY_FLOOR / L:
            continue
        lhs = pressure_gradient(x, t, STATE).value / f
        rhs = quantum_potential_gradient(x, t, STATE).value / NATURAL_UNITS.m
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_momentum_law_frozen_degeneracy():
    # at large beta the only surviving comb row is x-independent: the law
    # collapses to 0 = 0 with each side tiny on the natural acceleration scale
    state = QuantumState(mu=1, beta=10.0)
    t10 = period(state)
    accel = L / t10**2
    for x in (0.21, 0.5, 0.83):
        for t in (0.1 * t10, 0.4 * t10):
            f = density(x, t, state)
            grad = pressure_gradient(x, t, state).value
            assert abs(grad) / (NATURAL_UNITS.m * f) < 1e-6 * accel
            assert abs(moment_rate(x, t, 1, state)) < 1e-6 * accel / L
            assert moment_law_residual(x, t, 1, state) < 1e-6 * accel / L


def test_momentum_law_defined_at_node():
    # the mu=2 frozen state has a persistent node at the midpoint: no division
    # by the density enters the law, so it holds there as anywhere
    state = QuantumState(mu=2, beta=10.0)
    t2 = period(state)
    t = 0.1 * t2
    assert density(0.5, t, state) < DENSITY_FLOOR / L
    res = moment_law_residual(0.5, t, 1, state)
    assert math.isfinite(res)
    assert res < 1e-6 / t2**2


def test_energy_law_small_residual():
    rng = np.random.default_rng(7)
    xs, ts = rng.uniform([0.08, 0.0], [0.92, T], size=(20, 2)).T
    for k in (2, 3):
        scale = np.max(np.abs(moment_rate(xs, ts, k, STATE)))
        assert np.max(moment_law_residual(xs, ts, k, STATE)) < 1e-12 * scale


def test_energy_law_frozen_degeneracy():
    state = QuantumState(mu=1, beta=10.0)
    t10 = period(state)
    scales = derived_scales(state)
    power = scales.E_mu / (L * t10)
    speed = L / t10
    for x in (0.21, 0.5, 0.83):
        t = 0.3 * t10
        ms = moments(x, t, state)
        v = ms.flux / ms.density
        assert abs(0.5 * NATURAL_UNITS.m * ms.density * v**3) < 1e-6 * power * L
        assert abs(1.5 * v * ms.pressure) < 1e-6 * power * L
        assert abs(0.5 * NATURAL_UNITS.m * ms.heat_flux) < 1e-6 * power * L
        for k in (2, 3):
            assert moment_law_residual(x, t, k, state) < 1e-6 * speed**k / (L * t10)


def test_pressure_gradient_node_undefined():
    state = QuantumState(mu=2, beta=10.0)
    assert pressure_gradient(0.5, 0.0, state).tag is FieldTag.NODE_UNDEFINED


def test_pressure_gradient_matches_finite_difference():
    x, t = 0.33, 0.41 * T
    fd = finite_diff(lambda xx: moments(xx, t, STATE).pressure, x, 1, 1e-5)
    assert pressure_gradient(x, t, STATE).value == pytest.approx(fd, rel=1e-6)
