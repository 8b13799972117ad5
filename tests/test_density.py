"""Density series, its period average, and the characteristic structure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetawell.density import (
    averaged_density,
    density,
    density_derivatives,
    period,
    stationary_density,
)
from thetawell.numerics import cutoff_for, integrate
from thetawell.phase_space import flux, kinetic_energy_density, moments
from thetawell.series import _comb_weights, build_table, comb_rows, folded_sum
from thetawell.wavefunction import (
    _JET_BUDGET,
    NATURAL_UNITS,
    QuantumState,
    derived_scales,
    mode_table,
    norm_constant,
    psi,
    psi_jet,
    scaled_norm_sum,
)

from stencils import finite_diff


def brute_density(x, t, state, sys=NATURAL_UNITS, window=40):
    """Direct (n,k) double sum over a square window; no folding, no grouping."""
    mu, beta = state.mu, state.beta
    t_mu = derived_scales(state, sys).T_mu
    u = math.pi * (2.0 * mu * x / sys.l + 1.0)
    total = 0.0
    for n in range(-window - 1, window + 1):
        for k in range(-window - 1, window + 1):
            weight = math.exp(-math.pi * beta / 4.0 * ((2 * n + 1) ** 2 + (2 * k + 1) ** 2))
            g = u - (n + k + 1) * math.pi / t_mu * t
            total += weight * math.cos((k - n) * g)
    return total / norm_constant(state, sys)


@pytest.mark.parametrize(
    "x,t_frac", [(0.0, 0.0), (0.21, 0.0), (0.5, 0.13), (0.83, 0.47), (1.0, 0.92)]
)
def test_density_brute_force_oracle(x, t_frac):
    state = QuantumState(1, 0.8)
    t = t_frac * period(state)
    assert density(x, t, state) == pytest.approx(brute_density(x, t, state), abs=1e-13)


def test_density_brute_force_other_state():
    state = QuantumState(3, 1.4)
    t = 0.37 * period(state)
    assert density(0.43, t, state) == pytest.approx(brute_density(0.43, t, state), abs=1e-13)


def test_density_equals_wavefunction_squared():
    state = QuantumState(2, 0.4)
    t_mu = period(state)
    for t_frac in (0.0, 0.31, 0.77):
        for x in (0.0, 0.17, 0.5, 0.66, 1.0):
            f = density(x, t_frac * t_mu, state)
            assert f == pytest.approx(abs(psi(x, t_frac * t_mu, state)) ** 2, abs=5e-14)


def test_density_periodicity_exact():
    state = QuantumState(1, 0.1)
    t_mu = period(state)
    xs = np.linspace(0.0, 1.0, 41)
    diff = np.abs(density(xs, 0.0, state) - density(xs, t_mu, state))
    assert float(np.max(diff)) < 1e-12


@given(t_frac=st.floats(min_value=0.0, max_value=1.0), x=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_density_nonnegative_up_to_truncation(t_frac, x):
    state = QuantumState(1, 0.05)
    assert density(x, t_frac * period(state), state) > -1e-12


def test_density_broadcasts():
    state = QuantumState(1, 0.3)
    xs = np.linspace(0.0, 1.0, 7)
    ts = np.linspace(0.0, period(state), 5)
    grid = density(xs[:, None], ts[None, :], state)
    assert grid.shape == (7, 5)
    assert grid[3, 2] == pytest.approx(density(float(xs[3]), float(ts[2]), state), abs=1e-15)


def test_density_domain_check():
    state = QuantumState(1, 0.3)
    with pytest.raises(ValueError):
        density(1.2, 0.0, state)
    with pytest.raises(ValueError):
        density(np.array([0.2, -0.4]), 0.0, state)
    with pytest.raises(ValueError):
        density(np.array([0.2, np.nan]), 0.0, state)


def test_stationary_density_shape():
    state = QuantumState(2, 1.0)
    assert stationary_density(0.0, state) == 0.0
    assert stationary_density(0.25, state) == pytest.approx(2.0, rel=1e-14)
    assert integrate(lambda x: stationary_density(x, state), 0.0, 1.0, 64) == pytest.approx(
        1.0, abs=1e-14
    )


def test_frozen_limit():
    state = QuantumState(5, 10.0)
    xs = np.linspace(0.0, 1.0, 101)
    worst = float(np.max(np.abs(density(xs, 0.2 * period(state), state) - stationary_density(xs, state))))
    assert worst < 1e-6 * 2.0


def test_averaged_density_is_period_average():
    state = QuantumState(1, 0.2)
    t_mu = period(state)
    for x in (0.11, 0.5, 0.73):
        quad = integrate(lambda t: density(x, t, state), 0.0, t_mu, 128) / t_mu
        assert averaged_density(x, state) == pytest.approx(quad, abs=1e-12)


def test_averaged_density_mass_and_limit():
    state = QuantumState(1, 0.2)
    assert integrate(lambda x: averaged_density(x, state), 0.0, 1.0, 512) == pytest.approx(
        1.0, abs=1e-12
    )
    frozen = QuantumState(1, 10.0)
    xs = np.linspace(0.0, 1.0, 101)
    diff = np.abs(averaged_density(xs, frozen) - stationary_density(xs, frozen))
    assert float(np.max(diff)) < 1e-6 * 2.0


def test_averaged_density_center_value_pinned():
    # every odd harmonic has sin^2 = 1 at the cell center, so the average is 2/l there
    for beta in (0.05, 0.5, 5.0):
        assert averaged_density(0.5, QuantumState(1, beta)) == pytest.approx(2.0, rel=1e-13)


def test_zero_speed_component_is_static():
    # the (n,k) = (0,-1) + (-1,0) pair has n+k+1 = 0: its comb row never moves
    state = QuantumState(1, 0.01)
    t_mu = period(state)
    rows0 = comb_rows(0.37, 0.0, state)
    rows1 = comb_rows(0.37, 0.29 * t_mu, state)
    static0 = rows0.plus[0] + rows0.minus[0]
    static1 = rows1.plus[0] + rows1.minus[0]
    assert static1 == pytest.approx(static0, abs=1e-15)


def per_row_comb(x, t, state, sys=NATURAL_UNITS):
    """Comb rows one row and one sign at a time, each with its own recurrence."""
    m_max = 2 * cutoff_for(state.beta) + 1
    u = math.pi * (2.0 * state.mu * x / sys.l + 1.0)
    w = math.pi / derived_scales(state, sys).T_mu * t
    rows = np.zeros((2, m_max + 1))
    for sg in range(m_max + 1):
        for sign in ((1,) if sg == 0 else (1, -1)):
            c = float(np.cos(u - sign * sg * w))
            t_prev, t_cur = 1.0, c
            acc = 0.0
            for it in range(m_max - sg + 1):
                if it >= 2:
                    t_prev, t_cur = t_cur, 2.0 * c * t_cur - t_prev
                if (sg + it) % 2 == 1:
                    weight = math.exp(-math.pi * state.beta / 2.0 * (sg * sg + it * it - 1.0))
                    acc += (2.0 if it > 0 else 1.0) * weight * (1.0 if it == 0 else t_cur)
            rows[0 if sign == 1 else 1, sg] = acc
    return rows


@pytest.mark.parametrize("mu,beta", [(1, 0.5), (2, 0.05)])
def test_comb_rows_match_per_row_reference(mu, beta):
    state = QuantumState(mu, beta)
    t_mu = period(state)
    for x, t in ((0.0, 0.0), (0.37, 0.29 * t_mu), (0.81, 0.6 * t_mu), (1.0, 0.05 * t_mu)):
        rows = comb_rows(x, t, state)
        want = per_row_comb(x, t, state)
        assert np.array_equal(rows.plus, want[0])
        assert np.array_equal(rows.minus, want[1])


def test_comb_rows_grid_small_beta():
    # beta = 1e-3 needs K = 101: 204 rows, each a Chebyshev sum of order up to 203
    state = QuantumState(1, 1e-3)
    t_mu = period(state)
    xs = np.linspace(0.05, 0.95, 5)
    ts = np.array([0.0, 0.13, 0.58]) * t_mu
    rows = comb_rows(xs[:, None], ts[None, :], state)
    assert rows.plus.shape == rows.minus.shape == (rows.m_max + 1, xs.size, ts.size)
    for i, x in enumerate(xs):
        for j, t in enumerate(ts):
            point = comb_rows(float(x), float(t), state)
            assert np.array_equal(point.plus, rows.plus[:, i, j])
            assert np.array_equal(point.minus, rows.minus[:, i, j])
    marginal = NATURAL_UNITS.hbar * (rows.plus.sum(axis=0) + rows.minus.sum(axis=0))
    marginal /= NATURAL_UNITS.l * rows.norm
    want = density(xs[:, None], ts[None, :], state)
    assert np.max(np.abs(marginal - want)) < 1e-10


def test_cached_tables_are_read_only():
    state = QuantumState(1, 0.1)
    before = density(0.3, 0.02, state)
    table = build_table(state)
    modes = mode_table(state.beta)
    weights = _comb_weights(state.beta, 2 * cutoff_for(state.beta) + 1)
    for arr in (table.sigma, table.iota, table.w, modes.m, modes.w, weights):
        with pytest.raises(ValueError):
            arr[0] *= 2
    assert density(0.3, 0.02, state) == before


def test_density_derivatives_match_finite_differences():
    state = QuantumState(1, 0.5)
    x, t = 0.352, 0.061
    f0, f1, f2, f3 = density_derivatives(x, t, state)
    assert f0 == pytest.approx(density(x, t, state), rel=1e-14)
    assert f1 == pytest.approx(finite_diff(lambda u: density(u, t, state), x, 1, 1e-5), abs=1e-7)
    assert f2 == pytest.approx(finite_diff(lambda u: density(u, t, state), x, 2, 1e-4), abs=1e-5)
    fd3 = finite_diff(lambda u: density_derivatives(u, t, state)[2], x, 1, 1e-5)
    assert f3 == pytest.approx(fd3, rel=1e-7, abs=1e-5)


def test_period_value():
    state = QuantumState(2, 1.0)
    scales = derived_scales(state)
    assert period(state) == scales.T_mu
    assert period(state) == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-15)


@pytest.mark.parametrize("beta", [0.1, 1e-3])
def test_jet_fields_grid_equals_points_exactly(beta):
    # the jet reduces each point by a row sum over the modes, so the batch
    # width cannot change a bit
    state = QuantumState(2, beta)
    t_mu = period(state)
    xs = np.linspace(0.0, 1.0, 13)
    ts = np.array([0.0, 0.17, 0.5, 0.93]) * t_mu
    xg, tg = xs[:, None], ts[None, :]
    jet = psi_jet(xg, tg, state, order=3)
    fields = {f: f(xg, tg, state) for f in (density, flux, kinetic_energy_density)}
    for i, x in enumerate(xs):
        for j, t in enumerate(ts):
            assert np.array_equal(psi_jet(float(x), float(t), state, order=3), jet[:, i, j])
            for f, grid in fields.items():
                point = f(float(x), float(t), state)
                assert isinstance(point, float)
                assert point == grid[i, j], (f.__name__, x, t)


def test_jet_call_larger_than_one_chunk_equals_small_batches():
    state = QuantumState(1, 1e-3)
    n_modes = cutoff_for(state.beta) + 1
    n_points = 2 * (_JET_BUDGET // n_modes) + 77  # three chunks, the last one partial
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 1.0, n_points)
    ts = rng.uniform(0.0, period(state), n_points)
    whole = psi_jet(xs, ts, state, order=3)
    for lo in range(0, n_points, 500):
        part = psi_jet(xs[lo : lo + 500], ts[lo : lo + 500], state, order=3)
        assert np.array_equal(part, whole[:, lo : lo + 500])


def folded_fields(x, t, state, sys=NATURAL_UNITS):
    """Every jet field from the O(K^2) folded double series, the independent oracle."""
    table = build_table(state)
    den = sys.l * table.norm
    ux = 2.0 * math.pi * state.mu / sys.l
    scales = derived_scales(state, sys)
    vu = scales.P_unit / sys.m

    def fs(a, b, trig):
        return folded_sum(table, x, t, state, sys, s_power=a, j_power=b, trig=trig) / den

    return {
        "f": fs(0, 0, "cos"),
        "f1": -ux * fs(0, 1, "sin"),
        "f2": -(ux**2) * fs(0, 2, "cos"),
        "f3": ux**3 * fs(0, 3, "sin"),
        "flux": vu * fs(1, 0, "cos"),
        "ke": scales.E_mu * fs(2, 0, "cos"),
        "m3": vu**3 * fs(3, 0, "cos"),
    }


@pytest.mark.parametrize("beta", [1.0, 0.1, 0.02, 1e-3])
def test_jet_fields_match_folded_oracle(beta):
    state = QuantumState(1, beta)
    t_mu = period(state)
    rng = np.random.default_rng(11)
    xs = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, 37)])
    ts = np.concatenate([[0.0, 0.5 * t_mu], rng.uniform(0.0, t_mu, 38)])
    want = folded_fields(xs, ts, state)
    f, f1, f2, f3 = density_derivatives(xs, ts, state)
    p0, p1, p2, p3 = psi_jet(xs, ts, state, order=3)
    m3 = -0.25 * ((p0.conjugate() * p3).imag - 3.0 * (p1.conjugate() * p2).imag)
    got = {
        "f": density(xs, ts, state),
        "f1": f1,
        "f2": f2,
        "f3": f3,
        "flux": flux(xs, ts, state),
        "ke": kinetic_energy_density(xs, ts, state),
        "m3": m3 / (NATURAL_UNITS.l * scaled_norm_sum(state)),
    }
    assert np.array_equal(f, got["f"])
    for name, value in got.items():
        scale = float(np.max(np.abs(want[name])))
        assert float(np.max(np.abs(value - want[name]))) <= 1e-11 * scale, name
    # the scalar moments take their raw sums from one order-3 jet
    for x, t in zip(xs[:8], ts[:8]):
        ms = moments(float(x), float(t), state)
        ref = folded_fields(float(x), float(t), state)
        assert abs(ms.density - ref["f"]) <= 1e-11 * float(np.max(np.abs(want["f"])))
        assert abs(ms.flux - ref["flux"]) <= 1e-11 * float(np.max(np.abs(want["flux"])))
        if ms.energy_density.is_finite:  # (m/2) M2 / f times f is the kinetic energy density
            ke = ms.energy_density.value * ms.density
            assert abs(ke - ref["ke"]) <= 1e-11 * float(np.max(np.abs(want["ke"])))
