"""Wavefunction series: normalization, boundaries, the equation itself."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetawell.density import density
from thetawell.numerics import DEFAULT_TRUNCATION, Truncation, integrate
from thetawell.theta import ThetaArgs, theta_char
from thetawell.wavefunction import (
    _THETA1_MAX_BETA,
    NATURAL_UNITS,
    QuantumState,
    SystemParams,
    _jet_table,
    derived_scales,
    norm_constant,
    psi,
    psi_jet,
    scaled_norm_sum,
    schrodinger_residual,
    schrodinger_residual_of,
    stationary_psi,
)

SYSTEMS = (NATURAL_UNITS, SystemParams(m=1.3, l=0.8, hbar=0.9))


def test_norm_constant_frozen_value():
    # 40-digit oracle: N(1) = 2 sum_{m odd} exp(-pi m^2 / 2)
    assert norm_constant(QuantumState(1, 1.0)) == pytest.approx(0.41576060259602703, abs=1e-15)
    assert scaled_norm_sum(QuantumState(1, 1.0)) == pytest.approx(2.0000069746847125, abs=1e-14)


def test_norm_constant_scales_with_l():
    state = QuantumState(3, 0.4)
    n1 = norm_constant(state, SystemParams(l=1.0))
    n2 = norm_constant(state, SystemParams(l=2.5))
    assert n2 == pytest.approx(2.5 * n1, rel=1e-14)


def test_norm_constant_large_beta_asymptote():
    state = QuantumState(1, 12.0)
    lead = 2.0 * math.exp(-math.pi * state.beta / 2.0)
    assert norm_constant(state) == pytest.approx(lead, rel=1e-14)
    assert scaled_norm_sum(state) >= 2.0


@given(beta=st.floats(min_value=0.01, max_value=30.0))
@settings(max_examples=80, deadline=None)
def test_norm_constant_decreasing_in_beta(beta):
    a = norm_constant(QuantumState(1, beta))
    b = norm_constant(QuantumState(1, beta * 1.5))
    assert a > b > 0.0


@pytest.mark.parametrize("mu,beta", [(1, 0.1), (2, 0.5), (5, 2.0)])
def test_psi_vanishes_at_walls(mu, beta):
    state = QuantumState(mu, beta)
    for t in (0.0, 0.11, 0.37):
        assert abs(psi(0.0, t, state)) < 1e-12
        assert abs(psi(1.0, t, state)) < 1e-12


def test_psi_rejects_outside_domain():
    state = QuantumState(1, 0.5)
    with pytest.raises(ValueError):
        psi(-0.01, 0.0, state)
    with pytest.raises(ValueError):
        psi(1.01, 0.0, state)


def test_psi_normalized_by_quadrature():
    state = QuantumState(2, 0.3)
    sys = SystemParams(m=1.3, l=0.8, hbar=0.9)
    t = 0.4 * derived_scales(state, sys).T_mu
    total = integrate(lambda x: np.abs(psi(x, t, state, sys)) ** 2, 0.0, sys.l, 512)
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "mu,beta,x,t_frac",
    [(1, 0.5, 0.31, 0.0), (1, 0.5, 0.77, 0.43), (2, 0.2, 0.5, 0.21), (5, 1.0, 0.13, 0.86)],
)
def test_psi_against_theta_kernel(mu, beta, x, t_frac):
    """Second evaluation path through the generic theta series."""
    state = QuantumState(mu, beta)
    sys = NATURAL_UNITS
    t = t_frac * derived_scales(state, sys).T_mu
    tau_re = -(mu**2) * (2.0 * math.pi * sys.hbar / (sys.m * sys.l**2)) * t
    kernel = theta_char(
        ThetaArgs(0.5, 0.5, mu * x / sys.l, complex(tau_re, beta)), Truncation(tol=1e-16)
    )
    rhs = cmath.exp(math.pi * beta / 4.0) * kernel / math.sqrt(sys.l * scaled_norm_sum(state))
    assert psi(x, t, state, sys) == pytest.approx(rhs, abs=1e-13)


def test_psi_frozen_limit_matches_single_mode():
    # at beta=10 the series collapses onto one mode, up to a global minus sign
    state = QuantumState(1, 10.0)
    t_mu = derived_scales(state).T_mu
    worst = 0.0
    for frac in (0.0, 0.29, 0.64):
        for x in (0.1, 0.33, 0.5, 0.71, 0.9):
            diff = abs(psi(x, frac * t_mu, state) + stationary_psi(x, frac * t_mu, state))
            worst = max(worst, diff)
    assert worst < 1e-12


def test_schrodinger_residual_small():
    state = QuantumState(1, 0.5)
    scales = derived_scales(state)
    for x, t in ((0.3, 0.01), (0.62, 0.08), (0.5, 0.12)):
        res = schrodinger_residual(x, t, state)
        scale = scales.E_mu * abs(psi(x, t, state))
        assert res < 1e-5 * scale


def test_schrodinger_residual_on_stationary_mode():
    # comparator: the analytic single mode satisfies the equation too
    state = QuantumState(2, 1.0)
    sys = NATURAL_UNITS
    res = schrodinger_residual_of(
        lambda x, t: stationary_psi(x, t, state, sys), 0.37, 0.05, sys, 1e-4, 1e-4
    )
    assert res < 1e-5 * derived_scales(state, sys).E_mu


def test_residual_stencil_must_stay_interior():
    state = QuantumState(1, 0.5)
    with pytest.raises(ValueError):
        schrodinger_residual(1e-6, 0.1, state)


def test_state_and_system_validation():
    with pytest.raises(ValueError):
        QuantumState(0, 1.0)
    with pytest.raises(ValueError):
        QuantumState(1, 0.0)
    with pytest.raises(ValueError):
        QuantumState(1, -2.0)
    with pytest.raises(ValueError):
        SystemParams(m=0.0)
    with pytest.raises(ValueError):
        SystemParams(l=-1.0)


def test_derived_scales_relations():
    state = QuantumState(3, 0.2)
    sys = SystemParams(m=2.0, l=1.5, hbar=0.7)
    s = derived_scales(state, sys)
    assert s.eps_mu == pytest.approx(sys.hbar**2 * 9 / (2 * sys.m * sys.l**2), rel=1e-15)
    assert s.E_mu == pytest.approx(math.pi**2 * s.eps_mu, rel=1e-15)
    assert s.T_mu == pytest.approx(math.pi * sys.hbar / (4 * s.E_mu), rel=1e-15)
    assert s.P_unit == pytest.approx(math.pi * sys.hbar * 3 / sys.l, rel=1e-15)
    # one period advances every mode phase by a multiple of 2*pi
    assert (s.E_mu * 4 * s.T_mu / sys.hbar) == pytest.approx(math.pi, rel=1e-15)


def mp_psi_jet(x, t, state, sys, order=3):
    """psi_jet's series at 30 digits, and sum |term| per order, over every mode above 1e-35."""
    with mpmath.workdps(30):
        mu, beta = state.mu, mpmath.mpf(state.beta)
        l, hbar, mass = mpmath.mpf(sys.l), mpmath.mpf(sys.hbar), mpmath.mpf(sys.m)
        t_mu = mass * l**2 / (2 * mpmath.pi * hbar * mu**2)
        u = mpmath.pi * (2 * mu * mpmath.mpf(x) / l + 1)
        w = mpmath.pi / t_mu * mpmath.mpf(t)
        kx = mpmath.pi * mu / l
        m_top = int(math.sqrt(1.0 + 4.0 * 35.0 * math.log(10.0) / (math.pi * state.beta))) + 2
        values = [mpmath.mpc(0)] * (order + 1)
        scales = [mpmath.mpf(0)] * (order + 1)
        for m in range(-m_top - (m_top % 2 == 0), m_top + 1, 2):
            amp = mpmath.exp(-mpmath.pi * beta / 4 * (m * m - 1))
            term = amp * mpmath.expj(u / 2 * m - w / 4 * m * m)
            for k in range(order + 1):
                values[k] += term * (1j * kx * m) ** k
                scales[k] += amp * abs(kx * m) ** k
        return [complex(v) for v in values], [float(s) for s in scales]


@pytest.mark.parametrize("beta", [1.0, 0.1, 1e-3])
@pytest.mark.parametrize("mu", [1, 3])
def test_psi_jet_precision_oracle(beta, mu):
    """Orders 0-3 against a 30-digit sum; tolerance 1e-12 of sum |term|, fixed in advance."""
    state = QuantumState(mu, beta)
    sys = SystemParams(m=2.0, l=3.0, hbar=0.5)
    t_mu = derived_scales(state, sys).T_mu
    points = [(0.0, 0.0), (0.23, 0.37), (0.5, 0.81), (0.871, 0.05), (1.0, 0.59)]
    for x_frac, t_frac in points:
        x, t = x_frac * sys.l, t_frac * t_mu
        jet = psi_jet(x, t, state, sys, order=3)
        want, scale = mp_psi_jet(x, t, state, sys)
        for k in range(4):
            assert abs(complex(jet[k]) - want[k]) <= 1e-12 * scale[k], (x_frac, t_frac, k)


@pytest.mark.parametrize("beta", [1.0, 0.1, 0.02])
@pytest.mark.parametrize("mu", [1, 3])
def test_psi_jet_high_orders_precision_oracle(beta, mu):
    """Orders 4-5 against a 30-digit sum; tolerance 1e-12 of sum |term|, fixed in advance."""
    state = QuantumState(mu, beta)
    sys = SystemParams(m=2.0, l=3.0, hbar=0.5)
    t_mu = derived_scales(state, sys).T_mu
    points = [(0.0, 0.0), (0.23, 0.37), (0.5, 0.81), (0.871, 0.05), (1.0, 0.59)]
    for x_frac, t_frac in points:
        x, t = x_frac * sys.l, t_frac * t_mu
        jet = psi_jet(x, t, state, sys, order=5)
        want, scale = mp_psi_jet(x, t, state, sys, order=5)
        for k in (4, 5):
            assert abs(complex(jet[k]) - want[k]) <= 1e-12 * scale[k], (x_frac, t_frac, k)


def test_psi_jet_shape_and_order_check():
    state = QuantumState(2, 0.3)
    xs = np.linspace(0.0, 1.0, 5)
    ts = np.array([0.0, 0.01, 0.02])
    assert psi_jet(xs[:, None], ts[None, :], state, order=2).shape == (3, 5, 3)
    assert psi_jet(0.4, 0.01, state).shape == (1,)
    assert complex(psi_jet(0.4, 0.01, state)[0]) / math.sqrt(
        NATURAL_UNITS.l * scaled_norm_sum(state)
    ) == psi(0.4, 0.01, state)
    with pytest.raises(ValueError):
        psi_jet(0.4, 0.01, state, order=6)
    with pytest.raises(ValueError):
        psi_jet(np.array([0.2, 1.2]), 0.0, state)


def _assert_same_bits(got, want):
    """Equal shape, dtype and IEEE bit patterns (real and imaginary parts), so -0.0 and 0.0 differ."""
    got, want = np.ascontiguousarray(np.atleast_1d(got)), np.ascontiguousarray(np.atleast_1d(want))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def reference_jet0(x, t, state, sys):
    """The order-0 jet by the four-transcendental chunk loop: cos and sin of both angles.

    The loop that orders >= 1 still run, restricted to order 0: the reference
    that the three-transcendental order-0 kernel must match bit for bit.
    """
    half_m, quarter_m2, weights = _jet_table(state.beta, DEFAULT_TRUNCATION, state.mu, sys.l)
    n_modes = half_m.size
    u = math.pi * (2.0 * state.mu * np.asarray(x, dtype=float) / sys.l + 1.0)
    w = math.pi / derived_scales(state, sys).T_mu * np.asarray(t, dtype=float)
    u, w = np.broadcast_arrays(u, w)
    shape = u.shape
    uf, wf = u.ravel(), w.ravel()
    out = np.empty(uf.size, dtype=complex)
    chunk = max(1, (1 << 12) // n_modes)
    for lo in range(0, uf.size, chunk):
        hi = min(lo + chunk, uf.size)
        p = hi - lo
        ang = np.empty((p, 2, n_modes))
        np.multiply(wf[lo:hi, None], quarter_m2, out=ang[:, 0])
        np.multiply(uf[lo:hi, None], half_m, out=ang[:, 1])
        trig = np.empty((p, 2, 2, n_modes))
        np.cos(ang, out=trig[:, 0])
        np.sin(ang, out=trig[:, 1])
        rot = trig[:, :, 0]
        xw = trig[:, :, 1][:, :1] * weights[:1]
        sums = np.add.reduce(xw[:, :, None, :] * rot[:, None, :, :], axis=-1)
        out[lo:hi] = sums.view(complex)[..., 0, 0]
    return out.reshape(shape)


@pytest.mark.parametrize("beta", [1.0, 0.1, 1e-3, 1e-5, 1e-6])
@pytest.mark.parametrize("mu", [1, 3])
@pytest.mark.parametrize("sys", SYSTEMS, ids=["natural", "scaled"])
def test_order0_matches_four_transcendental_reference(beta, mu, sys):
    """psi_jet(order=0), psi and density equal the reference bit for bit, on grids and points.

    psi only above ``_THETA1_MAX_BETA``: below it psi is theta1 by SL(2, Z)
    reduction, a different route that ``test_theta.py`` pins against a
    high-precision sum instead.
    """
    state = QuantumState(mu, beta)
    on_jet = beta > _THETA1_MAX_BETA
    t_mu = derived_scales(state, sys).T_mu
    xs = np.array([0.0, 0.137, 0.5, 0.861, 1.0]) * sys.l
    ts = np.array([0.0, -0.42, 0.31, 7.37]) * t_mu
    want = reference_jet0(xs[:, None], ts[None, :], state, sys)
    norm = sys.l * scaled_norm_sum(state)
    root = math.sqrt(norm)
    want_psi = np.empty_like(want)
    want_psi.real, want_psi.imag = want.real / root, want.imag / root
    want_density = (want.real * want.real + want.imag * want.imag) / norm

    _assert_same_bits(psi_jet(xs[:, None], ts[None, :], state, sys)[0], want)
    if on_jet:
        _assert_same_bits(psi(xs[:, None], ts[None, :], state, sys), want_psi)
    _assert_same_bits(density(xs[:, None], ts[None, :], state, sys), want_density)
    for i, x in enumerate(xs.tolist()):
        for j, t in enumerate(ts.tolist()):
            _assert_same_bits(psi_jet(x, t, state, sys)[0], want[i, j])
            if on_jet:
                _assert_same_bits(psi(x, t, state, sys), want_psi[i, j])
            _assert_same_bits(density(x, t, state, sys), want_density[i, j])


def test_point_route_rejects_what_the_array_route_rejects():
    state = QuantumState(2, 0.3)
    for x in (math.nan, -0.01, NATURAL_UNITS.l + 0.01):
        with pytest.raises(ValueError) as point:
            psi(x, 0.1, state)
        with pytest.raises(ValueError) as grid:
            psi(np.array([x]), 0.1, state)
        assert str(point.value) == str(grid.value)


@pytest.mark.parametrize("beta", [0.1, 1e-6])
def test_point_route_float64_and_mixed_arguments(beta):
    """np.float64 points equal Python floats; a float with an array takes the array route."""
    state = QuantumState(3, beta)
    sys = SYSTEMS[1]
    t_mu = derived_scales(state, sys).T_mu
    xs = np.array([0.0, 0.29, 0.64, 1.0]) * sys.l
    ts = np.array([0.0, -1.3, 0.6]) * t_mu
    points = [[psi(x, t, state, sys) for t in ts.tolist()] for x in xs.tolist()]
    for i, x in enumerate(xs):
        for j, t in enumerate(ts):
            for value in (psi(x, t, state, sys), psi(np.array(x), t, state, sys)):
                assert type(value) is complex  # np.float64 scalars, then a 0-d array
                _assert_same_bits(value, points[i][j])
    for i, x in enumerate(xs.tolist()):
        row = psi(x, ts, state, sys)
        assert isinstance(row, np.ndarray)
        _assert_same_bits(row, points[i])
    for j, t in enumerate(ts.tolist()):
        _assert_same_bits(psi(xs, t, state, sys), [row[j] for row in points])


@pytest.mark.parametrize("beta", [0.1, 1e-6])
def test_jet_entry_zero_is_the_order0_jet_at_every_order(beta):
    # at beta = 1e-6 the K + 1 = 3204 modes leave one point per chunk
    state = QuantumState(1, beta)
    xs = np.array([0.0, 0.21, 0.5, 0.93, 1.0])
    ts = np.array([0.0, 0.017, -0.05])
    jet0 = psi_jet(xs[:, None], ts[None, :], state)[0]
    for k in range(1, 6):
        _assert_same_bits(psi_jet(xs[:, None], ts[None, :], state, order=k)[0], jet0)
