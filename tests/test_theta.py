"""Jacobi theta evaluation: series correctness, zeros, parity, heat identity."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetawell.numerics import Truncation
from thetawell.theta import ThetaArgs, heat_identity_residual, theta1, theta_char, theta_dual
from thetawell.wavefunction import (
    NATURAL_UNITS,
    QuantumState,
    SystemParams,
    derived_scales,
    norm_constant,
    psi,
)

TIGHT = Truncation(tol=1e-16, max_index=4096)


def test_theta00_at_lattice_point():
    # sum over all integers of exp(-pi k^2), 40-digit oracle value
    value = theta_char(ThetaArgs(0.0, 0.0, 0.0, 1j), TIGHT)
    assert value.real == pytest.approx(1.0864348112133080146, abs=1e-15)
    assert abs(value.imag) < 1e-15


def test_brute_force_series_agreement():
    args = ThetaArgs(0.5, 0.5, 0.3 - 0.2j, 0.7 + 0.9j)
    brute = sum(
        cmath.exp(1j * math.pi * args.tau * (k + 0.5) ** 2 + 2j * math.pi * (args.z + 0.5) * (k + 0.5))
        for k in range(-60, 61)
    )
    assert theta_char(args, TIGHT) == pytest.approx(brute, abs=1e-14)


def test_oversummation_stability():
    # adding far more terms than the tolerance demands must not move the value
    loose = Truncation(tol=1e-10, max_index=4096)
    args = ThetaArgs(0.5, 0.5, 0.11, 0.25j)
    assert theta_char(args, loose) == pytest.approx(theta_char(args, TIGHT), abs=1e-9)


@pytest.mark.parametrize("m,n", [(0, 0), (1, 0), (0, 1), (-1, 1), (3, -1)])
def test_theta1_lattice_zeros(m, n):
    # |n| <= 1 keeps the series terms O(1); farther rows of the lattice
    # hit catastrophic cancellation and only vanish to ~1e-9 in doubles
    tau = 0.3 + 0.8j
    assert abs(theta1(m + n * tau, tau, TIGHT)) < 1e-13


@given(
    x=st.floats(min_value=-1.0, max_value=1.0),
    y=st.floats(min_value=-0.4, max_value=0.4),
)
@settings(max_examples=60, deadline=None)
def test_theta1_odd(x, y):
    tau = 1.1j
    z = complex(x, y)
    a, b = theta1(z, tau, TIGHT), theta1(-z, tau, TIGHT)
    assert abs(a + b) < 1e-12 * max(1.0, abs(a))


def test_theta1_sign_convention():
    # on a purely imaginary tau the series is real and positive just right of 0
    val = theta1(0.25, 0.5j, TIGHT)
    assert val.real > 0.0
    assert abs(val.imag) < 1e-14


def test_characteristic_shift_reduction():
    # a is only meaningful mod 1: shifting it by an integer must not change theta
    args = ThetaArgs(0.5, 0.5, 0.2, 0.9j)
    shifted = ThetaArgs(2.5, 0.5, 0.2, 0.9j)
    assert theta_char(shifted, TIGHT) == pytest.approx(theta_char(args, TIGHT), abs=1e-14)


def test_tau_domain_enforced():
    with pytest.raises(ValueError):
        ThetaArgs(0.5, 0.5, 0.0, 1.0 + 0.0j)
    with pytest.raises(ValueError):
        ThetaArgs(0.5, 0.5, 0.0, 0.3 - 0.2j)


@pytest.mark.parametrize("z,tau", [(0.13, 0.8j), (0.4 + 0.1j, 0.2 + 1.1j), (-0.7, 2.0j)])
def test_heat_identity(z, tau):
    res = heat_identity_residual(ThetaArgs(0.5, 0.5, z, tau), 1e-4, TIGHT)
    assert res < 1e-6


def test_heat_identity_second_order():
    args = ThetaArgs(0.0, 0.5, 0.21, 1.3j)
    r1 = heat_identity_residual(args, 2e-3, TIGHT)
    r2 = heat_identity_residual(args, 1e-3, TIGHT)
    assert r1 / r2 > 3.0  # central stencils: residual shrinks ~4x per halving



def mp_theta_char(a, b, z, tau):
    """theta[a, b](z, tau) from mpmath's Jacobi thetas to 30 digits, and the sum of |term|.

    With q = exp(i pi tau), theta[a, b](z, tau) equals
    exp(pi i tau a^2 + 2 pi i a (z + b)) jtheta(3, pi (z + b + a tau), q),
    and for a = 1/2 also jtheta(2, pi (z + b), q).  The second form is used
    there: the first hands jtheta an argument with imaginary part
    pi Im(tau) / 2, and at Im(tau) = 50, z = 43.55 mpmath's jtheta returns
    1e24 for a value of 2e-17.  Fifteen guard digits keep the first form's
    30 digits for other a (at 30 working digits it is 1.2e-12 off at
    Im(tau) = 50, a = 0.3).
    """
    with mpmath.workdps(45):
        a, b, z, tau = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpc(z), mpmath.mpc(tau)
        q = mpmath.exp(1j * mpmath.pi * tau)
        if a == 0.5:
            value = mpmath.jtheta(2, mpmath.pi * (z + b), q)
        else:
            pre = mpmath.exp(1j * mpmath.pi * tau * a * a + 2j * mpmath.pi * a * (z + b))
            value = pre * mpmath.jtheta(3, mpmath.pi * (z + b + a * tau), q)
        value = complex(value)
    # |term k| = exp(-pi Im(tau) (k+a)^2 - 2 pi Im(z) (k+a)), summed past 1e-40 of the largest
    a, im_z, im_tau = float(a), complex(z).imag, complex(tau).imag
    center = round(-a - im_z / im_tau)
    reach = int(math.sqrt(40.0 * math.log(10.0) / (math.pi * im_tau))) + 2
    ka = np.arange(center - reach, center + reach + 1) + a
    scale = float(np.sum(np.exp(-math.pi * im_tau * ka * ka - 2.0 * math.pi * im_z * ka)))
    return value, scale


CHARACTERISTICS = [(0.5, 0.5), (0.5, 0.0), (0.0, 0.0), (0.0, 0.5), (0.3, -0.7)]


@pytest.mark.parametrize("beta", [1e-4, 1e-3, 0.02, 0.1, 1.0, 10.0, 50.0])
@pytest.mark.parametrize(
    "mu,sys",
    [
        (1, NATURAL_UNITS),
        (7, SystemParams(m=2.0, l=3.0, hbar=0.5)),
        (50, SystemParams(m=0.3, l=1.7, hbar=2.2)),
    ],
)
def test_theta_char_precision_oracle(beta, mu, sys):
    """The well's theta arguments against mpmath; tolerance 1e-12 of sum |term|, fixed in advance.

    z = mu x / l and tau = -mu^2 (2 pi hbar / (m l^2)) t + i beta over the
    well and one period, for each characteristic; plus z a quarter and one
    lattice row off the real axis.
    """
    t_mu = derived_scales(QuantumState(mu, beta), sys).T_mu
    tau_rate = mu**2 * 2.0 * math.pi * sys.hbar / (sys.m * sys.l**2)
    points = [(0.0, 0.0, 0.0), (0.23, 0.37, 0.0), (0.871, 0.05, 0.0), (1.0, 0.59, 0.0)]
    points += [(0.5, 0.81, 0.25), (0.31, 0.2, 1.0)]
    for x_frac, t_frac, rows in points:
        z = complex(mu * x_frac, rows * beta)
        tau = complex(-tau_rate * t_frac * t_mu, beta)
        for a, b in CHARACTERISTICS:
            got = theta_char(ThetaArgs(a, b, z, tau))
            want, scale = mp_theta_char(a, b, z, tau)
            assert abs(got - want) <= 1e-12 * scale, (a, b, x_frac, t_frac, rows)


@pytest.mark.parametrize("beta", [1e-3, 0.02])
def test_theta_char_window_follows_complex_z(beta):
    # Im z = 0.1 moves the weight center to k = -a - 0.1/beta, 100 and 5
    # indices off -a; a window centered on -a misses the largest terms
    tau = complex(-0.3, beta)
    for a, b in CHARACTERISTICS:
        z = complex(0.4, 0.1)
        want, scale = mp_theta_char(a, b, z, tau)
        assert abs(theta_char(ThetaArgs(a, b, z, tau)) - want) <= 1e-12 * scale, (a, b)


def mp_direct_theta_char(a, b, z, tau):
    """theta[a, b](z, tau) as a direct 40-digit sum, and the sum of |term|.

    mpmath's jtheta cannot reach Im(tau) <= 1e-5, so the terms are summed
    outward from the weight center by their exact ratios,
    term(k +- 1) / term(k) = exp(i pi tau (+-2(k+a) + 1) +- 2 pi i (z+b)),
    until they fall below 1e-20 of the largest.
    """
    a = a - round(a)
    center = round(-a - z.imag / tau.imag)
    reach = int(math.sqrt(20.0 * math.log(10.0) / (math.pi * tau.imag))) + 2
    with mpmath.workdps(40):
        a, b, z, tau = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpc(z), mpmath.mpc(tau)
        ipi = 1j * mpmath.pi
        ka = center + a
        first = mpmath.exp(ipi * tau * ka * ka + 2 * ipi * (z + b) * ka)
        q = mpmath.exp(2 * ipi * tau)
        total, scale = first, abs(first)
        for step in (1, -1):
            term = first
            ratio = mpmath.exp(ipi * tau * (2 * step * ka + 1) + 2 * step * ipi * (z + b))
            for _ in range(reach):
                term *= ratio
                ratio *= q
                total += term
                scale += abs(term)
        return complex(total), float(scale)


@pytest.mark.parametrize("beta", [1e-6, 1e-5, 1e-4])
def test_theta_char_phase_exact_at_small_beta(beta):
    """Tolerance 1e-13 of sum |term|, fixed in advance.

    At Im(tau) = beta the phases pi Re(tau) k^2 reach 1e6 rad while the
    weights are still O(1); rounded directly, they cost up to 5e-12 of
    sum |term| at these points.  The second point has Re(tau) past one
    period; at 1e-4 a third has Im z = 0.1, whose weight center is
    1000 indices off the real-axis one.
    """
    points = [(0.23, -0.37), (0.76544, -1.6563733)]
    if beta == 1e-4:
        points.append((complex(0.41, 0.1), -0.81))
    for z, tau_re in points:
        tau = complex(tau_re, beta)
        for a, b in [(0.5, 0.5), (0.5, 0.0), (0.3, -0.7)]:
            want, scale = mp_direct_theta_char(a, b, complex(z), tau)
            got = theta_char(ThetaArgs(a, b, z, tau))
            assert abs(got - want) <= 1e-13 * scale, (a, b, z, tau)


# benchmark beta-ladder points at beta = 1e-6 (seed/point 31/508, 3/799,
# 14/776, 74/130), where the theta_char route was 1.0e-10 to 1.5e-10 off psi
# while its phases were rounded directly
LADDER_POINTS = [
    (0.7654391394445995, 0.13181156346475434),
    (0.6405632077852829, 0.13795649156842602),
    (0.9285315210737813, 0.14997973457114322),
    (0.16155134450624553, 0.153851712151373),
]


@pytest.mark.parametrize("x,t", LADDER_POINTS)
def test_psi_matches_theta_char_at_small_beta(x, t):
    state = QuantumState(1, 1e-6)
    tau = complex(-2.0 * math.pi * t, state.beta)  # -mu^2 (2 pi hbar / (m l^2)) t + i beta
    want = theta_char(ThetaArgs(0.5, 0.5, x, tau)) / math.sqrt(norm_constant(state))
    assert abs(psi(x, t, state) - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize(
    "a,b,z,kappa",
    [(0.5, 0.5, -0.5, 0.1), (0.0, 0.0, 0.3, 0.2), (0.5, 0.0, 0.1, 1.0), (0.25, 0.5, 0.37, 2e-3), (0.0, 0.5, 0.0, 1e-6)],
)
def test_theta_dual_matches_direct_series(a, b, z, kappa):
    """Poisson summation at imaginary tau and real z against the direct sum; 1e-14 of sum |term|."""
    args = ThetaArgs(a, b, z, 1j * kappa)
    scale = sum(math.exp(-math.pi * kappa * (k + a) ** 2) for k in range(-4000, 4001))
    assert abs(theta_dual(args) - theta_char(args)) <= 1e-14 * scale
    with pytest.raises(ValueError):
        theta_dual(ThetaArgs(a, b, z, 0.1 + 1j * kappa))
    with pytest.raises(ValueError):
        theta_dual(ThetaArgs(a, b, z + 0.1j, 1j * kappa))
