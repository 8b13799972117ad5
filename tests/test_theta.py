"""Jacobi theta evaluation: series correctness, zeros, parity, heat identity."""

import cmath
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetawell.numerics import Truncation
from thetawell.theta import ThetaArgs, _modular_word, theta1, theta_char, theta_dual
from thetawell.wavefunction import (
    _THETA1_MAX_BETA,
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


def heat_identity_residual(args: ThetaArgs, h: float, trunc: Truncation) -> float:
    """Finite-difference residual of the heat-kernel identity d2θ/dz2 = 4πi dθ/dτ.

    The z second derivative uses a real central step h; the tau derivative
    steps along the imaginary direction (holomorphy makes the direction
    immaterial), which requires Im(tau) - h > 0 so every evaluation converges.
    Residual shrinks as O(h^2) down to the series-truncation floor.
    """
    tau = complex(args.tau)
    assert h > 0.0 and tau.imag - h > 0.0, (tau, h)

    def at(z: complex, t: complex) -> complex:
        return theta_char(ThetaArgs(args.a, args.b, z, t), trunc)

    z = complex(args.z)
    d2z = (at(z + h, tau) - 2.0 * at(z, tau) + at(z - h, tau)) / (h * h)
    dtau = (at(z, tau + 1j * h) - at(z, tau - 1j * h)) / (2j * h)
    return abs(d2z - 4j * math.pi * dtau)


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
# while its phases were rounded directly, and 155/756, where psi was 1.29e-10
# off theta_char while psi summed K + 1 = 3204 modes with rounded phases
LADDER_POINTS = [
    (0.7654391394445995, 0.13181156346475434),
    (0.6405632077852829, 0.13795649156842602),
    (0.9285315210737813, 0.14997973457114322),
    (0.16155134450624553, 0.153851712151373),
    (0.681998329199621, 0.154056431361218),
]


@pytest.mark.parametrize("x,t", LADDER_POINTS)
def test_psi_matches_theta_char_at_small_beta(x, t):
    state = QuantumState(1, 1e-6)
    tau = complex(-2.0 * math.pi * t, state.beta)  # -mu^2 (2 pi hbar / (m l^2)) t + i beta
    want = theta_char(ThetaArgs(0.5, 0.5, x, tau)) / math.sqrt(norm_constant(state))
    assert abs(psi(x, t, state) - want) <= 1e-10 * max(1.0, abs(want))


_FIX = 160  # fixed-point bits of the reference sum


def _fixed(value) -> int:
    return int(mpmath.nint(value * mpmath.mpf(2) ** _FIX))


@functools.lru_cache(maxsize=2)
def _lead_terms(tau: complex) -> tuple[tuple[int, int], ...]:
    """exp(i pi tau j^2) for j = 1/2, 3/2, ... in 160-bit fixed point, until exp(-pi Im(tau) j^2) < 1e-22.

    mpmath gives exp(i pi tau / 4) and exp(2 pi i tau) at this double tau to
    60 digits; each term follows from the last by the exact ratio
    exp(2 pi i tau (k + 1)).  Shared by the z of one tau.
    """
    with mpmath.workdps(60):
        tau_mp = mpmath.mpc(tau)
        lead = mpmath.exp(1j * mpmath.pi * tau_mp / 4)
        step = mpmath.exp(2j * mpmath.pi * tau_mp)
        a_re, a_im = _fixed(lead.real), _fixed(lead.imag)
        q_re, q_im = _fixed(step.real), _fixed(step.imag)
    b_re, b_im = q_re, q_im
    terms = []
    for _ in range(math.ceil(math.sqrt(22.0 * math.log(10.0) / (math.pi * tau.imag))) + 1):
        terms.append((a_re, a_im))
        a_re, a_im = (a_re * b_re - a_im * b_im) >> _FIX, (a_re * b_im + a_im * b_re) >> _FIX
        b_re, b_im = (b_re * q_re - b_im * q_im) >> _FIX, (b_re * q_im + b_im * q_re) >> _FIX
    return tuple(terms)


def hp_theta1(z: float, tau: complex) -> complex:
    """theta1(z, tau) = -theta[1/2, 1/2](z, tau) at real z, a direct sum to about 45 digits.

    The terms of k and -k-1 pair to 2 exp(i pi tau j^2) cos(2 pi (z + 1/2) j)
    with j = k + 1/2: ``_lead_terms`` times the Chebyshev recurrence of
    cos((2k + 1) pi (z + 1/2)), seeded by mpmath's cos(pi (z + 1/2)) and
    cos(2 pi (z + 1/2)) at this double z to 60 digits, in 160-bit integer
    fixed point.  Nothing is shared with ``theta1`` or ``theta_char``: no
    modular map, no phase reduction.
    """
    with mpmath.workdps(60):
        ang = mpmath.pi * (mpmath.mpf(z) + 0.5)
        c_prev = c_now = _fixed(mpmath.cos(ang))
        c_step = _fixed(2 * mpmath.cos(2 * ang))
    s_re = s_im = 0
    for a_re, a_im in _lead_terms(tau):
        s_re += a_re * c_now
        s_im += a_im * c_now
        c_prev, c_now = c_now, ((c_step * c_now) >> _FIX) - c_prev
    return complex(-s_re / 2 ** (2 * _FIX - 1), -s_im / 2 ** (2 * _FIX - 1))


@functools.lru_cache(maxsize=None)
def hp_norm_sum(beta: float) -> float:
    """N(beta)/l = sum over all integers k of exp(-(pi beta/2)(2k+1)^2), summed directly to 40 digits.

    The tests' reference normalization: ``norm_constant`` sums the modes up
    to a cutoff, which overflows the index cap below beta of about 3e-7.
    """
    with mpmath.workdps(50):
        q = mpmath.exp(-2 * mpmath.pi * mpmath.mpf(beta))  # the terms are q^(j^2), j = k + 1/2
        term, ratio, total = q**0.25, q**2, mpmath.mpf(0)
        while term > mpmath.mpf(10) ** -45:
            total += term
            term *= ratio
            ratio *= q * q
        return float(2 * total)


def well_theta_args(x: float, t: float, state: QuantumState, sys: SystemParams):
    """z = mu x / l and tau = -mu^2 (2 pi hbar / (m l^2)) t + i beta, the doubles psi evaluates."""
    rate = state.mu**2 * (2.0 * math.pi * sys.hbar / (sys.m * sys.l**2))
    return state.mu * x / sys.l, complex(-(rate * t), state.beta)


def test_reference_sum_matches_mpmath_jtheta():
    # jtheta(1, pi z, q) is theta1 for -1 < Re(tau) <= 1, where q^(1/4) = exp(i pi tau / 4)
    for z, tau in [(0.37, complex(-0.3, 0.05)), (1.61, complex(0.9, 0.01)), (0.0, 0.2j)]:
        with mpmath.workdps(40):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            want = complex(mpmath.jtheta(1, mpmath.pi * z, q))
        assert abs(hp_theta1(z, tau) - want) <= 1e-15 * max(1.0, abs(want))


@pytest.mark.parametrize("x,t", LADDER_POINTS)
def test_psi_matches_high_precision_sum_at_ladder_points(x, t):
    """psi within 1e-12 max(1, |psi|) of the reference sum at the ladder points; tolerance fixed in advance."""
    state = QuantumState(1, 1e-6)
    z, tau = well_theta_args(x, t, state, NATURAL_UNITS)
    want = -hp_theta1(z, tau) / math.sqrt(norm_constant(state))
    assert abs(psi(x, t, state) - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("beta", [1e-2, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("mu", [1, 3])
@pytest.mark.parametrize(
    "sys", [NATURAL_UNITS, SystemParams(m=1.3, l=0.8, hbar=0.9)], ids=["natural", "scaled"]
)
def test_theta1_reduction_matches_high_precision_sum(beta, mu, sys):
    """theta1 against the reference sum at psi's arguments; 1e-12 max(1, |psi|), fixed in advance.

    In units of psi, i.e. over the square root of the 40-digit N(beta)
    (at 1e-7 and 1e-8 the mode sum of ``norm_constant`` needs more than the
    cutoff cap), at the walls, the nodes x = k l/mu and three interior points (one
    the first antinode, where psi peaks at t = 0), over t/T_mu near and away
    from the rationals of small denominator (0, 1/2 +- 1e-3, 0.99) and late
    or negative (7.37, 100.37, -0.42).  Below the switch beta, psi is this
    route, and it is checked the same way.
    """
    state = QuantumState(mu, beta)
    scale = 1.0 / math.sqrt(sys.l * hp_norm_sum(beta))
    t_mu = derived_scales(state, sys).T_mu
    x_fracs = [0.0, 1.0, 0.137, 0.5 / mu, 0.861] + [k / mu for k in range(1, mu)]
    for t_frac in [0.0, 0.37, 0.5 - 1e-3, 0.5 + 1e-3, 0.99, 7.37, 100.37, -0.42]:
        t = t_frac * t_mu
        for x in [f * sys.l for f in x_fracs]:
            z, tau = well_theta_args(x, t, state, sys)
            want = hp_theta1(z, tau) * scale
            tol = 1e-12 * max(1.0, abs(want))
            assert abs(theta1(z, tau) * scale - want) <= tol, (x, t_frac)
            if beta <= _THETA1_MAX_BETA:
                assert abs(psi(x, t, state, sys) + want) <= tol, (x, t_frac)


def test_theta1_exact_nu_at_random_times():
    """theta1 at 300 seeded random (x, t) at beta = 1e-6 against the reference sum; 5e-14 max(1, |psi|).

    In units of psi.  Random t reaches modular words with c up to about
    1000, where nu_j = j - c z must be formed exactly: measured 2.0e-14 at
    most here, against 1.5e-13 with c z rounded in floats, which fails 20 of
    these points.  The tolerance was fixed before measuring.
    """
    state = QuantumState(1, 1e-6)
    scale = 1.0 / math.sqrt(NATURAL_UNITS.l * hp_norm_sum(state.beta))
    t_mu = derived_scales(state, NATURAL_UNITS).T_mu
    largest_c = 0
    for x, t_frac in np.random.default_rng(7).uniform(0.0, 1.0, size=(300, 2)):
        z, tau = well_theta_args(x, t_frac * t_mu, state, NATURAL_UNITS)
        largest_c = max(largest_c, abs(_modular_word(tau)[2]))
        want = hp_theta1(z, tau) * scale
        assert abs(theta1(z, tau) * scale - want) <= 5e-14 * max(1.0, abs(want)), (x, t_frac)
    assert largest_c > 900


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
