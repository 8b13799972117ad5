"""Gibbs layer: partition sum, weights, mean energy, entropy, quantum potential."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetawell.density import averaged_density, period, stationary_density
from thetawell.numerics import FieldTag, integrate
from thetawell.thermo import (
    GibbsParams,
    avg_energy_profile,
    double_avg_energy,
    entropy,
    entropy_from_factor,
    gibbs_params,
    gibbs_sums,
    gibbs_table,
    mean_energy_gibbs,
    partition,
    partition_theta_form,
    quantum_potential,
    quantum_potential_gradient,
)
from thetawell.phase_space import kinetic_energy_density
from thetawell.wavefunction import (
    NATURAL_UNITS,
    QuantumState,
    SystemParams,
    derived_scales,
    mode_table,
    norm_constant,
)

from stencils import finite_diff

L = NATURAL_UNITS.l

# 50-digit oracles for the odd-mode Gibbs sums (independent high-precision sum)
Z_BETA_07 = 0.6661376208131332798485
MEAN_E_RATIO_BETA_1 = 1.000027898641558575451
ENTROPY_BETA_1 = 4.731041995826495755726e-05


def gp_of(state, sys=NATURAL_UNITS):
    return gibbs_params(state, sys)


# ---------------------------------------------------------------- params


def test_gibbs_params_relation():
    state = QuantumState(mu=3, beta=0.4)
    sys = SystemParams(m=1.1, l=0.6, hbar=0.8)
    gp = gibbs_params(state, sys)
    scales = derived_scales(state, sys)
    assert gp.beta_thermo * scales.E_mu == pytest.approx(math.pi * state.beta / 2.0, rel=1e-14)
    assert gp.tau_temp * gp.beta_thermo == pytest.approx(1.0, rel=1e-14)


def test_gibbs_params_validation():
    with pytest.raises(ValueError):
        GibbsParams(beta_thermo=0.0, tau_temp=math.inf)
    with pytest.raises(ValueError):
        GibbsParams(beta_thermo=-1.0, tau_temp=-1.0)
    with pytest.raises(ValueError):
        GibbsParams(beta_thermo=2.0, tau_temp=0.7)


def test_mismatched_params_rejected():
    state = QuantumState(mu=1, beta=0.7)
    wrong = gibbs_params(QuantumState(mu=1, beta=0.9))
    with pytest.raises(ValueError):
        partition(wrong, state)


# ---------------------------------------------------------------- partition


def test_partition_is_norm_over_length():
    state = QuantumState(mu=1, beta=0.7)
    z = partition(gp_of(state), state)
    assert z == pytest.approx(Z_BETA_07, abs=1e-15)
    assert z * L == pytest.approx(norm_constant(state), abs=1e-12)


def test_partition_norm_identity_other_units():
    sys = SystemParams(m=0.7, l=1.9, hbar=1.2)
    state = QuantumState(mu=2, beta=0.3)
    z = partition(gibbs_params(state, sys), state, sys)
    assert z * sys.l == pytest.approx(norm_constant(state, sys), rel=1e-12)


@pytest.mark.parametrize("beta", [1e-4, 3e-4, 1e-3, 0.01, 0.1, 0.7, 1.0, 5.0, 20.0, 50.0])
@pytest.mark.parametrize(
    "mu,sys",
    [
        (1, NATURAL_UNITS),
        (7, SystemParams(m=2.0, l=3.0, hbar=0.5)),
        (50, SystemParams(m=0.3, l=1.7, hbar=2.2)),
    ],
)
def test_partition_precision_oracle(beta, mu, sys):
    """Z against mpmath's jtheta(2, 0, exp(-2 pi beta)) at 30 digits.

    Z = sum over odd m of exp(-(pi beta / 2) m^2) = jtheta(2, 0, q) with
    q = exp(-2 pi beta), for every level and unit system.  The terms are
    positive, so the tolerance 1e-12 of sum |term|, fixed in advance, is
    1e-12 of Z.
    """
    state = QuantumState(mu, beta)
    with mpmath.workdps(30):
        want = float(mpmath.jtheta(2, 0, mpmath.exp(-2 * mpmath.pi * mpmath.mpf(beta))))
    assert abs(partition(gibbs_params(state, sys), state, sys) - want) <= 1e-12 * want


@pytest.mark.parametrize("beta", [0.1, 0.4, 0.7, 2.0])
def test_partition_theta_form_agrees(beta):
    state = QuantumState(mu=1, beta=beta)
    gp = gp_of(state)
    assert partition_theta_form(gp, state) == pytest.approx(partition(gp, state), abs=1e-12)


def test_partition_grows_as_beta_halves():
    betas = [1.6, 0.8, 0.4, 0.2, 0.1, 0.05]
    zs = [partition(gp_of(QuantumState(1, b)), QuantumState(1, b)) for b in betas]
    assert all(a < b for a, b in zip(zs, zs[1:]))


# ---------------------------------------------------------------- weights


def gibbs_mixture(state):
    """Wave numbers kappa and normalized weights of every signed Gibbs mode, from ``mode_table``.

    Mode k has kappa = (pi*mu/l)(2k+1); the harmonic m = 2k+1 > 0 and its
    twin -m (k -> -k-1) share the weight w_m / norm.
    """
    modes = mode_table(state.beta)
    kappa = math.pi * state.mu / L * np.concatenate([modes.m, -modes.m])
    return kappa, np.concatenate([modes.w, modes.w]) / modes.norm


@pytest.mark.parametrize("beta", [0.05, 0.3, 1.0, 5.0])
def test_weights_sum_to_one(beta):
    _, weights = gibbs_mixture(QuantumState(mu=1, beta=beta))
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
    assert np.all(weights > 0.0)


def test_weights_freeze_to_two_modes():
    state = QuantumState(mu=1, beta=20.0)
    kappa, weights = gibbs_mixture(state)
    lowest = np.abs(kappa) == math.pi * state.mu / L  # k = 0 and k = -1
    assert weights[lowest].tolist() == pytest.approx([0.5, 0.5], abs=1e-12)


@pytest.mark.parametrize("x", [0.13, 0.37, 0.5, 0.71])
def test_weights_reproduce_averaged_density(x):
    # the period average of the density is exactly the Gibbs average of the
    # stationary mode densities (2/l) sin^2(kappa x)
    state = QuantumState(mu=1, beta=0.25)
    kappa, weights = gibbs_mixture(state)
    mix = (2.0 / L) * math.fsum(weights * np.sin(kappa * x) ** 2)
    assert mix == pytest.approx(averaged_density(x, state), abs=1e-12)


# ---------------------------------------------------------------- mean energy


def test_mean_energy_frozen_oracle():
    state = QuantumState(mu=1, beta=1.0)
    scales = derived_scales(state)
    ratio = mean_energy_gibbs(gp_of(state), state) / scales.E_mu
    assert ratio == pytest.approx(MEAN_E_RATIO_BETA_1, abs=1e-14)


@pytest.mark.parametrize("beta", [0.05, 0.2, 1.0, 5.0, 20.0])
def test_mean_energy_at_least_ground(beta):
    state = QuantumState(mu=1, beta=beta)
    scales = derived_scales(state)
    assert mean_energy_gibbs(gp_of(state), state) >= scales.E_mu * (1.0 - 1e-15)


def test_mean_energy_frozen_limit():
    state = QuantumState(mu=1, beta=20.0)
    scales = derived_scales(state)
    assert abs(mean_energy_gibbs(gp_of(state), state) / scales.E_mu - 1.0) < 1e-10


def test_mean_energy_is_log_derivative():
    # -d ln Z / d beta_thermo via central differences over equivalent states
    state = QuantumState(mu=1, beta=1.0)
    gp = gp_of(state)
    scales = derived_scales(state)

    def ln_z(bt: float) -> float:
        beta_equiv = 2.0 * bt * scales.E_mu / math.pi
        st_equiv = QuantumState(mu=1, beta=beta_equiv)
        return math.log(partition(gibbs_params(st_equiv), st_equiv))

    h = 1e-5 * gp.beta_thermo
    fd = -finite_diff(ln_z, gp.beta_thermo, 1, h)
    assert mean_energy_gibbs(gp, state) == pytest.approx(fd, rel=1e-6)


def test_mean_energy_mu_scaling():
    # <E>/E_mu depends on beta alone; the mu dependence is the E_mu factor
    b = 0.35
    r1 = mean_energy_gibbs(gp_of(QuantumState(1, b)), QuantumState(1, b))
    r4 = mean_energy_gibbs(gp_of(QuantumState(4, b)), QuantumState(4, b))
    assert r4 == pytest.approx(16.0 * r1, rel=1e-13)


# ---------------------------------------------------------------- entropy


def test_entropy_frozen_oracle():
    state = QuantumState(mu=1, beta=1.0)
    assert entropy(gp_of(state), state) == pytest.approx(ENTROPY_BETA_1, abs=1e-15)


@pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.0])
def test_entropy_two_paths(beta):
    state = QuantumState(mu=1, beta=beta)
    gp = gp_of(state)
    assert entropy_from_factor(gp, state) == pytest.approx(entropy(gp, state), abs=1e-10)


def test_entropy_vanishes_frozen():
    state = QuantumState(mu=1, beta=20.0)
    assert abs(entropy(gp_of(state), state)) < 1e-8


def test_entropy_strictly_decreasing():
    betas = [0.005, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0]
    vals = [entropy(gp_of(QuantumState(1, b)), QuantumState(1, b)) for b in betas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] > 2.0  # grows without bound toward beta -> 0


@pytest.mark.parametrize("beta", [0.1, 1.0])
def test_entropy_mu_independent(beta):
    s1 = entropy(gp_of(QuantumState(1, beta)), QuantumState(1, beta))
    s5 = entropy(gp_of(QuantumState(5, beta)), QuantumState(5, beta))
    assert s5 == pytest.approx(s1, abs=1e-12)


def test_entropy_second_law():
    # dS = k_B * beta_thermo * d<E> along the beta grid, trapezoid in <E>
    mu = 1
    betas = np.linspace(0.2, 1.0, 2001)
    states = [QuantumState(mu, float(b)) for b in betas]
    gps = [gp_of(s) for s in states]
    energies = [mean_energy_gibbs(g, s) for g, s in zip(gps, states)]
    entropies = [entropy(g, s) for g, s in zip(gps, states)]
    acc = 0.0
    for i in range(len(betas) - 1):
        bt_mid = 0.5 * (gps[i].beta_thermo + gps[i + 1].beta_thermo)
        acc += bt_mid * (energies[i + 1] - energies[i])
    delta_s = entropies[-1] - entropies[0]
    assert acc == pytest.approx(delta_s, rel=1e-4)


# ---------------------------------------------------------------- quantum potential


def test_quantum_potential_frozen_is_level_energy():
    state = QuantumState(mu=1, beta=10.0)
    scales = derived_scales(state)
    t10 = period(state)
    for x in (0.11, 0.33, 0.5, 0.77):
        for t in (0.0, 0.4 * t10):
            q = quantum_potential(x, t, state)
            assert q.tag is FieldTag.FINITE
            assert abs(q.value - scales.E_mu) < 1e-5 * scales.E_mu


def test_quantum_potential_pole_at_walls():
    state = QuantumState(mu=1, beta=0.3)
    for x in (0.0, L):
        assert quantum_potential(x, 0.2, state).tag is FieldTag.POLE
        assert quantum_potential_gradient(x, 0.2, state).tag is FieldTag.POLE


def test_quantum_potential_gradient_matches_fd():
    state = QuantumState(mu=1, beta=0.4)
    x, t = 0.37, 0.11
    fd = finite_diff(lambda xx: quantum_potential(xx, t, state).value, x, 1, 1e-5)
    assert quantum_potential_gradient(x, t, state).value == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------- averaged energies


def test_avg_energy_profile_time_quadrature():
    state = QuantumState(mu=1, beta=0.2)
    t_mu = period(state)
    for x in (0.2, 0.45, 0.7):
        prof = avg_energy_profile(x, state)
        num = integrate(
            lambda tt: kinetic_energy_density(x, tt, state), 0.0, t_mu, 64
        ) / t_mu
        expected = num / averaged_density(x, state)
        assert prof.value == pytest.approx(expected, rel=1e-6)


def test_avg_energy_profile_poles_mu2():
    state = QuantumState(mu=2, beta=0.5)
    for x in (0.0, 0.5, 1.0):
        assert avg_energy_profile(x, state).tag is FieldTag.POLE
    assert avg_energy_profile(0.25, state).tag is FieldTag.FINITE


def test_avg_energy_profile_frozen_form():
    state = QuantumState(mu=1, beta=10.0)
    scales = derived_scales(state)
    for x in (0.2, 0.5, 0.8):
        prof = avg_energy_profile(x, state)
        expected = scales.E_mu / (L * stationary_density(x, state))
        assert prof.value == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("mu", [1, 3])
def test_double_avg_is_gibbs_mean(mu):
    state = QuantumState(mu=mu, beta=0.5)
    lhs = double_avg_energy(state)
    rhs = mean_energy_gibbs(gp_of(state), state)
    assert lhs == pytest.approx(rhs, abs=1e-8 * rhs)


def test_double_avg_frozen_limit():
    state = QuantumState(mu=1, beta=20.0)
    scales = derived_scales(state)
    assert double_avg_energy(state) == pytest.approx(scales.E_mu, abs=1e-8 * scales.E_mu)


@given(beta=st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_entropy_form_equivalence_property(beta):
    state = QuantumState(mu=1, beta=beta)
    gp = gp_of(state)
    scales = derived_scales(state)
    # the defining combination beta_thermo <E> + ln Z - ln 2 equals the
    # rescaled evaluation used by entropy()
    direct = (
        gp.beta_thermo * mean_energy_gibbs(gp, state)
        + math.log(partition(gp, state))
        - math.log(2.0)
    )
    assert entropy(gp, state) == pytest.approx(direct, abs=1e-10)


# ---------------------------------------------------------------- beta arrays


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def test_gibbs_sums_equal_mode_table_sums():
    """One block per cutoff group, summed as mode_table's weights are: the same bits."""
    betas = np.concatenate([np.linspace(0.2, 1.0, 2001), np.geomspace(3.1e-7, 30.0, 97)])
    s0, s2 = gibbs_sums(betas)
    for b, a0, a2 in zip(betas.tolist(), s0.tolist(), s2.tolist()):
        w = mode_table(b).w
        m = mode_table(b).m
        assert (a0, a2) == (float(np.sum(w)), float(np.sum(m * m * w))), b
        assert gibbs_sums(b) == (a0, a2)
    assert [a.shape for a in gibbs_sums(betas.reshape(-1, 2))] == [(betas.size // 2, 2)] * 2


@pytest.mark.parametrize("sys", [NATURAL_UNITS, SystemParams(m=1.3, l=0.8, hbar=0.9)], ids=["natural", "scaled"])
def test_gibbs_table_equals_scalar_readers(sys):
    betas = np.concatenate([np.linspace(0.05, 2.0, 40), [1e-6, 0.7, 20.0]])
    mus = (1, 2, 5)
    bt, energy, ent = gibbs_table(betas, mus, sys)
    assert bt.shape == energy.shape == ent.shape == (len(mus), betas.size)
    for i, mu in enumerate(mus):
        for j, b in enumerate(betas.tolist()):
            state = QuantumState(mu, b)
            gp = gibbs_params(state, sys)
            want = [gp.beta_thermo, mean_energy_gibbs(gp, state), entropy(gp, state)]
            assert np.array_equal(_bits([bt[i, j], energy[i, j], ent[i, j]]), _bits(want)), (mu, b)


def test_registry_rerun_misses_no_mode_table():
    from thetawell.verification import run_all_checks

    mode_table.cache_clear()
    run_all_checks()
    before = mode_table.cache_info()
    assert all(r.passed for r in run_all_checks())
    after = mode_table.cache_info()
    assert after.misses == before.misses
    assert after.currsize <= 32


@pytest.mark.parametrize(
    "beta",
    [1e-8, 1e-6 * (1 - 1e-5), 1e-6 * (1 + 1e-5), 1e-3, 0.05, 0.7, 2.0 * (1 + 1e-5), 2.1, 2.1 * (1 + 1e-9), 3.0, 8.0],
)
def test_partition_theta_form_precision_oracle(beta):
    """Both routes of the theta form against a 40-digit Z, within 3e-15 of Z.

    The dual (beta <= 2.1) is checked with its own 40-digit Poisson sum where
    mpmath's jtheta cannot take q so close to 1.
    """
    state = QuantumState(1, beta)
    with mpmath.workdps(40):
        kappa = 2 * mpmath.mpf(beta)
        if beta < 0.01:
            want = mpmath.nsum(
                lambda k: (-1) ** int(k) * mpmath.exp(-mpmath.pi * k * k / kappa), [-mpmath.inf, mpmath.inf]
            ) / mpmath.sqrt(kappa)
        else:
            want = mpmath.jtheta(2, 0, mpmath.exp(-mpmath.pi * kappa))
        want = float(want)
    assert abs(partition_theta_form(gp_of(state), state) - want) <= 3e-15 * want


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.7, 1.0, 2.0])
def test_partition_theta_form_is_the_dual(beta):
    """In the registry's window the theta form shares no term with the mode sum, yet agrees."""
    from thetawell.theta import ThetaArgs, theta_dual

    state = QuantumState(1, beta)
    z = partition_theta_form(gp_of(state), state)
    assert z == theta_dual(ThetaArgs(0.5, 0.5, -0.5, 2j * beta)).real
    assert z == pytest.approx(partition(gp_of(state), state), abs=1e-12, rel=0.0)
