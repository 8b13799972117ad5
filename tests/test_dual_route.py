"""The averaged density and the Gibbs sums on both sides of their Poisson-dual switch.

At and below ``_GIBBS_DUAL_MAX_BETA`` both quantities come from a few
Gaussians of ``theta.theta_dual``; above it from their mode sums.  The oracle
here is neither: it sums the odd modes directly in 30-digit arithmetic.
"""

import math
import re

import mpmath
import numpy as np
import pytest

from thetawell import verification
from thetawell.density import _GIBBS_DUAL_MAX_BETA, averaged_density
from thetawell.numerics import FieldTag, Truncation
from thetawell.thermo import avg_energy_profile, entropy, gibbs_params, gibbs_sums, mean_energy_gibbs
from thetawell.verification import run_check
from thetawell.wavefunction import NATURAL_UNITS, QuantumState, SystemParams, derived_scales

SWITCH = _GIBBS_DUAL_MAX_BETA
ORACLE_BETAS = [1e-8, 1e-7, 1e-6, 1e-4, 1e-3, SWITCH * (1 - 1e-3), SWITCH * (1 + 1e-3), 0.1, 1.0, 2.0]

# fixed before measuring.  Dual: a few roundings of O(1) terms.  Mode sum: the
# truncation policy leaves a tail of about tol = 1e-14 of the leading weight,
# which m^2 amplifies in S2 by up to (2K + 3)^2 ~ 2500 near the switch.
TOLERANCES = {  # (averaged density abs * l, S0 rel, <E> rel, entropy abs)
    "dual": (1e-15, 1e-15, 2e-15, 1e-14),
    "modes": (5e-14, 5e-14, 1e-11, 1e-12),
}
# On a Gaussian flank the averaged density has slope ~ mu / sqrt(beta).  The
# dual route carries w = 2 mu x / l exactly, in two parts, and is held to its
# tolerance alone; the mode sum rounds each phase m pi mu x / l, so it is also
# allowed |f'(x)| * |x| * eps, the change one ulp of x makes in the exact value.
EPS = 2.0**-52


def _mode_weights(beta):
    """30-digit weights exp(-(pi beta/2)(m^2 - 1)) of the odd m >= 1 down to 1e-35."""
    b = mpmath.mpf(beta)
    ms, ws = [], []
    m = 1
    while True:
        w = mpmath.exp(-mpmath.pi * b / 2 * (m * m - 1))
        if w < mpmath.mpf("1e-35"):
            return ms, ws
        ms.append(m)
        ws.append(w)
        m += 2


def _oracle_points(beta):
    """(mu, x): a Gaussian flank of the center line, the flat region, a flank of mu = 3's first line."""
    flank = min(0.4 * math.sqrt(beta), 0.1)
    return [(1, 0.5 + flank), (1, 0.37), (3, 1.0 / 6.0 + flank / 3.0)]


@pytest.mark.parametrize("beta", ORACLE_BETAS)
def test_against_30_digit_mode_sums(beta):
    route = "dual" if beta <= SWITCH else "modes"
    tol_avg, tol_s0, tol_e, tol_s = TOLERANCES[route]
    with mpmath.workdps(30):
        ms, ws = _mode_weights(beta)
        s0 = mpmath.fsum(ws)
        s2 = mpmath.fsum(m * m * w for m, w in zip(ms, ws))
        ratio = s2 / s0
        ent = mpmath.pi * mpmath.mpf(beta) / 2 * (ratio - 1) + mpmath.log(s0)
        for mu, x in _oracle_points(beta):
            theta = mpmath.pi * mu * mpmath.mpf(x)
            value = slope = 0
            for m, w in zip(ms, ws):
                cos, sin = mpmath.cos_sin(m * theta)
                value += w * sin * sin
                slope += w * m * sin * cos  # d/dx sin^2 = (2 m pi mu / l) sin cos
            want = float(2 * value / s0)
            slack = float(4 * mpmath.pi * mu * abs(slope) / s0) * x * EPS if route == "modes" else 0.0
            got = averaged_density(x, QuantumState(mu, beta))
            assert abs(got - want) <= tol_avg + slack, (route, mu, x, got, want, slack)
        s0, ratio, ent = float(s0), float(ratio), float(ent)
    got0, _ = gibbs_sums(beta)
    assert abs(got0 - s0) <= tol_s0 * s0, (route, got0, s0)
    state = QuantumState(1, beta)
    gp = gibbs_params(state)
    e_mu = derived_scales(state).E_mu
    energy = mean_energy_gibbs(gp, state)
    assert abs(energy - e_mu * ratio) <= tol_e * e_mu * ratio, (route, energy, e_mu * ratio)
    assert abs(entropy(gp, state) - ent) <= tol_s, (route, entropy(gp, state), ent)


@pytest.mark.parametrize("beta", [1e-7, 1e-3])
def test_dual_walls_and_center_are_exact(beta):
    state = QuantumState(1, beta)
    assert averaged_density(0.0, state) == 0.0
    assert averaged_density(1.0, state) == 0.0
    assert averaged_density(0.5, state) == 2.0
    sys = SystemParams(m=1.3, l=0.8, hbar=0.9)
    assert averaged_density(np.array([0.0, 0.4, 0.8]), state, sys).tolist() == [0.0, 2.0 / 0.8, 0.0]


@pytest.mark.parametrize(
    "beta", [1e-8, 1e-3, SWITCH * (1 - 1e-3), SWITCH, SWITCH * (1 + 1e-3), 0.05], ids=lambda b: f"{b:g}"
)
def test_grid_equals_points_bit_for_bit(beta):
    xs = np.concatenate([np.linspace(0.0, 1.0, 41), np.random.default_rng(11).uniform(0.0, 1.0, 40)])
    for mu in (1, 4):
        state = QuantumState(mu, beta)
        grid = averaged_density(xs, state)
        points = [averaged_density(x, state) for x in xs.tolist()]
        assert np.array_equal(grid.view(np.uint64), np.array(points).view(np.uint64)), mu
        assert averaged_density(xs.reshape(9, 9), state).tolist() == grid.reshape(9, 9).tolist()
    betas = np.array([beta, 0.5 * beta, 2.0 * beta, beta])
    s0, s2 = gibbs_sums(betas)
    assert [gibbs_sums(b) for b in betas.tolist()] == list(zip(s0.tolist(), s2.tolist()))


def test_dual_route_needs_no_cutoff():
    """With max_index = 8 every mode sum below beta ~ 0.07 overflows; the dual does not."""
    tiny = Truncation(max_index=8)
    state = QuantumState(1, 1e-8)
    values = averaged_density(np.linspace(0.0, 1.0, 9), state, NATURAL_UNITS, tiny)
    assert np.all(np.isfinite(values))
    assert gibbs_sums(1e-8, tiny) == gibbs_sums(1e-8)
    betas = np.array([1e-8, 1e-6])
    assert [a.tolist() for a in gibbs_sums(betas, tiny)] == [a.tolist() for a in gibbs_sums(betas)]
    gp = gibbs_params(state)
    assert mean_energy_gibbs(gp, state, tiny) == mean_energy_gibbs(gp, state)
    assert entropy(gp, state, tiny) == entropy(gp, state)


def test_frozen_gibbs_ratio_is_one_over_pi_beta():
    """Once the k != 0 dual terms underflow, S2/S0 = 1/(pi beta) to the last bit."""
    for beta in (1e-8, 1e-6, 1e-3):
        s0, s2 = gibbs_sums(beta)
        assert s2 == s0 * (1.0 / (math.pi * beta))


def test_avg_energy_profile_tags_walls_at_small_beta():
    state = QuantumState(1, 1e-7)
    prof = avg_energy_profile(np.array([0.0, 0.37, 1.0]), state)
    assert prof.tag.tolist() == [FieldTag.POLE, FieldTag.FINITE, FieldTag.POLE]
    assert math.isfinite(prof.value[1])


def test_time_average_sees_a_wrong_dual_route(monkeypatch):
    """The dual route off by 1 + 1e-6 fails time-average through its route sub-check."""
    assert run_check("time-average").passed
    real = verification._averaged_dual
    monkeypatch.setattr(verification, "_averaged_dual", lambda *args: real(*args) * (1.0 + 1e-6))
    r = run_check("time-average")
    assert not r.passed
    routes = float(re.search(r"poisson-dual-vs-mode-sum at beta=1e-3 (\S+)", r.detail).group(1))
    assert routes > 1e-8, r.detail
