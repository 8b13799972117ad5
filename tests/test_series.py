"""The one row kernel behind ``comb_rows`` (and ``folded_sum``), against a 30-digit lattice sum."""

import math

import mpmath
import numpy as np
import pytest

from thetawell.numerics import cutoff_for
from thetawell.series import build_table, comb_rows, folded_sum
from thetawell.wavefunction import NATURAL_UNITS, QuantumState, derived_scales

# every (s_power, j_power) of folded_sum with a <= 4, b <= 3; b's parity picks cos or sin
FOLDED = [(a, b) for a in range(5) for b in range(4)]


def mp_rows(x, t, state, m_max, sys=NATURAL_UNITS):
    """Rows R^b_s = sum_j W(s, j) j^b trig(j G_s) for b = 0..3 at 30 digits, with sum |term|.

    Direct sums over the table's diamond |s| + |j| <= m_max, s + j odd, with
    W = exp(-(pi beta/2)(s^2 + j^2 - 1)), trig = cos for even b and sin for
    odd b, and G_s = pi (2 mu x/l + 1) - s pi t/T_mu from the exact inputs.
    The terms of j and -j are equal, so each j > 0 is counted twice.  Each
    term counts as |W j^b| in sum |term|, as in the psi-jet oracle: a trig
    factor that vanishes at an exact angle (every term of a row at
    G_s = pi/2 mod pi) cannot vanish at a rounded one.  e^{i j G_s} comes
    from powers of e^{i G_s}, which at 30 digits loses nothing a double can
    see.  Returns two dicts keyed by (s, b).
    """
    with mpmath.workdps(30):
        beta = mpmath.mpf(state.beta)
        l, hbar, mass = mpmath.mpf(sys.l), mpmath.mpf(sys.hbar), mpmath.mpf(sys.m)
        t_mu = mass * l**2 / (2 * mpmath.pi * hbar * state.mu**2)
        u = mpmath.pi * (2 * state.mu * mpmath.mpf(x) / l + 1)
        w = mpmath.pi / t_mu * mpmath.mpf(t)
        gauss = [mpmath.exp(-mpmath.pi * beta / 2 * n * n) for n in range(m_max + 1)]
        lift = mpmath.exp(mpmath.pi * beta / 2)
        # (1 or 2) exp(-(pi beta/2) j^2) j^b, and its sums over j' = j, j - 2, ... >= 0
        coeff = [[(2 if j else 1) * gauss[j] * j**b for j in range(m_max + 1)] for b in range(4)]
        partial = [[mpmath.mpf(0)] * (m_max + 1) for _ in range(4)]
        for b in range(4):
            for j in range(m_max + 1):
                partial[b][j] = coeff[b][j] + (partial[b][j - 2] if j >= 2 else 0)
        rows, scales = {}, {}
        for s in range(-m_max, m_max + 1):
            first, last = (s + 1) % 2, m_max - abs(s)  # the row's lattice orders, step 2
            angle = u - s * w
            power, step = mpmath.expj(first * angle), mpmath.expj(2 * angle)  # e^{i j G_s}
            value = [mpmath.mpf(0)] * 4
            for j in range(first, last + 1, 2):
                for b in range(4):
                    value[b] += coeff[b][j] * (power.imag if b % 2 else power.real)
                power *= step
            row_weight = gauss[abs(s)] * lift
            for b in range(4):
                rows[s, b], scales[s, b] = row_weight * value[b], row_weight * partial[b][last]
        return rows, scales


@pytest.mark.parametrize("beta", [1.0, 0.1, 1e-3])
def test_kernel_matches_high_precision_lattice_sum(beta):
    """Rows, folded sums and row-derivative moments within 1e-12 of sum |term|, fixed before measuring.

    1e-12 allows the Chebyshev recurrence's error growth, about j^2 eps at
    the orders j ~ beta^-1/2 that carry the weight, with a wide margin.
    ``comb_rows`` of order k is d^k C_s/dx^k = (2 pi mu/l)^k R^k_s with the
    sign of cos(a + k pi/2), -1 for k = 1, 2, since dG_s/dx = 2 pi mu/l;
    its moments sum_s s^a are what every caller reads.
    """
    state = QuantumState(1, beta)
    t_mu = derived_scales(state).T_mu
    table = build_table(state)
    labels = range(-table.m_max, table.m_max + 1)
    factors = [(-1.0 if k in (1, 2) else 1.0) * (2.0 * math.pi * state.mu) ** k for k in range(4)]
    for x, t_frac in ((0.0, 0.29), (1.0, 0.61), (0.37, 1.0), (0.81, 0.13)):
        t = t_frac * t_mu
        want, scale = mp_rows(x, t, state, table.m_max)
        got = comb_rows(x, t, state).by_label()
        for k, s in enumerate(labels):
            assert abs(got[k] - want[s, 0]) <= 1e-12 * scale[s, 0], (x, t_frac, s)
        derivs = [comb_rows(x, t, state, order=k) for k in range(4)]
        for a, b in FOLDED:
            ref = sum(s**a * want[s, b] for s in labels)
            bound = sum(abs(s) ** a * scale[s, b] for s in labels)
            value = folded_sum(table, x, t, state, s_power=a, j_power=b)
            assert abs(value - ref) <= 1e-12 * bound, (x, t_frac, a, b)
            moment = derivs[b].moment(a)
            assert abs(moment - factors[b] * ref) <= 1e-12 * abs(factors[b]) * bound, (x, t_frac, a, b)


def test_comb_rows_order_one_grid_equals_points():
    state = QuantumState(2, 1e-3)
    t_mu = derived_scales(state).T_mu
    xs = np.linspace(0.0, 1.0, 7)
    ts = np.array([0.0, 0.31, 0.77]) * t_mu
    grid = comb_rows(xs[:, None], ts[None, :], state, order=1)
    for i, x in enumerate(xs):
        for j, t in enumerate(ts):
            point = comb_rows(float(x), float(t), state, order=1)
            assert np.array_equal(point.plus, grid.plus[:, i, j])
            assert np.array_equal(point.minus, grid.minus[:, i, j])
            for a in range(4):
                assert point.moment(a) == grid.moment(a)[i, j]


def test_comb_rows_rejects_a_negative_order():
    with pytest.raises(ValueError, match="order"):
        comb_rows(0.3, 0.0, QuantumState(1, 0.1), order=-1)


@pytest.mark.parametrize("beta", [1.0, 0.1, 1e-3])
def test_table_matches_loop_enumeration(beta):
    """The table's terms and bits equal a loop over the lattice, sigma-major.

    The benchmark counts these terms per rung, so only the set of terms
    matters to it; no route of the package reads the table.
    """
    state = QuantumState(1, beta)
    m_max = 2 * cutoff_for(beta) + 1
    pairs = [(sg, it) for sg in range(m_max + 1) for it in range((sg + 1) % 2, m_max - sg + 1, 2)]
    sigma, iota = np.array(pairs).T
    fold = np.where(sigma > 0, 2.0, 1.0) * np.where(iota > 0, 2.0, 1.0)
    squares = sigma.astype(float) ** 2 + iota.astype(float) ** 2
    w = fold * np.exp(-math.pi * beta / 2.0 * (squares - 1.0))
    table = build_table(state)
    assert table.m_max == m_max
    assert np.array_equal(table.sigma, sigma) and np.array_equal(table.iota, iota)
    assert np.array_equal(table.w, w)
