"""psi_jet's per-axis trig tables: a grid takes cos/sin once per x and per t value, with the same bits.

On a grid the angle (u/2) m depends on x alone and (w/4) m^2 on t alone, so
``psi_jet`` builds their trig once per distinct value and gathers it per
point.  These tests pin that every field read from the jet equals its
per-point (float) call bit for bit in every grid orientation, at the walls,
at t = 0 and late times, across the truncation range, and when the tables
are split to stay within their memory budget; and that scattered points
never build tables while a grid builds each table row once.
"""

import numpy as np
import pytest

from thetawell import wavefunction
from thetawell.density import density, density_derivatives, period
from thetawell.numerics import cutoff_for
from thetawell.phase_space import flux, moment_rate, moments
from thetawell.wavefunction import NATURAL_UNITS, QuantumState, SystemParams, psi, psi_jet

SYSTEMS = (NATURAL_UNITS, SystemParams(m=1.3, l=0.8, hbar=0.9))
X_FRACS = (0.0, 0.137, 0.5, 0.861, 1.0)
T_FRACS = (0.0, 0.31, 0.99, 7.37)


def _bits(values) -> np.ndarray:
    """IEEE bit patterns of real and imaginary parts, so -0.0 and 0.0 differ and NaNs compare equal."""
    arr = np.ascontiguousarray(np.asarray(values))
    if np.iscomplexobj(arr):
        arr = np.stack([arr.real, arr.imag])
    return np.ascontiguousarray(arr, dtype=float).view(np.uint64)


def _fields(x, t, state, sys):
    """Every quantity read from the jet, as arrays (FieldSamples by value)."""
    out = {f"jet{k}": psi_jet(x, t, state, sys, order=k) for k in range(6)}
    out["psi"] = psi(x, t, state, sys)
    out["density"] = density(x, t, state, sys)
    out["derivatives"] = np.array(density_derivatives(x, t, state, sys))
    out["flux"] = flux(x, t, state, sys)
    ms = moments(x, t, state, sys)
    for name in ("density", "flux", "pressure", "heat_flux"):
        out[f"moments.{name}"] = getattr(ms, name)
    out["moments.energy"] = ms.energy_density.value
    for k in range(4):
        out[f"rate{k}"] = moment_rate(x, t, k, state, sys)
    return out


def _per_point(xs, ts, state, sys):
    """Each field at every (x, t) from float calls, indexed [name][i_x][i_t]."""
    calls = [[_fields(float(x), float(t), state, sys) for t in ts] for x in xs]
    return {name: [[c[name] for c in row] for row in calls] for name in calls[0][0]}


def _assert_grid(grid: dict, points: dict, index) -> None:
    """grid[name] (last axes the grid) against the per-point values at ``index(i_x, i_t)``."""
    for name, value in grid.items():
        value = np.asarray(value)
        for pos in np.ndindex(*index.shape[:-1]):
            i_x, i_t = index[pos]
            want = np.asarray(points[name][i_x][i_t])
            got = value[(..., *pos)]
            assert np.array_equal(_bits(got), _bits(want)), (name, pos)


@pytest.mark.parametrize("beta", [1.0, 0.1, 1e-3, 1e-5])
@pytest.mark.parametrize("mu", [1, 3])
@pytest.mark.parametrize("sys", SYSTEMS, ids=["natural", "scaled"])
def test_grid_fields_equal_point_bits(beta, mu, sys):
    state = QuantumState(mu, beta)
    xs = np.array(X_FRACS) * sys.l
    ts = np.array(T_FRACS) * period(state, sys)
    points = _per_point(xs, ts, state, sys)
    ix, it = np.arange(xs.size), np.arange(ts.size)
    repeat_x, repeat_t = np.array([2, 0, 2, 4, 2, 1]), np.array([1, 1, 3, 0, 1])
    cases = [
        # (x, t, index of each broadcast point into xs and ts)
        (xs[None, :], ts[:, None], np.stack(np.broadcast_arrays(ix[None, :], it[:, None]), -1)),
        (xs[:, None], ts[None, :], np.stack(np.broadcast_arrays(ix[:, None], it[None, :]), -1)),
        (xs, float(ts[2]), np.stack([ix, np.full(ix.size, 2)], -1)),
        (float(xs[3]), ts, np.stack([np.full(it.size, 3), it], -1)),
        (
            xs[repeat_x][:, None],
            ts[repeat_t][None, :],
            np.stack(np.broadcast_arrays(repeat_x[:, None], repeat_t[None, :]), -1),
        ),
    ]
    for x, t, index in cases:
        _assert_grid(_fields(x, t, state, sys), points, index)


@pytest.mark.parametrize("order", [0, 1, 3, 5])
def test_split_tables_equal_point_bits(order):
    """A grid whose tables exceed the budget is split into runs; the bits do not move."""
    state = QuantumState(2, 1e-5)
    n_modes = cutoff_for(state.beta) + 1
    rows = wavefunction._TABLE_BUDGET // n_modes
    xs = np.linspace(0.0, 1.0, rows + 3)
    ts = np.linspace(0.0, 1.3, 7) * period(state)
    assert xs.size + ts.size > rows  # more rows than one run may hold
    for x, t in ((xs[None, :], ts[:, None]), (xs[:, None], ts[None, :])):
        grid = psi_jet(x, t, state, order=order)
        xb, tb = np.broadcast_arrays(x, t)
        for pos in np.ndindex(*xb.shape):
            want = psi_jet(float(xb[pos]), float(tb[pos]), state, order=order)
            assert np.array_equal(_bits(grid[(slice(None), *pos)]), _bits(want)), pos


def _count_table_rows(monkeypatch) -> list:
    """Record the number of phases of each table ``psi_jet`` builds."""
    real = wavefunction._trig_rows
    built = []

    def counted(phases, factor, sin=True):
        built.append(phases.size)
        return real(phases, factor, sin)

    monkeypatch.setattr(wavefunction, "_trig_rows", counted)
    return built


def test_scattered_points_build_no_tables(monkeypatch):
    built = _count_table_rows(monkeypatch)
    state = QuantumState(1, 0.1)
    rng = np.random.default_rng(3)
    xs, ts = rng.uniform(0.0, 1.0, 200), rng.uniform(0.0, period(state), 200)
    for order in (0, 3):
        psi_jet(xs, ts, state, order=order)
        psi_jet(float(xs[0]), float(ts[0]), state, order=order)
        psi_jet(xs[:3], ts[:3, None], state, order=order)  # 6 values for 9 points: no grid
    psi(xs, ts, state)
    density(xs, ts, state)
    assert built == []


@pytest.mark.parametrize("beta", [0.1, 1e-3])
def test_grid_builds_each_table_once(monkeypatch, beta):
    built = _count_table_rows(monkeypatch)
    state = QuantumState(1, beta)
    xs, ts = np.linspace(0.0, 1.0, 33), np.linspace(0.0, period(state), 9)
    for order in (0, 2):
        built.clear()
        psi_jet(xs[None, :], ts[:, None], state, order=order)
        assert sorted(built) == [ts.size, xs.size]
    built.clear()
    density(xs[:, None], ts[None, :], state)
    assert sorted(built) == [ts.size, xs.size]


def test_split_tables_stay_within_budget(monkeypatch):
    built = _count_table_rows(monkeypatch)
    state = QuantumState(1, 1e-6)
    n_modes = cutoff_for(state.beta) + 1
    rows = wavefunction._TABLE_BUDGET // n_modes
    xs, ts = np.linspace(0.0, 1.0, 64), np.linspace(0.0, period(state), 16)
    psi_jet(xs[None, :], ts[:, None], state)
    # tables come in (t rows, x rows) pairs, each pair within the budget, and
    # still take fewer trig rows than the two angles of every point
    pairs = list(zip(built[::2], built[1::2]))
    assert pairs and all(a + b <= rows for a, b in pairs)
    assert sum(built) < 2 * xs.size * ts.size
