"""Arrays first: a grid call of every tagged field equals per-point calls bit for bit.

Each field broadcasts over x and t, so the CLI and the registry make one call
per grid.  These properties pin that the grid route rounds exactly like the
point route, value and tag, including the walls (x = 0, l), the stationary
nodes x = k l / mu where the density vanishes, and t = 0.  The comb route
(``velocity_from_vlasov``), the folded-series ``pressure_gradient``, the
moment-law rates and residuals, the comb atoms that ``thetawell wigner``
tabulates and the Schrodinger residual are pinned the same way; the
Schrodinger residual's stencil must stay inside the walls.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetawell.density import period
from thetawell.numerics import FieldTag
from thetawell.phase_space import (
    comb_atoms,
    moment_law_residual,
    moment_rate,
    moments,
    pressure_gradient,
    velocity_field,
    velocity_from_vlasov,
    wigner_comb,
)
from thetawell.thermo import avg_energy_profile, quantum_potential, quantum_potential_gradient
from thetawell.wavefunction import (
    NATURAL_UNITS,
    QuantumState,
    SystemParams,
    psi,
    schrodinger_residual,
)

BETAS = (1.0, 0.1, 0.02, 1e-3)
SYSTEMS = (NATURAL_UNITS, SystemParams(m=1.3, l=0.8, hbar=0.9))

fractions = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5)


def _grid(mu, sys, x_fracs, t_fracs, state):
    """x with both walls and every stationary node, t with 0; all drawn in units of l and T."""
    xs = np.unique(np.concatenate([np.arange(mu + 1) / mu, x_fracs])) * sys.l
    ts = np.unique(np.concatenate([[0.0], t_fracs])) * period(state, sys)
    return xs, ts


def _bits(values) -> np.ndarray:
    """The IEEE bit patterns, so -0.0 and 0.0 differ and NaNs compare equal."""
    return np.asarray(values, dtype=float).view(np.uint64)


def _assert_same(grid_values, point_values):
    assert np.array_equal(_bits(grid_values), _bits(point_values))


def _assert_same_samples(grid, points, shape):
    _assert_same(grid.value.ravel(), [p.value for p in points])
    assert grid.tag.shape == shape
    assert [str(tag) for tag in grid.tag.ravel()] == [str(p.tag) for p in points]
    assert all(isinstance(p.value, float) and isinstance(p.tag, FieldTag) for p in points)


point_cases = given(
    beta=st.sampled_from(BETAS),
    mu=st.sampled_from((1, 2, 3)),
    sys=st.sampled_from(SYSTEMS),
    x_fracs=fractions,
    t_fracs=fractions,
)


@given(
    beta=st.sampled_from(BETAS + (1e-6,)),  # 1e-6: psi's per-point theta1 route
    mu=st.sampled_from((1, 2, 3)),
    sys=st.sampled_from(SYSTEMS),
    x_fracs=fractions,
    t_fracs=fractions,
)
@settings(max_examples=25, deadline=None)
def test_psi_grid_equals_points(beta, mu, sys, x_fracs, t_fracs):
    state = QuantumState(mu, beta)
    xs, ts = _grid(mu, sys, x_fracs, t_fracs, state)
    grid = psi(xs[None, :], ts[:, None], state, sys)
    points = [psi(float(x), float(t), state, sys) for t in ts for x in xs]
    assert grid.shape == (ts.size, xs.size)
    assert all(isinstance(p, complex) for p in points)
    _assert_same(grid.real.ravel(), [p.real for p in points])
    _assert_same(grid.imag.ravel(), [p.imag for p in points])


@point_cases
@settings(max_examples=25, deadline=None)
def test_velocity_field_grid_equals_points(beta, mu, sys, x_fracs, t_fracs):
    state = QuantumState(mu, beta)
    xs, ts = _grid(mu, sys, x_fracs, t_fracs, state)
    grid = velocity_field(xs[None, :], ts[:, None], state, sys)
    points = [velocity_field(float(x), float(t), state, sys) for t in ts for x in xs]
    _assert_same_samples(grid, points, (ts.size, xs.size))
    # the walls are nodes of every state: never a finite velocity there
    assert all(tag is FieldTag.NODE_UNDEFINED for tag in grid.tag[:, [0, -1]].ravel())


@point_cases
@settings(max_examples=25, deadline=None)
def test_velocity_from_vlasov_grid_equals_points(beta, mu, sys, x_fracs, t_fracs):
    state = QuantumState(mu, beta)
    xs, ts = _grid(mu, sys, x_fracs, t_fracs, state)
    grid = velocity_from_vlasov(xs[None, :], ts[:, None], state, sys)
    points = [velocity_from_vlasov(float(x), float(t), state, sys) for t in ts for x in xs]
    _assert_same_samples(grid, points, (ts.size, xs.size))
    assert all(tag is FieldTag.NODE_UNDEFINED for tag in grid.tag[:, [0, -1]].ravel())


@point_cases
@settings(max_examples=25, deadline=None)
def test_schrodinger_residual_grid_equals_points(beta, mu, sys, x_fracs, t_fracs):
    state = QuantumState(mu, beta)
    xs, ts = _grid(mu, sys, np.clip(x_fracs, 0.01, 0.99), t_fracs, state)
    xs = xs[1:-1]  # not the walls, where the stencil would leave the well
    grid = schrodinger_residual(xs[None, :], ts[:, None], state, sys)
    points = [schrodinger_residual(float(x), float(t), state, sys) for t in ts for x in xs]
    assert grid.shape == (ts.size, xs.size)
    assert all(isinstance(p, float) for p in points)
    _assert_same(grid.ravel(), points)
    with pytest.raises(ValueError):
        schrodinger_residual(np.append(xs, sys.l), ts[0], state, sys)


@point_cases
@settings(max_examples=25, deadline=None)
def test_moments_grid_equals_points(beta, mu, sys, x_fracs, t_fracs):
    state = QuantumState(mu, beta)
    xs, ts = _grid(mu, sys, x_fracs, t_fracs, state)
    grid = moments(xs[None, :], ts[:, None], state, sys)
    points = [moments(float(x), float(t), state, sys) for t in ts for x in xs]
    for name in ("density", "flux", "pressure", "heat_flux"):
        assert all(isinstance(getattr(p, name), float) for p in points)
        _assert_same(getattr(grid, name).ravel(), [getattr(p, name) for p in points])
    _assert_same_samples(grid.energy_density, [p.energy_density for p in points], (ts.size, xs.size))
    assert all(tag is FieldTag.POLE for tag in grid.energy_density.tag[:, [0, -1]].ravel())


@point_cases
@settings(max_examples=25, deadline=None)
def test_quantum_potential_grid_equals_points(beta, mu, sys, x_fracs, t_fracs):
    state = QuantumState(mu, beta)
    xs, ts = _grid(mu, sys, x_fracs, t_fracs, state)
    for field in (quantum_potential, quantum_potential_gradient):
        grid = field(xs[None, :], ts[:, None], state, sys)
        points = [field(float(x), float(t), state, sys) for t in ts for x in xs]
        _assert_same_samples(grid, points, (ts.size, xs.size))
        assert all(tag is FieldTag.POLE for tag in grid.tag[:, [0, -1]].ravel())


@point_cases
@settings(max_examples=25, deadline=None)
def test_pressure_gradient_grid_equals_points(beta, mu, sys, x_fracs, t_fracs):
    state = QuantumState(mu, beta)
    xs, ts = _grid(mu, sys, x_fracs, t_fracs, state)
    grid = pressure_gradient(xs[None, :], ts[:, None], state, sys)
    points = [pressure_gradient(float(x), float(t), state, sys) for t in ts for x in xs]
    _assert_same_samples(grid, points, (ts.size, xs.size))
    assert all(tag is FieldTag.NODE_UNDEFINED for tag in grid.tag[:, [0, -1]].ravel())


@point_cases
@settings(max_examples=25, deadline=None)
def test_moment_law_residual_grid_equals_points(beta, mu, sys, x_fracs, t_fracs):
    # the law needs no division by the density: finite at walls and nodes too
    state = QuantumState(mu, beta)
    xs, ts = _grid(mu, sys, x_fracs, t_fracs, state)
    for k in range(4):
        for field in (moment_rate, moment_law_residual):
            grid = field(xs[None, :], ts[:, None], k, state, sys)
            points = [field(float(x), float(t), k, state, sys) for t in ts for x in xs]
            assert grid.shape == (ts.size, xs.size)
            assert all(isinstance(p, float) for p in points)
            _assert_same(grid.ravel(), points)
            assert np.all(np.isfinite(grid))


@pytest.mark.parametrize("mu", (1, 3))
@pytest.mark.parametrize("beta", BETAS)
def test_comb_atoms_grid_equals_wigner_comb(beta, mu):
    # the CLI's one grid call against the per-point records of the library
    state = QuantumState(mu, beta)
    rng = np.random.default_rng(20261018)
    for sys in SYSTEMS:
        xs, ts = _grid(mu, sys, rng.uniform(0.0, 1.0, 4), rng.uniform(0.0, 1.0, 3), state)
        labels, momenta, weights = comb_atoms(xs[None, :], ts[:, None], state, sys)
        assert weights.shape == (labels.size, ts.size, xs.size)
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                atoms = wigner_comb(float(x), float(t), state, sys).atoms
                assert [a.s for a in atoms] == labels.tolist()
                _assert_same(momenta, [a.momentum for a in atoms])
                _assert_same(weights[:, i, j], [a.weight for a in atoms])


@given(
    beta=st.sampled_from(BETAS),
    mu=st.sampled_from((1, 2, 3)),
    sys=st.sampled_from(SYSTEMS),
    x_fracs=fractions,
)
@settings(max_examples=25, deadline=None)
def test_avg_energy_profile_grid_equals_points(beta, mu, sys, x_fracs):
    state = QuantumState(mu, beta)
    xs, _ = _grid(mu, sys, x_fracs, [], state)
    grid = avg_energy_profile(xs, state, sys)
    points = [avg_energy_profile(float(x), state, sys) for x in xs]
    _assert_same_samples(grid, points, xs.shape)
    # the averaged density vanishes at the walls and at every stationary node
    nodes = np.isin(xs, np.arange(mu + 1) / mu * sys.l)
    assert all(tag is FieldTag.POLE for tag in grid.tag[nodes])


@pytest.mark.parametrize("beta", BETAS)
def test_fields_dense_grid_equals_points(beta):
    # a seeded 26 x 9 grid: last-bit differences that a few drawn points can miss
    # (a cube rounded apart for one point in a hundred) show up here
    sys, mu = SYSTEMS[1], 2
    state = QuantumState(mu, beta)
    rng = np.random.default_rng(20261018)
    xs, ts = _grid(mu, sys, rng.uniform(0.0, 1.0, 23), rng.uniform(0.0, 1.0, 8), state)
    shape = (ts.size, xs.size)
    cells = [(float(x), float(t)) for t in ts for x in xs]
    grid = moments(xs[None, :], ts[:, None], state, sys)
    points = [moments(x, t, state, sys) for x, t in cells]
    for name in ("density", "flux", "pressure", "heat_flux"):
        _assert_same(getattr(grid, name).ravel(), [getattr(p, name) for p in points])
    _assert_same_samples(grid.energy_density, [p.energy_density for p in points], shape)
    for field in (
        velocity_field,
        velocity_from_vlasov,
        pressure_gradient,
        quantum_potential,
        quantum_potential_gradient,
    ):
        grid = field(xs[None, :], ts[:, None], state, sys)
        _assert_same_samples(grid, [field(x, t, state, sys) for x, t in cells], shape)
    inner = xs[1:-1]
    grid = schrodinger_residual(inner[None, :], ts[:, None], state, sys)
    _assert_same(grid.ravel(), [schrodinger_residual(x, t, state, sys) for t in ts for x in inner])
