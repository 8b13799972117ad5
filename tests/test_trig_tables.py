"""psi_jet's per-axis trig tables: cos/sin once per entry of x and of t, and the same bits in any layout.

The angle (u/2) m depends on x alone and (w/4) m^2 on t alone, so
``psi_jet`` takes their trig once per entry of each input and sums each
point's terms row by row over the modes in one fixed order.  These tests pin
that every field read from the jet equals its per-point (float, 0-d or
one-element) call bit for bit in every grid orientation, at the walls, at
t = 0 and late times, across the truncation range, and when a call is split
into blocks and runs of modes to stay within its work budget; that trig is
taken once per input entry; and that numpy's reduction adds rows in the
order those sums rely on.
"""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from mode_order import mode_order_sum
from thetawell import wavefunction
from thetawell.density import density, density_derivatives, period
from thetawell.numerics import DEFAULT_TRUNCATION, cutoff_for
from thetawell.phase_space import flux, kinetic_energy_density, moment_rate, moments
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
    """A grid beyond the work budget is split into blocks and runs of modes; the bits do not move."""
    state = QuantumState(2, 1e-5)
    n_modes = cutoff_for(state.beta) + 1
    rows = wavefunction._JET_BUDGET // n_modes
    xs = np.linspace(0.0, 1.0, rows + 3)
    ts = np.linspace(0.0, 1.3, 7) * period(state)
    assert xs.size + ts.size > rows  # more rows than one run may hold
    for x, t in ((xs[None, :], ts[:, None]), (xs[:, None], ts[None, :])):
        grid = psi_jet(x, t, state, order=order)
        xb, tb = np.broadcast_arrays(x, t)
        for pos in np.ndindex(*xb.shape):
            want = psi_jet(float(xb[pos]), float(tb[pos]), state, order=order)
            assert np.array_equal(_bits(grid[(slice(None), *pos)]), _bits(want)), pos


def _count_trig(monkeypatch) -> dict:
    """Record how many (entry, mode) pairs of x and of t ``psi_jet`` takes the cos ("x", "t") and the sin ("x.sin", "t.sin") of."""
    real = wavefunction._trig
    taken = dict.fromkeys(("x", "t", "x.sin", "t.sin"), 0)

    def counted(phases, factor, sin=True, out=None):
        angle, pairs = "x" if factor[0] > 0.0 else "t", np.size(phases) * factor.size  # m/2 > 0 > -m^2/4
        taken[angle] += pairs
        taken[angle + ".sin"] += pairs * sin
        return real(phases, factor, sin, out)

    monkeypatch.setattr(wavefunction, "_trig", counted)
    return taken


def _reset(taken: dict) -> None:
    taken.update(dict.fromkeys(taken, 0))


def _drop_kept(monkeypatch) -> None:
    """Drop both kept tables, so the next call takes its trig anew."""
    monkeypatch.setattr(wavefunction, "_kept_tables", {"x": None, "t": None})


@pytest.mark.parametrize("beta", [0.1, 1e-3, 1e-6])
def test_trig_taken_once_per_entry(monkeypatch, beta):
    """Each entry of x and of t, as given, has its trig taken once per call, whatever the layout.

    Both kept tables are dropped before each call, so each count is one
    call's own; reuse across calls is pinned by the kept-table tests.  An x
    with one entry per point has its table kept, built with the sin at
    every order; a grid's x axis takes the sin only from order 1.
    """
    taken = _count_trig(monkeypatch)
    state = QuantumState(1, beta)
    n_modes = cutoff_for(beta) + 1
    rng = np.random.default_rng(3)
    xs, ts = rng.uniform(0.0, 1.0, 64), rng.uniform(0.0, period(state), 16)
    calls = [
        (xs[None, :], ts[:, None]),
        (xs[:, None], ts[None, :]),
        (xs, float(ts[0])),  # a vector of x at one time
        (float(xs[0]), ts),
        (xs[:16], ts),  # scattered points
        (float(xs[0]), float(ts[0])),
        (xs[:3], ts[:3, None]),
    ]
    for order in (0, 3):
        for x, t in calls:
            _reset(taken)
            _drop_kept(monkeypatch)  # a call on fresh points
            psi_jet(x, t, state, order=order)
            x_pairs, t_pairs = np.size(x) * n_modes, np.size(t) * n_modes
            kept = np.size(x) == np.broadcast(x, t).size > 1
            want = {"x": x_pairs, "t": t_pairs, "x.sin": x_pairs if order or kept else 0, "t.sin": t_pairs}
            assert taken == want, (order, np.shape(x), np.shape(t))
    _reset(taken)
    _drop_kept(monkeypatch)
    density(xs[:, None], ts[None, :], state)
    assert taken == {"x": xs.size * n_modes, "t": ts.size * n_modes, "x.sin": 0, "t.sin": ts.size * n_modes}


def _fresh(monkeypatch, x, t, state, order=0):
    """psi_jet(x, t) with no kept table to read, so its trig is taken anew."""
    _drop_kept(monkeypatch)
    return psi_jet(x, t, state, order=order)


def _kept(angle: str):
    return wavefunction._kept_tables[angle]


@pytest.mark.parametrize("beta", [1.0, 0.1, 1e-3])
def test_repeated_times_reuse_the_kept_table(monkeypatch, beta):
    """A second call on the same scattered times takes no time trig and gives the same bits.

    So do the fields read one after another on one point set and a call
    with new x on the same t; a grid's t axis, one entry per row, is
    tabled anew on every call and leaves the kept table as it was.
    """
    taken = _count_trig(monkeypatch)
    state = QuantumState(1, beta)
    n_modes = cutoff_for(beta) + 1
    rng = np.random.default_rng(26)
    xs, ts = rng.uniform(0.0, 1.0, 300), rng.uniform(0.0, period(state), 300)
    other_x = rng.uniform(0.0, 1.0, 300)
    want = {order: _fresh(monkeypatch, xs, ts, state, order) for order in (0, 3)}
    want_other = _fresh(monkeypatch, other_x, ts, state)
    _drop_kept(monkeypatch)
    taken.update(t=0)
    psi_jet(xs, ts, state)
    assert taken["t"] == ts.size * n_modes
    for order in (0, 3, 0):
        taken.update(t=0)
        got = psi_jet(xs, ts, state, order=order)
        assert taken["t"] == 0 and np.array_equal(_bits(got), _bits(want[order])), order
    density(xs, ts, state), flux(xs, ts, state), density_derivatives(xs, ts, state)
    got = psi_jet(other_x, ts, state)
    assert taken["t"] == 0 and np.array_equal(_bits(got), _bits(want_other))
    kept = _kept("t")
    for _ in range(2):
        taken.update(t=0)
        psi_jet(xs[None, :], ts[:16, None], state)
        assert taken["t"] == 16 * n_modes and _kept("t") is kept


def test_times_changed_in_place_rebuild_the_table(monkeypatch):
    """The key is w = (pi/T_mu) t, psi_jet's own array: writing into the caller's t between calls forces a rebuild."""
    taken = _count_trig(monkeypatch)
    state = QuantumState(1, 0.1)
    rng = np.random.default_rng(4)
    xs, ts = rng.uniform(0.0, 1.0, 200), rng.uniform(0.0, period(state), 200)
    psi_jet(xs, ts, state)
    assert ts.flags.writeable  # the caller's array is not frozen
    ts[17] += 0.25 * period(state)
    ts[150] = np.nextafter(ts[150], 1.0)  # one bit
    taken.update(t=0)
    got = psi_jet(xs, ts, state)
    assert taken["t"] == ts.size * (cutoff_for(state.beta) + 1)
    assert np.array_equal(_bits(got), _bits(_fresh(monkeypatch, xs, ts, state)))


def test_positions_changed_in_place_rebuild_the_table(monkeypatch):
    """The key is u = pi (2 mu x/l + 1), psi_jet's own array: writing into the caller's x between calls forces a rebuild."""
    taken = _count_trig(monkeypatch)
    state = QuantumState(1, 0.1)
    rng = np.random.default_rng(5)
    xs, ts = rng.uniform(0.0, 1.0, 200), rng.uniform(0.0, period(state), 200)
    psi_jet(xs, ts, state, order=1)
    assert xs.flags.writeable  # the caller's array is not frozen
    xs[17] = 0.5 * (xs[17] + 1.0)
    xs[150] = np.nextafter(xs[150], 1.0)  # one bit
    _reset(taken)
    got = psi_jet(xs, ts, state, order=1)
    assert taken["x"] == taken["x.sin"] == xs.size * (cutoff_for(state.beta) + 1)
    assert np.array_equal(_bits(got), _bits(_fresh(monkeypatch, xs, ts, state, 1)))


@pytest.mark.parametrize("beta", [1.0, 0.1, 1e-3])
def test_fields_on_one_point_set_share_the_kept_x_table(monkeypatch, beta):
    """After ``density``, flux, density derivatives, kinetic energy density and an order-5 jet on its points take no trig.

    The first call, of order 0, builds and keeps the cos and the sin of
    (u/2) m, which every later call reads, whatever its order.  Every
    result keeps its fresh-call bits.
    """
    taken = _count_trig(monkeypatch)
    state = QuantumState(1, beta)
    pairs = 300 * (cutoff_for(beta) + 1)
    rng = np.random.default_rng(28)
    xs, ts = rng.uniform(0.0, 1.0, 300), rng.uniform(0.0, period(state), 300)
    fields = [
        ("density", density),
        ("flux", flux),
        ("derivatives", lambda *a: np.array(density_derivatives(*a))),
        ("kinetic", kinetic_energy_density),
        ("jet5", lambda *a: psi_jet(*a, order=5)),
        ("density", density),
    ]
    want = {}
    for name, fn in fields:
        _drop_kept(monkeypatch)
        want[name] = fn(xs, ts, state)
    _drop_kept(monkeypatch)
    for i, (name, fn) in enumerate(fields):
        _reset(taken)
        got = fn(xs, ts, state)
        assert np.array_equal(_bits(got), _bits(want[name])), name
        want_pairs = pairs if i == 0 else 0
        assert taken == dict.fromkeys(("x", "t", "x.sin", "t.sin"), want_pairs), name
    assert _kept("x")[2].shape == (2, cutoff_for(beta) + 1, 300)


def test_signed_zero_times_are_told_apart(monkeypatch):
    """t = -0.0 after t = 0.0 (equal as floats) reads its own table: the results differ in signed-zero bits."""
    state = QuantumState(1, 1.0)
    xs = np.linspace(0.0, 1.0, 41)
    plus, minus = np.zeros(xs.size), np.full(xs.size, -0.0)
    want_plus, want_minus = (_fresh(monkeypatch, xs, t, state, 3) for t in (plus, minus))
    assert not np.array_equal(_bits(want_plus), _bits(want_minus))  # the case has signed zeros to lose
    assert np.array_equal(want_plus, want_minus)  # ... and nothing else
    for t, want in ((plus, want_plus), (minus, want_minus), (plus, want_plus)):
        assert np.array_equal(_bits(psi_jet(xs, t, state, order=3)), _bits(want))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_are_never_kept(bad):
    """A t with a non-finite entry is not kept, so each call warns again; the kept table stays as it was."""
    state = QuantumState(1, 0.1)
    xs = np.linspace(0.1, 0.9, 8)
    ts = np.linspace(0.0, 0.1, 8)
    psi_jet(xs, ts, state)
    kept = _kept("t")
    bad_ts = ts.copy()
    bad_ts[3] = bad
    for _ in range(2):
        got, caught = _recorded(psi_jet, xs, bad_ts, state)
        assert np.isnan(got[0, 3]) and np.array_equal(_bits(np.delete(got, 3, 1)), _bits(np.delete(psi_jet(xs, ts, state), 3, 1)))
        assert len(caught) == (2 if math.isinf(bad) else 0)  # cos and sin of an infinite angle
        assert _kept("t") is kept


def test_another_state_rebuilds_the_table(monkeypatch):
    """Another state's mode rows are another key: the same x and t give that state's own tables."""
    taken = _count_trig(monkeypatch)
    rng = np.random.default_rng(8)
    xs, ts = rng.uniform(0.0, 1.0, 100), rng.uniform(0.0, 0.1, 100)
    first, second = QuantumState(1, 0.1), QuantumState(1, 0.05)
    psi_jet(xs, ts, first, order=1)
    for state in (second, first):
        want = _fresh(monkeypatch, xs, ts, state, 1)
        psi_jet(xs, ts, second if state is first else first, order=1)
        _reset(taken)
        got = psi_jet(xs, ts, state, order=1)
        pairs = ts.size * (cutoff_for(state.beta) + 1)
        assert taken == {"x": pairs, "t": pairs, "x.sin": pairs, "t.sin": pairs}
        assert np.array_equal(_bits(got), _bits(want))


def test_another_systems_row_rebuilds_the_x_table(monkeypatch):
    """Equal u bits from another system's record are another key: the x table is built anew.

    With l, x and t scaled by 2, 2 and 4, u and w keep their bits and so
    does order 0 of the jet, from m/2 rows of the same values; the key is
    the row's identity, so a table stays with the record it was built for.
    """
    taken = _count_trig(monkeypatch)
    state, wide = QuantumState(1, 0.1), SystemParams(l=2.0)
    rng = np.random.default_rng(7)
    xs, ts = rng.uniform(0.0, 1.0, 100), rng.uniform(0.0, period(state), 100)
    want = psi_jet(xs, ts, state)
    row = _kept("x")[0]
    _reset(taken)
    got = psi_jet(2.0 * xs, 4.0 * ts, state, wide)
    assert np.array_equal(_bits(got), _bits(want))
    assert _kept("x")[0] is not row and np.array_equal(_kept("x")[0], row)
    assert taken["x"] == xs.size * (cutoff_for(state.beta) + 1)


def test_kept_table_is_read_only(monkeypatch):
    """The kept mode rows, u, w and tables cannot be written, so a caller cannot corrupt a later call; each table holds cos and sin at every order."""
    state = QuantumState(1, 0.1)
    for order in (0, 1):
        _fresh(monkeypatch, np.linspace(0.0, 1.0, 5), np.linspace(0.0, 0.1, 5), state, order)
        for angle in ("x", "t"):
            row, phases, table = _kept(angle)
            assert table.shape == (2, row.size, 5) and phases.shape == (5,), (order, angle)
            for arr in (row, phases, table):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[(0,) * arr.ndim] = 1.0


@pytest.mark.parametrize("order", [0, 3])
def test_times_above_the_cap_keep_per_block_trig(monkeypatch, order):
    """One x and one t per point beyond ``_TIME_TABLE_BYTES``: trig per block, nothing kept, the same bits."""
    state = QuantumState(1, 1e-3)
    n_modes = cutoff_for(state.beta) + 1
    rng = np.random.default_rng(9)
    xs, ts = rng.uniform(0.0, 1.0, 900), rng.uniform(0.0, period(state), 900)
    want = _fresh(monkeypatch, xs, ts, state, order)
    assert 16 * n_modes * ts.size <= wavefunction._TIME_TABLE_BYTES
    monkeypatch.setattr(wavefunction, "_TIME_TABLE_BYTES", 16 * n_modes * (ts.size - 1))
    real, sizes = wavefunction._trig, {"x": [], "t": []}

    def counted(phases, factor, sin=True, out=None):
        sizes["x" if factor[0] > 0.0 else "t"].append(np.size(phases))
        return real(phases, factor, sin, out)

    monkeypatch.setattr(wavefunction, "_trig", counted)
    for _ in range(2):
        sizes.update(x=[], t=[])
        got = _fresh(monkeypatch, xs, ts, state, order)
        assert np.array_equal(_bits(got), _bits(want))
        assert _kept("x") is None and _kept("t") is None
        block = wavefunction._JET_BUDGET // (2 * (order + 1) * n_modes)  # the jet's own blocks, no whole table
        for angle, taken in sizes.items():
            assert sum(taken) == ts.size and max(taken) <= block < ts.size, (angle, taken)


def test_a_new_point_set_never_holds_two_tables_of_one_angle():
    """A kept table is dropped before its replacement is built: density on new points peaks below one table.

    After the four beta-ladder fields on one 32,768-point set at beta = 1,
    both kept tables hold 2 MiB each.  A ``density`` on a second set of the
    same size builds a new x table and time table (2 MiB each), each after
    dropping the old one, so the traced memory never rises by a whole table
    above what it was before the call.
    """
    state = QuantumState(1, 1.0)
    rng = np.random.default_rng(28)
    first, second = (
        (rng.uniform(0.0, 1.0, 32768), rng.uniform(0.0, period(state), 32768)) for _ in range(2)
    )
    table = 16 * (cutoff_for(state.beta) + 1) * 32768
    assert table == 2 << 20 and table <= wavefunction._TIME_TABLE_BYTES
    tracemalloc.start()
    try:
        density(*first, state), flux(*first, state), density_derivatives(*first, state)
        kinetic_energy_density(*first, state)
        assert _kept("x")[2].nbytes == _kept("t")[2].nbytes == table
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        density(*second, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < table, (peak - before) / 2**20


def test_threads_sharing_the_kept_table_get_their_own_bits():
    """Threads calling psi_jet on different points at once each get their own call's bits.

    Each thread takes order 0 and then order 1 on its points, reading or
    building the x table while other threads replace it.  A reader takes a
    kept entry in one read, and a writer replaces it in one assignment; a
    short switch interval interleaves the threads often.
    """
    state = QuantumState(1, 0.1)
    rng = np.random.default_rng(12)
    cases = [(rng.uniform(0.0, 1.0, 64), rng.uniform(0.0, period(state), 64)) for _ in range(4)]
    wants = [[psi_jet(x, t, state, order=k) for k in (0, 1)] for x, t in cases]
    failures = []

    def work(i):
        x, t = cases[i]
        for _ in range(60):
            for k in (0, 1):
                if not np.array_equal(_bits(psi_jet(x, t, state, order=k)), _bits(wants[i][k])):
                    failures.append((i, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i % len(cases),)) for i in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert failures == []


def _shared_arrays(value):
    """Every numpy array inside ``value``, through tuples, lists and dataclass-like records."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _shared_arrays(item)
    elif hasattr(value, "__dict__"):
        yield from _shared_arrays(list(vars(value).values()))


def test_threads_filling_one_cold_record_get_the_serial_bits():
    """Six threads calling psi and density on one cold state get the serial bits; shared arrays stay read-only.

    The state's record builds its parts on first read, and a second thread
    may build a part again (``functools.cached_property`` takes no lock from
    Python 3.12 on): either build is whole and has the same bits.  A short
    switch interval interleaves the builds often.
    """
    state = QuantumState(2, 0.05)
    rng = np.random.default_rng(27)
    xs, ts = rng.uniform(0.0, 1.0, 48), rng.uniform(0.0, period(state), 48)
    points = list(zip(xs[:6].tolist(), ts[:6].tolist()))

    def evaluate():
        return [psi(x, t, state) for x, t in points], psi(xs, ts, state), density(xs, ts, state)

    def cold():
        wavefunction._state_constants.cache_clear()
        wavefunction.mode_table.cache_clear()

    cold()
    wants = [_bits(v) for v in evaluate()]
    failures = []
    barrier = threading.Barrier(6)

    def work():
        barrier.wait()
        for _ in range(5):
            if not all(np.array_equal(_bits(v), want) for v, want in zip(evaluate(), wants)):
                failures.append(threading.get_ident())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            cold()
            threads = [threading.Thread(target=work) for _ in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
            assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    record = wavefunction._state_constants(state, NATURAL_UNITS, DEFAULT_TRUNCATION)
    shared = [record, wavefunction.mode_table(state.beta / 2.0), _kept("x"), _kept("t")]
    arrays = list(_shared_arrays(shared))
    assert len(arrays) >= 11 and not any(arr.flags.writeable for arr in arrays)


@pytest.mark.parametrize("beta", [0.1, 1e-3, 1e-5])
@pytest.mark.parametrize("order", [0, 3, 5])
def test_call_beyond_budget_equals_unsplit_bits(monkeypatch, beta, order):
    """A call split into blocks, and into runs of modes, equals the same call in one piece bit for bit.

    Both grid orientations and scattered points; the unsplit call has a
    budget large enough to hold every term at once.
    """
    state = QuantumState(2, beta)
    n_modes = cutoff_for(beta) + 1
    rng = np.random.default_rng(order)
    n_x = 3 * wavefunction._JET_BUDGET // (2 * (order + 1) * n_modes * 16) + 5  # a few blocks of 16 rows of t
    xs = np.linspace(0.0, 1.0, n_x)
    ts = np.linspace(0.0, 1.3, 16) * period(state)
    sx, st = rng.uniform(0.0, 1.0, 4 * n_x), rng.uniform(0.0, 2.0, 4 * n_x) * period(state)
    cases = [(xs[None, :], ts[:, None]), (xs[:, None], ts[None, :]), (sx, st)]
    split = [psi_jet(x, t, state, order=order) for x, t in cases]
    assert 2 * (order + 1) * n_modes * xs.size * ts.size > wavefunction._JET_BUDGET
    monkeypatch.setattr(wavefunction, "_JET_BUDGET", 1 << 40)
    for (x, t), got in zip(cases, split):
        assert np.array_equal(_bits(got), _bits(psi_jet(x, t, state, order=order)))


@pytest.mark.parametrize("beta", [1.0, 0.1, 7.3e-3, 7e-3, 1e-4, 2.1e-5])
def test_scalar_0d_and_one_element_calls_equal_grid_point(beta):
    """Float, 0-d and shape-(1,) calls equal the same point inside a grid, bit for bit.

    The grid spans both walls, t = 0, a negative and a late time, where the
    sums carry signed zeros and large angles.  At beta = 7.3e-3 and 7e-3
    K + 1 is 38 and 39, on either side of ``_FLOAT_LOOP_MODES``, so a
    float psi call takes the Python-float loop at the first and the array
    route at the second.  At beta = 1e-4 and 2.1e-5 (the largest K of
    psi's jet route) K + 1 exceeds ``_SUM_STRIDE``, so one point's sum
    takes the run order.
    """
    state = QuantumState(3, beta)
    assert (cutoff_for(beta) + 1 <= wavefunction._FLOAT_LOOP_MODES) == (beta >= 7.3e-3)
    assert (cutoff_for(beta) + 1 > wavefunction._SUM_STRIDE) == (beta <= 1e-4)
    assert beta > wavefunction._THETA1_MAX_BETA  # psi on the jet
    xs = np.array(X_FRACS)
    ts = np.array((*T_FRACS, -0.3, 100.37)) * period(state)
    grid = {k: psi_jet(xs[:, None], ts[None, :], state, order=k) for k in range(6)}
    grid["psi"] = psi(xs[:, None], ts[None, :], state)
    grid["density"] = density(xs[:, None], ts[None, :], state)
    for i, j in np.ndindex(xs.size, ts.size):
        for x, t in ((float(xs[i]), float(ts[j])), (np.array(xs[i]), np.array(ts[j])), (xs[i : i + 1], ts[j : j + 1])):
            for name, want in grid.items():
                if name == "psi":
                    got = psi(x, t, state)
                elif name == "density":
                    got = density(x, t, state)
                else:
                    got = psi_jet(x, t, state, order=name)
                assert np.array_equal(_bits(np.reshape(got, -1)), _bits(np.ravel(want[..., i, j]))), (name, i, j, np.shape(x))


def _recorded(fn, *args):
    """fn(*args) and the (category, message) of every warning it raised, each recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn(*args)
    return value, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("beta", [1.0, 2.1e-5, 1e-6])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_float_route_equals_array_route_at_nonfinite_t(beta, t):
    """At t = NaN or +-inf float calls of psi and psi_jet give the array calls' bits and warnings.

    Both take the same libm calls on the same angles, so a non-finite time
    gives the same NaNs and the same "invalid value" warnings (errors under
    the test run's warning filter) as a one-element array, and the same
    kinds of warning as a grid, which warns once per run of modes it splits
    into at large K; beta = 1e-6 puts psi on its theta1 route.  A point
    outside the well, or at x = NaN, still raises on either route.
    """
    state = QuantumState(2, beta)
    for fn, extra in [(psi, ()), (psi_jet, (0,)), (psi_jet, (3,))]:

        def call(x, tt):
            return fn(x, tt, state, NATURAL_UNITS, DEFAULT_TRUNCATION, *extra)

        got, got_warnings = _recorded(call, 0.37, t)
        one, one_warnings = _recorded(call, np.array([0.37]), np.array([t]))
        grid, grid_warnings = _recorded(call, np.array([0.37, 0.5]), np.array([t, t]))
        assert np.array_equal(_bits(np.reshape(got, -1)), _bits(np.reshape(one, -1))), fn.__name__
        assert np.array_equal(_bits(np.reshape(got, -1)), _bits(grid[..., 0])), fn.__name__
        assert got_warnings == one_warnings and set(got_warnings) == set(grid_warnings), fn.__name__
        on_theta1 = fn is psi and beta <= wavefunction._THETA1_MAX_BETA  # theta1 returns NaN for a non-finite tau
        assert len(got_warnings) == (2 if math.isinf(t) and not on_theta1 else 0), fn.__name__
        for bad_x in (math.nan, -0.1, 1.1):
            with pytest.raises(ValueError, match="outside the well"):
                call(bad_x, t)
            with pytest.raises(ValueError, match="outside the well"):
                call(np.array([bad_x, 0.5]), np.array([t, t]))


@pytest.mark.parametrize("beta", [1.0, 7.3e-3, 1e-3])
def test_float_loop_overflowing_angle_takes_the_array_route(beta):
    """A finite t whose angles (w/4) m^2 overflow gives a float psi the one-element call's bits and warnings.

    math.cos raises on the infinite angle where np.cos warns and returns
    NaN, so the float loop hands such a point to the array route.  Where
    w = (pi/T_mu) t itself overflows (t = +-1.7e308), the float call takes
    a 0-d call, whose multiply warns "overflow" as the array call's does;
    beta = 1e-3 is past the float loop, on the point route's arrays.
    """
    state = QuantumState(1, beta)
    for t in (1e306, -1e306, 5e306, 1.7e308, -1.7e308):
        got, got_warnings = _recorded(psi, 0.37, t, state)
        one, one_warnings = _recorded(psi, np.array([0.37]), np.array([t]), state)
        assert np.array_equal(_bits(got), _bits(one)), t
        assert got_warnings == one_warnings and got_warnings, t


def test_math_trig_equals_numpy_trig_bits():
    """``math.cos``/``math.sin`` equal ``np.cos``/``np.sin`` on float64 bit for bit, on psi's angles.

    Scalar psi's Python-float loop (up to ``_FLOAT_LOOP_MODES`` modes)
    equals its array route and every grid only because numpy's float64 cos
    and sin are libm's: a numpy whose trig rounds differently (its own SIMD
    kernels, say) fails here before any grid-equals-points test does.
    The angles are psi's own products (u/2) m and -(w/4) m^2, taken as
    arrays of modes the way the array route takes them, at late times too.
    """
    rng = np.random.default_rng(25)
    m = np.arange(1, 2 * 101 + 2, 2, dtype=float)
    half_m, quarter_m2 = m / 2.0, m * m / -4.0
    u = math.pi * (2.0 * rng.integers(1, 6, 50) * rng.uniform(0.0, 1.0, 50) + 1.0)
    w = (math.pi / period(QuantumState(1, 0.1))) * np.concatenate(
        [rng.uniform(-2.0, 2.0, 50), rng.uniform(-1e4, 1e4, 50), rng.uniform(0.0, 1e9, 20)]
    )
    for angles in [*(p * half_m for p in u), *(p * quarter_m2 for p in w)]:
        for np_fn, math_fn in ((np.cos, math.cos), (np.sin, math.sin)):
            want = np.array([math_fn(a) for a in angles.tolist()])
            mismatch = np.flatnonzero(_bits(np_fn(angles)) != _bits(want))
            assert mismatch.size == 0, (
                f"np.{np_fn.__name__} is not libm's {math_fn.__name__} at angles {angles[mismatch[:3]].tolist()}: "
                "scalar psi's float loop no longer equals its array route bit for bit"
            )


@pytest.mark.parametrize("points", [2, 3, 100])
def test_numpy_reduce_adds_rows_in_order(points):
    """``np.add.reduce`` over axis 0 of a C-contiguous (K + 1, P) array, P >= 2, adds row after row.

    psi_jet's mode sums (``wavefunction._mode_sum``) rest on this, and on
    a single point's sum following the same order: a numpy that reorders
    these adds fails here before any grid-equals-points test does.
    """
    rng = np.random.default_rng(points)
    for n_modes in (7, 11, 102, 1014):
        terms = rng.standard_normal((n_modes, points)) * 10.0 ** rng.integers(-8, 9, (n_modes, points))
        terms[:, 0] = -0.0  # a column of signed zeros keeps its sign
        rows = np.full(points, -0.0)
        for row in terms:
            rows = rows + row
        assert np.array_equal(_bits(np.add.reduce(terms, axis=0, initial=-0.0)), _bits(rows)), n_modes
        want = mode_order_sum(terms.T, wavefunction._SUM_STRIDE)
        if n_modes <= wavefunction._SUM_STRIDE:
            assert np.array_equal(_bits(want), _bits(rows))
        assert np.array_equal(_bits(wavefunction._mode_sum([terms[None, None]])[0, 0]), _bits(want))
        for j in range(points):  # P = 1: one point's terms alone
            one = wavefunction._mode_sum([np.ascontiguousarray(terms[None, None, :, j])])
            assert np.array_equal(_bits(one[0, 0]), _bits(want[j])), (n_modes, j)
