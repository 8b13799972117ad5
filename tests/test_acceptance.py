"""Acceptance gate: every proved identity, limit, and law, at its stated tolerance.

One criterion per test, each printing a single PASS/FAIL line (run with -s to
stream them; failures repeat the line in the assertion message).  Criteria 1-13
delegate to the verification registry, whose checks were built on exactly the
grids and tolerances stated here.  Criterion 14 is split out because it states
its three qualitative clauses on grids of its own.  Its middle clause is the
comb phenomenon: as beta drops, the central-window mass of the initial (t=0)
density rises while that of the period-averaged density falls.  The
concentration belongs to the initial density, not to the period average: the
average is a convex combination of mode densities (2/l) sin^2(kappa x), each
bounded by 2/l, so it is bounded by 2/l for every beta and its window mass
tends to the flat-mixture value 1/5.
"""

import dataclasses
import inspect
import math
import re
import sys
import time
import tracemalloc

import numpy as np

from thetawell import cli, phase_space, series, thermo, verification, wavefunction
from thetawell.density import averaged_density, density, period
from thetawell.numerics import cutoff_for
from thetawell.phase_space import moments, velocity_field
from thetawell.verification import comb_window_masses, run_check
from thetawell.wavefunction import QuantumState, SystemParams

import pytest


def _line(num: int, name: str, ok: bool, detail: str) -> str:
    text = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(text)
    return text


DELEGATED = [
    (1, "normalization"),
    (2, "schrodinger-residual"),
    (3, "density-identity"),
    (4, "stationary-limit"),
    (5, "time-average"),
    (6, "wigner-marginal"),
    (7, "comb-transport"),
    (8, "velocity-two-path"),
    (9, "continuity"),
    (10, "momentum-law"),
    (12, "gibbs-layer"),
    (13, "entropy"),
]


@pytest.mark.parametrize("num,name", DELEGATED, ids=[n for _, n in DELEGATED])
def test_criterion(num, name):
    r = run_check(name)
    text = _line(num, name, r.passed, f"measured={r.measured:.3e} tolerance={r.tolerance:.1e}")
    assert r.passed, text + "\n" + r.detail


def test_momentum_law_holds_away_from_unit_mass():
    """The Madelung sub-check compares dP11/dx with f dQ/dx in any units, so m != 1 passes too."""
    r = run_check("momentum-law", QuantumState(2, 0.1), SystemParams(m=2.0, l=3.0, hbar=0.5))
    assert r.passed and r.measured < 1e-10, r.detail


def test_criterion_11_energy_law_within_budget():
    started = time.perf_counter()
    r = run_check("energy-law")
    elapsed = time.perf_counter() - started
    ok = r.passed and elapsed < 60.0
    text = _line(
        11,
        "energy-law",
        ok,
        f"measured={r.measured:.3e} tolerance={r.tolerance:.1e} runtime={elapsed:.1f}s",
    )
    assert ok, text + "\n" + r.detail


def test_criterion_14_qualitative_phenomena():
    state = QuantumState(mu=1, beta=0.1)
    t_mu = period(state)

    energy_min = min(
        moments(float(x), float(t), state).energy_density.value
        for x in np.linspace(0.05, 0.95, 13)
        for t in np.linspace(0.0, t_mu, 9)
    )
    negative_ok = energy_min < 0.0

    anti_worst = 0.0
    for x in np.linspace(0.1, 0.9, 9):
        for tau in np.linspace(0.05 * t_mu, 0.45 * t_mu, 4):
            a = velocity_field(float(x), 0.5 * t_mu + float(tau), state)
            b = velocity_field(float(x), 0.5 * t_mu - float(tau), state)
            if a.is_finite and b.is_finite:
                anti_worst = max(anti_worst, abs(a.value + b.value))
    antisym_ok = anti_worst < 1e-9

    # comb phenomenon: as beta decreases the initial density concentrates at
    # the domain center while its period average spreads toward flat
    initial_masses, averaged_masses = comb_window_masses()
    rising_ok = initial_masses[0] < initial_masses[1] < initial_masses[2]
    falling_ok = averaged_masses[0] > averaged_masses[1] > averaged_masses[2]
    trend_ok = rising_ok and falling_ok

    ok = negative_ok and trend_ok and antisym_ok
    text = _line(
        14,
        "phenomena",
        ok,
        f"negative-energy {'PASS' if negative_ok else 'FAIL'} (min={energy_min:.2f}); "
        f"comb trend {'PASS' if trend_ok else 'FAIL'} "
        f"(window masses at beta=0.1,0.05,0.02: initial rising "
        f"{initial_masses[0]:.3f}, {initial_masses[1]:.3f}, {initial_masses[2]:.3f}; "
        f"averaged falling "
        f"{averaged_masses[0]:.3f}, {averaged_masses[1]:.3f}, {averaged_masses[2]:.3f}); "
        f"half-period antisymmetry {'PASS' if antisym_ok else 'FAIL'} (worst={anti_worst:.2e})",
    )
    assert ok, (
        text
        + "\nThe initial density concentrates into a central spike as beta decreases,"
        " so its window mass must rise toward 1.  The period-averaged density is a"
        " convex combination of mode densities (2/l)sin^2(kappa x), each bounded by"
        " 2/l, so it is itself bounded by 2/l everywhere and its central-window mass"
        " must fall toward the flat-mixture value 0.2 as beta decreases."
    )


def test_initial_density_comb_concentration():
    # the attainable form of the comb phenomenon: the t=0 density does
    # concentrate at the domain center as beta decreases, while its period
    # average stays bounded by 2/l and cannot
    initial_masses, averaged_masses = comb_window_masses()
    assert initial_masses[0] < initial_masses[1] < initial_masses[2]
    assert initial_masses[2] > 0.95
    state_grid = np.linspace(0.01, 0.99, 99)
    for beta in (0.1, 0.05, 0.02):
        state = QuantumState(mu=1, beta=beta)
        sup = max(averaged_density(float(x), state) for x in state_grid)
        assert sup <= 2.0 + 1e-9


ROW_ORACLE_CHECKS = [
    "density-identity",
    "continuity",
    "momentum-law",
    "energy-law",
    "wigner-marginal",
    "velocity-two-path",
]


@pytest.mark.parametrize("name", ROW_ORACLE_CHECKS)
def test_folded_oracle_is_live(name, monkeypatch):
    """Rows of the shared comb kernel off by 1 + 1e-4 must fail each check that uses them.

    Every comb oracle reads ``comb_rows``, of order 0 or 1, so one mutant
    reaches all of them; the fields come from the psi jet, so the
    scaled rows no longer cancel against the other side.  Only the rows of
    s > 0 are scaled: a uniform factor would cancel in velocity-two-path's
    ratio of the first momentum sum to the zeroth.  1e-4 clears the Madelung
    sub-check's 1e-6.
    """
    assert run_check(name).passed
    real = series._rows

    def scaled(*args):
        rows = real(*args)
        rows[1:, 0] *= 1.0 + 1e-4
        return rows

    monkeypatch.setattr(series, "_rows", scaled)
    r = run_check(name)
    assert not r.passed, r.detail


def test_comb_transport_sees_a_reversed_time_angle(monkeypatch):
    """Rows carried the wrong way in time (w -> -w) fail comb-transport, not wigner-marginal.

    Reversing w maps row s onto row -s, so the sum over atoms, and with it
    the marginal, is unchanged; only the transport of each atom sees it.
    """
    real = series._phase_coords

    def reversed_time(*args):
        u, w, shape = real(*args)
        return u, -w, shape

    monkeypatch.setattr(series, "_phase_coords", reversed_time)
    assert not run_check("comb-transport").passed
    assert run_check("wigner-marginal").passed


def test_comb_transport_sees_a_wrong_momentum_unit(monkeypatch):
    """Atoms whose momenta are off by 1 + 1e-6 are carried to the wrong place."""
    real = phase_space.derived_scales

    def skewed(*args):
        scales = real(*args)
        return dataclasses.replace(scales, P_unit=scales.P_unit * (1.0 + 1e-6))

    monkeypatch.setattr(phase_space, "derived_scales", skewed)
    r = run_check("comb-transport")
    assert not r.passed and r.measured > 1e-7, r.measured


def test_theta_form_is_live(monkeypatch):
    """Z off by 1 + 1e-10 fails gibbs-layer through its theta-form sub-check.

    The theta form is the Poisson dual of the mode sum over beta 0.05..2, so
    a scaled ``partition`` no longer matches it; before the dual both routes
    summed the same terms and the sub-check read exactly 0.
    """
    assert run_check("gibbs-layer").passed
    real = thermo.partition
    monkeypatch.setattr(verification, "partition", lambda *args: real(*args) * (1.0 + 1e-10))
    r = run_check("gibbs-layer")
    assert not r.passed
    theta_form = float(re.search(r"theta-form (\S+)", r.detail).group(1))
    assert theta_form > 1e-12, r.detail


def test_every_check_passes_inside_its_deciding_bound():
    results = verification.run_all_checks()
    assert [r.name for r in results] == list(verification.CHECK_NAMES)
    for r in results:
        assert r.passed and r.measured < r.tolerance, (r.name, r.measured, r.tolerance, r.detail)


def test_every_check_function_is_registered():
    """A ``_check_*`` written but left out of the registry would silently never run."""
    defined = {f for name, f in vars(verification).items() if name.startswith("_check_") and inspect.isfunction(f)}
    assert defined == set(verification._CHECKS.values())
    assert len(verification.CHECK_NAMES) == 14


def test_a_nan_sub_check_decides_and_fails():
    r = verification._verdict("probe", [("near", 0.9, 1.0), ("nan", math.nan, 1e-12), ("inf", math.inf, 1.0)])
    assert not r.passed and math.isnan(r.measured) and r.tolerance == 1e-12
    assert r.detail == "near 9.000e-01 (<1e+0); nan nan (<1e-12); inf inf (<1e+0)"


@pytest.mark.parametrize(
    "check,name,mutant,bound",
    [
        # Z*l - N reads ~1e-11 against its 1e-12, far inside the other bounds
        ("gibbs-layer", "norm_constant", lambda real: lambda *args: real(*args) * (1.0 + 1e-11), 1e-12),
        # the two entropy forms part by 1e-9 against their 1e-10
        ("entropy", "entropy_from_factor", lambda real: lambda *args: real(*args) + 1e-9, 1e-10),
    ],
    ids=["gibbs-layer", "entropy"],
)
def test_summary_pair_is_the_failing_sub_check(check, name, mutant, bound, monkeypatch):
    """A check failing one tight sub-check reports that sub-check's figure and bound."""
    monkeypatch.setattr(verification, name, mutant(getattr(verification, name)))
    r = run_check(check)
    assert not r.passed
    assert r.tolerance == bound and r.measured >= r.tolerance, (r.measured, r.tolerance, r.detail)


def test_failing_witness_names_itself(monkeypatch):
    """Period-averaged masses in the wrong order fail phenomena, and the detail says which witness."""
    real = verification.comb_window_masses

    def rising_average(*args):
        initial, averaged = real(*args)
        return initial, averaged[::-1]

    monkeypatch.setattr(verification, "comb_window_masses", rising_average)
    r = run_check("phenomena")
    assert not r.passed and r.measured < r.tolerance
    assert "period-averaged mass falling toward uniform False" in r.detail, r.detail


def _replace_everywhere(monkeypatch, name: str, replacement, home=phase_space) -> None:
    """Bind ``replacement`` in every thetawell module that binds ``home``'s ``name``."""
    real = getattr(home, name)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("thetawell") and (
            getattr(module, name, None) is real
        ):
            monkeypatch.setattr(module, name, replacement)


def _scaled_form(name: str):
    real = getattr(phase_space, name)
    return lambda j, system: real(j, system) * (1.0 + 1e-8)


def _scaled_moment(field: str):
    real = phase_space.moments

    def mutated(*args, **kwargs):
        ms = real(*args, **kwargs)
        return dataclasses.replace(ms, **{field: getattr(ms, field) * (1.0 + 1e-8)})

    return mutated


@pytest.mark.parametrize(
    "name,mutant,check",
    [
        ("_flux_form", _scaled_form("_flux_form"), "momentum-law"),
        ("_m2_form", _scaled_form("_m2_form"), "energy-law"),
        ("_m3_form", _scaled_form("_m3_form"), "energy-law"),
        ("moments", _scaled_moment("pressure"), "energy-law"),
        ("moments", _scaled_moment("heat_flux"), "energy-law"),
    ],
    ids=["flux", "m2", "m3", "pressure", "heat-flux"],
)
def test_moment_laws_are_live(name, mutant, check, monkeypatch):
    """A moment or central moment off by 1 + 1e-8 must fail its conservation-law check.

    Both sides of each law are analytic, so the bounds (1e-10 for the laws,
    1e-12 for the brackets) sit far below a 1e-8 error.  Each check first
    passes unmutated.
    """
    assert run_check(check).passed
    _replace_everywhere(monkeypatch, name, mutant)
    r = run_check(check)
    assert not r.passed, r.detail


def _count_calls(monkeypatch, module, name) -> list:
    """Replace ``module.name`` by a wrapper that records each call's arguments."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


LAW_GRID = (21, 11)


@pytest.mark.parametrize(
    "check,module,field,grids",
    [
        # 3 levels x 4 widths: psi once on the 1,025 nodes, the 5 times as rows
        ("normalization", verification, "psi", [(5, 1025)] * 12),
        ("schrodinger-residual", verification, "schrodinger_residual", [(50,)]),
        # the marginal sums the weights of comb_atoms, which reads the rows
        ("wigner-marginal", phase_space, "comb_rows", [(11, 51)]),
        ("wigner-marginal", verification, "density", [(11, 51)]),
        # the 20 points, then for s = -3..3 the points shifted back to t = 0,
        # each through comb_atoms, the atoms' one route
        ("comb-transport", phase_space, "comb_rows", [(20,), (7, 20)]),
        ("velocity-two-path", verification, "velocity_from_vlasov", [(21, 11)]),
        # the k = 1 law and its rate on the grid; the density and its
        # derivatives at the 20 Madelung points
        ("momentum-law", wavefunction, "_jet", [LAW_GRID] * 2 + [(20,)] * 2),
        # the k = 1 law, then the rows and their x-derivatives for the pressure gradient
        ("momentum-law", phase_space, "comb_rows", [LAW_GRID, (20,), (20,)]),
        # law and rate for k = 2 and 3, the moments, the raw moments
        ("energy-law", wavefunction, "_jet", [LAW_GRID] * 6),
        ("energy-law", phase_space, "comb_rows", [LAW_GRID] * 2),
    ],
    ids=[
        "normalization",
        "schrodinger",
        "marginal-comb",
        "marginal-density",
        "transport",
        "velocity",
        "momentum-jet",
        "momentum-series",
        "energy-jet",
        "energy-series",
    ],
)
def test_sampling_check_makes_one_call_per_grid(check, module, field, grids, monkeypatch):
    calls = _count_calls(monkeypatch, module, field)
    assert run_check(check).passed
    assert [np.broadcast_shapes(np.shape(args[0]), np.shape(args[1])) for args in calls] == grids
    if check == "comb-transport":
        assert calls[1][1] == 0.0


def test_double_avg_energy_makes_one_grid_call_per_state(monkeypatch):
    calls = _count_calls(monkeypatch, thermo, "kinetic_energy_density")
    for mu, beta in ((1, 0.5), (3, 0.5)):
        thermo.double_avg_energy(QuantumState(mu, beta))
    assert len(calls) == 2
    assert all(np.ndim(args[0]) == 2 for args in calls)


@pytest.mark.parametrize(
    "command,field",
    [("density", "density"), ("velocity", "velocity_field"), ("energy", "jet_forms"), ("wigner", "comb_rows")],
)
def test_cli_field_command_makes_one_grid_call(command, field, monkeypatch, capsys):
    # wigner reaches comb_rows through phase_space.comb_atoms, the atoms' one route
    calls = _count_calls(monkeypatch, phase_space if command == "wigner" else cli, field)
    assert cli.main([command, "--grid-x", "9", "--grid-t", "4"]) == 0
    table = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    per_point = 2 * (2 * cutoff_for(0.1) + 1) + 1 if command == "wigner" else 1  # atoms at the default beta
    assert len(table) == 1 + 9 * 4 * per_point  # header and the rows of every grid point
    assert len(calls) == 1
    assert np.broadcast_shapes(np.shape(calls[0][0]), np.shape(calls[0][1])) == (4, 9)


def test_wigner_comb_reads_its_cutoff_from_the_cached_table(monkeypatch):
    """101 wigner_comb calls at one state: at most one cutoff_for call and no table build."""
    state = QuantumState(3, 0.043)
    builds = series._cached_table.cache_info().misses
    phase_space.wigner_comb(0.5, 0.0, state)
    cutoffs = []

    def counted(*args):
        cutoffs.append(args)
        return cutoff_for(*args)

    _replace_everywhere(monkeypatch, "cutoff_for", counted, home=series)
    rng = np.random.default_rng(9)
    for x, t in rng.uniform(0.0, 1.0, size=(100, 2)).tolist():
        phase_space.wigner_comb(x, t, state)
    built = series._cached_table.cache_info().misses - builds
    assert len(cutoffs) <= 1 and built == 0, (len(cutoffs), built)


def _no_table(*args):
    raise AssertionError("a comb path built the term table")


def test_no_comb_path_builds_a_table(monkeypatch, capsys):
    """Every check, and every CLI command that reaches the comb or the jet, runs without the table."""
    monkeypatch.setattr(series, "_cached_table", _no_table)
    results = verification.run_all_checks()
    assert [r.name for r in results if not r.passed] == []
    for command in ("density", "velocity", "energy", "wigner"):
        assert cli.main([command]) == 0, command
        assert capsys.readouterr().out


def _clear_caches():
    """Empty every lru_cache of the package, so the next call is cold."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("thetawell"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.mark.parametrize(
    "call",
    [
        lambda state: series.comb_rows(0.37, 0.01, state),
        lambda state: phase_space.moment_law_residual(0.37, 0.01, 1, state),
    ],
    ids=["comb_rows", "moment_law_residual"],
)
def test_cold_comb_point_allocates_no_square_array(call):
    """A cold point at beta = 1e-5 (K = 1013) peaks below 8 MiB under tracemalloc.

    One (2K + 2)^2 float array there is 33 MB; the comb's weights are two
    vectors of 2K + 2 entries, and its work arrays grow with K times points.
    """
    state = QuantumState(1, 1e-5)
    _clear_caches()
    tracemalloc.start()
    try:
        call(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_scalar_psi_looks_up_its_state_once(monkeypatch):
    """Warm calls look the state's record up once each and rebuild nothing.

    100 float psi calls per state, on the float loop (beta = 0.037), the
    numpy point route (1e-3) and theta1 (1e-6), then psi_jet, density, flux
    and comb_rows on arrays and at a float point: each call makes one
    ``_state_constants`` lookup, none calls ``derived_scales`` or
    ``theta_dual``, and no mode table is built.
    """
    scales = []
    real_scales = wavefunction.derived_scales
    _replace_everywhere(monkeypatch, "derived_scales", lambda *a: scales.append(a) or real_scales(*a), home=wavefunction)
    duals = _count_calls(monkeypatch, wavefunction, "theta_dual")
    fields = [
        lambda x, t, state: wavefunction.psi_jet(x, t, state, order=1),
        density,
        phase_space.flux,
        series.comb_rows,
    ]
    rng = np.random.default_rng(5)
    xs, ts = rng.uniform(0.0, 1.0, size=(2, 8))
    for beta in (0.037, 1e-3, 1e-6):
        state = QuantumState(2, beta)
        wavefunction.psi(0.5, 0.0, state)
        for field in fields:
            field(xs, ts, state)
            field(0.25, 0.5, state)
        for calls in (scales, duals):
            calls.clear()
        builds = wavefunction.mode_table.cache_info().misses
        before = wavefunction._state_constants.cache_info()
        for x, t in rng.uniform(0.0, 1.0, size=(100, 2)).tolist():
            assert type(wavefunction.psi(x, t, state)) is complex
        for field in fields:
            field(xs, ts, state)
            field(0.25, 0.5, state)
        after = wavefunction._state_constants.cache_info()
        built = wavefunction.mode_table.cache_info().misses - builds
        assert (len(scales), len(duals), built) == (0, 0, 0), beta
        assert (after.hits + after.misses) - (before.hits + before.misses) == 100 + 2 * len(fields), beta