"""The three benchmark workloads and the independent routes that check them.

Each workload is a fixed job that ``run_pass`` performs once, as a list of
operations.  An operation's outcome is its return value or the exception it
raised.  Outside every timed region, ``settle`` turns outcomes into values
that can be compared (the CLI's output files are read there) and ``oracle``
checks the first pass against a second, independent computation, with the
tolerance the verification registry uses for that identity.  Later passes
must reproduce the first pass exactly, since every output of the package is
deterministic.

Workloads stress different layers (see README.md in this directory):

* ``verify-registry``: every registry check at the default state; scalar
  ``psi`` under Simpson quadrature, Chebyshev ``comb_rows`` and scalar
  phase-space calls at K = 10.
* ``cli-grids``: the six non-verify CLI commands at their README grids;
  per-point dispatch and CSV/JSON emission, no ``psi``.
* ``beta-ladder``: vectorized fields and O(K) quantities on seeded points at
  narrowing combs, with the point counts per rung chosen so that each rung
  costs about the same.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os

import numpy as np

import thetawell as tw
from thetawell import cli, verification
from thetawell.series import build_table, comb_rows
from thetawell.theta import ThetaArgs, theta_char
from thetawell.wavefunction import NATURAL_UNITS as UNITS
from thetawell.wavefunction import derived_scales, norm_constant

# registry tolerances for the identities the oracles test
TOL_DENSITY = 1e-10  # density-identity, wigner-marginal: |series - |psi|^2|
TOL_TWO_PATH = 1e-9  # velocity-two-path: direct series against comb route
TOL_AVERAGE = 1e-8  # time-average: averaged density against a second route
TOL_ENTROPY = 1e-10  # entropy: two-form agreement
TOL_DLNZ = 1e-6  # gibbs-layer: mean energy against -d ln Z / d beta_thermo


class NoTrace:
    """Stands in for a Tracer in untraced runs: spans cost one call."""

    rung: str | None = None

    def span(self, name: str):
        return contextlib.nullcontext()


def same(a, b) -> bool:
    """Exact equality of outcomes, arrays and NaNs included."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and bool(np.array_equal(a, b, equal_nan=True))
        )
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def _within(got: float, want: float, tol: float) -> bool:
    """|got - want| <= tol * max(1, |want|); NaN never passes."""
    return abs(got - want) <= tol * max(1.0, abs(want))


# -- independent routes ------------------------------------------------------


def psi_theta_route(x: float, t: float, state) -> complex:
    """psi from the generic characteristic theta series, not from ``psi``'s own sum."""
    tau = -(state.mu**2) * (2.0 * math.pi * UNITS.hbar / (UNITS.m * UNITS.l**2)) * t
    theta = theta_char(ThetaArgs(0.5, 0.5, state.mu * x / UNITS.l, tau + 1j * state.beta))
    return theta / math.sqrt(norm_constant(state))


def averaged_density_theta_route(x: float, state) -> float:
    """(1/l)(1 - theta[1/2,0](2 mu x/l, 2i beta) / theta[1/2,0](0, 2i beta))."""
    tau = 2j * state.beta
    th0 = theta_char(ThetaArgs(0.5, 0.0, 0.0, tau)).real
    thx = theta_char(ThetaArgs(0.5, 0.0, 2.0 * state.mu * x / UNITS.l, tau)).real
    return (1.0 - thx / th0) / UNITS.l


def psi_route_flow(x: float, t: float, state) -> tuple[float, float, float]:
    """(density, mean velocity, mean energy) from psi and its x-derivatives.

    f = |psi|^2, <v> = (hbar/m) Im(psi* psi') / f and
    <E> = (hbar^2/4m) (|psi'|^2 - Re(psi* psi'')) / f, summed here from the
    odd-harmonic series with a window wider than the package's cutoff.  Near
    the walls this route stays accurate where the comb route does not: at
    x = 62/63, t = T/30, beta = 0.1 the comb velocity is 1.5e-9 off a 40-digit
    reference, this route 3e-12.
    """
    k = tw.cutoff_for(state.beta) + 8
    m = np.arange(1, 2 * k + 2, 2, dtype=float)
    m = np.concatenate([m, -m])
    tau_re = -(state.mu**2) * (2.0 * math.pi * UNITS.hbar / (UNITS.m * UNITS.l**2)) * t
    z = state.mu * x / UNITS.l
    terms = np.exp(
        1j * math.pi * tau_re / 4.0 * m * m
        - math.pi * state.beta / 4.0 * (m * m - 1.0)
        + 1j * math.pi / 2.0 * (2.0 * z + 1.0) * m
    )
    kx = 1j * math.pi * state.mu / UNITS.l * m
    p0, p1, p2 = complex(terms.sum()), complex((terms * kx).sum()), complex((terms * kx * kx).sum())
    f = abs(p0) ** 2
    v = UNITS.hbar / UNITS.m * (p0.conjugate() * p1).imag / f
    e = UNITS.hbar**2 / (4.0 * UNITS.m) * (abs(p1) ** 2 - (p0.conjugate() * p2).real) / f
    norm = UNITS.l * float(np.sum(np.exp(-math.pi * state.beta / 2.0 * (m * m - 1.0))))
    return f / norm, v, e


def comb_route_moments(x: float, t: float, state) -> tuple[float, float]:
    """(flux, kinetic energy density) from the Chebyshev comb rows."""
    rows = comb_rows(x, t, state)
    scales = derived_scales(state)
    den = UNITS.l * rows.norm
    sig = rows.sigmas.astype(float)
    phi = (scales.P_unit / UNITS.m) * float(sig @ (rows.plus - rows.minus)) / den
    ke = scales.E_mu * float((sig * sig) @ (rows.plus + rows.minus)) / den
    return phi, ke


def mean_energy_dlnz_route(state) -> float:
    """-d ln Z / d beta_thermo by central differences of the theta-form Z."""
    gp = tw.gibbs_params(state)
    e_mu = derived_scales(state).E_mu
    h = 1e-5 * gp.beta_thermo

    def ln_z(bt: float) -> float:
        s = tw.QuantumState(state.mu, 2.0 * bt * e_mu / math.pi)
        return math.log(tw.partition_theta_form(tw.gibbs_params(s), s))

    return -(ln_z(gp.beta_thermo + h) - ln_z(gp.beta_thermo - h)) / (2.0 * h)


# -- verify-registry ---------------------------------------------------------


class VerifyRegistry:
    """Every registry check at the default state; one operation is one check.

    The registry's inputs are fixed, so the seed does not change this job.
    """

    name = "verify-registry"

    def __init__(self, seed: int, tracer, workdir: str) -> None:
        self.tracer = tracer

    def first_call(self) -> None:
        # the first check that runs at the workload's state: it builds that
        # state's term table, the lazy work every later check reuses
        verification.run_check("density-identity")

    def run_pass(self) -> list:
        out = []
        for name in verification.CHECK_NAMES:
            with self.tracer.span(f"verification.{name}"):
                try:
                    out.append((name, verification.run_check(name)))
                except Exception as exc:  # a raising check is a failed operation
                    out.append((name, exc))
        return out

    def settle(self, outcomes: list) -> list:
        return outcomes

    def oracle(self, outcomes: list) -> dict:
        return check_results_failures(outcomes)

    def layer_counts(self) -> dict:
        return {}


def check_results_failures(outcomes: list) -> dict:
    """Each check compares two routes itself; a failing CheckResult is a failure."""
    bad = {}
    for key, result in outcomes:
        if isinstance(result, verification.CheckResult) and not result.passed:
            bad[key] = f"check failed: measured {result.measured!r} vs {result.tolerance!r}"
    return bad


# -- cli-grids ---------------------------------------------------------------

# the six non-verify commands with the grids the README shows
CLI_COMMANDS = (
    ("density", ["density", "--mu", "1", "--beta", "0.1", "--grid-x", "128", "--grid-t", "32"]),
    ("averaged-density", ["averaged-density", "--beta", "0.05", "--grid-x", "256"]),
    ("velocity", ["velocity", "--beta", "0.1", "--t-span", "0.5"]),
    ("wigner", ["wigner", "--grid-x", "32", "--grid-t", "8", "--format", "json"]),
    ("energy", ["energy", "--beta", "0.2"]),
    ("thermo", ["thermo", "--mu", "1..5", "--beta-sweep", "0.05:2.0:40"]),
)

# data rows each command must write (grid sizes above; 64x16 is the default grid)
_WIGNER_ATOMS = 2 * (2 * tw.cutoff_for(0.1) + 1) + 1
CLI_ROWS = {
    "density": 128 * 32,
    "averaged-density": 256,
    "velocity": 64 * 16,
    "wigner": 32 * 8 * _WIGNER_ATOMS,
    "energy": 64 * 16,
    "thermo": 5 * 40,
}

ORACLE_ROWS = 8  # seeded rows checked per command


def _csv_rows(text: str) -> list[dict]:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _cell(value: str) -> float:
    return math.nan if value == "" else float(value)


class CliGrids:
    """The six non-verify CLI commands, in process, each writing to a file.

    One operation is one command.  The seed picks the rows the oracle checks.
    """

    name = "cli-grids"

    def __init__(self, seed: int, tracer, workdir: str) -> None:
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.paths = {name: os.path.join(workdir, f"{name}.out") for name, _ in CLI_COMMANDS}
        self.texts: dict[str, str] = {}

    def first_call(self) -> None:
        name, argv = CLI_COMMANDS[0]
        cli.main(argv + ["--out", self.paths[name]])

    def run_pass(self) -> list:
        out = []
        for name, argv in CLI_COMMANDS:
            with self.tracer.span(f"cli.{name}"):
                try:
                    out.append((name, cli.main(argv + ["--out", self.paths[name]])))
                except Exception as exc:
                    out.append((name, exc))
        return out

    def settle(self, outcomes: list) -> list:
        settled = []
        for name, rc in outcomes:
            if isinstance(rc, Exception):
                settled.append((name, rc))
                continue
            with open(self.paths[name], encoding="utf-8") as fh:
                text = fh.read()
            self.texts[name] = text
            digest = hashlib.sha256(text.encode()).hexdigest()
            settled.append((name, (rc, len(text.encode()), digest)))
        return settled

    def oracle(self, outcomes: list) -> dict:
        bad = {}
        for name, outcome in outcomes:
            if isinstance(outcome, Exception):
                continue
            rc = outcome[0]
            if rc != 0:
                bad[name] = f"exit code {rc}"
                continue
            problem = cli_output_problem(name, self.texts[name], self.rng)
            if problem:
                bad[name] = problem
        return bad

    def layer_counts(self) -> dict:
        return {f"cli.{name}.bytes": len(text.encode()) for name, text in self.texts.items()}


def cli_output_problem(name: str, text: str, rng: np.random.Generator) -> str | None:
    """Why one command's output is wrong, or None; checks seeded rows by a second route."""
    try:
        rows = json.loads(text) if name == "wigner" else _csv_rows(text)
    except ValueError as exc:
        return f"unparseable output: {exc}"
    if len(rows) != CLI_ROWS[name]:
        return f"{len(rows)} rows, expected {CLI_ROWS[name]}"
    try:
        return _CLI_ORACLES[name](rows, rng)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed row: {exc!r}"


def _pick(rng: np.random.Generator, n: int, k: int = ORACLE_ROWS) -> list[int]:
    return sorted(int(i) for i in rng.choice(n, size=min(k, n), replace=False))


def _oracle_density(rows, rng):
    state = tw.QuantumState(1, 0.1)
    for i in _pick(rng, len(rows)):
        r = rows[i]
        x, t, got = float(r["x"]), float(r["t"]), _cell(r["value"])
        want = abs(psi_theta_route(x, t, state)) ** 2
        if not abs(got - want) <= TOL_DENSITY:
            return f"density row {i}: {got!r} vs |psi|^2 {want!r}"
    return None


def _oracle_averaged(rows, rng):
    state = tw.QuantumState(1, 0.05)
    for i in _pick(rng, len(rows)):
        x, got = float(rows[i]["x"]), _cell(rows[i]["value"])
        want = averaged_density_theta_route(x, state)
        if not abs(got - want) <= TOL_AVERAGE:
            return f"averaged-density row {i}: {got!r} vs theta route {want!r}"
    return None


def _oracle_velocity(rows, rng):
    state = tw.QuantumState(1, 0.1)
    for i in _pick(rng, len(rows)):
        r = rows[i]
        x, t, got = float(r["x"]), float(r["t"]), _cell(r["value"])
        comb = tw.velocity_from_vlasov(x, t, state)
        if r["tag"] != str(comb.tag):
            return f"velocity row {i}: tag {r['tag']} vs comb route {comb.tag}"
        _, want, _ = psi_route_flow(x, t, state)
        if comb.is_finite and not abs(got - want) <= TOL_TWO_PATH:
            return f"velocity row {i}: {got!r} vs psi route {want!r}"
    return None


def _oracle_wigner(rows, rng):
    state = tw.QuantumState(1, 0.1)
    n_points = len(rows) // _WIGNER_ATOMS
    for p in _pick(rng, n_points, 4):
        block = rows[p * _WIGNER_ATOMS : (p + 1) * _WIGNER_ATOMS]
        x, t = float(block[0]["x"]), float(block[0]["t"])
        if any(float(r["x"]) != x or float(r["t"]) != t for r in block):
            return f"wigner point {p}: atoms of one point are not contiguous"
        marginal = UNITS.hbar * math.fsum(float(r["weight"]) for r in block)
        want = tw.density(x, t, state)
        if not abs(marginal - want) <= TOL_DENSITY:
            return f"wigner point {p}: marginal {marginal!r} vs density {want!r}"
    return None


def _oracle_energy(rows, rng):
    state = tw.QuantumState(1, 0.2)
    for i in _pick(rng, len(rows)):
        r = rows[i]
        x, t, got = float(r["x"]), float(r["t"]), _cell(r["value"])
        f, _, want = psi_route_flow(x, t, state)
        if (r["tag"] == "pole") != (f < tw.DENSITY_FLOOR / UNITS.l):
            return f"energy row {i}: tag {r['tag']} where |psi|^2 is {f!r}"
        if r["tag"] != "pole" and not _within(got, want, TOL_TWO_PATH):
            return f"energy row {i}: {got!r} vs psi route {want!r}"
    return None


def _oracle_thermo(rows, rng):
    for i in _pick(rng, len(rows)):
        r = rows[i]
        state = tw.QuantumState(int(r["mu"]), float(r["beta"]))
        gp = tw.gibbs_params(state)
        s_want = tw.entropy_from_factor(gp, state)
        if not abs(float(r["entropy"]) - s_want) <= TOL_ENTROPY:
            return f"thermo row {i}: entropy {r['entropy']} vs Gibbs factor {s_want!r}"
        e_want = mean_energy_dlnz_route(state)
        if not abs(float(r["mean_energy"]) - e_want) <= TOL_DLNZ * abs(e_want):
            return f"thermo row {i}: mean energy {r['mean_energy']} vs -dlnZ {e_want!r}"
    return None


_CLI_ORACLES = {
    "density": _oracle_density,
    "averaged-density": _oracle_averaged,
    "velocity": _oracle_velocity,
    "wigner": _oracle_wigner,
    "energy": _oracle_energy,
    "thermo": _oracle_thermo,
}


# -- beta-ladder -------------------------------------------------------------

# (label, beta, field points, psi calls, wigner points).  Point counts shrink
# as the folded term count grows (about K^2), so each rung costs about the
# same at the seed commit and a slowdown on any one rung still moves pass_s.
# The last rung (K = 3203) runs only the O(K) quantities: its term table would
# hold about ten million terms.
RUNGS = (
    ("b1", 1.0, 32768, 3000, 64),
    ("b0.1", 0.1, 6144, 2000, 16),
    ("b0.02", 0.02, 1024, 2000, 4),
    ("b0.001", 1e-3, 48, 1500, 1),
    ("b1e-6", 1e-6, 1024, 900, 0),
)
FOLDED_RUNGS = tuple(label for label, beta, *_ in RUNGS if beta >= 1e-3)


class BetaLadder:
    """Fields on seeded (x, t) points across narrowing combs; one operation is one call."""

    name = "beta-ladder"

    def __init__(self, seed: int, tracer, workdir: str) -> None:
        self.tracer = tracer
        rng = np.random.default_rng(seed)
        self.rungs = []
        for label, beta, n_field, n_psi, n_wig in RUNGS:
            state = tw.QuantumState(1, beta)
            t_mu = tw.period(state)
            self.rungs.append(
                {
                    "label": label,
                    "state": state,
                    "gp": tw.gibbs_params(state),
                    "folded": label in FOLDED_RUNGS,
                    "x": rng.uniform(0.0, UNITS.l, n_field),
                    "t": rng.uniform(0.0, t_mu, n_field),
                    "psi": [(float(x), float(t)) for x, t in
                            zip(rng.uniform(0.0, UNITS.l, n_psi), rng.uniform(0.0, t_mu, n_psi))],
                    "wig": [(float(x), float(t)) for x, t in
                            zip(rng.uniform(0.0, UNITS.l, n_wig), rng.uniform(0.0, t_mu, n_wig))],
                }
            )
        self.rng = rng

    def first_call(self) -> None:
        r = self.rungs[0]
        tw.density(r["x"], r["t"], r["state"])

    def run_pass(self) -> list:
        out = []

        def op(key, fn, *args):
            try:
                out.append((key, fn(*args)))
            except Exception as exc:
                out.append((key, exc))

        for r in self.rungs:
            label, state, xs, ts = r["label"], r["state"], r["x"], r["t"]
            self.tracer.rung = label
            with self.tracer.span(f"rung.{label}"):
                if r["folded"]:
                    op((label, "density"), tw.density, xs, ts, state)
                    op((label, "flux"), tw.flux, xs, ts, state)
                    op((label, "density_derivatives"), tw.density_derivatives, xs, ts, state)
                    op((label, "kinetic_energy_density"), tw.kinetic_energy_density, xs, ts, state)
                op((label, "averaged_density"), tw.averaged_density, xs, state)
                for i, (x, t) in enumerate(r["psi"]):
                    op((label, "psi", i), tw.psi, x, t, state)
                for i, (x, t) in enumerate(r["wig"]):
                    op((label, "wigner_comb", i), tw.wigner_comb, x, t, state)
                op((label, "mean_energy_gibbs"), tw.mean_energy_gibbs, r["gp"], state)
                op((label, "entropy"), tw.entropy, r["gp"], state)
            self.tracer.rung = None
        return out

    def settle(self, outcomes: list) -> list:
        return outcomes

    def oracle(self, outcomes: list) -> dict:
        results = dict(outcomes)
        bad = {}
        for r in self.rungs:
            for key, problem in _ladder_problems(r, results, self.rng):
                bad[key] = problem
        return bad

    def layer_counts(self) -> dict:
        return {}


def _ladder_problems(r: dict, results: dict, rng: np.random.Generator):
    """(operation key, reason) for each seeded sample of one rung that a second route rejects."""
    label, state, xs, ts = r["label"], r["state"], r["x"], r["t"]

    def get(*key):
        value = results.get((label, *key))
        return None if isinstance(value, Exception) else value

    if r["folded"]:
        f, derivs = get("density"), get("density_derivatives")
        for i in _pick(rng, xs.size, 4):
            want = abs(psi_theta_route(float(xs[i]), float(ts[i]), state)) ** 2
            if f is not None and not _within(float(f[i]), want, TOL_DENSITY):
                yield (label, "density"), f"point {i}: {f[i]!r} vs |psi|^2 {want!r}"
            if derivs is not None and not _within(float(derivs[0][i]), want, TOL_DENSITY):
                yield (label, "density_derivatives"), f"point {i}: f {derivs[0][i]!r} vs {want!r}"
        flux, ke = get("flux"), get("kinetic_energy_density")
        for i in _pick(rng, xs.size, 2):
            phi, kin = comb_route_moments(float(xs[i]), float(ts[i]), state)
            if flux is not None and not _within(float(flux[i]), phi, TOL_TWO_PATH):
                yield (label, "flux"), f"point {i}: {flux[i]!r} vs comb route {phi!r}"
            if ke is not None and not _within(float(ke[i]), kin, TOL_TWO_PATH):
                yield (label, "kinetic_energy_density"), f"point {i}: {ke[i]!r} vs comb route {kin!r}"
        for i, (x, t) in enumerate(r["wig"]):
            comb = get("wigner_comb", i)
            want = tw.density(x, t, state)
            if comb is not None and not _within(comb.marginal(), want, TOL_DENSITY):
                yield (label, "wigner_comb", i), f"marginal {comb.marginal()!r} vs density {want!r}"

    avg = get("averaged_density")
    for i in _pick(rng, xs.size, 4):
        want = averaged_density_theta_route(float(xs[i]), state)
        if avg is not None and not abs(float(avg[i]) - want) <= TOL_AVERAGE:
            yield (label, "averaged_density"), f"point {i}: {avg[i]!r} vs theta route {want!r}"

    for i in _pick(rng, len(r["psi"])):
        got = get("psi", i)
        want = psi_theta_route(*r["psi"][i], state)
        if got is not None and not _within(got, want, TOL_DENSITY):
            yield (label, "psi", i), f"{got!r} vs theta route {want!r}"

    energy, s = get("mean_energy_gibbs"), get("entropy")
    want_e = mean_energy_dlnz_route(state)
    if energy is not None and not abs(energy - want_e) <= TOL_DLNZ * abs(want_e):
        yield (label, "mean_energy_gibbs"), f"{energy!r} vs -dlnZ {want_e!r}"
    want_s = tw.entropy_from_factor(r["gp"], state)
    if s is not None and not abs(s - want_s) <= TOL_ENTROPY:
        yield (label, "entropy"), f"{s!r} vs Gibbs factor {want_s!r}"


WORKLOADS = {w.name: w for w in (VerifyRegistry, CliGrids, BetaLadder)}


def cost_counts() -> dict:
    """Exact cost-against-beta counts per rung: K, and folded terms where a table is built."""
    counts = {}
    for label, beta, *_ in RUNGS:
        state = tw.QuantumState(1, beta)
        counts[f"numerics.K.{label}"] = tw.cutoff_for(beta)
        if label in FOLDED_RUNGS:
            counts[f"series.terms.{label}"] = int(build_table(state).w.size)
    return counts
