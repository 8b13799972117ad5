"""Phase-space picture of the well state: momentum comb, moments, conservation laws.

The phase-space distribution of the state is a Dirac comb in momentum: atoms
sit at integer multiples of the momentum quantum P_unit and carry real
coefficients that may be negative (quasi-probabilities).  Every coefficient is
transported freely, C_s(x, t) = C_s(x - (P_s/m) t, 0), so all velocity moments
are exact finite sums and the hydrodynamic conservation laws close without
approximation.

Every moment is a bilinear form in the wavefunction and its x-derivatives
(``wavefunction.psi_jet``, O(K) per point): M0 = |psi|^2, the flux
(hbar/m) Im(psi* psi'), and so on.  Two independent routes check them: the
per-atom Chebyshev route (``series.comb_rows``), which ``velocity_from_vlasov``
takes against ``velocity_field``, and the folded double series
(``series.folded_sum``), from which ``pressure_gradient`` and the flux side of
``continuity_residual`` are built.

Fields that divide by the density carry a ``FieldTag``: below the density
floor (walls, nodes) they are node-undefined or poles instead of fake large
numbers.  Central moments, which only need the mean velocity as a center, fall
back to probing the flow just beside a node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import density
from .numerics import (
    DEFAULT_TRUNCATION,
    FieldSample,
    FieldTag,
    Truncation,
    finite_diff,
    tagged,
)
from .series import build_table, comb_rows, folded_sum
from .wavefunction import (
    NATURAL_UNITS,
    JetForms,
    QuantumState,
    SystemParams,
    _check_domain,
    _unbox,
    derived_scales,
    jet_forms,
)

__all__ = [
    "DENSITY_FLOOR",
    "WignerAtom",
    "WignerComb",
    "MomentSet",
    "wigner_comb",
    "flux",
    "velocity_field",
    "velocity_from_vlasov",
    "moments",
    "kinetic_energy_density",
    "pressure_gradient",
    "continuity_residual",
    "momentum_law_residual",
    "energy_law_residual",
]

# density below DENSITY_FLOOR / l counts as a node: division is refused there
DENSITY_FLOOR = 1e-12

# offset (fraction of l) used to probe the flow velocity just beside a node
_PROBE_FRACTION = 1e-6


def _floor_for(sys: SystemParams) -> float:
    return DENSITY_FLOOR / sys.l


@dataclass(frozen=True)
class WignerAtom:
    """One comb atom: momentum label s, momentum P_unit*s, and its coefficient.

    ``weight`` is C_s(x, t) / (hbar * N(beta)); the atom contributes
    weight * delta(P_s - p) to the distribution, and hbar * weight to the
    momentum marginal (each atom carries one Planck cell of momentum measure).
    """

    s: int
    momentum: float
    weight: float


@dataclass(frozen=True)
class WignerComb:
    """The full phase-space comb at one (x, t): finitely many momentum atoms."""

    x: float
    t: float
    atoms: tuple[WignerAtom, ...]

    def marginal(self, sys: SystemParams = NATURAL_UNITS) -> float:
        """Momentum marginal: hbar * sum of weights; reproduces the density.

        ``sys`` must be the system the comb was built with.
        """
        return sys.hbar * math.fsum(atom.weight for atom in self.atoms)


@dataclass(frozen=True)
class MomentSet:
    """Velocity moments of the comb: floats at one (x, t), arrays on a grid.

    density        probability / length
    flux           density * mean velocity (finite everywhere)
    pressure       m * second central velocity moment, P11
    heat_flux      third central velocity moment, P111 (velocity^3 / length)
    energy_density mean kinetic energy per unit probability; tagged pole
                   where the density is below the floor (walls, nodes)
    """

    density: float
    flux: float
    pressure: float
    heat_flux: float
    energy_density: FieldSample


def _flux_form(j: JetForms, sys: SystemParams):
    """M1 = (hbar/m) Im(psi* psi'), the probability flux."""
    return sys.hbar / sys.m * j.im(0, 1)


def _m2_form(j: JetForms, sys: SystemParams):
    """M2 = (hbar^2/2m^2)(|psi'|^2 - Re(psi* psi'')), the second velocity moment."""
    hm = sys.hbar / sys.m
    return 0.5 * hm * hm * (j.re(1, 1) - j.re(0, 2))


def flux(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
    flow_constant: float = 0.0,
):
    """Probability flux f*<v> at (x, t); finite everywhere, no division by f.

    The continuity equation fixes the flux only up to an additive constant in
    x; the wall boundary condition sets it to zero, which is the default.
    ``flow_constant`` overrides it for experimentation.  Evaluated as
    (hbar/m) Im(psi* psi') from an order-1 ``psi_jet``.  Broadcasts over x, t.
    """
    return _unbox(_flux_form(jet_forms(x, t, state, sys, trunc, order=1), sys) + flow_constant)


def wigner_comb(
    x: float,
    t: float,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> WignerComb:
    """All momentum atoms of the phase-space distribution at one point.

    Atoms are returned for every label |s| <= 2K + 1, ordered by s.  Each
    coefficient is evaluated by the Chebyshev recurrence, a route independent
    of the psi jet behind ``density`` and ``flux``.
    """
    _check_domain(x, sys)
    rows = comb_rows(x, t, state, sys, trunc)
    p_unit = derived_scales(state, sys).P_unit
    scale = 1.0 / (sys.hbar * sys.l * rows.norm)
    atoms = tuple(
        WignerAtom(s=s, momentum=s * p_unit, weight=float(row) * scale)
        for s, row in zip(range(-rows.m_max, rows.m_max + 1), rows.by_label())
    )
    return WignerComb(x=float(x), t=float(t), atoms=atoms)


def _probe_velocity(
    xs: np.ndarray, ts: np.ndarray, state: QuantumState, sys: SystemParams, trunc: Truncation
) -> np.ndarray:
    """Mean velocity just beside each node (xs, ts), as a center for central moments.

    Averages flux/density over the admissible probes x +- delta (one-sided at
    the walls).  Where the whole neighborhood is below the floor there is no
    flow to resolve and 0 is returned.
    """
    delta = _PROBE_FRACTION * sys.l
    probes = np.stack([xs - delta, xs + delta])
    admissible = (probes > 0.0) & (probes < sys.l)
    j = jet_forms(np.where(admissible, probes, xs), ts, state, sys, trunc, order=1)
    fp = j.re(0, 0)
    ok = admissible & (fp >= _floor_for(sys))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ok, _flux_form(j, sys) / fp, 0.0)
    return (ratio[0] + ratio[1]) / np.maximum(np.count_nonzero(ok, axis=0), 1)


def velocity_field(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> FieldSample:
    """Mean velocity of probability flow, flux / density, from one order-1 psi jet.

    Node-undefined where the density is below the floor (walls and instantaneous
    nodes); the flow limit exists there but the ratio itself does not.
    Broadcasts over x and t.
    """
    j = jet_forms(x, t, state, sys, trunc, order=1)
    f = j.re(0, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return tagged(_flux_form(j, sys) / f, f >= _floor_for(sys), FieldTag.NODE_UNDEFINED)


def velocity_from_vlasov(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> FieldSample:
    """Mean velocity from the transport solution: first moment of the comb atoms.

    Both the numerator and the denominator are rebuilt from the Chebyshev comb
    route, independent of ``velocity_field``'s series; the node test uses the
    same canonical density so the two paths are undefined at identical points.
    Broadcasts over x and t, and a grid call equals per-point calls bit for
    bit (see ``CombRows.sums``).
    """
    f = density(x, t, state, sys, trunc)
    rows = comb_rows(x, t, state, sys, trunc)
    total, first = rows.sums()
    den = sys.l * rows.norm
    with np.errstate(divide="ignore", invalid="ignore"):
        f_comb = total / den
        phi_comb = derived_scales(state, sys).P_unit / sys.m * first / den
        return tagged(phi_comb / f_comb, f >= _floor_for(sys), FieldTag.NODE_UNDEFINED)


def moments(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> MomentSet:
    """Density, flux, pressure, heat flux, and mean energy; broadcasts over x and t.

    The raw velocity moments M_k = sum over atoms of (P_s/m)^k C_s are exact
    finite sums; pressure and heat flux are the central combinations

        P11  = m * (M2 - f <v>^2),
        P111 = M3 - 3 <v> M2 + 3 <v>^2 M1 - <v>^3 f,

    with <v> = flux/density, replaced by the probed flow limit where the
    density is below the floor.  The mean energy (m/2) M2 / f is tagged as a
    pole there instead.

    The raw moments are bilinear forms of one order-3 ``psi_jet``, over the
    norm: f = |psi|^2, M1 = (hbar/m) Im(psi* psi'),
    M2 = (hbar^2/2m^2)(|psi'|^2 - Re(psi* psi'')) and
    M3 = -(hbar^3/4m^3)(Im(psi* psi''') - 3 Im(psi'* psi'')).  The cube of
    <v> is written as a product, which rounds alike for a point and a grid.
    """
    j = jet_forms(x, t, state, sys, trunc, order=3)
    f = j.re(0, 0)
    phi = _flux_form(j, sys)
    m2 = _m2_form(j, sys)
    m3 = -0.25 * (sys.hbar / sys.m) ** 3 * (j.im(0, 3) - 3.0 * j.im(1, 2))
    defined = f >= _floor_for(sys)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.array(phi / f)
        energy = tagged(0.5 * sys.m * m2 / f, defined, FieldTag.POLE)
    if not np.all(defined):
        xb, tb = np.broadcast_arrays(x, t)
        v[~defined] = _probe_velocity(xb[~defined], tb[~defined], state, sys, trunc)
    p11 = sys.m * (m2 - f * v * v)
    p111 = m3 - 3.0 * v * m2 + 3.0 * v * v * phi - v * v * v * f
    return MomentSet(
        density=_unbox(f),
        flux=_unbox(phi),
        pressure=_unbox(p11),
        heat_flux=_unbox(p111),
        energy_density=energy,
    )


def kinetic_energy_density(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
):
    """Kinetic energy per unit length, f * <E> = (m/2) M2; finite everywhere.

    The integrand of every energy average; no division by the density, so
    walls and nodes are regular points.  Evaluated as
    (hbar^2/4m)(|psi'|^2 - Re(psi* psi'')) from an order-2 ``psi_jet``.
    Broadcasts over x and t.
    """
    return _unbox(0.5 * sys.m * _m2_form(jet_forms(x, t, state, sys, trunc, order=2), sys))


def pressure_gradient(
    x: float,
    t: float,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> FieldSample:
    """Analytic d P11 / dx, term-wise exact (no finite differences).

    Differentiates P11 = m (M2 - flux^2 / f) with every ingredient, f and f'
    included, evaluated by its own term-wise derivative of the folded double
    series; nothing comes from ``psi_jet``, so the momentum-law check's
    comparison with the quantum-potential gradient (built on the jet) compares
    two routes.  Node-undefined below the density floor, where the central
    moment has no center.
    """
    _check_domain(x, sys)
    table = build_table(state, trunc)
    scales = derived_scales(state, sys)
    den = sys.l * table.norm
    vu = scales.P_unit / sys.m
    ux = 2.0 * math.pi * state.mu / sys.l

    f = folded_sum(table, x, t, state, sys, s_power=0, j_power=0, trig="cos") / den
    if f < _floor_for(sys):
        return FieldSample(math.nan, FieldTag.NODE_UNDEFINED)
    f1 = -ux * folded_sum(table, x, t, state, sys, s_power=0, j_power=1, trig="sin") / den
    phi = vu * folded_sum(table, x, t, state, sys, s_power=1, j_power=0, trig="cos") / den
    phi1 = -vu * ux * folded_sum(table, x, t, state, sys, s_power=1, j_power=1, trig="sin") / den
    m2_1 = (
        -(vu**2) * ux * folded_sum(table, x, t, state, sys, s_power=2, j_power=1, trig="sin") / den
    )
    val = sys.m * (m2_1 - 2.0 * phi * phi1 / f + phi * phi * f1 / (f * f))
    return FieldSample(val)


def continuity_residual(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
):
    """|d f/dt + d flux/dx| with both derivatives analytic, from two routes.

    d f/dt = -(hbar/m) Im(psi* psi'') comes from an order-2 ``psi_jet`` (the
    Schrodinger equation turns the time derivative into psi''); d flux/dx is
    the term-wise derivative of the folded double series.  A wrong series on
    either side leaves a residual; correct ones agree to the floating-point
    floor (order 1e-13 of the field scale).  Broadcasts over x and t.
    """
    df_dt = -(sys.hbar / sys.m) * jet_forms(x, t, state, sys, trunc, order=2).im(0, 2)
    table = build_table(state, trunc)
    scales = derived_scales(state, sys)
    den = sys.l * table.norm
    ux = 2.0 * math.pi * state.mu / sys.l
    core_x = folded_sum(table, x, t, state, sys, s_power=1, j_power=1, trig="sin")
    dflux_dx = -(scales.P_unit / sys.m) * ux * core_x / den
    return np.abs(df_dt + dflux_dx)


def _stencil_defined(x, t, hx, ht, state, sys, trunc) -> bool:
    floor = _floor_for(sys)
    pts = ((x, t), (x - hx, t), (x + hx, t), (x, t - ht), (x, t + ht))
    return all(density(xx, tt, state, sys, trunc) >= floor for xx, tt in pts)


def momentum_law_residual(
    x: float,
    t: float,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    h: float = 1e-5,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> FieldSample:
    """Residual of the flow acceleration law  dv/dt + v dv/dx + (1/(m f)) dP11/dx.

    All derivatives are central finite differences with steps h*l in x and
    h*T_mu in t; the force-free comb makes the law exact, so the residual is
    the O(h^2) scheme error.  Node-undefined when the density drops below the
    floor anywhere on the stencil.
    """
    scales = derived_scales(state, sys)
    hx, ht = h * sys.l, h * scales.T_mu
    if not (0.0 < x - hx and x + hx < sys.l):
        raise ValueError(f"x stencil [{x - hx}, {x + hx}] leaves the open well (0, {sys.l})")
    if not _stencil_defined(x, t, hx, ht, state, sys, trunc):
        return FieldSample(math.nan, FieldTag.NODE_UNDEFINED)

    def v_at(xx: float, tt: float) -> float:
        return velocity_field(xx, tt, state, sys, trunc).value

    v_c = v_at(x, t)
    dv_dt = finite_diff(lambda tt: v_at(x, tt), t, 1, ht)
    dv_dx = finite_diff(lambda xx: v_at(xx, t), x, 1, hx)
    dp_dx = finite_diff(lambda xx: moments(xx, t, state, sys, trunc).pressure, x, 1, hx)
    f_c = density(x, t, state, sys, trunc)
    return FieldSample(abs(dv_dt + v_c * dv_dx + dp_dx / (sys.m * f_c)))


def energy_law_residual(
    x: float,
    t: float,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    h: float = 1e-5,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> FieldSample:
    """Residual of the energy transport law for the flow.

    Checks d/dt [ (m f/2) v^2 + P11/2 ] + d/dx [ (m f/2) v^3 + (3/2) v P11
    + (m/2) P111 ] = 0, composing each bracket from the tabulated moments as
    written (no algebraic pre-simplification) and differencing with steps h*l
    and h*T_mu.  Node-undefined when the stencil touches sub-floor density.
    """
    scales = derived_scales(state, sys)
    hx, ht = h * sys.l, h * scales.T_mu
    if not (0.0 < x - hx and x + hx < sys.l):
        raise ValueError(f"x stencil [{x - hx}, {x + hx}] leaves the open well (0, {sys.l})")
    if not _stencil_defined(x, t, hx, ht, state, sys, trunc):
        return FieldSample(math.nan, FieldTag.NODE_UNDEFINED)

    def e_density(xx: float, tt: float) -> float:
        ms = moments(xx, tt, state, sys, trunc)
        v = ms.flux / ms.density
        return 0.5 * sys.m * ms.density * v * v + 0.5 * ms.pressure

    def e_flux(xx: float, tt: float) -> float:
        ms = moments(xx, tt, state, sys, trunc)
        v = ms.flux / ms.density
        return (
            0.5 * sys.m * ms.density * v**3
            + 1.5 * v * ms.pressure
            + 0.5 * sys.m * ms.heat_flux
        )

    dt_term = finite_diff(lambda tt: e_density(x, tt), t, 1, ht)
    dx_term = finite_diff(lambda xx: e_flux(xx, t), x, 1, hx)
    return FieldSample(abs(dt_term + dx_term))
