"""Phase-space picture of the well state: momentum comb, moments, conservation laws.

The phase-space distribution of the state is a Dirac comb in momentum: atoms
sit at integer multiples of the momentum quantum P_unit and carry real
coefficients that may be negative (quasi-probabilities).  Every coefficient is
transported freely, C_s(x, t) = C_s(x - (P_s/m) t, 0), so all velocity moments
are exact finite sums and the hydrodynamic conservation laws close without
approximation.

Every moment is a bilinear form in the wavefunction and its x-derivatives
(``wavefunction.psi_jet``, O(K) per point): M0 = |psi|^2, the flux
(hbar/m) Im(psi* psi'), and so on.  The Schrodinger equation turns the time
derivative of each form into forms two orders up (``JetForms.dt``), so the
moment hierarchy d M_k/dt + d M_{k+1}/dx = 0 (continuity for k = 0, the
momentum, energy and heat-flux laws for k = 1, 2, 3) is checked without
finite differences.  One independent route checks the jet: the rows C_s of
the comb, summed by the Chebyshev kernel of ``series.comb_rows``.
``velocity_from_vlasov`` reads the rows against ``velocity_field``;
``pressure_gradient`` and the gradient side of ``moment_law_residual``
reduce the rows and their x-derivatives (``comb_rows``' ``order``) with
weights s^a (``CombRows.moment``).

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
    tagged,
)
from .series import comb_rows
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
    "comb_atoms",
    "wigner_comb",
    "flux",
    "velocity_field",
    "velocity_from_vlasov",
    "moments",
    "kinetic_energy_density",
    "pressure_gradient",
    "moment_rate",
    "moment_law_residual",
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
    """The full phase-space comb at one (x, t): finitely many momentum atoms.

    ``hbar`` is the Planck constant of the system the comb was built in.
    """

    x: float
    t: float
    atoms: tuple[WignerAtom, ...]
    hbar: float

    def marginal(self) -> float:
        """Momentum marginal: hbar * sum of weights; reproduces the density."""
        return self.hbar * math.fsum(atom.weight for atom in self.atoms)


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


def _density_form(j: JetForms, sys: SystemParams):
    """M0 = |psi|^2, the density."""
    return j.re(0, 0)


def _flux_form(j: JetForms, sys: SystemParams):
    """M1 = (hbar/m) Im(psi* psi'), the probability flux."""
    return sys.hbar / sys.m * j.im(0, 1)


def _m2_form(j: JetForms, sys: SystemParams):
    """M2 = (hbar^2/2m^2)(|psi'|^2 - Re(psi* psi'')), the second velocity moment."""
    hm = sys.hbar / sys.m
    return 0.5 * hm * hm * (j.re(1, 1) - j.re(0, 2))


def _m3_form(j: JetForms, sys: SystemParams):
    """M3 = -(hbar^3/4m^3)(Im(psi* psi''') - 3 Im(psi'* psi'')), the third velocity moment."""
    return -0.25 * (sys.hbar / sys.m) ** 3 * (j.im(0, 3) - 3.0 * j.im(1, 2))


def flux(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
):
    """Probability flux f*<v> at (x, t); finite everywhere, no division by f.

    The continuity equation fixes the flux only up to an additive constant in
    x; the wall boundary condition sets it to zero.  Evaluated as
    (hbar/m) Im(psi* psi') from an order-1 ``psi_jet``.  Broadcasts over x, t.
    """
    return _unbox(_flux_form(jet_forms(x, t, state, sys, trunc, order=1), sys))


def comb_atoms(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels s, momenta s * P_unit and weights of every comb atom; broadcasts over x and t.

    Returns ``(labels, momenta, weights)``: the labels s = -2K-1, ..., 2K+1
    in order, their momenta, and the weights C_s / (hbar * N(beta)) with shape
    (2 (2K + 1) + 1, *points).  Every weight is one product of a Chebyshev
    row (``series.comb_rows``) and a per-state scale, so a grid call equals
    per-point calls bit for bit.
    """
    _check_domain(x, sys)
    rows = comb_rows(x, t, state, sys, trunc)
    labels = np.arange(-rows.m_max, rows.m_max + 1)
    momenta = labels * derived_scales(state, sys).P_unit
    weights = rows.by_label() * (1.0 / (sys.hbar * sys.l * rows.norm))
    return labels, momenta, weights


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
    of the psi jet behind ``density`` and ``flux``.  Built from
    ``comb_atoms``, whose grid form tabulates the comb in one call
    (``thetawell wigner``); this per-point record serves library callers.
    """
    labels, momenta, weights = comb_atoms(x, t, state, sys, trunc)
    atoms = tuple(map(WignerAtom, labels.tolist(), momenta.tolist(), weights.tolist()))
    return WignerComb(x=float(x), t=float(t), atoms=atoms, hbar=sys.hbar)


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
    bit (see ``CombRows.moment``).
    """
    f = density(x, t, state, sys, trunc)
    rows = comb_rows(x, t, state, sys, trunc)
    den = sys.l * rows.norm
    with np.errstate(divide="ignore", invalid="ignore"):
        f_comb = rows.moment(0) / den
        phi_comb = derived_scales(state, sys).P_unit / sys.m * rows.moment(1) / den
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
    m3 = _m3_form(j, sys)
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
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> FieldSample:
    """Analytic d P11 / dx, term-wise exact (no finite differences).

    Differentiates P11 = m (M2 - flux^2 / f) with every ingredient, f and f'
    included, a moment of the comb rows (order 0) or of their x-derivatives
    (order 1); nothing comes from ``psi_jet``, so the momentum-law check's
    comparison with the quantum-potential gradient (built on the jet) compares
    two routes.  Node-undefined below the density floor, where the central
    moment has no center.  Broadcasts over x and t.
    """
    _check_domain(x, sys)
    rows, grad = (comb_rows(x, t, state, sys, trunc, order=k) for k in (0, 1))
    den = sys.l * rows.norm
    vu = derived_scales(state, sys).P_unit / sys.m
    f = rows.moment(0) / den
    f1 = grad.moment(0) / den
    phi = vu * rows.moment(1) / den
    phi1 = vu * grad.moment(1) / den
    m2_1 = vu**2 * grad.moment(2) / den
    with np.errstate(divide="ignore", invalid="ignore"):
        val = sys.m * (m2_1 - 2.0 * phi * phi1 / f + phi * phi * f1 / (f * f))
    return tagged(val, f >= _floor_for(sys), FieldTag.NODE_UNDEFINED)


def moment_rate(
    x,
    t,
    k: int,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
):
    """d M_k / dt for k = 0..3, analytic, from one order-(k + 2) ``psi_jet``.

    M_k is a bilinear form of the jet (the density, the flux and the forms
    behind ``moments``); the same form built from ``JetForms.dt`` is its time
    derivative.  Finite everywhere.  Broadcasts over x and t.
    """
    if k not in range(4):
        raise ValueError(f"k must be 0, 1, 2 or 3, got {k!r}")
    form = (_density_form, _flux_form, _m2_form, _m3_form)[k]
    return _unbox(form(jet_forms(x, t, state, sys, trunc, order=k + 2).dt(sys), sys))


def moment_law_residual(
    x,
    t,
    k: int,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
):
    """|d M_k/dt + d M_{k+1}/dx| for k = 0..3, both derivatives analytic, from two routes.

    The comb is carried freely, so its velocity moments obey this hierarchy
    exactly: k = 0 is continuity, k = 1 the flow-acceleration law, k = 2 and
    3 the energy and heat-flux laws.  d M_k/dt is ``moment_rate`` (the psi
    jet); d M_{k+1}/dx is the sum over atoms of (P_s/m)^{k+1} d C_s/dx, a
    moment of the order-1 ``comb_rows``.  A wrong series on either side
    leaves a residual; correct ones agree to the floating-point floor.
    Finite everywhere, walls and nodes included.  Broadcasts over x and t.
    """
    rate = moment_rate(x, t, k, state, sys, trunc)
    grad = comb_rows(x, t, state, sys, trunc, order=1)
    vu = derived_scales(state, sys).P_unit / sys.m
    return _unbox(np.abs(rate + vu ** (k + 1) * grad.moment(k + 1) / (sys.l * grad.norm)))
