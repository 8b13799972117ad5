"""Exact time-dependent bound states of the infinite square well.

The state is a Gaussian-weighted superposition of every (2k+1)-th stationary
mode of one well level mu, normalized on [0, l]:

    psi(x, t) = Theta(mu*x/l, tau(t)) / sqrt(N(beta)),
    tau(t)    = -mu^2 * (2*pi*hbar / (m*l^2)) * t + i*beta,

where Theta is the half-integer-characteristic theta series (the positive
series; ``theta.theta1`` equals minus it) and beta > 0 is the width of the
Gaussian weights exp(-(pi*beta/4)(2k+1)^2).  The squared modulus is periodic
in time with period T_mu; the wavefunction itself returns to a global phase.

Internally the series is evaluated with weights rescaled by the leading term,
so psi stays finite for arbitrarily large beta even where N(beta) itself
underflows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import DEFAULT_TRUNCATION, Truncation, _keep_hash, cutoff_for
from .theta import ThetaArgs, theta1, theta_dual

__all__ = [
    "SystemParams",
    "QuantumState",
    "DerivedScales",
    "NATURAL_UNITS",
    "derived_scales",
    "ModeTable",
    "mode_table",
    "norm_constant",
    "psi",
    "psi_jet",
    "JetForms",
    "JetRates",
    "jet_forms",
    "stationary_psi",
    "schrodinger_residual",
    "schrodinger_residual_of",
]


@dataclass(frozen=True)
class SystemParams:
    """Particle mass, well width, and Planck constant (natural units by default)."""

    m: float = 1.0
    l: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("m", "l", "hbar"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        _keep_hash(self, (self.m, self.l, self.hbar))

    def __hash__(self) -> int:
        return self._hash


NATURAL_UNITS = SystemParams()


@dataclass(frozen=True)
class QuantumState:
    """Well level mu (positive integer) and superposition width beta (> 0)."""

    mu: int
    beta: float

    def __post_init__(self) -> None:
        if int(self.mu) != self.mu or self.mu < 1:
            raise ValueError(f"mu must be a positive integer, got {self.mu!r}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        _keep_hash(self, (self.mu, self.beta))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class DerivedScales:
    """Scales derived from (mu, system): base/level energies, period, momentum unit.

    eps_mu = hbar^2 mu^2 / (2 m l^2)   base energy
    E_mu   = pi^2 * eps_mu             level-mu well energy
    T_mu   = pi*hbar / (4 E_mu)        period of every squared-modulus quantity
    P_unit = sqrt(2 m E_mu)            momentum quantum of the phase-space comb
    """

    eps_mu: float
    E_mu: float
    T_mu: float
    P_unit: float


def derived_scales(state: QuantumState, sys: SystemParams = NATURAL_UNITS) -> DerivedScales:
    eps = sys.hbar**2 * state.mu**2 / (2.0 * sys.m * sys.l**2)
    e_mu = math.pi**2 * eps
    t_mu = math.pi * sys.hbar / (4.0 * e_mu)
    p_unit = math.pi * sys.hbar * state.mu / sys.l
    return DerivedScales(eps_mu=eps, E_mu=e_mu, T_mu=t_mu, P_unit=p_unit)


@dataclass(frozen=True)
class ModeTable:
    """The state's Gibbs mode distribution, truncated and scaled by its leading term.

    ``m`` holds the positive odd harmonics 1, 3, ..., 2K+1 with K chosen for
    the weights exp(-(pi*beta/2) m^2); ``w`` holds exp(-(pi*beta/2)(m^2-1));
    ``norm`` = 2 * sum(w) counts both signs of every harmonic.  The arrays are
    read-only because the table is shared between callers.
    """

    m: np.ndarray
    w: np.ndarray
    norm: float


@functools.lru_cache(maxsize=64)
def mode_table(beta: float, trunc: Truncation = DEFAULT_TRUNCATION) -> ModeTable:
    """The cached odd-mode table for width beta; independent of mu and units."""
    k = cutoff_for(2.0 * beta, trunc)
    m = np.arange(1, 2 * k + 2, 2, dtype=float)
    w = np.exp(-math.pi * beta / 2.0 * (m * m - 1.0))
    m.flags.writeable = False
    w.flags.writeable = False
    return ModeTable(m=m, w=w, norm=2.0 * float(np.sum(w)))


def scaled_norm_sum(state: QuantumState, trunc: Truncation = DEFAULT_TRUNCATION) -> float:
    """N(beta) / (l * exp(-pi*beta/2)): the normalization sum relative to its leading term.

    Always >= 2 and representable for any beta, unlike raw N(beta).
    """
    return mode_table(state.beta, trunc).norm


def norm_constant(
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> float:
    """Normalization constant N(beta) = l * sum_k exp(-(pi*beta/2)(2k+1)^2).

    Proportional to l, asymptotically 2*l*exp(-pi*beta/2) for large beta.
    """
    return sys.l * math.exp(-math.pi * state.beta / 2.0) * scaled_norm_sum(state, trunc)


def _check_domain(x, sys: SystemParams) -> None:
    """Raise ValueError unless every x lies in the closed well [0, l]."""
    # a float skips numpy here, in _phase_coords and on psi's point route:
    # library callers of scalar psi and wigner_comb take one point per call,
    # and boxing would dominate them (the CLI and the registry pass whole grids)
    if isinstance(x, float):
        inside = 0.0 <= x <= sys.l
    else:
        xa = np.asarray(x, dtype=float)
        inside = np.all((xa >= 0.0) & (xa <= sys.l))
    if not inside:
        raise ValueError(f"x outside the well domain [0, {sys.l}]")


def _x_phase(x, state: QuantumState, sys: SystemParams):
    """u = pi*(2*mu*x/l + 1) for a float or an array x, in the same arithmetic."""
    return math.pi * (2.0 * state.mu * x / sys.l + 1.0)


def _phase_coords(x, t, state: QuantumState, sys: SystemParams, trunc: Truncation = DEFAULT_TRUNCATION):
    """Flattened u = pi*(2*mu*x/l + 1), w = (pi/T_mu)*t, and their broadcast shape."""
    rec = _state_constants(state, sys, trunc)
    if isinstance(x, float) and isinstance(t, float):  # the same arithmetic, unboxed
        return np.array([_x_phase(x, state, sys)]), np.array([rec.w_scale * t]), ()
    u, w = np.broadcast_arrays(*rec.phases(x, t))
    return np.ravel(u), np.ravel(w), u.shape


# term x point entries of psi_jet's work array per block (256 KiB); a block
# holds budget // (2 (order + 1) min(K + 1, _SUM_STRIDE)) points.  Larger
# blocks measured slower on the registry: each fresh array is paged in anew
_JET_BUDGET = 1 << 15

# psi_jet keeps its last trig table of each angle, x and t, for an input
# with one entry per point, for a next call on the same phases, when the
# table of cos and sin fits in this many bytes (4 MiB): the two tables
# outlive the call, so they stay a few MiB against the ~40 MiB a process
# holds after import.  A larger one is not built whole; its trig is taken
# per block
_TIME_TABLE_BYTES = 1 << 22

# psi_jet adds up to this many modes (beta >= 1.6e-4) strictly in mode order
# and more as this many running sums (``_mode_sum``), so a block may take its
# modes a run at a time and one point's sum is not one long chain of adds
_SUM_STRIDE = 256

# scalar psi sums up to this many modes (beta >= 7.3e-3) in a Python-float
# loop and more with numpy arrays: per call the loop costs about
# 1.3 + 0.19 (K + 1) us and the numpy route 6.2 + 0.06 (K + 1) us
_FLOAT_LOOP_MODES = 38


class _StateConstants:
    """What every route of one (state, sys, trunc) reads: w_scale = pi/T_mu, the rest built on first read.

    A part no route reads is never built, as it may not exist: psi takes
    theta1 where the jet's cutoff overflows (beta ~ 5e-7; the norm's at
    1e-7) and the jet where theta1's N reads negative (beta = 100).  Two
    threads may both build a part (no lock from Python 3.12): the same bits.
    """

    def __init__(self, state: QuantumState, sys: SystemParams, trunc: Truncation):
        self.state, self.sys, self.trunc = state, sys, trunc
        self.w_scale = math.pi / derived_scales(state, sys).T_mu

    def phases(self, x, t):
        """u = pi*(2*mu*x/l + 1) over x and w = (pi/T_mu)*t over t, each in its own shape."""
        return _x_phase(np.asarray(x, dtype=float), self.state, self.sys), self.w_scale * np.asarray(t, dtype=float)

    @functools.cached_property
    def jet(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The psi jet's angle factors m/2, -m^2/4 and weights over positive odd m.

        Row k of the weights (orders k = 0..5) holds c_k * 2 m^k exp(-(pi*beta/4)(m^2-1)) with
        c = (1, -kx, -kx^2, kx^3, kx^4, -kx^5) and kx = pi*mu/l: the amplitude, the
        factor 2 that folds the harmonic -m into m, and the real factor left of
        (i kx m)^k once the odd orders' 2i sin((u/2) m) is taken out.
        """
        modes = mode_table(self.state.beta / 2.0, self.trunc)  # weights exp(-(pi*beta/4)(m^2-1))
        m, amp = modes.m, 2.0 * modes.w
        kx = math.pi * self.state.mu / self.sys.l
        kx2 = kx * kx
        c = np.array([1.0, -kx, -kx2, kx2 * kx, kx2 * kx2, -kx2 * kx2 * kx])
        weights = c[:, None] * (amp * m ** np.arange(6)[:, None])
        half_m, quarter_m2 = m / 2.0, m * m / -4.0
        for arr in (half_m, quarter_m2, weights):
            arr.flags.writeable = False
        return half_m, quarter_m2, weights

    @functools.cached_property
    def norm(self) -> float:
        """l * scaled_norm_sum: the jet's bilinear forms over it are normalized."""
        return self.sys.l * scaled_norm_sum(self.state, self.trunc)

    @functools.cached_property
    def point(self):
        """Scalar psi's jet route in one tuple: order-0 jet rows, pi/T_mu, sqrt(norm), float rows (m/2, -m^2/4, w0) or None."""
        half_m, quarter_m2, weights = self.jet
        rows = None
        if half_m.size <= _FLOAT_LOOP_MODES:
            rows = tuple(zip(half_m.tolist(), quarter_m2.tolist(), weights[0].tolist()))
        return half_m, quarter_m2, weights[0], self.w_scale, math.sqrt(self.norm), rows

    @functools.cached_property
    def theta1(self) -> tuple:
        """psi's theta1 route in one tuple: mu, l, tau rate, beta, trunc, -1/sqrt(N), N = l theta[1/2, 0](0, 2i beta) from ``theta_dual``."""
        state, sys = self.state, self.sys
        rate = state.mu**2 * (2.0 * math.pi * sys.hbar / (sys.m * sys.l**2))
        norm = sys.l * theta_dual(ThetaArgs(0.5, 0.0, 0.0, 2j * state.beta), self.trunc).real
        return state.mu, sys.l, rate, state.beta, self.trunc, -1.0 / math.sqrt(norm)


_state_constants = functools.lru_cache(maxsize=64)(_StateConstants)


def _trig(phases, factor: np.ndarray, sin: bool = True, out=None) -> np.ndarray:
    """cos and sin (or the cos alone) of phases * factor, as a (1 + sin, K + 1, *phases.shape) table.

    Taken with each phase's modes adjacent, where libm's cos and sin run
    about twice as fast as across phases, then copied modes first, into
    ``out`` (a view of that shape in a larger table) where given.
    """
    if isinstance(phases, float):  # one phase: its row is the table
        ang = phases * factor
        table = np.empty((1 + sin, factor.size))
        np.cos(ang, out=table[0])
        if sin:
            np.sin(ang, out=table[1])
        return table
    ang = phases.reshape(-1, 1) * factor
    table = np.empty((1 + sin, factor.size, *phases.shape)) if out is None else out
    rows = table.reshape(1 + sin, factor.size, -1)
    rows[0] = np.cos(ang).T
    if sin:
        rows[1] = np.sin(ang, out=ang).T
    return table


# psi_jet's last kept trig table per angle: "x" for cos and sin of (u/2) m,
# "t" for cos and sin of -(w/4) m^2, each (factor row, phases, table), all
# read-only, or None.  An entry is replaced whole by one assignment, so a
# reader on another thread sees an old entry or a new one, never a mix
_kept_tables = {"x": None, "t": None}


def _kept_table(angle: str, phases: np.ndarray, factor: np.ndarray):
    """cos and sin of phases * factor for phases with one entry per point, as a (2, K + 1, *phases.shape) table.

    None where the table would exceed ``_TIME_TABLE_BYTES``: the caller then
    takes the trig per block.  Otherwise the table is built a block of
    entries at a time, which bounds the transient, and kept in
    ``_kept_tables[angle]``, keyed on the identity of the factor row and on
    the bits of the phases, so -0.0 and 0.0 differ.  The old entry is
    dropped before its replacement is built, so the two never coexist.
    Phases with a non-finite entry are never kept and leave the entry in
    place, so their warnings recur on every call.
    """
    kept = _kept_tables[angle]
    if kept is not None and kept[0] is factor and np.array_equal(kept[1].view(np.uint64), phases.view(np.uint64)):
        return kept[2]  # array_equal compares the shapes too
    if 16 * factor.size * phases.size > _TIME_TABLE_BYTES:
        return None
    keep = bool(np.isfinite(phases).all())  # phases are psi_jet's own product, not the caller's array
    if keep:  # release the old table, here too, before the new one is built
        _kept_tables[angle] = kept = None
    table = np.empty((2, factor.size, *phases.shape))
    rows, flat = table.reshape(2, factor.size, -1), phases.reshape(-1)
    step = max(1, _JET_BUDGET // factor.size)
    for lo in range(0, flat.size, step):
        _trig(flat[lo : lo + step], factor, out=rows[:, :, lo : lo + step])
    if keep:
        phases.flags.writeable = table.flags.writeable = False
        _kept_tables[angle] = (factor, phases, table)
    return table


def _mode_sum(chunks) -> np.ndarray:
    """Terms (n, 2, modes, *points) summed over the modes, in one order for every layout.

    ``chunks`` yields the terms of all modes at once, or of one run of
    S = ``_SUM_STRIDE`` modes at a time.  Running sum c adds mode c of each
    run in turn, and the S running sums are then added in order, so up to S
    modes the order is m = 1, 3, 5, ...  Each step is an ``np.add.reduce``
    over an axis followed by two or more contiguous values, which numpy adds
    row after row, from -0.0 so that signed zeros keep their sign; one
    point's last step would collapse to numpy's pairwise 1-D sum, so it
    takes ``np.add.accumulate``, which adds in order.
    """
    chunks = iter(chunks)
    sums = next(chunks)
    width = sums.shape[2]
    if width > _SUM_STRIDE:  # every mode at once: the runs, then the tail
        head = width - width % _SUM_STRIDE
        runs = sums[:, :, :head].reshape(*sums.shape[:2], -1, _SUM_STRIDE, *sums.shape[3:])
        tail, sums = sums[:, :, head:], np.add.reduce(runs, axis=2, initial=-0.0)
        sums[:, :, : tail.shape[2]] += tail
    for terms in chunks:
        sums[:, :, : terms.shape[2]] += terms
    if math.prod(sums.shape[3:]) == 1:
        return np.add.accumulate(sums, axis=2)[:, :, -1]
    return np.add.reduce(sums, axis=2, initial=-0.0)


def _jet_terms(x_trig: np.ndarray, rot: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Terms (n, 2, modes, *points) of orders 0..n-1: ((cos or sin) W_k) times (cos, sin), in that order.

    ``x_trig`` holds cos (and sin) of (u/2) m, ``rot`` cos and sin of
    -(w/4) m^2; order 0 reads the cos alone and the odd orders the sin.
    """
    shape = (weights.shape[1], *(1,) * (x_trig.ndim - 2))
    if n == 1:
        xw = x_trig[:1] * weights[0].reshape(shape)
    else:  # row pairs (even, odd order) take (cos, sin)
        r = (n + 1) // 2
        xw = weights[: 2 * r].reshape(r, 2, *shape) * x_trig
        xw = xw.reshape(2 * r, *xw.shape[2:])[:n]
    return xw[:, None] * rot


def _blocks(shape: tuple, points: int):
    """Index tuples of consecutive C-order blocks of ``shape`` (one axis or more), each within ``points`` (or one point).

    Whole leading rows while they fit, else one leading index at a time with
    the rest split the same way.
    """
    inner = math.prod(shape[1:])
    if inner <= points:
        step = max(1, points // max(inner, 1))
        yield from ((slice(lo, lo + step),) for lo in range(0, shape[0], step))
    else:
        for i in range(shape[0]):
            yield from ((slice(i, i + 1), *rest) for rest in _blocks(shape[1:], points))


def _along(modes: slice, idx: tuple, shape: tuple) -> tuple:
    """Block ``idx``, modes ``modes``, of the table of an input of ``shape``: its broadcast axes stay whole."""
    return (slice(None), modes, *(s if shape[d] != 1 else slice(None) for d, s in enumerate(idx)))


def psi_jet(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
    order: int = 0,
) -> np.ndarray:
    """The scaled wavefunction and its first ``order`` x-derivatives, order <= 5.

    Returns a complex array of shape (order + 1, *broadcast shape of x, t):
    entry k is d^k/dx^k of the theta series sum_m exp(-(pi*beta/4)(m^2-1))
    exp(i(u/2) m - i(w/4) m^2) over odd m of both signs, with
    u = pi*(2*mu*x/l + 1) and w = (pi/T_mu)*t.  Divide bilinear forms by
    l * scaled_norm_sum (or psi itself by its square root) to normalize.
    One O(K) sum per point, with K from ``cutoff_for(beta)``.

    The harmonics m and -m are summed as one term, 2 cos or 2i sin of
    (u/2) m, so psi is exactly real at t = 0 and the flux vanishes there
    exactly.  The angle (u/2) m depends on x alone and (w/4) m^2 on t alone,
    so their cos and sin are taken once per entry of x and of t as given
    (``_trig``), in tables with the K + 1 modes ahead of the points; order 0
    reads only the cos of (u/2) m, and takes only it where the x table is
    not kept: three transcendentals per term.  Order k is the broadcast
    product ((cos or sin) W_k) (cos, sin) of -(w/4) m^2,
    summed over the modes row by row in one fixed order (``_mode_sum``),
    never by a matrix product, so a grid, scattered points and one point
    give the same bits in any orientation, and entry 0 is the same at every
    order.  The products are formed per block of the broadcast shape within
    ``_JET_BUDGET`` entries, so a grid needs no gather.

    An input with one entry per point has its table kept: x's and t's are
    each built whole, cos and sin, up to ``_TIME_TABLE_BYTES`` and the last
    one of each kept for a next call on the same mode row and the same bits
    of u or of w (``_kept_table``), so fields taken one after another on
    the same scattered points take their trig once, whatever their order.
    Between calls at most two such tables are held, with the u and the w
    they were built for; a larger input takes its trig per block, and an
    input with fewer entries than points (a grid's axis) is tabled anew on
    each call.  The one-point call (one x, one t) skips the tables.
    """
    return _jet(x, t, _state_constants(state, sys, trunc), order)


def _jet(x, t, rec: _StateConstants, order: int) -> np.ndarray:
    """``psi_jet`` on the state's record (``_state_constants``), looked up once by the caller."""
    if order not in range(6):
        raise ValueError(f"order must be 0, 1, 2, 3, 4 or 5, got {order!r}")
    _check_domain(x, rec.sys)
    half_m, quarter_m2, weights = rec.jet
    u, w = rec.phases(x, t)
    shape = np.broadcast_shapes(u.shape, w.shape)
    u, w = (a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in (u, w))
    n, n_modes, size = order + 1, half_m.size, math.prod(shape)
    out = np.empty((n, *shape), dtype=complex)
    if size == 1:  # one point: its tables are single rows
        sums = _mode_sum([_jet_terms(_trig(u.item(), half_m, n > 1), _trig(w.item(), quarter_m2), weights, n)])
        out.real.flat, out.imag.flat = sums[:, 0], sums[:, 1]
        return out
    # an input with fewer entries than points is tabled on every call; for
    # one with an entry per point _kept_table decides
    x_trig = _trig(u, half_m, n > 1) if u.size < size else _kept_table("x", u, half_m)
    t_trig = _trig(w, quarter_m2) if w.size < size else _kept_table("t", w, quarter_m2)

    def chunks(idx: tuple, width: int):
        for lo in range(0, n_modes, width):
            m = slice(lo, lo + width)
            xs = _trig(u[idx], half_m[m], n > 1) if x_trig is None else x_trig[_along(m, idx, u.shape)]
            rot = _trig(w[idx], quarter_m2[m]) if t_trig is None else t_trig[_along(m, idx, w.shape)]
            yield _jet_terms(xs, rot, weights[:, m], n)

    for idx in _blocks(shape, max(1, _JET_BUDGET // (2 * n * min(n_modes, _SUM_STRIDE)))):
        # every mode at once where they fit, else a run of _SUM_STRIDE at a time
        fits = 2 * n * n_modes * out[(0, *idx)].size <= _JET_BUDGET
        sums = _mode_sum(chunks(idx, n_modes if fits else _SUM_STRIDE))
        out.real[(slice(None), *idx)] = sums[:, 0]
        out.imag[(slice(None), *idx)] = sums[:, 1]
    return out


@dataclass(frozen=True)
class JetForms:
    """Bilinear forms of one ``psi_jet``, each divided by the norm l * scaled_norm_sum.

    With psi_k the k-th x-derivative, ``re(i, j)`` is Re(conj(psi_i) psi_j)
    and ``im(i, j)`` is Im(conj(psi_i) psi_j), both over ``norm``: every
    field is a combination of these (density re(0, 0), flux (hbar/m) im(0, 1),
    ...).  Real arithmetic, because numpy's complex array product rounds
    differently from its scalar one; this way a grid call equals per-point
    calls bit for bit.
    """

    jet: np.ndarray
    norm: float

    def re(self, i: int, j: int):
        a, b = self.jet[i], self.jet[j]
        return (a.real * b.real + a.imag * b.imag) / self.norm

    def im(self, i: int, j: int):
        a, b = self.jet[i], self.jet[j]
        return (a.real * b.imag - a.imag * b.real) / self.norm

    def dt(self, sys: SystemParams) -> JetRates:
        """The time derivatives of these forms, read from the jet two orders up."""
        return JetRates(self, sys.hbar / (2.0 * sys.m))


@dataclass(frozen=True)
class JetRates:
    """d/dt of the bilinear forms of a ``JetForms``, with the same ``re``/``im`` interface.

    The Schrodinger equation turns d/dt psi_j into (i hbar/2m) psi_{j+2}, so

        d/dt re(i, j) = (hbar/2m) [im(i+2, j) - im(i, j+2)],
        d/dt im(i, j) = (hbar/2m) [re(i, j+2) - re(i+2, j)],

    and a field built from the forms gives its own time derivative when built
    from these instead; forms of orders up to k need a jet of order k + 2.
    """

    forms: JetForms
    rate: float

    def re(self, i: int, j: int):
        return self.rate * (self.forms.im(i + 2, j) - self.forms.im(i, j + 2))

    def im(self, i: int, j: int):
        return self.rate * (self.forms.re(i, j + 2) - self.forms.re(i + 2, j))


def jet_forms(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
    order: int = 0,
) -> JetForms:
    """The normalized bilinear forms of the order-``order`` psi jet at (x, t)."""
    rec = _state_constants(state, sys, trunc)
    return JetForms(_jet(x, t, rec, order), rec.norm)


# psi evaluates theta1 by SL(2, Z) reduction (a few terms per point) at and
# below this beta and the order-0 jet (K + 1 ~ beta^(-1/2) modes) above it:
# where per point a 64x16 grid of jet sums and theta1 cost about the same
# (the grid wins at 3e-5, theta1 at 1e-5; scalar jet calls cost more)
_THETA1_MAX_BETA = 2e-5


def _theta1_point(x: float, t: float, route: tuple) -> complex:
    """psi at one in-well point: -theta1(mu x/l, tau(t)) / sqrt(N), from the record's ``theta1`` tuple."""
    mu, l, rate, beta, trunc, scale = route
    value = theta1(mu * x / l, complex(-(rate * t), beta), trunc)
    return complex(value.real * scale, value.imag * scale)


def _unbox(val):
    """A float for a 0-d result, the array otherwise."""
    if np.ndim(val) == 0:
        return float(val)
    return val


def psi(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    trunc: Truncation = DEFAULT_TRUNCATION,
):
    """The wavefunction at (x, t), normalized so the probability on [0, l] is 1.

    Two routes, chosen by beta alone.  For beta <= ``_THETA1_MAX_BETA`` each
    point is -theta1(mu x/l, tau(t)) from ``theta.theta1`` (SL(2, Z)
    reduction, a few terms whatever beta) over the square root of N(beta)
    from its Poisson dual (``theta.theta_dual``), so no cutoff is needed;
    floats and arrays take the same per-point call, so a grid equals
    per-point calls bit for bit.  Above it, the order-0 ``psi_jet`` over
    the square root of l * scaled_norm_sum, part by part (a complex array
    division rounds otherwise); there a float x and t (``np.float64``
    too) skip the tables: one read of the record's ``point`` tuple, then
    the jet's order-0 products in its order, added in ``_mode_sum``'s order
    for one point (m = 1, 3, 5, ... from -0.0 up to ``_SUM_STRIDE``
    modes), with the same bits, in a loop over Python floats up to
    ``_FLOAT_LOOP_MODES`` modes (math's cos and sin are libm's, as numpy's
    float64 ones are) and over the mode rows in one (2, K + 1) array above;
    a non-finite angle or w takes an array call and its warnings.  Every
    route makes one lookup of the state's record (``_state_constants``).
    Boundary evaluations return the raw series value, which cancels to the
    truncation floor rather than being forced to exactly 0.  Broadcasts
    over x and t.
    """
    rec = _state_constants(state, sys, trunc)
    if state.beta <= _THETA1_MAX_BETA:
        _check_domain(x, sys)
        if isinstance(x, float) and isinstance(t, float):
            return _theta1_point(x, t, rec.theta1)
        xs, ts = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
        points = zip(xs.ravel().tolist(), ts.ravel().tolist())
        out = np.array([_theta1_point(*point, rec.theta1) for point in points], dtype=complex)
        return complex(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)
    if isinstance(x, float) and isinstance(t, float):
        _check_domain(x, sys)
        half_m, quarter_m2, w0, w_scale, root, rows = rec.point
        u, wt = _x_phase(x, state, sys), w_scale * t
        if not math.isfinite(wt):  # a 0-d call, whose multiply warns where w overflows
            return psi(np.array(x), np.array(t), state, sys, trunc)
        if rows is not None:  # the numpy route's products and order, term by term
            re = im = -0.0
            try:
                for hm, qm, w in rows:
                    amp = math.cos(u * hm) * w
                    ang = wt * qm
                    re += math.cos(ang) * amp
                    im += math.sin(ang) * amp
                return complex(re / root, im / root)
            except ValueError:  # an infinite angle: math raises where numpy warns and gives NaN
                pass
        # psi_jet's one-point terms at order 0, built with fewer numpy calls
        amp = u * half_m
        np.cos(amp, out=amp)
        amp *= w0
        ang = wt * quarter_m2
        terms = np.empty((2, ang.size))
        np.cos(ang, out=terms[0])
        np.sin(ang, out=terms[1])
        terms *= amp
        # within one run, _mode_sum's order for one point is this accumulate
        if ang.size <= _SUM_STRIDE:
            re, im = np.add.accumulate(terms, axis=1)[:, -1].tolist()
        else:
            re, im = _mode_sum([terms[None]])[0].tolist()
        return complex(re / root, im / root)
    theta_scaled = _jet(x, t, rec, 0)[0]
    root = math.sqrt(rec.norm)
    out = np.empty(theta_scaled.shape, dtype=complex)
    out.real = theta_scaled.real / root
    out.imag = theta_scaled.imag / root
    return complex(out) if out.ndim == 0 else out


def stationary_psi(
    x: float,
    t: float,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
) -> complex:
    """The single stationary mode of level mu: sqrt(2/l) sin(pi mu x / l) e^{-i E_mu t / hbar}.

    The large-beta limit of ``psi`` up to a constant phase.  No registry
    check calls it; the wavefunction tests compare ``psi`` against it.
    """
    _check_domain(x, sys)
    scales = derived_scales(state, sys)
    amp = math.sqrt(2.0 / sys.l) * math.sin(math.pi * state.mu * x / sys.l)
    return amp * complex(np.exp(-1j * scales.E_mu * t / sys.hbar))


def schrodinger_residual_of(
    wave: Callable,
    x,
    t,
    sys: SystemParams,
    h_x: float,
    h_t: float,
):
    """|i hbar dw/dt + (hbar^2/2m) d2w/dx2| with central differences, O(h^2).

    The free equation inside the well (zero potential).  The five-point
    stencil must stay inside the open interval (0, l).  Broadcasts over x
    and t when ``wave`` does; real and imaginary parts are combined apart,
    so a grid rounds exactly like per-point calls.
    """
    if not (h_x > 0.0 and h_t > 0.0):
        raise ValueError("h_x and h_t must be positive")
    if not np.all((x - h_x > 0.0) & (x + h_x < sys.l)):
        raise ValueError(f"x stencil [{x - h_x}, {x + h_x}] leaves the open well (0, {sys.l})")
    w_c, w_xp, w_xm = wave(x, t), wave(x + h_x, t), wave(x - h_x, t)
    w_tp, w_tm = wave(x, t + h_t), wave(x, t - h_t)
    d2x_re = (w_xp.real - 2.0 * w_c.real + w_xm.real) / (h_x * h_x)
    d2x_im = (w_xp.imag - 2.0 * w_c.imag + w_xm.imag) / (h_x * h_x)
    dt_re = (w_tp.real - w_tm.real) / (2.0 * h_t)
    dt_im = (w_tp.imag - w_tm.imag) / (2.0 * h_t)
    k = sys.hbar**2 / (2.0 * sys.m)
    return _unbox(np.hypot(k * d2x_re - sys.hbar * dt_im, sys.hbar * dt_re + k * d2x_im))


def schrodinger_residual(
    x,
    t,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
    h_x: float = 1e-4,
    h_t: float = 1e-4,
    trunc: Truncation = DEFAULT_TRUNCATION,
):
    """Finite-difference free-equation residual of ``psi`` at (x, t); broadcasts over x, t.

    ``h_x`` and ``h_t`` are absolute steps in the caller's units; pick them
    around 1e-4 of l and of the period for the O(h^2) regime.
    """
    return schrodinger_residual_of(
        lambda xx, tt: psi(xx, tt, state, sys, trunc), x, t, sys, h_x, h_t
    )
