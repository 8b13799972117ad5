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

from .numerics import DEFAULT_TRUNCATION, Truncation, cutoff_for
from .theta import theta1

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


def _axis_phases(x, t, state: QuantumState, sys: SystemParams):
    """u = pi*(2*mu*x/l + 1) over x and w = (pi/T_mu)*t over t, each in its own shape."""
    w_scale = math.pi / derived_scales(state, sys).T_mu
    return _x_phase(np.asarray(x, dtype=float), state, sys), w_scale * np.asarray(t, dtype=float)


def _phase_coords(x, t, state: QuantumState, sys: SystemParams):
    """Flattened u = pi*(2*mu*x/l + 1), w = (pi/T_mu)*t, and their broadcast shape."""
    if isinstance(x, float) and isinstance(t, float):  # the same arithmetic, unboxed
        w_scale = math.pi / derived_scales(state, sys).T_mu
        return np.array([_x_phase(x, state, sys)]), np.array([w_scale * t]), ()
    u, w = np.broadcast_arrays(*_axis_phases(x, t, state, sys))
    shape = np.shape(u)
    return np.ravel(u), np.ravel(w), shape


# points x modes per psi_jet chunk: 576 KiB of work arrays at order 3 and
# 704 KiB at order 5, so callers pass whole grids; larger chunks cost memory
# and save no time
_JET_BUDGET = 1 << 12

# rows x modes of psi_jet's per-x and per-t trig tables at once, each entry a
# cos/sin pair: 256 KiB, less than one chunk's work arrays at orders >= 1
_TABLE_BUDGET = 1 << 14


@functools.lru_cache(maxsize=64)
def _jet_table(
    beta: float, trunc: Truncation, mu: int, l: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The psi jet's angle factors m/2, -m^2/4 and weights over positive odd m.

    Row k of the weights (orders k = 0..5) holds c_k * 2 m^k exp(-(pi*beta/4)(m^2-1)) with
    c = (1, -kx, -kx^2, kx^3, kx^4, -kx^5) and kx = pi*mu/l: the amplitude, the
    factor 2 that folds the harmonic -m into m, and the real factor left of
    (i kx m)^k once the odd orders' 2i sin((u/2) m) is taken out.
    Read-only, shared by callers.
    """
    modes = mode_table(beta / 2.0, trunc)  # weights exp(-(pi*beta/4)(m^2-1))
    m, amp = modes.m, 2.0 * modes.w
    kx = math.pi * mu / l
    kx2 = kx * kx
    c = np.array([1.0, -kx, -kx2, kx2 * kx, kx2 * kx2, -kx2 * kx2 * kx])
    weights = c[:, None] * (amp * m ** np.arange(6)[:, None])
    half_m, quarter_m2 = m / 2.0, m * m / -4.0
    for arr in (half_m, quarter_m2, weights):
        arr.flags.writeable = False
    return half_m, quarter_m2, weights


def _order0_sums(u, w, half_m: np.ndarray, quarter_m2: np.ndarray, w0: np.ndarray):
    """Real and imaginary parts of the order-0 jet, summed over the last (mode) axis.

    sum over m of (cos((u/2) m) w0) exp(-i(w/4) m^2): three transcendentals
    per term, and each part one pairwise ``np.add.reduce`` over the K + 1
    contiguous modes.  u and w broadcast against the modes, so one point
    passes floats and a chunk of p points passes (p, 1) columns; the
    arithmetic per term, and so every bit, is the same either way.
    """
    amp = np.cos(u * half_m) * w0
    ang = w * quarter_m2
    return np.add.reduce(amp * np.cos(ang), axis=-1), np.add.reduce(amp * np.sin(ang), axis=-1)


def _jet_sums(xs: np.ndarray, rot: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Orders 0..n-1 (n >= 2) of p points from their trig rows, as a (p, n) complex array.

    ``xs`` holds cos and sin of (u/2) m and ``rot`` cos and sin of -(w/4) m^2,
    each (p, 2, K + 1): xs times the weights, times rot, and one pairwise row
    sum per part over the modes.
    """
    p, n_modes = xs.shape[0], xs.shape[-1]
    if n <= 2:
        xw = xs[:, :n] * weights[:n]
    else:  # row pairs (even, odd order) take (cos, sin)
        r = (n + 1) // 2
        pairs = weights[: 2 * r].reshape(r, 2, n_modes)
        xw = (xs[:, None] * pairs).reshape(p, 2 * r, n_modes)[:, :n]
    sums = np.add.reduce(xw[:, :, None, :] * rot[:, None, :, :], axis=-1)
    return sums.view(complex)[..., 0]


def _trig_rows(phases: np.ndarray, factor: np.ndarray, sin: bool = True) -> np.ndarray:
    """A psi_jet table: cos and sin of phase * factor, a (2, K + 1) row per phase, or the cos alone."""
    if not sin:
        ang = phases[:, None] * factor
        return np.cos(ang, out=ang)
    rows = np.empty((phases.size, 2, factor.size))
    ang = np.multiply(phases[:, None], factor, out=rows[:, 1])  # the sin slot, in place
    np.cos(ang, out=rows[:, 0])
    np.sin(ang, out=ang)
    return rows


def _table_slabs(ix: np.ndarray, it: np.ndarray, n_x: int, n_t: int, rows: int):
    """Consecutive point ranges whose x and t tables fit ``rows`` rows together.

    Yields (lo, hi, x0, x1, t0, t1): points lo..hi-1 read x rows x0..x1-1 and
    t rows t0..t1-1.  A grid within budget is one range.  Otherwise each range
    is the longest run whose index spans fit; S consecutive points are S
    distinct (x, t) pairs, so no run that fits is longer than rows^2/4.
    """
    if n_x + n_t <= rows:
        yield 0, ix.size, 0, n_x, 0, n_t
        return
    lo = 0
    while lo < ix.size:
        hi = min(ix.size, lo + rows * rows // 4 + 1)
        x0, x1 = np.minimum.accumulate(ix[lo:hi]), np.maximum.accumulate(ix[lo:hi])
        t0, t1 = np.minimum.accumulate(it[lo:hi]), np.maximum.accumulate(it[lo:hi])
        size = max(1, int(np.count_nonzero(x1 - x0 + t1 - t0 + 2 <= rows)))
        end = size - 1
        yield lo, lo + size, int(x0[end]), int(x1[end]) + 1, int(t0[end]), int(t1[end]) + 1
        lo += size


def _grid_jet(x, t, shape, state, sys, half_m, quarter_m2, weights, n: int) -> np.ndarray:
    """psi_jet's (points, n) sums on a grid, from trig tables over the distinct x and t.

    cos/sin of (u/2) m is taken once per x value and cos/sin of -(w/4) m^2
    once per t value, then gathered per chunk into the same products and row
    sums as the per-point route, so every bit is the same.  The tables are
    built per run of points within ``_TABLE_BUDGET`` (``_table_slabs``).
    """
    u, w = _axis_phases(x, t, state, sys)
    ix = np.broadcast_to(np.arange(u.size).reshape(u.shape), shape).ravel()
    it = np.broadcast_to(np.arange(w.size).reshape(w.shape), shape).ravel()
    u, w = u.ravel(), w.ravel()
    n_modes = half_m.size
    out = np.empty((ix.size, n), dtype=complex)
    chunk = max(1, _JET_BUDGET // n_modes)
    for lo, hi, x0, x1, t0, t1 in _table_slabs(ix, it, u.size, w.size, _TABLE_BUDGET // n_modes):
        t_rows = _trig_rows(w[t0:t1], quarter_m2)
        if n == 1:  # cos((u/2) m) w0, as _order0_sums takes it
            x_rows = _trig_rows(u[x0:x1], half_m, sin=False)
            x_rows *= weights[0]
        else:
            x_rows = _trig_rows(u[x0:x1], half_m)
        for c in range(lo, hi, chunk):
            e = min(c + chunk, hi)
            xs = np.take(x_rows, ix[c:e] - x0, axis=0)
            rot = np.take(t_rows, it[c:e] - t0, axis=0)
            if n == 1:
                sums = np.add.reduce(xs[:, None, :] * rot, axis=-1)
                out.real[c:e, 0], out.imag[c:e, 0] = sums[:, 0], sums[:, 1]
            else:
                out[c:e] = _jet_sums(xs, rot, weights, n)
    return out


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
    exactly.  Order 0 reads only the cos, so it costs three transcendentals
    per term (``_order0_sums``, which scalar ``psi`` calls directly); higher
    orders take four.  Each point is reduced by a row sum over the modes,
    never a matrix product, so a grid call equals per-point calls bit for
    bit, and entry 0 is the same at every order.

    The angle (u/2) m depends on x alone and (w/4) m^2 on t alone.  When x
    and t hold at most half as many values as their broadcast has points
    (x.size + t.size <= points // 2, a grid), their trig is taken once per
    value and gathered (``_grid_jet``); scattered points and single points
    take it per point.
    """
    if order not in range(6):
        raise ValueError(f"order must be 0, 1, 2, 3, 4 or 5, got {order!r}")
    _check_domain(x, sys)
    half_m, quarter_m2, weights = _jet_table(state.beta, trunc, state.mu, sys.l)
    n = order + 1
    shape = np.broadcast_shapes(np.shape(x), np.shape(t))
    if np.size(x) + np.size(t) <= math.prod(shape) // 2:
        out = _grid_jet(x, t, shape, state, sys, half_m, quarter_m2, weights, n)
        return out.T.reshape((n, *shape))
    n_modes = half_m.size
    uf, wf, shape = _phase_coords(x, t, state, sys)
    out = np.empty((uf.size, n), dtype=complex)
    chunk = max(1, _JET_BUDGET // n_modes)
    for lo in range(0, uf.size, chunk):
        hi = min(lo + chunk, uf.size)
        if n == 1:
            out.real[lo:hi, 0], out.imag[lo:hi, 0] = _order0_sums(
                uf[lo:hi, None], wf[lo:hi, None], half_m, quarter_m2, weights[0]
            )
            continue
        p = hi - lo
        # angles [-(w/4) m^2, (u/2) m]; the odd orders need sin((u/2) m) too,
        # so cos and sin of both in one call each
        ang = np.empty((p, 2, n_modes))
        np.multiply(wf[lo:hi, None], quarter_m2, out=ang[:, 0])
        np.multiply(uf[lo:hi, None], half_m, out=ang[:, 1])
        trig = np.empty((p, 2, 2, n_modes))
        np.cos(ang, out=trig[:, 0])
        np.sin(ang, out=trig[:, 1])
        # cos and sin of (u/2) m; cos and -sin of (w/4) m^2, i.e. exp(-i(w/4) m^2)
        out[lo:hi] = _jet_sums(trig[:, :, 1], trig[:, :, 0], weights, n)
    return out.T.reshape((n, *shape))


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
    return JetForms(psi_jet(x, t, state, sys, trunc, order), sys.l * scaled_norm_sum(state, trunc))


@functools.lru_cache(maxsize=64)
def _point_constants(state: QuantumState, sys: SystemParams, trunc: Truncation):
    """Per-state constants of scalar ``psi``: order-0 jet rows, pi/T_mu, sqrt(l * scaled_norm_sum)."""
    half_m, quarter_m2, weights = _jet_table(state.beta, trunc, state.mu, sys.l)
    w_scale = math.pi / derived_scales(state, sys).T_mu
    return half_m, quarter_m2, weights[0], w_scale, math.sqrt(sys.l * scaled_norm_sum(state, trunc))


# psi evaluates theta1 by SL(2, Z) reduction (a few terms per point) at and
# below this beta and the order-0 jet (K + 1 ~ beta^(-1/2) modes) above it:
# where per point a 64x16 grid of jet sums and theta1 cost about the same
# (the grid wins at 3e-5, theta1 at 1e-5; scalar jet calls cost more)
_THETA1_MAX_BETA = 2e-5


@functools.lru_cache(maxsize=64)
def _theta1_constants(state: QuantumState, sys: SystemParams, trunc: Truncation):
    """Per-state constants of psi's theta1 route: the tau rate, and -exp(pi beta/4) over the norm's root."""
    rate = state.mu**2 * (2.0 * math.pi * sys.hbar / (sys.m * sys.l**2))
    root = math.sqrt(sys.l * scaled_norm_sum(state, trunc))
    return rate, -math.exp(math.pi * state.beta / 4.0) / root


def _theta1_point(
    x: float, t: float, state: QuantumState, sys: SystemParams, trunc: Truncation
) -> complex:
    """psi at one in-well point: -theta1(mu x/l, tau(t)) exp(pi beta/4)/sqrt(l * scaled_norm_sum)."""
    rate, scale = _theta1_constants(state, sys, trunc)
    value = theta1(state.mu * x / sys.l, complex(-(rate * t), state.beta), trunc)
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
    reduction, a few terms whatever beta), times exp(pi beta/4) over the
    square root of l * scaled_norm_sum; floats and arrays take the same
    per-point call, so a grid equals per-point calls bit for bit.  Above it,
    the order-0 ``psi_jet`` over that square root, part by part (a complex
    array division rounds otherwise); there a float x and t (``np.float64``
    too) skip the grid machinery: one cached lookup and one ``_order0_sums``
    call on the mode rows, with the same bits.  Boundary evaluations return
    the raw series value, which cancels to the truncation floor rather than
    being forced to exactly 0.  Broadcasts over x and t.
    """
    if state.beta <= _THETA1_MAX_BETA:
        _check_domain(x, sys)
        if isinstance(x, float) and isinstance(t, float):
            return _theta1_point(x, t, state, sys, trunc)
        xs, ts = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
        points = zip(xs.ravel().tolist(), ts.ravel().tolist())
        out = np.array([_theta1_point(*point, state, sys, trunc) for point in points], dtype=complex)
        return complex(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)
    if isinstance(x, float) and isinstance(t, float):
        _check_domain(x, sys)
        half_m, quarter_m2, w0, w_scale, root = _point_constants(state, sys, trunc)
        re, im = _order0_sums(_x_phase(x, state, sys), w_scale * t, half_m, quarter_m2, w0)
        return complex(re / root, im / root)
    theta_scaled = psi_jet(x, t, state, sys, trunc)[0]
    root = math.sqrt(sys.l * scaled_norm_sum(state, trunc))
    if theta_scaled.ndim == 0:
        return complex(theta_scaled.real / root, theta_scaled.imag / root)
    out = np.empty(theta_scaled.shape, dtype=complex)
    out.real = theta_scaled.real / root
    out.imag = theta_scaled.imag / root
    return out


def stationary_psi(
    x: float,
    t: float,
    state: QuantumState,
    sys: SystemParams = NATURAL_UNITS,
) -> complex:
    """The single stationary mode of level mu: sqrt(2/l) sin(pi mu x / l) e^{-i E_mu t / hbar}.

    The large-beta limit of ``psi`` up to a constant phase; used as a
    comparator in residual checks.
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
