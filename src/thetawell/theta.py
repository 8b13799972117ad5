"""Jacobi theta functions with characteristics.

``theta_char`` evaluates the two-parameter lattice sum

    theta[a, b](z, tau) = sum_k exp(pi*i*tau*(k+a)^2 + 2*pi*i*(z+b)(k+a)),

absolutely convergent for Im(tau) > 0.  ``theta1`` is the odd member used by
the well wavefunction; this module fixes its sign as

    theta1(z, tau) = -theta[1/2, 1/2](z, tau),

the convention under which theta1 is odd in z with simple zeros on the lattice
z = m + n*tau.  (The opposite overall sign also appears in the literature; it
cancels in every squared-modulus quantity, but a single convention is applied
consistently here and callers that need the raw positive series use
``theta_char`` directly.)

The two are independent routes: ``theta_char`` sums the series directly,
K ~ Im(tau)^(-1/2) terms, and ``theta1`` maps tau by SL(2, Z) to
Im(tau') >= sqrt(3)/2 and sums a handful.  ``psi`` evaluates ``theta1`` at
small beta; the tests and the benchmark keep ``theta_char`` as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TRUNCATION, Truncation, cutoff_for

__all__ = ["ThetaArgs", "theta_char", "theta_dual", "theta1"]

_TWO_PI_I = 2j * math.pi
_VELTKAMP = 134217729.0  # 2**27 + 1


@dataclass(frozen=True)
class ThetaArgs:
    """Arguments of a theta evaluation: characteristics (a, b), point z, modulus tau."""

    a: float
    b: float
    z: complex
    tau: complex

    def __post_init__(self) -> None:
        if not (complex(self.tau).imag > 0.0):
            raise ValueError(f"Im(tau) must be positive, got tau={self.tau!r}")


def _index_window(center: float, cutoff: int) -> np.ndarray:
    """Integer indices with |k + center| <= cutoff + 1/2, ordered center-out.

    The window is symmetric about the weight center k = -center, which keeps
    the pair cancellations (k vs -k-1 for half-integer a and real z) exact at
    the boundary.
    """
    lo = math.ceil(-center - cutoff - 0.5)
    hi = math.floor(-center + cutoff + 0.5)
    ks = np.arange(lo, hi + 1)
    order = np.argsort(np.abs(ks + center), kind="stable")
    return ks[order]


def _turns(c: float, n: np.ndarray) -> np.ndarray:
    """c * n reduced mod 1, exactly for integers |n| < 2**27.

    Veltkamp's split writes c as two halves of 26 significant bits, so each
    half times n is an exact double and p - round(p) is its exact fraction.
    """
    big = c * _VELTKAMP
    hi = big - (big - c)
    lo = c - hi
    p, q = hi * n, lo * n
    return (p - np.round(p)) + (q - np.round(q))


def theta_char(args: ThetaArgs, trunc: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Evaluate the theta series, truncated per the tail-bound policy.

    Characteristics are reduced modulo 1 in ``a`` (an exact symmetry of the
    sum), and the index window is centered on the Gaussian weight center
    k = -a - Im(z)/Im(tau), so it holds the largest terms for complex z too.
    Terms are summed center-out, largest magnitude first.

    The phase Re(tau) (k+a)^2 / 2 + Re(z+b) (k+a) is taken in turns,
    expanded in the integer k; each coefficient times k^2 or k is reduced
    mod 1 exactly.  At small Im(tau) those products reach 1e6 turns, where
    rounding them directly would cost 1e-12 of sum |term|.
    """
    shift = round(args.a)
    a = args.a - shift  # a in [-1/2, 1/2], series invariant under integer shifts
    b = args.b
    z = complex(args.z)
    tau = complex(args.tau)
    cutoff = cutoff_for(tau.imag, trunc)
    ks = _index_window(a + z.imag / tau.imag, cutoff)
    ka = ks + a
    k = ks.astype(float)
    half = tau.real / 2.0
    turns = (
        _turns(half, k * k)
        + _turns(tau.real * a, k)
        + _turns(z.real, k)
        + _turns(b, k)
        + (half * a * a + (z.real + b) * a)
    )
    modulus = -math.pi * tau.imag * ka * ka - 2.0 * math.pi * z.imag * ka
    return complex(np.sum(np.exp(modulus + _TWO_PI_I * turns)))


def _dual_terms(args: ThetaArgs, trunc: Truncation) -> tuple[np.ndarray, np.ndarray]:
    """Offsets k - w and terms exp(2 pi i k a) exp(-pi (k - w)^2 / kappa) of ``theta_dual``.

    Shape z.shape + (2R + 1,), R = ceil(reach): point w gets the window
    k = round(w) + j, |j| <= R, ordered center-out by |k - w| (j = 0, then
    -1 and 1 in the order of their distance to w, ...).  That window holds
    every term above the tolerance, and for a scalar z off the half-integers
    it is the window and order of the single-point sum.
    """
    tau, z = complex(args.tau), np.asarray(args.z)
    if tau.real != 0.0 or np.any(z.imag != 0.0):
        raise ValueError(f"theta_dual needs imaginary tau and real z, got tau={tau!r}, z={args.z!r}")
    kappa, w = tau.imag, z.real.astype(float) + args.b
    reach = math.ceil(math.sqrt(kappa / math.pi * (math.log(1.0 / trunc.tol) + math.pi * kappa / 4.0)))
    j = np.zeros(2 * reach + 1)
    j[1::2], j[2::2] = -np.arange(1, reach + 1), np.arange(1, reach + 1)
    center = np.round(w)
    side = np.where(w > center, -1.0, 1.0)  # nearer neighbour first
    k = center[..., None] + side[..., None] * j
    d = k - w[..., None]
    return d, np.exp(-math.pi * d**2 / kappa + _TWO_PI_I * _turns(args.a, k))


def theta_dual(args: ThetaArgs, trunc: Truncation = DEFAULT_TRUNCATION):
    """The theta series at purely imaginary tau = i kappa and real z, by Poisson summation.

    theta[a, b](z, i kappa) = kappa^(-1/2) sum_k exp(2 pi i k a) exp(-pi (k - w)^2 / kappa)
    with w = z + b: a handful of Gaussians when kappa is small, where the
    direct series needs K ~ kappa^(-1/2) terms.  Terms are kept while
    exp(-pi (k - w)^2 / kappa) > tol * exp(-pi kappa / 4), the smallest value
    of the half-characteristic sum relative to its leading term, and summed
    center-out.  Its rounding grows with that cancellation as kappa grows,
    so callers keep ``theta_char`` for large kappa.

    ``args.z`` may be an array of real points; each gets its own window about
    round(w) and one row sum, so an array gives per-point calls bit for bit
    and a complex array comes back.  The routes that run it: the norm of
    ``psi`` at small beta and ``partition_theta_form`` (z a scalar), and
    ``averaged_density`` and ``gibbs_sums`` at and below their switch beta.
    """
    terms = _dual_terms(args, trunc)[1]
    total = np.add.reduce(terms, axis=-1)
    root = math.sqrt(complex(args.tau).imag)
    if total.ndim == 0:
        return complex(total.real / root, total.imag / root)
    out = np.empty(total.shape, dtype=complex)
    out.real = total.real / root  # part by part: numpy's complex division rounds otherwise
    out.imag = total.imag / root
    return out


def _modular_word(tau: complex) -> tuple[int, int, int, int, int, int, float]:
    """Integers of the SL(2, Z) map that takes tau to |Re| <= 1/2, |tau'| >= 1.

    Shifts tau by round(Re tau) and inverts while |tau| < 1, in floats; the
    floats only choose the integers.  Returns (a, b, c, d) with
    tau' = (a tau + b)/(c tau + d), the shifts' total n (theta1 gains
    exp(i pi n / 4) per unit shift), the number of inversions and the sum of
    arg(-i tau_k) over the values tau_k inverted, which fixes the branch of
    the square roots they contribute.
    """
    a, b, c, d = 1, 0, 0, 1
    shifts = inversions = 0
    arg_sum = 0.0
    while True:
        n = round(tau.real)
        tau -= n
        a, b = a - n * c, b - n * d
        shifts += n
        if abs(tau) >= 1.0:
            return a, b, c, d, shifts, inversions, arg_sum
        arg_sum += math.atan2(-tau.real, tau.imag)  # arg(-i tau)
        inversions += 1
        tau = -1.0 / tau
        a, b, c, d = -c, -d, a, b


_MINUS_I_POWERS = (1.0, -1j, -1.0, 1j)


def theta1(z: complex, tau: complex, trunc: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Odd theta function, theta1(z, tau) = -theta[1/2, 1/2](z, tau), by SL(2, Z) reduction.

    Odd in z, with zeros at z = m + n*tau for integer m, n.  With
    gamma = (a, b; c, d) from ``_modular_word``, D = c tau + d,
    tau' = gamma tau (Im tau' >= sqrt(3)/2) and the half-integers j,

        theta1(z, tau) = D^(-1/2) sum_j exp(pi i tau' nu_j^2 + i phi_j),
        nu_j = j - c z,   phi_j = pi (2 a j z - a c z^2 + j + n/4 + k/2 + 1),

    where n and k count the shifts and inversions: the transformation law
    theta1(z/D, tau') = eps(gamma) D^(1/2) exp(pi i c z^2 / D) theta1(z, tau)
    with its Gaussian prefactor folded into each term.  The terms decay like
    exp(-pi Im(tau') (j - j*)^2), so a handful of j about the weight center
    j* (c Re z for real z) reach ``trunc.tol``: choosing that window is the
    quasi-periodic reduction of z.  Where the direct series needs
    K ~ Im(tau)^(-1/2) terms, this costs a few loop steps and about eight terms.

    Every large quantity is exact: c Re(tau) + d, a Re(tau) + b and nu_j are
    computed in integers from the doubles' integer ratios and rounded once,
    and phi_j is reduced mod 2 pi in integers for real z.  So the result is
    accurate at the given double tau, however close Re(tau) lies to a
    rational with small denominator, where cancelling shifts in floats would
    lose 1e-13 relative each.  The Im z terms of phi_j are taken in floats.
    """
    z, tau = complex(z), complex(tau)
    if not tau.imag > 0.0:
        raise ValueError(f"Im(tau) must be positive, got tau={tau!r}")
    x, y, sigma, beta = z.real, z.imag, tau.real, tau.imag
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(sigma) and math.isfinite(beta)):
        return complex(math.nan, math.nan)
    a, b, c, d, shifts, inversions, arg_sum = _modular_word(tau)
    s_num, s_den = sigma.as_integer_ratio()
    delta = (c * s_num + d * s_den) / s_den  # Re D, rounded once
    c_beta = c * beta
    # D^(-1/2) on the branch the inversions compose: the product of the -i tau_k
    # is w = (-i)^k D, and arg_sum picks arg(w) mod 4 pi
    w = complex(delta, c_beta) * _MINUS_I_POWERS[inversions % 4]
    arg = math.atan2(w.imag, w.real)
    arg += 2.0 * math.pi * round((arg_sum - arg) / (2.0 * math.pi))
    inv_root = abs(w) ** -0.5 * complex(math.cos(arg / 2.0), -math.sin(arg / 2.0))
    abs2 = delta * delta + c_beta * c_beta
    tau_re = ((a * s_num + b * s_den) / s_den * delta + a * c_beta * beta) / abs2
    tau_im = beta / abs2
    # phi_j / pi in units of 1/(4 q^2) for x = p/q and m = 2j: m u + v, mod 8 q^2
    p, q = x.as_integer_ratio()
    q2 = q * q
    u = 4 * a * p * q + 2 * q2
    v = (shifts + 2 * inversions + 4) * q2 - 4 * a * c * p * p
    center = c * x + y * (c * tau_re - a) / tau_im
    reach = math.sqrt(math.log(1.0 / trunc.tol) / (math.pi * tau_im))
    ipi_tau = complex(-math.pi * tau_im, math.pi * tau_re)
    first = 2 * math.ceil(center - reach - 0.5) + 1  # odd m = 2j with |j - center| <= reach
    last = 2 * math.floor(center + reach - 0.5) + 1
    re = im = 0.0
    for m in range(first, last + 1, 2):
        nu = complex((m * q - 2 * c * p) / (2 * q), -c * y)
        g = ipi_tau * nu * nu
        if y:
            g += complex(-2.0 * math.pi * a * y * nu.real, math.pi * a * c * y * y)
        ang = g.imag + math.pi * (((m * u + v) % (8 * q2)) / (4 * q2))
        size = math.exp(g.real)
        re += size * math.cos(ang)
        im += size * math.sin(ang)
    return complex(re, im) * inv_root
