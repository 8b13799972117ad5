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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TRUNCATION, Truncation, cutoff_for

__all__ = ["ThetaArgs", "theta_char", "theta_dual", "theta1", "heat_identity_residual"]

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


def theta_dual(args: ThetaArgs, trunc: Truncation = DEFAULT_TRUNCATION) -> complex:
    """The theta series at purely imaginary tau = i kappa and real z, by Poisson summation.

    theta[a, b](z, i kappa) = kappa^(-1/2) sum_k exp(2 pi i k a) exp(-pi (k - w)^2 / kappa)
    with w = z + b: a handful of Gaussians when kappa is small, where the
    direct series needs K ~ kappa^(-1/2) terms.  Terms are kept while
    exp(-pi (k - w)^2 / kappa) > tol * exp(-pi kappa / 4), the smallest value
    of the half-characteristic sum relative to its leading term, and summed
    center-out.  Its rounding grows with that cancellation as kappa grows,
    so callers keep ``theta_char`` for large kappa.
    """
    tau, z = complex(args.tau), complex(args.z)
    if tau.real != 0.0 or z.imag != 0.0:
        raise ValueError(f"theta_dual needs imaginary tau and real z, got tau={tau!r}, z={z!r}")
    kappa, w = tau.imag, z.real + args.b
    reach = math.sqrt(kappa / math.pi * (math.log(1.0 / trunc.tol) + math.pi * kappa / 4.0))
    ks = _index_window(-w, math.ceil(reach))
    k = ks.astype(float)
    terms = np.exp(-math.pi * (k - w) ** 2 / kappa + _TWO_PI_I * _turns(args.a, k))
    return complex(np.sum(terms)) / math.sqrt(kappa)


def theta1(z: complex, tau: complex, trunc: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Odd theta function, theta1(z, tau) = -theta[1/2, 1/2](z, tau).

    Odd in z, with zeros at z = m + n*tau for integer m, n.
    """
    return -theta_char(ThetaArgs(0.5, 0.5, z, tau), trunc)


def heat_identity_residual(
    args: ThetaArgs, h: float, trunc: Truncation = DEFAULT_TRUNCATION
) -> float:
    """Finite-difference residual of the heat-kernel identity d2θ/dz2 = 4πi dθ/dτ.

    The z second derivative uses a real central step h; the tau derivative
    steps along the imaginary direction (holomorphy makes the direction
    immaterial), which requires Im(tau) - h > 0 so every evaluation converges.
    Residual shrinks as O(h^2) down to the series-truncation floor.
    """
    if not (h > 0.0):
        raise ValueError(f"h must be positive, got {h}")
    tau = complex(args.tau)
    if not (tau.imag - h > 0.0):
        raise ValueError(f"need Im(tau) - h > 0, got tau={tau!r}, h={h}")

    def at(z: complex, t: complex) -> complex:
        return theta_char(ThetaArgs(args.a, args.b, z, t), trunc)

    z = complex(args.z)
    d2z = (at(z + h, tau) - 2.0 * at(z, tau) + at(z - h, tau)) / (h * h)
    dtau = (at(z, tau + 1j * h) - at(z, tau - 1j * h)) / (2j * h)
    return abs(d2z - 4j * math.pi * dtau)
