"""psi_jet's documented summation order over the modes, by plain loops: the tests' reference sum."""

import numpy as np


def mode_order_sum(terms: np.ndarray, stride: int) -> np.ndarray:
    """terms (..., K + 1) summed over the last axis as ``wavefunction._mode_sum`` documents.

    Running sum c (c < stride) adds modes c, c + stride, c + 2 stride, ... in
    turn, each from -0.0; the running sums are then added in order, from
    -0.0.  Up to ``stride`` modes that is m = 1, 3, 5, ... in order.
    """
    n_modes = terms.shape[-1]
    partial = [np.full(terms.shape[:-1], -0.0) for _ in range(min(n_modes, stride))]
    for i in range(n_modes):
        partial[i % stride] = partial[i % stride] + terms[..., i]
    total = np.full(terms.shape[:-1], -0.0)
    for run in partial:
        total = total + run
    return total
