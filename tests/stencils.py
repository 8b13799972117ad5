"""Central finite differences, the tests' independent route to derivatives."""

import math
from typing import Callable


def finite_diff(f: Callable[[float], float], x: float, order: int, h: float) -> float:
    """Central finite difference of derivative ``order`` (1 or 2), accuracy O(h^2)."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if not (h > 0.0):
        raise ValueError(f"h must be positive, got {h}")
    fp = float(f(x + h))
    fm = float(f(x - h))
    if order == 1:
        samples = (fp, fm)
        result = (fp - fm) / (2.0 * h)
    else:
        fc = float(f(x))
        samples = (fp, fc, fm)
        result = (fp - 2.0 * fc + fm) / (h * h)
    if not all(math.isfinite(s) for s in samples):
        raise ValueError(f"non-finite stencil sample near x={x!r}")
    return result
