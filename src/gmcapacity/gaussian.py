"""The thermal entropy function g, the entropy kernel of every capacity.

Conventions used throughout the package: the vacuum carries variance 1/2
per quadrature, and entropies are reported in bits.
"""

from __future__ import annotations

import math
import sys

import numpy as np

VACUUM_VARIANCE = 0.5

_LN2 = math.log(2.0)
_TINY = 2.0**-1000
_HUGE = sys.float_info.max

__all__ = ["VACUUM_VARIANCE", "thermal_entropy"]


def thermal_entropy(mean_photons):
    """Entropy, in bits, of a single-mode thermal state with the given mean photon number.

    g(x) = (x+1) log2(x+1) - x log2(x), with g(0) = 0.  Strictly
    increasing and concave on [0, inf).  Evaluated as
    (log1p(x) + x log1p(1/x)) / ln 2, which is free of the cancellation
    of the two large terms for large x.  Below 2**-1000, where 1/x
    could overflow, the defining form is used; its two terms are both
    non-negative there.  Takes a float, returning a float, or an array,
    returning the array of entrywise values.  Raises ``ValueError`` on
    a negative, NaN or infinite argument or array entry.
    """
    x = np.asarray(mean_photons, dtype=float)
    # Fast path: every entry lies in [2**-1000, largest double].  NaN fails
    # both comparisons; the initial values let an empty array through.
    if x.min(initial=_TINY) >= _TINY and x.max(initial=_HUGE) <= _HUGE:
        g = (np.log1p(x) + x * np.log1p(1.0 / x)) / _LN2
    else:
        finite = np.isfinite(x)
        if not finite.all():
            raise ValueError(f"mean photon number must be finite, got {x[~finite][0]}")
        if (x < 0.0).any():
            raise ValueError(f"mean photon number must be non-negative, got {x.min()}")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tiny = ((1.0 + x) * np.log1p(x) - x * np.log(x)) / _LN2
            stable = (np.log1p(x) + x * np.log1p(1.0 / x)) / _LN2
        g = np.where(x == 0.0, 0.0, np.where(x < _TINY, tiny, stable))
    return float(g) if g.ndim == 0 else g
