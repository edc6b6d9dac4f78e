"""Deterministic numerical kernels used by the capacity solvers.

Four self-contained pieces: a fixed-node trapezoid rule on numpy arrays
for even, periodic spectral integrands, the complete elliptic integral
K(m) and K(m) - pi/2 by the arithmetic-geometric mean, from m and its
complement 1 - m, a dense symmetric eigenvalue front end, and a
one-dimensional coarse-to-fine grid maximizer.  All of them are pure
functions with fixed evaluation order, so repeated calls with identical
inputs give bit-identical results.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "IntegrationError",
    "integrate",
    "ellipk_split",
    "symmetric_eigen",
    "grid_maximize",
]


class IntegrationError(RuntimeError):
    """Raised when :func:`integrate` cannot certify its error target.

    Carries the best available ``estimate`` of the integral and its
    ``error_bound`` at the point of failure.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


# The error bound is at least this times the integral of |f|: the QUADPACK
# round-off floor of 50 * eps (Piessens et al. 1983).
_EPS = float(np.finfo(float).eps)
_ROUNDOFF_FACTOR = 50.0 * _EPS

# Absolute error target of :func:`integrate`; the node count does not depend
# on it.  g of a finite variance is below ~1026 bits, so the round-off floor
# of the solvers' integrals is at most ~3.6e-11, below this target.
_ABS_TOL = 1e-10

# Node cap of :func:`integrate`, reached near r = 1 - 7.5e-9; it bounds the memory.
_MAX_NODES = 2**20

# Accepted asymmetry in :func:`symmetric_eigen`, relative to the largest
# entry (floored at 1).
_SYMMETRY_TOL = 1e-12


def integrate(f: Callable[[np.ndarray], np.ndarray], r: float) -> float | np.ndarray:
    """Integrate an even, 2 pi-periodic ``f`` over ``[0, pi]`` on nodes fixed by ``r``.

    Made for ``g(K / |1 - r e^{iu}|^p)``, singular at ``e^{iu} = r`` and
    ``1/r``, ``0 <= r < 1``.  The Möbius map ``tan(u/2) = k tan(v/2)``,
    ``k = (1 - s) / (1 + s)`` with ``s = r / (1 + sqrt(1 - r^2))``, moves
    both to ``|Im v| = ln(1/s)``, where the periodic trapezoid rule on
    ``M`` nodes converges like ``exp(-M ln(1/s))`` (Trefethen & Weideman
    2014; Hale & Trefethen 2008); it narrows the strip near ``u = pi``, so
    a singularity there needs the doubled angle.  ``M`` is the least
    multiple of 4, at least 8, with ``M ln(1/s) >= 128``; an ``r`` outside
    ``[0, 1)`` or needing more than 2**20 nodes raises ``ValueError``.
    ``f`` is called once, on the ``M/2 + 1`` nodes in ``[0, pi]``, and
    returns an array of their shape (a float result) or ``k`` rows (``k``
    integrals, each bitwise as if alone).  The error bound
    ``max(|T_M - T_{M/2}|, 50 eps * integral of |f|)``, with the half rule
    on the even-indexed nodes, is an estimate, not a proven bound.  The
    lowest-index row whose bound exceeds the fixed target 1e-10, or whose
    values are not finite, raises :class:`IntegrationError` with its
    estimate and bound.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"pole radius must lie in [0, 1), got {r}")
    # The hyperbolic midpoint of 0 and r, in a form that is exact at r = 0.
    s = r / (1.0 + math.sqrt((1.0 - r) * (1.0 + r)))
    nodes = 8 if s == 0.0 else max(8, 4 * math.ceil(32.0 / -math.log(s)))
    if nodes > _MAX_NODES:
        raise ValueError(f"pole radius {r} needs {nodes} nodes, more than {_MAX_NODES}")
    k = (1.0 - s) / (1.0 + s)
    # Half angles v/2 in [0, pi/2]; cos(v/2) is the sine of the complement,
    # accurate near v = pi, where the weights du/dv peak with width ~k.
    half_angles = np.arange(nodes // 2 + 1) * (0.5 * math.pi / (nodes // 2))
    sin_half, cos_half = np.sin(half_angles), np.sin(half_angles[::-1])
    u = 2.0 * np.arctan2(k * sin_half, cos_half)
    weights = (2.0 * math.pi / nodes) * k / (cos_half * cos_half + (k * sin_half) ** 2)
    # The whole period takes each interior node twice, as v and -v.
    weights[[0, -1]] *= 0.5
    values = f(u)
    if values.ndim not in (1, 2) or values.shape[-1] != u.size:
        raise ValueError(f"integrand returned shape {values.shape} for {u.size} nodes")
    # A non-finite or overflowing row is caught by its magnitude.
    with np.errstate(invalid="ignore", over="ignore"):
        weighted = np.atleast_2d(values) * weights
        estimate = np.sum(weighted, axis=1)
        magnitude = np.sum(np.abs(weighted), axis=1)
        change = np.abs(estimate - 2.0 * np.sum(weighted[:, ::2], axis=1))
    floor = _ROUNDOFF_FACTOR * magnitude
    bound = np.where(np.isfinite(magnitude), np.maximum(change, floor), np.inf)
    failed = bound > _ABS_TOL
    if failed.any():
        row = int(np.argmax(failed))
        if math.isinf(bound[row]):
            reason = "the integrand is not finite"
        elif floor[row] > _ABS_TOL:
            reason = "the round-off floor is above it"
        else:
            reason = f"{nodes} nodes were not enough"
        value, error_bound = float(estimate[row]), float(bound[row])
        message = f"{reason} (estimate {value:.12g}, bound {error_bound:.3g})"
        raise IntegrationError(f"quadrature missed abs_tol={_ABS_TOL:g}: {message}", value, error_bound)
    return float(estimate[0]) if values.ndim == 1 else estimate


def ellipk_split(m: float, m1: float) -> tuple[float, float]:
    """K(m), the complete elliptic integral of the first kind, and K(m) - pi/2, from m and m1 = 1 - m.

    ``K = pi / (2 AGM(1, sqrt(m1)))`` by the arithmetic-geometric mean
    (Borwein & Borwein, *Pi and the AGM*, 1987), which converges
    quadratically to machine precision.  The caller passes m1 in a form
    that does not cancel, so K keeps its precision as m approaches 1.
    Beside ``a`` and ``b`` the iteration carries their distances from 1,
    ``da`` and ``db`` (from ``db = m / (1 + b)``), so
    ``K - pi/2 = pi (da + db) / (2 (a + b))`` needs no subtraction and
    keeps its relative precision as m approaches 0.  A NaN, m outside
    [0, 1], m1 outside (0, 1] or ``|m + m1 - 1| > 4 eps`` raises ``ValueError``.
    """
    m, m1 = float(m), float(m1)
    if not (0.0 <= m <= 1.0 and 0.0 < m1 <= 1.0 and abs(m + m1 - 1.0) <= 4.0 * _EPS):
        raise ValueError(f"need m in [0, 1] and m1 = 1 - m in (0, 1], got m = {m}, m1 = {m1}")
    a, b = 1.0, math.sqrt(m1)
    da, db = 0.0, m / (1.0 + b)
    while a - b > 2.0 * _EPS * a:
        root = math.sqrt(a * b)
        # 1 - sqrt(ab) = (1 - ab) / (1 + sqrt(ab)), and 1 - ab = da + db - da db.
        a, b, da, db = 0.5 * (a + b), root, 0.5 * (da + db), (da + db - da * db) / (1.0 + root)
    return math.pi / (a + b), math.pi * (da + db) / (2.0 * (a + b))


def _check_integer(value, name: str = "n") -> None:
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _square(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_mirror(m: np.ndarray, part: np.ndarray, image: np.ndarray, kind: str) -> None:
    """Raise ``ValueError`` unless ``part`` equals ``image`` and ``m`` is finite.

    ``part`` and ``image`` are views of ``m`` that between them read every
    entry, so a NaN or infinite entry anywhere makes their difference
    non-finite.  The accepted difference is ``_SYMMETRY_TOL * max(1,
    max|m|)``; an exact match needs no scale.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        diff = part - image
    np.abs(diff, out=diff)
    err = float(np.max(diff, initial=0.0))
    if err == 0.0:
        return
    if not np.isfinite(m).all():
        raise ValueError("matrix has a non-finite entry")
    if err > _SYMMETRY_TOL * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError(f"matrix is not {kind} within tolerance")


def symmetric_eigen(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending.

    Backed by the LAPACK symmetric solver via ``numpy.linalg.eigvalsh``,
    which skips the eigenvectors and reads only the lower triangle.  A
    0 x 0 matrix has no eigenvalues; a NaN or infinite entry raises
    ``ValueError``.
    """
    m = _square(m)
    _check_mirror(m, m, m.T, "symmetric")
    return np.linalg.eigvalsh(m)[::-1].copy()


def grid_maximize(
    objective: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    resolution: int,
    refinements: int,
) -> tuple[float, float]:
    """Maximize ``objective`` on an interval by deterministic coarse-to-fine search.

    Each pass calls ``objective(xs)`` once, on ``resolution`` equally
    spaced points ``xs`` of the current interval, and must get back an
    array of their shape holding finite values; each refinement shrinks
    the interval four-fold around the incumbent, clipped to the original
    one.  Ties go to the smaller ``x``.  Returns the best ``x`` and its
    value.
    """
    _check_integer(resolution, "resolution")
    _check_integer(refinements, "refinements")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if refinements < 0:
        raise ValueError("refinements must be non-negative")
    olo, ohi = (float(bound) for bound in interval)
    if not (math.isfinite(olo) and math.isfinite(ohi)):
        raise ValueError("interval bounds must be finite")
    if ohi < olo:
        raise ValueError("interval bounds must satisfy lo <= hi")

    lo, hi = olo, ohi
    best_x, best_value = math.nan, -math.inf
    for _ in range(refinements + 1):
        xs = np.linspace(lo, hi, resolution)
        values = np.asarray(objective(xs), dtype=float)
        if values.shape != xs.shape:
            raise ValueError(f"objective returned shape {values.shape}, expected {xs.shape}")
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"objective returned a non-finite value at {xs[np.argmin(finite)]}")
        # argmax takes the first maximum, the smallest x because xs increases.
        k = int(np.argmax(values))
        if values[k] > best_value or (values[k] == best_value and xs[k] < best_x):
            best_x, best_value = float(xs[k]), float(values[k])
        width = (hi - lo) / 4.0
        lo, hi = max(olo, best_x - width / 2.0), min(ohi, best_x + width / 2.0)
    return best_x, best_value
