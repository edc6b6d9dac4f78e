"""Deterministic numerical kernels used by the capacity solvers.

Four self-contained pieces: a trapezoid rule on numpy arrays for smooth
integrands on a finite interval, the complete elliptic integral K(m) by
the arithmetic-geometric mean, a dense symmetric eigenvalue front end,
and a coarse-to-fine grid maximizer.  All of them are pure
functions with fixed evaluation order, so repeated calls with identical
inputs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureConfig",
    "IntegrationError",
    "integrate",
    "ellipk",
    "symmetric_eigen",
    "grid_maximize",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance for :func:`integrate`.

    ``abs_tol`` is the absolute error target for the whole interval.  The
    error bound is floored at the round-off level ``50 * eps * integral
    of |f|``, so an ``abs_tol`` below that floor is unattainable and
    :func:`integrate` raises :class:`IntegrationError` for it.
    """

    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ValueError(f"abs_tol must be finite and positive, got {self.abs_tol}")


class IntegrationError(RuntimeError):
    """Raised when :func:`integrate` cannot certify its tolerance.

    Carries the best available ``estimate`` of the integral and its
    ``error_bound`` at the point of failure.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


# Panels of the first trapezoid level and the cap on panel doubling.
_FIRST_PANELS = 16
_MAX_PANELS = 2**20

# The error bound is at least this times the integral of |f|: the QUADPACK
# round-off floor of 50 * eps (Piessens et al. 1983).
_EPS = float(np.finfo(float).eps)
_ROUNDOFF_FACTOR = 50.0 * _EPS

# Accepted asymmetry in :func:`symmetric_eigen`, relative to the largest
# entry (floored at 1).
_SYMMETRY_TOL = 1e-12


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    config: QuadratureConfig | None = None,
) -> float | np.ndarray:
    """Integrate ``f`` over ``[a, b]`` by the trapezoid rule after a sin^2 substitution.

    ``f`` takes a numpy array of nodes and returns the integrand values
    there: an array of the nodes' shape, or one row per integrand, of
    shape ``(k, len(x))``.  The substitution
    ``x = a + (b - a) (t - sin(2 pi t) / (2 pi))`` (Sidi's sin^2
    transformation) makes the integrand in ``t`` vanish with its first
    derivatives at both ends, so the trapezoid rule on ``[0, 1]``
    converges fast for smooth ``f`` and geometrically for analytic,
    periodic ones (Trefethen & Weideman 2014).  The panels double from 16,
    reusing every earlier node, and each level's error bound is
    ``max(change from the previous level, 50 * eps * integral of |f|)``.

    A 1-D integrand gives a float and ``k`` rows give an array of ``k``
    integrals.  Each row keeps its own sums and stops at the first level
    where its own bound is at most ``abs_tol``, so its value is bitwise
    the one a call with that row alone returns; ``f`` is still evaluated
    on every row until the last one stops.

    A row raises :class:`IntegrationError`, carrying its estimate and
    bound, when its change is already at the round-off floor but its
    bound is above ``abs_tol``, or when 2**20 panels are not enough; an
    ``abs_tol`` below the floor therefore always raises.  A non-finite
    integrand value raises after the second level, with an infinite
    bound.  Of several failing rows the lowest-index one raises, as a
    loop over the rows would.  A non-finite bound of integration raises
    ``ValueError`` before ``f`` is called.
    """
    cfg = config or QuadratureConfig()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a:g}, {b:g}]")

    width = b - a

    def transformed(t: np.ndarray) -> np.ndarray:
        angle = 2.0 * np.pi * t
        x = a + width * (t - np.sin(angle) / (2.0 * np.pi))
        values = width * (1.0 - np.cos(angle)) * f(x)
        if values.ndim > 2 or values.shape[-1] != t.size:
            raise ValueError(f"integrand returned shape {values.shape} for {t.size} nodes")
        return values

    if a == b:
        # A call on no nodes tells a 1-D integrand from k rows.
        values = transformed(np.empty(0))
        return 0.0 if values.ndim == 1 else np.zeros(len(values))
    if b < a:
        return -integrate(f, b, a, cfg)

    # The transformed integrand vanishes at t = 0 and t = 1, so only
    # interior nodes enter the sums.
    panels = _FIRST_PANELS
    values = transformed(np.arange(1, panels) / panels)
    single = values.ndim == 1
    values = np.atleast_2d(values)
    total = np.sum(values, axis=1)
    total_abs = np.sum(np.abs(values), axis=1)
    estimate = total / panels
    result = np.empty_like(estimate)
    live = np.ones(len(result), dtype=bool)
    failure = None
    while live.any():
        panels *= 2
        values = np.atleast_2d(transformed(np.arange(1, panels, 2) / panels))
        # Frozen and failed rows may overflow or turn NaN; the finiteness
        # test below catches every live row that does.
        with np.errstate(invalid="ignore", over="ignore"):
            total += np.sum(values, axis=1)
            total_abs += np.sum(np.abs(values), axis=1)
            previous, estimate = estimate, total / panels
            change = np.abs(estimate - previous)
            floor = _ROUNDOFF_FACTOR * total_abs / panels
            bound = np.maximum(change, floor)
        # A NaN or infinite value stays in every later sum, so more
        # panels cannot help such a row.
        finite = np.isfinite(total_abs)
        done = live & finite & (bound <= cfg.abs_tol)
        result[done] = estimate[done]
        live &= ~done
        stuck = live & (~finite | (change <= floor) | (panels >= _MAX_PANELS))
        if stuck.any():
            # Rows after the first stuck one cannot change the outcome.
            row = int(np.argmax(stuck))
            live[row:] = False
            value = float(estimate[row])
            if not finite[row]:
                error_bound = math.inf
                message = (
                    f"quadrature failed: the integrand is not finite on [{a:g}, {b:g}] "
                    f"(estimate {value:.12g})"
                )
            else:
                error_bound = float(bound[row])
                reason = (
                    "the round-off floor is above it"
                    if change[row] <= floor[row]
                    else f"{_MAX_PANELS} panels were not enough"
                )
                message = (
                    f"quadrature missed abs_tol={cfg.abs_tol:g}: {reason} "
                    f"(estimate {value:.12g}, bound {error_bound:.3g})"
                )
            failure = IntegrationError(message, estimate=value, error_bound=error_bound)
    if failure is not None:
        raise failure
    return float(result[0]) if single else result


def ellipk(m: float) -> float:
    """Complete elliptic integral of the first kind K(m), with parameter m = k^2 in [0, 1).

    ``pi / (2 AGM(1, sqrt(1 - m)))`` by the arithmetic-geometric mean
    (Borwein & Borwein, *Pi and the AGM*, 1987), which converges
    quadratically to machine precision.
    """
    m = float(m)
    if not 0.0 <= m < 1.0:
        raise ValueError(f"parameter must lie in [0, 1), got {m}")
    a, b = 1.0, math.sqrt(1.0 - m)
    while a - b > 2.0 * _EPS * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


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
    objective: Callable[..., np.ndarray],
    box: Sequence[tuple[float, float]],
    resolution: int = 65,
    refinements: int = 2,
) -> tuple[tuple[float, ...], float]:
    """Maximize ``objective`` on a box by deterministic coarse-to-fine search.

    Every pass evaluates the full cartesian grid (``resolution`` points
    per axis); each refinement shrinks the box four-fold around the
    incumbent, clipped to the original bounds.  Ties go to the
    lexicographically smallest coordinates.  The grid is evaluated one
    slice of the first axis at a time: the objective is called as
    ``objective(x1, X2, ..., Xk)`` with a float ``x1`` and the
    ``indexing="ij"`` meshgrid arrays of the other axes, and must return
    an array of their shape holding finite values.
    """
    _check_integer(resolution, "resolution")
    _check_integer(refinements, "refinements")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if refinements < 0:
        raise ValueError("refinements must be non-negative")
    original = [(float(lo), float(hi)) for lo, hi in box]
    for lo, hi in original:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("box bounds must be finite")
        if hi < lo:
            raise ValueError("box bounds must satisfy lo <= hi")

    current = list(original)
    best_point: tuple[float, ...] | None = None
    best_value = -math.inf
    for _ in range(refinements + 1):
        axes = [np.linspace(lo, hi, resolution) for lo, hi in current]
        rest = np.meshgrid(*axes[1:], indexing="ij")
        shape = (resolution,) * len(rest)
        for x1 in axes[0].tolist():
            values = np.asarray(objective(x1, *rest), dtype=float)
            if values.shape != shape:
                raise ValueError(
                    f"objective returned shape {values.shape}, expected {shape}"
                )
            finite = np.isfinite(values)
            # argmax takes the first hit in C order, which is the
            # lexicographically smallest point because every axis increases.
            k = int(np.argmax(values)) if finite.all() else int(np.argmin(finite))
            point = (x1, *(float(r.flat[k]) for r in rest))
            value = float(values.flat[k])
            if not math.isfinite(value):
                raise ValueError(f"objective returned a non-finite value at {point}")
            if value > best_value or (value == best_value and point < best_point):
                best_value = value
                best_point = point
        shrunk = []
        for (olo, ohi), (lo, hi), x in zip(original, current, best_point):
            width = (hi - lo) / 4.0
            shrunk.append((max(olo, x - width / 2.0), min(ohi, x + width / 2.0)))
        current = shrunk
    return best_point, best_value
