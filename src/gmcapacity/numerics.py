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
) -> float:
    """Integrate ``f`` over ``[a, b]`` by the trapezoid rule after a sin^2 substitution.

    ``f`` takes a numpy array of nodes and returns the integrand values
    there.  The substitution ``x = a + (b - a) (t - sin(2 pi t) / (2 pi))``
    (Sidi's sin^2 transformation) makes the integrand in ``t`` vanish with
    its first derivatives at both ends, so the trapezoid rule on ``[0, 1]``
    converges fast for smooth ``f`` and geometrically for analytic,
    periodic ones (Trefethen & Weideman 2014).  The panels double from 16,
    reusing every earlier node, and each level's error bound is
    ``max(change from the previous level, 50 * eps * integral of |f|)``.
    Raises :class:`IntegrationError`, carrying the estimate and its bound,
    when the change is already at that round-off floor but the bound is
    above ``abs_tol``, or when 2**20 panels are not enough; an ``abs_tol``
    below the floor therefore always raises.  A non-finite integrand value
    raises after the second level, with an infinite bound.
    """
    cfg = config or QuadratureConfig()
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, cfg)

    width = b - a

    def transformed(t: np.ndarray) -> np.ndarray:
        angle = 2.0 * np.pi * t
        x = a + width * (t - np.sin(angle) / (2.0 * np.pi))
        return width * (1.0 - np.cos(angle)) * f(x)

    # The transformed integrand vanishes at t = 0 and t = 1, so only
    # interior nodes enter the sums.
    panels = _FIRST_PANELS
    values = transformed(np.arange(1, panels) / panels)
    total = float(np.sum(values))
    total_abs = float(np.sum(np.abs(values)))
    estimate = total / panels
    while True:
        panels *= 2
        values = transformed(np.arange(1, panels, 2) / panels)
        total += float(np.sum(values))
        total_abs += float(np.sum(np.abs(values)))
        if not math.isfinite(total_abs):
            # A NaN or infinite value stays in every later sum, so more
            # panels cannot help.
            raise IntegrationError(
                f"quadrature failed: the integrand is not finite on [{a:g}, {b:g}] "
                f"(estimate {total / panels:.12g})",
                estimate=total / panels,
                error_bound=math.inf,
            )
        previous, estimate = estimate, total / panels
        change = abs(estimate - previous)
        floor = _ROUNDOFF_FACTOR * total_abs / panels
        bound = max(change, floor)
        if bound <= cfg.abs_tol:
            return estimate
        if change <= floor or panels >= _MAX_PANELS:
            reason = (
                "the round-off floor is above it"
                if change <= floor
                else f"{_MAX_PANELS} panels were not enough"
            )
            raise IntegrationError(
                f"quadrature missed abs_tol={cfg.abs_tol:g}: {reason} "
                f"(estimate {estimate:.12g}, bound {bound:.3g})",
                estimate=estimate,
                error_bound=bound,
            )


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


def symmetric_eigen(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending.

    Backed by the LAPACK symmetric solver via ``numpy.linalg.eigvalsh``,
    which skips the eigenvectors and reads only the lower triangle.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    if float(np.max(np.abs(m - m.T))) > _SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
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
