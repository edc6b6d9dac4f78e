"""Water-filling solvers and channel capacities.

Covers the single-mode phase-sensitive additive channel (closed form),
the infinite-use limit of the AR(1)-correlated channel (global water
filling over the noise spectrum), finite-use transmission rates, the
classical / full-correlation / symmetric-noise limits, and a brute-force
grid oracle that validates the closed-form solution independently.

Above the input-energy threshold the optimal strategy splits the photon
budget between squeezing the input to match the noise anisotropy and
classical Gaussian modulation, such that the overall output is a flat
thermal state at the water level mu.  Below threshold the closed forms
do not apply and the solvers raise :class:`BelowThresholdError`; only
the oracle explores that regime numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .gaussian import VACUUM_VARIANCE, thermal_entropy
from .numerics import _EPS, ellipk_split, grid_maximize, integrate
from .spectra import MarkovNoise, SpectralFunction, finite_spectrum, markov_matrix, markov_symbol

# Cap for the closed-form solvers: thresholds and water levels diverge as
# the correlation approaches 1, so stronger correlations are rejected and
# the limit is only reported analytically.
MAX_CORRELATION = 0.999

__all__ = [
    "MAX_CORRELATION",
    "MonoNoise",
    "MonoSolution",
    "MultimodeSolution",
    "BelowThresholdError",
    "mono_threshold",
    "mono_solve",
    "multimode_threshold",
    "env_symplectic_spectrum",
    "squeezing_fraction",
    "mean_environment_entropy",
    "multimode_solve",
    "asymptotic_capacity",
    "finite_n_rate",
    "classical_limit_capacity",
    "full_correlation_capacity",
    "symmetric_threshold",
    "symmetric_noise_solution",
    "first_mode_variance",
    "brute_force_mono_oracle",
]


class BelowThresholdError(ValueError):
    """Input energy is too small for the full water-filling solution."""

    def __init__(self, message: str, threshold: float):
        super().__init__(message)
        self.threshold = threshold


@dataclass(frozen=True)
class MonoNoise:
    """Per-quadrature noise variances of a single-mode additive channel."""

    var_q: float
    var_p: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v > 0 for v in (self.var_q, self.var_p)):
            raise ValueError(
                "noise variances must be finite and positive, "
                f"got ({self.var_q}, {self.var_p})"
            )


@dataclass(frozen=True)
class MonoSolution:
    """Optimal single-mode input/modulation split and the resulting capacity.

    ``input_q * input_p = 1/4`` (pure input) and, above threshold, both
    quadrature columns fill up to the common water level:
    ``input + noise + modulation = water_level``.
    """

    input_q: float
    input_p: float
    modulation_q: float
    modulation_p: float
    water_level: float
    capacity_bits: float
    above_threshold: bool


@dataclass(frozen=True)
class MultimodeSolution:
    """Water-filling solution over the whole noise spectrum.

    Holds the two noise spectra, callables on the spectral parameter x in
    [0, pi]; the input and modulation spectra follow from them.  Above
    threshold the water level equals n_bar + variance + 1/2 and the
    modulation spectra stay non-negative on the whole interval.
    """

    squeezing_fraction: float
    water_level: float
    capacity_bits: float
    threshold: float
    noise_q: SpectralFunction
    noise_p: SpectralFunction

    def input_q(self, x):
        """Pure input spectrum in q, matched to the noise anisotropy: sqrt(noise_q / noise_p) / 2."""
        return 0.5 * np.sqrt(self.noise_q(x) / self.noise_p(x))

    def input_p(self, x):
        """Pure input spectrum in p: 1 / (4 input_q), so every mode is a minimum-uncertainty state."""
        return 0.25 / self.input_q(x)

    def modulation_q(self, x):
        """Classical modulation spectrum in q: it fills input + noise up to the water level."""
        return self.water_level - self.input_q(x) - self.noise_q(x)

    def modulation_p(self, x):
        """Classical modulation spectrum in p: it fills input + noise up to the water level."""
        return self.water_level - self.input_p(x) - self.noise_p(x)


def _check_correlation(correlation: float) -> None:
    if not 0.0 <= correlation <= MAX_CORRELATION:
        raise ValueError(
            "closed-form solvers accept correlations in [0, "
            f"{MAX_CORRELATION}], got {correlation}"
        )


def _check_energy(n_bar: float, variance: float = 0.0) -> float:
    """Validate n_bar; return n_bar + variance, summed as Python floats so that numpy cannot warn."""
    if not (math.isfinite(n_bar) and n_bar >= 0):
        raise ValueError(f"n_bar must be finite and non-negative, got {n_bar}")
    total = float(n_bar) + float(variance)
    if math.isinf(total):
        raise ValueError(f"n_bar + noise variance overflows: n_bar = {n_bar:g}, variance = {variance:g}")
    return total


def _reaches(n_bar, threshold):
    """Whether n_bar reaches the threshold: a bool, or elementwise a bool array for arrays.

    A slack of a few ulps of the threshold absorbs round-off when n_bar is
    computed to sit exactly at it (the two closed forms may land a few
    ulps apart).  It is relative only, so zero energy lies below every
    positive threshold, however small.  An infinite threshold is out of
    reach.
    """
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite threshold
        reached = n_bar >= threshold - 4.0 * _EPS * np.abs(threshold)
    return reached if isinstance(reached, np.ndarray) else bool(reached)


def _above(
    noise: MonoNoise | MarkovNoise, n_bar: float, threshold_of: Callable[..., float]
) -> float:
    """Validate noise and energy once; return the threshold or raise below it."""
    threshold = threshold_of(noise)
    _check_energy(n_bar)
    if not _reaches(n_bar, threshold):
        raise BelowThresholdError(
            f"input energy {n_bar:g} is below the water-filling threshold "
            f"{threshold:.12g}",
            threshold=threshold,
        )
    return threshold


# ---------------------------------------------------------------------------
# Single-mode phase-sensitive channel
# ---------------------------------------------------------------------------


def mono_threshold(noise: MonoNoise) -> float:
    """Minimum mean photon number for the full single-mode water-filling solution.

    (sqrt(max/min) + |var_q - var_p| - 1) / 2; zero for symmetric noise,
    where a coherent input needs no squeezing energy.  Halved terms and a
    ratio of square roots overflow only where the threshold does.
    """
    hi = max(noise.var_q, noise.var_p)
    lo = min(noise.var_q, noise.var_p)
    return 0.5 * (math.sqrt(hi) / math.sqrt(lo)) + 0.5 * abs(noise.var_q - noise.var_p) - 0.5


def mono_solve(noise: MonoNoise, n_bar: float) -> MonoSolution:
    """Optimal input squeezing and modulation for a single-mode channel.

    The pure input matches the noise anisotropy,
    input_q = sqrt(var_q / var_p) / 2, the water level
    mu = n_bar + (var_q + var_p)/2 + 1/2 reflects the total energy, and
    the modulation fills each quadrature up to mu.  Products and ratios
    are of square roots and sums of halves, so none overflows early.
    Raises :class:`BelowThresholdError` when a modulation variance would
    turn negative.
    """
    _above(noise, n_bar, mono_threshold)
    root_q, root_p = math.sqrt(noise.var_q), math.sqrt(noise.var_p)
    input_q = 0.5 * root_q / root_p
    input_p = 0.5 * root_p / root_q
    photons = _check_energy(n_bar, 0.5 * noise.var_q + 0.5 * noise.var_p)
    level = photons + VACUUM_VARIANCE
    modulation_q = max(level - input_q - noise.var_q, 0.0)
    modulation_p = max(level - input_p - noise.var_p, 0.0)
    return MonoSolution(
        input_q=input_q,
        input_p=input_p,
        modulation_q=modulation_q,
        modulation_p=modulation_p,
        water_level=level,
        capacity_bits=max(thermal_entropy(photons) - thermal_entropy(root_q * root_p), 0.0),
        above_threshold=True,
    )


# ---------------------------------------------------------------------------
# Correlated multimode channel, infinite-use limit
# ---------------------------------------------------------------------------


def _env_spectrum(variance, c) -> SpectralFunction:
    # Floats give one spectrum; (k, 1) columns give k rows on the nodes x.
    d = (1.0 - c) * (1.0 + c)
    scale = variance * d
    return SpectralFunction(lambda x: scale / np.sqrt(d * d + 4.0 * c * c * np.sin(x) ** 2))


def env_symplectic_spectrum(noise: MarkovNoise) -> SpectralFunction:
    """Geometric mean of the two quadrature noise spectra.

    variance (1 - c^2) / |1 - c^2 e^{2ix}|, with d = 1 - c^2 formed as
    (1 - c)(1 + c) and the denominator taken as sqrt(d^2 + 4 c^2 sin^2 x):
    free of the cancellation of 1 - c*c near |c| = 1 and of
    sqrt((1 + c^2)^2 - 4 c^2 cos^2 x) near the endpoints at strong correlation;
    equals the plain variance at both endpoints, so the integrands built on
    it stay smooth for |correlation| < 1.
    """
    return _env_spectrum(noise.variance, noise.correlation)


def multimode_threshold(noise: MarkovNoise) -> float:
    """Minimum input energy that lets the modulation cover the whole spectrum.

    ((1 + c)/(1 - c) - 1) (variance + 1/2), written 2c/(1 - c) so it does
    not cancel at weak correlation; grows without bound as the
    correlation approaches 1 and vanishes for white noise.
    """
    return _threshold(noise.correlation, noise.variance)


def _threshold(correlation: float, variance):
    """:func:`multimode_threshold` at a float or, elementwise, an array of noise variances.

    Validates the correlation.  As in float arithmetic, a threshold that
    overflows is inf.
    """
    _check_correlation(correlation)
    with np.errstate(over="ignore"):
        return 2.0 * correlation / (1.0 - correlation) * (variance + VACUUM_VARIANCE)


def _landen_ellipk(c: float, alt_form: bool) -> tuple[float, float]:
    """K(k^2) and K(k^2) - pi/2 at the Landen modulus k = 2c / (1 + d), d = c^2 if alt_form else c.

    At d = c^2, K(k^2) = (1 + c^2) K(c^4) (Landen, DLMF 19.8).  The
    complement 1 - k^2 = (1 + d - 2c)(1 + d + 2c) / (1 + d)^2 takes
    1 + d - 2c as (1 - c)^2 or 1 - c, which do not cancel near c = 1.
    """
    d = c * c if alt_form else c
    k = 2.0 * c / (1.0 + d)
    gap = (1.0 - c) * ((1.0 - c) if alt_form else 1.0)
    return ellipk_split(k * k, gap * (1.0 + d + 2.0 * c) / (1.0 + d) ** 2)


def _squeezing_split(correlation: float) -> float:
    """Mean input variance minus 1/2 at correlation c: ((1 + c^2) K(c^4) - pi/2) / pi."""
    return _landen_ellipk(correlation, alt_form=True)[1] / math.pi


def squeezing_fraction(noise: MarkovNoise, n_bar: float) -> float:
    """Fraction of the photon budget spent on squeezing the input.

    (mean input variance - 1/2) / n_bar with the mean taken over the
    spectral interval, in closed form ((1 + c^2) K(c^4) - pi/2) / (pi n_bar)
    with K the complete elliptic integral, taken as K(k^2) - pi/2 at the
    Landen modulus k = 2c / (1 + c^2) without cancellation, so it keeps
    its precision at weak correlation.  It is divided by pi, then by
    n_bar, since pi n_bar overflows at the largest energies; a quotient
    that overflows is inf, as in float arithmetic.
    Zero for white noise, the only case that admits zero energy;
    otherwise independent of the noise variance by construction.  Lies
    in [0, 1] whenever n_bar is at or above :func:`multimode_threshold`;
    larger values signal that the energy cannot cover the squeezing
    demanded by the noise anisotropy.
    """
    _check_correlation(noise.correlation)
    energy = _check_energy(n_bar)
    if energy == 0:
        # Only a zero threshold admits zero energy (see _reaches).
        if not _reaches(0.0, multimode_threshold(noise)):
            raise ValueError("n_bar must be positive, got 0")
        return 0.0
    return _squeezing_split(noise.correlation) / energy


def _entropy_mean(spectrum: Callable[[np.ndarray], np.ndarray], r: float,
                  x_per_u: float = 1.0) -> float | np.ndarray:
    """Mean of g(spectrum(x_per_u * u)) over u in [0, pi]; one mean per row if the spectrum gives rows.

    The spectrum must be K / |1 - r e^{iu}|^p in u, as :func:`integrate` needs: r = c at
    x = u for the AR(1) symbol, and r = c^2 at x = u / 2 for the symplectic spectrum.
    :func:`integrate` certifies each mean to its fixed 1e-10 target.
    """
    return integrate(lambda u: thermal_entropy(spectrum(x_per_u * u)), r) / math.pi


def mean_environment_entropy(noise: MarkovNoise) -> float:
    """Spectral average of g over the symplectic noise spectrum, in bits.

    This is the subtracted term of the asymptotic capacity; it tends to
    g(variance) for white noise and to zero when the correlation
    approaches 1.
    """
    _check_correlation(noise.correlation)
    return _entropy_mean(env_symplectic_spectrum(noise), noise.correlation**2, 0.5)


# _multimode integrates at most this many points in one call, so that the
# (points x nodes) arrays stay small.
_BATCH_ROWS = 32


class _MultimodePoints(NamedTuple):
    """One correlation's points as arrays: the threshold, the above mask and the solution columns.

    ``squeezing_fraction``, ``water_level`` and ``capacity_bits`` are
    nan where ``above`` is false: there the energy is below the
    threshold.
    """

    threshold: np.ndarray
    above: np.ndarray
    squeezing_fraction: np.ndarray
    water_level: np.ndarray
    capacity_bits: np.ndarray


def _multimode(correlation: float, variances: np.ndarray, energies: np.ndarray) -> _MultimodePoints:
    """The water-filling solution of one correlation at arrays of valid noise variances and of energies.

    Checked on arrays in the order of a one-point call: the correlation,
    then the first non-finite or negative energy, then, among the points
    at or above the threshold, the first whose n_bar + variance
    overflows; each raises its one-point message.  Points below the
    threshold raise nothing.  Every point is checked before any
    integral.  The squeezing fraction is one closed form divided by each
    energy, the water level is n_bar + variance + 1/2, and
    ``_BATCH_ROWS`` points above threshold share one :func:`integrate`
    call, taken in order, each capacity bitwise as if alone.
    """
    threshold = _threshold(correlation, variances)
    invalid = np.flatnonzero(~(np.isfinite(energies) & (energies >= 0)))
    if invalid.size:
        _check_energy(energies[invalid[0]].item())  # raises the one-point message
    above = _reaches(energies, threshold)
    index = np.flatnonzero(above)
    energy, variance = energies[index], variances[index]
    with np.errstate(over="ignore"):
        photons = energy + variance
    overflow = np.flatnonzero(np.isinf(photons))
    if overflow.size:
        _check_energy(energy[overflow[0]].item(), variance[overflow[0]].item())
    fraction, level, capacity = np.full((3, len(energies)), np.nan)
    # Zero energy is above threshold only for white noise, whose fraction is 0.
    fraction[index] = np.divide(_squeezing_split(correlation), energy,
                                out=np.zeros(index.size), where=energy != 0)
    level[index] = photons + VACUUM_VARIANCE
    for start in range(0, index.size, _BATCH_ROWS):
        batch = slice(start, start + _BATCH_ROWS)
        # A (k, 1) column, so that the spectrum gives one row per point.
        means = _entropy_mean(_env_spectrum(variance[batch, None], correlation), correlation**2, 0.5)
        # Clamped at 0: the trapezoid weights do not sum to exactly pi.
        capacity[index[batch]] = np.maximum(thermal_entropy(photons[batch]) - means, 0.0)
    return _MultimodePoints(threshold, above, fraction, level, capacity)


def asymptotic_capacity(noise: MarkovNoise, n_bar: float) -> float:
    """Capacity in the infinite-use limit, in bits per channel use.

    g(n_bar + variance) minus the spectral mean of g over the symplectic
    noise spectrum.  Only valid above :func:`multimode_threshold`; below
    it raises :class:`BelowThresholdError`, carrying the threshold.
    """
    _above(noise, n_bar, multimode_threshold)
    points = _multimode(noise.correlation, np.array([noise.variance]), np.array([n_bar], dtype=float))
    return float(points.capacity_bits[0])


def multimode_solve(noise: MarkovNoise, n_bar: float) -> MultimodeSolution:
    """Global water-filling solution over the AR(1) noise spectrum.

    The pure input spectra match the noise anisotropy pointwise: input_q
    is half the square root of the q/p noise ratio (the variance cancels,
    so it depends on the correlation only) and input_p = 1/(4 input_q).
    The water level is n_bar + variance + 1/2, and the modulation fills
    every spectral channel up to that level, making the overall output
    flat.  The capacity is :func:`asymptotic_capacity`, which also raises
    :class:`BelowThresholdError` (carrying the threshold) when the
    modulation would turn negative somewhere on the spectrum.
    """
    capacity = asymptotic_capacity(noise, n_bar)
    return MultimodeSolution(
        squeezing_fraction=squeezing_fraction(noise, n_bar),
        water_level=n_bar + noise.variance + VACUUM_VARIANCE,
        capacity_bits=capacity,
        threshold=multimode_threshold(noise),
        noise_q=markov_symbol(noise),
        noise_p=markov_symbol(MarkovNoise(noise.variance, -noise.correlation)),
    )


def finite_n_rate(noise: MarkovNoise, n_bar: float, n: int) -> float:
    """Optimal transmission rate for n channel uses, in bits per use.

    g(n_bar + variance) - mean over modes of g(sqrt(lq_k * lp_k)), with
    lq, lp the numerically obtained eigenvalues of the two finite noise
    blocks.  The p block variance (-c)^|i-j| is D T D with D =
    diag((-1)^i) and T the q block, so both blocks have the same
    spectrum and one spectrum serves both.  T is symmetric Toeplitz,
    hence centrosymmetric, so :func:`finite_spectrum` finds it from two
    half-size eigenvalue solves.  The descending q
    eigenvalues pair with ascending p eigenvalues, mirroring the
    x <-> pi - x relation of the limiting spectra.  Converges to
    :func:`asymptotic_capacity` as n grows.  This is the paper's paired
    formula, exact only for n <= 2, where the blocks commute; for n >= 3
    it exceeds the rate of Williamson's symplectic eigenvalues
    |eig(T D)| by O(1/n).
    """
    _check_correlation(noise.correlation)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    photons = _check_energy(n_bar, noise.variance)
    lam_q = finite_spectrum(markov_matrix(noise, n))
    mean_term = float(np.mean(thermal_entropy(np.sqrt(lam_q) * np.sqrt(lam_q[::-1]))))
    # Clamped at 0: sqrt(l) * sqrt(l') is not exactly N at n = 1.
    return max(thermal_entropy(photons) - mean_term, 0.0)


def classical_limit_capacity(noise: MarkovNoise, snr: float) -> float:
    """Capacity of the classical Gaussian channel with the same correlated noise.

    log2((1 + snr) / ((1 - c)(1 + c))) at fixed signal-to-noise ratio
    snr = n_bar / variance; the quantum capacity approaches this value
    from below as energy and noise grow together.  Summed from three
    ``log1p`` terms, so it keeps full relative precision at weak
    correlation, where the quotient is near 1.
    """
    _check_correlation(noise.correlation)
    if not (math.isfinite(snr) and snr > 0):
        raise ValueError(f"snr must be positive, got {snr}")
    c = noise.correlation
    return (math.log1p(snr) - math.log1p(-c) - math.log1p(c)) / math.log(2.0)


def full_correlation_capacity(noise: MarkovNoise, n_bar: float) -> float:
    """Analytic capacity limit as the correlation approaches 1.

    The environment entropy term vanishes in that limit, leaving
    g(n_bar + variance).  Exposed analytically because the closed-form
    solvers cap the correlation at ``MAX_CORRELATION``: the threshold
    diverges, so the limit is only reached with ever-growing energy.
    """
    return thermal_entropy(_check_energy(n_bar, noise.variance))


def symmetric_threshold(noise: MarkovNoise) -> float:
    """Water-filling threshold when both quadratures carry the same correlation sign."""
    _check_correlation(noise.correlation)
    c = noise.correlation
    return 2.0 * c / (1.0 - c) * noise.variance


def symmetric_noise_solution(noise: MarkovNoise, n_bar: float) -> MultimodeSolution:
    """Water-filling solution for symmetrically correlated noise.

    With identical spectra in both quadratures the optimal input is
    coherent (1/2 everywhere, no squeezing energy) and the classical
    modulation water-fills over noise + 1/2 in both quadratures with the
    common level n_bar + variance + 1/2.
    """
    threshold = _above(noise, n_bar, symmetric_threshold)
    photons = _check_energy(n_bar, noise.variance)
    spectrum = markov_symbol(noise)
    mean = _entropy_mean(spectrum, noise.correlation)
    return MultimodeSolution(
        squeezing_fraction=0.0,
        water_level=photons + VACUUM_VARIANCE,
        capacity_bits=max(thermal_entropy(photons) - mean, 0.0),
        threshold=threshold,
        noise_q=spectrum,
        noise_p=spectrum,
    )


def first_mode_variance(correlation: float, alt_form: bool = False) -> float:
    """Variance of the first mode of the optimal input, rotated back to the mode basis.

    (1/2 pi) integral of sqrt((1 + c + 2 c cos x) / (1 + c - 2 c cos x))
    over [0, pi], in closed form K(k^2) / pi with k = 2c / (1 + c) and K
    the complete elliptic integral; 1/2 (coherent) for white noise and
    strictly larger otherwise, which exposes the entanglement of the first
    mode with the rest.  No independent route found so far (the dense
    optimal input, back-rotated) reproduces this value.  ``alt_form=True``
    replaces 1 + c by 1 + c^2 in the integrand and in k = 2c / (1 + c^2):
    the mean input spectrum, equal by Landen's transformation to
    (1 + c^2) K(c^4) / pi, the limit of the interior modes, which are equal
    in q and p (the boundary mode is not).  The CLI reports both variants,
    since they differ materially at strong correlation.
    """
    if not 0.0 <= correlation < 1.0:
        raise ValueError(f"correlation must lie in [0, 1), got {correlation}")
    return _landen_ellipk(correlation, alt_form)[0] / math.pi


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


# Golden-section search (Kiefer 1953) shrinks a bracket by this factor per
# step; the oracle's split search takes enough steps to narrow [0, 1] below
# 1e-9.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SPLIT_STEPS = math.ceil(math.log(1e-9) / math.log(_GOLDEN))


def _golden_max(f: Callable[[np.ndarray], np.ndarray], size: int) -> np.ndarray:
    """Maximizers on [0, 1] of ``size`` concave functions, searched together.

    ``f`` maps points, one per function along the last axis, to values.
    Each step places two points at the golden ratio inside every bracket
    and keeps the part that holds a maximizer.  One of them is, up to
    rounding, the point the step before kept; it is evaluated again,
    which here costs less than the bookkeeping that would reuse its
    value.  At the end both bracket ends are compared with 0 and 1, ties
    going to the smaller point, so a maximizer on the boundary is
    returned exactly.
    """
    lo, hi = np.zeros(size), np.ones(size)
    for _ in range(_SPLIT_STEPS):
        x, y = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        # Concavity puts a maximizer in [lo, y] or in [x, hi].
        left = f(x) >= f(y)
        lo, hi = np.where(left, lo, x), np.where(left, y, hi)
    points = np.stack([np.zeros(size), lo, hi, np.ones(size)])
    return points[np.argmax(f(points), axis=0), np.arange(size)]


def brute_force_mono_oracle(
    noise: MonoNoise,
    n_bar: float,
    resolution: int = 161,
) -> MonoSolution:
    """Maximize the single-mode information quantity by deterministic search.

    Searches the input squeezing s = ln(2 input_q) on a grid and, at each
    grid point, the split of the remaining energy between the two
    modulation variances over all of [0, 1], holding the total energy
    constraint with equality.  The input is pure, (e^s / 2, e^-s / 2),
    and spends cosh(s) of the variance budget 2 n_bar + 1, so s ranges
    over |s| <= acosh(2 n_bar + 1), a box free of cancellation at every
    energy; ``resolution`` counts the grid points in s.  At fixed s the
    output's symplectic eigenvalue is the geometric mean of two affine
    functions of the split, so it is concave in the split, and a
    golden-section search finds its maximizer, exactly 0 or 1 where that
    lies on the boundary.  Independent of the closed form in
    :func:`mono_solve`; it also explores the below-threshold regime,
    where it returns a boundary solution with one modulation variance
    pinned at zero.  Refines at least twice, and more until the final
    step in s is at most 0.01, as the box widens with n_bar.  Raises
    ``ValueError`` for an n_bar so large that the input variances would
    overflow.
    """
    _check_energy(n_bar)
    if resolution < 64:
        raise ValueError(f"resolution must be at least 64, got {resolution}")
    var_q = noise.var_q
    var_p = noise.var_p
    # Total variance budget: input_q + input_p + mod_q + mod_p = 2 n_bar + 1.
    budget = 2.0 * n_bar + 1.0
    # At the box edge e^s is about 2 budget; the factor 4 leaves room for
    # it, and for the column sums, to stay finite.
    if not math.isfinite(4.0 * budget):
        raise ValueError(f"n_bar = {n_bar:g} is too large for the oracle's variance budget")
    half_width = math.acosh(budget)
    # The final step in s is 2 half_width 0.25^passes / (resolution - 1).
    passes = 2
    while 2.0 * half_width * 0.25**passes > 0.01 * (resolution - 1):
        passes += 1

    def optimum(s):
        # The objective at each squeezing s, maximized over the split, and
        # the state (input_q, input_p, mod_q, mod_p) that attains it.
        in_q, in_p = 0.5 * np.exp(s), 0.5 * np.exp(-s)
        mod_total = np.maximum(budget - np.cosh(s), 0.0)

        def nu_bar(split):
            return np.sqrt(in_q + var_q + split * mod_total) * np.sqrt(
                in_p + var_p + (1.0 - split) * mod_total
            )

        # g is increasing, so the split that maximizes nu_bar maximizes the objective.
        split = _golden_max(nu_bar, s.size)
        nu_out = np.sqrt(in_q + var_q) * np.sqrt(in_p + var_p)
        value = thermal_entropy(nu_bar(split) - 0.5) - thermal_entropy(nu_out - 0.5)
        return value, (in_q, in_p, split * mod_total, (1.0 - split) * mod_total)

    best_s, _ = grid_maximize(
        lambda s: optimum(s)[0], (-half_width, half_width), resolution, passes
    )
    value, state = optimum(np.array([best_s]))
    in_q, in_p, mod_q, mod_p = (float(column[0]) for column in state)
    return MonoSolution(
        input_q=in_q,
        input_p=in_p,
        modulation_q=mod_q,
        modulation_p=mod_p,
        # Below threshold the two columns differ; the water surface sits
        # on the taller one.
        water_level=max(in_q + var_q + mod_q, in_p + var_p + mod_p),
        capacity_bits=float(value[0]),
        above_threshold=_reaches(n_bar, mono_threshold(noise)),
    )
