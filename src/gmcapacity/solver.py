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
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .gaussian import VACUUM_VARIANCE, thermal_entropy
from .numerics import ellipk_split, grid_maximize, integrate
from .spectra import MarkovNoise, SpectralFunction, _ar1_gap, finite_spectrum, markov_matrix, markov_symbol

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

    Relative slack absorbs round-off when n_bar sits exactly at the
    threshold (the closed form may land a few ulps on either side).  An
    infinite threshold is out of reach.
    """
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite threshold
        reached = n_bar >= threshold - 1e-12 * np.maximum(1.0, np.abs(threshold))
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


def _env_spectrum(variance, correlation) -> SpectralFunction:
    # Floats give one spectrum; (k, 1) columns give k rows on the nodes x.
    r = correlation * correlation
    scale = variance * (1.0 - r)
    return SpectralFunction(lambda x: scale / np.sqrt(_ar1_gap(r, 2.0 * x)))


def env_symplectic_spectrum(noise: MarkovNoise) -> SpectralFunction:
    """Geometric mean of the two quadrature noise spectra.

    variance (1 - c^2) / |1 - c^2 e^{2ix}|, whose denominator :func:`_ar1_gap`
    takes as sqrt((1 - c^2)^2 + 4 c^2 sin^2 x), free of the cancellation of
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


def _points(noise, n_bar) -> tuple[bool, list[MarkovNoise], np.ndarray]:
    """Whether a call is one point, and its noises and energies as a list and an array."""
    single = isinstance(noise, MarkovNoise)
    noises = [noise] if single else list(noise)
    energies = np.asarray([n_bar] if single else n_bar, dtype=float)
    if energies.shape != (len(noises),):
        raise ValueError(
            f"expected {len(noises)} energies, one per noise, got shape {energies.shape}"
        )
    return single, noises, energies


def _runs(noises: list[MarkovNoise], block: int | None = None):
    """Yield (correlation, slice) for each run of consecutive points of one correlation.

    With ``block``, a run is also cut wherever the point index crosses a
    multiple of ``block``.
    """
    stop = 0
    for (correlation, _), run in groupby(
        (point.correlation, i // block if block else 0) for i, point in enumerate(noises)
    ):
        start, stop = stop, stop + len(list(run))
        yield correlation, slice(start, stop)


def squeezing_fraction(
    noise: MarkovNoise | Sequence[MarkovNoise],
    n_bar: float | Sequence[float],
) -> float | np.ndarray:
    """Fraction of the photon budget spent on squeezing the input.

    (mean input variance - 1/2) / n_bar with the mean taken over the
    spectral interval, in closed form ((1 + c^2) K(c^4) - pi/2) / (pi n_bar)
    with K the complete elliptic integral, taken as K(k^2) - pi/2 at the
    Landen modulus k = 2c / (1 + c^2) without cancellation, so it keeps
    its precision at weak correlation.  It is divided by pi, then by
    n_bar, since pi n_bar overflows at the largest energies.
    Zero for white noise and for zero energy at a threshold within
    round-off of zero; otherwise independent of the noise variance by
    construction.  Lies in [0, 1] whenever n_bar is at or above
    :func:`multimode_threshold`; larger values signal that the energy
    cannot cover the squeezing demanded by the noise anisotropy.

    Also takes equal-length sequences of :class:`MarkovNoise` and
    energies, as :func:`asymptotic_capacity` does, and then returns an
    array of the fractions, bitwise equal to one-point calls, or raises
    the error of the first point whose one-point call would.  Each run of
    consecutive points of one correlation takes one closed-form
    evaluation, divided by each point's energy.
    """
    single, noises, energies = _points(noise, n_bar)
    fractions = np.zeros(len(noises))
    for correlation, run in _runs(noises):
        _check_correlation(correlation)
        # Zero energy, and any invalid one, takes the one-point check.
        for i in run.start + np.flatnonzero(~(energies[run] > 0) | np.isinf(energies[run])):
            energy = _check_energy(energies[i].item())
            # Only a threshold within round-off of zero (see _reaches) admits zero energy.
            if energy == 0 and not _reaches(0.0, multimode_threshold(noises[i])):
                raise ValueError("n_bar must be positive, got 0")
        split = _landen_ellipk(correlation, alt_form=True)[1] / math.pi
        # As in float arithmetic, a quotient that overflows is inf.
        with np.errstate(over="ignore"):
            np.divide(split, energies[run], out=fractions[run], where=energies[run] != 0)
    return float(fractions[0]) if single else fractions


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


# asymptotic_capacity integrates at most this many points in one call, so
# that the (points x nodes) arrays stay small.
_BATCH_ROWS = 32


def asymptotic_capacity(
    noise: MarkovNoise | Sequence[MarkovNoise],
    n_bar: float | Sequence[float],
) -> float | np.ndarray:
    """Capacity in the infinite-use limit, in bits per channel use.

    g(n_bar + variance) minus the spectral mean of g over the symplectic
    noise spectrum.  Only valid above :func:`multimode_threshold`.

    Also takes equal-length sequences of :class:`MarkovNoise` and
    energies, and then returns an array of the capacities, bitwise equal
    to one-point calls.  Every point is validated before any integral,
    including that n_bar + variance is finite, on arrays per correlation:
    the first point whose one-point call would fail raises its error.
    Consecutive points of one correlation share one :func:`integrate`
    call, within blocks of ``_BATCH_ROWS`` points, taken in order.
    """
    single, noises, energies = _points(noise, n_bar)
    variances = np.array([point.variance for point in noises])
    for correlation, run in _runs(noises):
        energy, variance = energies[run], variances[run]
        with np.errstate(over="ignore"):
            valid = (energy >= 0) & np.isfinite(energy + variance)
        valid &= _reaches(energy, _threshold(correlation, variance))
        # Only the points the array checks reject take the one-point checks, which raise.
        for i in run.start + np.flatnonzero(~valid):
            _above(noises[i], energies[i].item(), multimode_threshold)
            _check_energy(energies[i].item(), noises[i].variance)
    capacities = np.empty(len(noises))
    for correlation, batch in _runs(noises, _BATCH_ROWS):
        # A (k, 1) column, so that the spectrum gives one row per point.
        column = variances[batch, None]
        means = _entropy_mean(_env_spectrum(column, correlation), correlation**2, 0.5)
        # Clamped at 0: the trapezoid weights do not sum to exactly pi.
        capacities[batch] = np.maximum(thermal_entropy(energies[batch] + variances[batch]) - means, 0.0)
    return float(capacities[0]) if single else capacities


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


def brute_force_mono_oracle(
    noise: MonoNoise,
    n_bar: float,
    resolution: int = 161,
) -> MonoSolution:
    """Maximize the single-mode information quantity by deterministic grid search.

    Searches over the input squeezing s = ln(2 input_q) and the split of
    the remaining energy between the two modulation variances, holding
    the total energy constraint with equality.  The input is pure,
    (e^s / 2, e^-s / 2), and spends cosh(s) of the variance budget
    2 n_bar + 1, so s ranges over |s| <= acosh(2 n_bar + 1), a box free
    of cancellation at every energy.  Independent of the closed form in
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

    def state(s, split):
        # (input_q, input_p, mod_q, mod_p) for squeezing s and energy split.
        mod_total = max(budget - math.cosh(s), 0.0)
        return 0.5 * math.exp(s), 0.5 * math.exp(-s), split * mod_total, (1.0 - split) * mod_total

    def objective(s, split):
        in_q, in_p, mod_q, mod_p = state(s, split)
        nu_out = math.sqrt(in_q + var_q) * math.sqrt(in_p + var_p)
        nu_bar = np.sqrt(in_q + var_q + mod_q) * np.sqrt(in_p + var_p + mod_p)
        return thermal_entropy(nu_bar - 0.5) - thermal_entropy(nu_out - 0.5)

    (best_s, best_split), best_value = grid_maximize(
        objective,
        [(-half_width, half_width), (0.0, 1.0)],
        resolution=resolution,
        refinements=passes,
    )
    in_q, in_p, mod_q, mod_p = state(best_s, best_split)
    return MonoSolution(
        input_q=in_q,
        input_p=in_p,
        modulation_q=mod_q,
        modulation_p=mod_p,
        # Below threshold the two columns differ; the water surface sits
        # on the taller one.
        water_level=max(in_q + var_q + mod_q, in_p + var_p + mod_p),
        capacity_bits=best_value,
        above_threshold=_reaches(n_bar, mono_threshold(noise)),
    )
