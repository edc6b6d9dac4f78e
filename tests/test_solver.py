"""Tests for the water-filling solvers, capacities and the grid oracle.

Reference values are cross-checked against a dense trapezoidal
integration oracle defined inline (vectorized numpy, 400k+ points),
independent of the package's quadrature and closed forms, and against
mpmath at 30 digits where it is installed; headline regression
constants were frozen from 2,000,001-point evaluations of the same
oracle.
"""

import math

import numpy as np
import pytest

from gmcapacity import solver
from gmcapacity.gaussian import thermal_entropy
from gmcapacity.numerics import integrate
from gmcapacity.solver import (
    BelowThresholdError,
    MonoNoise,
    asymptotic_capacity,
    brute_force_mono_oracle,
    classical_limit_capacity,
    finite_n_rate,
    first_mode_variance,
    full_correlation_capacity,
    mean_environment_entropy,
    mono_solve,
    mono_threshold,
    multimode_solve,
    multimode_threshold,
    squeezing_fraction,
    symmetric_noise_solution,
    symmetric_threshold,
)
from gmcapacity.spectra import MarkovNoise, markov_matrix


def g_vec(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mask = x > 0
    xm = x[mask]
    out[mask] = (xm + 1) * np.log2(xm + 1) - xm * np.log2(xm)
    return out


def nu_env_vec(variance, phi, xs):
    return variance * (1 - phi**2) / np.sqrt((1 + phi**2) ** 2 - 4 * phi**2 * np.cos(xs) ** 2)


def trapezoid_mean(values, xs):
    return float(np.trapezoid(values, xs) / math.pi)


XS_DENSE = np.linspace(0.0, math.pi, 400001)
GRID = np.linspace(0.0, math.pi, 1001)


def mpmath_mean(integrand):
    """(1/pi) times the integral over [0, pi] by mpmath at 30 digits.

    Breakpoints near both ends resolve the boundary layers that strong
    correlations put there.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        pi = mpmath.pi
        cuts = [mpmath.mpf(d) for d in ("1e-4", "1e-2", "0.5")]
        points = [0] + cuts + [pi - d for d in reversed(cuts)] + [pi]
        return mpmath.quad(lambda x: integrand(mpmath, x), points) / pi


class TestHighPrecisionReference:
    @pytest.mark.parametrize("phi", [0.3, 0.9, 0.999])
    def test_squeezing_fraction(self, phi):
        def input_q(mp, x):
            c = mp.mpf(phi)
            return 0.5 * mp.sqrt((1 + c * c + 2 * c * mp.cos(x)) / (1 + c * c - 2 * c * mp.cos(x)))

        n_bar = 2.0
        expected = float((mpmath_mean(input_q) - 0.5) / n_bar)
        value = squeezing_fraction(MarkovNoise(1.0, phi), n_bar)
        assert value == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("phi", [0.3, 0.6, 0.9, 0.99, 0.9985, 0.999])
    @pytest.mark.parametrize("alt_form", [False, True])
    def test_first_mode_variance(self, phi, alt_form):
        # With alt_form, the integrand is the optimal input spectrum
        # MultimodeSolution.input_q (test_input_matches_anisotropy_closed_form).
        def integrand(mp, x):
            c = mp.mpf(phi)
            base = 1 + (c * c if alt_form else c)
            return 0.5 * mp.sqrt((base + 2 * c * mp.cos(x)) / (base - 2 * c * mp.cos(x)))

        expected = float(mpmath_mean(integrand))
        value = first_mode_variance(phi, alt_form=alt_form)
        assert value == pytest.approx(expected, rel=1e-15, abs=0)

    def test_input_spectrum_mean_at_strong_correlation(self):
        # The double-precision input spectrum, integrated at 30 digits, has
        # the closed-form mean; its symbols peak at x = 0 and x = pi, where
        # 1 + c^2 -+ 2 c cos x would cancel (an error of ~1e-11 here).
        for phi in (0.9985, 0.999):
            noise = MarkovNoise(1.0, phi)
            sol = multimode_solve(noise, multimode_threshold(noise) + 1.0)
            expected = float(mpmath_mean(lambda mp, x: sol.input_q(float(x))))
            assert first_mode_variance(phi, alt_form=True) == pytest.approx(expected, rel=1e-15, abs=0)

    @pytest.mark.parametrize("phi", [0.5, 0.9, 0.99, 0.999])
    @pytest.mark.parametrize("variance", [1.0, 100.0])
    def test_mean_environment_entropy(self, phi, variance):
        def entropy_of_env(mp, x):
            c = mp.mpf(phi)
            nu = variance * (1 - c * c) / mp.sqrt((1 - c * c) ** 2 + 4 * c * c * mp.sin(x) ** 2)
            return (nu + 1) * mp.log(nu + 1, 2) - nu * mp.log(nu, 2)

        expected = float(mpmath_mean(entropy_of_env))
        value = mean_environment_entropy(MarkovNoise(variance, phi))
        assert value == pytest.approx(expected, abs=5e-14)


class TestMonoNoise:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MonoNoise(0.0, 1.0)
        with pytest.raises(ValueError):
            MonoNoise(1.0, -0.5)


class TestMonoThreshold:
    def test_symmetric_noise_free(self):
        assert mono_threshold(MonoNoise(1.3, 1.3)) == 0.0

    def test_anisotropic(self):
        assert mono_threshold(MonoNoise(2.0, 0.5)) == pytest.approx(1.25, abs=1e-15)
        assert mono_threshold(MonoNoise(1.0, 4.0)) == pytest.approx(2.0, abs=1e-15)


class TestMonoSolve:
    def test_symmetric_coherent(self):
        sol = mono_solve(MonoNoise(1.0, 1.0), 2.0)
        assert sol.input_q == 0.5
        assert sol.input_p == 0.5
        assert sol.water_level == pytest.approx(3.5, abs=1e-15)
        assert sol.modulation_q == pytest.approx(2.0, abs=1e-15)
        assert sol.modulation_p == pytest.approx(2.0, abs=1e-15)
        assert sol.above_threshold

    def test_anisotropic(self):
        sol = mono_solve(MonoNoise(2.0, 0.5), 2.0)
        assert sol.input_q == pytest.approx(1.0, abs=1e-15)
        assert sol.input_p == pytest.approx(0.25, abs=1e-15)
        assert sol.water_level == pytest.approx(3.75, abs=1e-15)
        assert sol.modulation_q == pytest.approx(0.75, abs=1e-12)
        assert sol.modulation_p == pytest.approx(3.0, abs=1e-12)
        # Total variance budget: both quadratures together carry 2 nbar + 1.
        total = sol.input_q + sol.input_p + sol.modulation_q + sol.modulation_p
        assert total == pytest.approx(5.0, abs=1e-12)

    def test_pure_input(self):
        sol = mono_solve(MonoNoise(3.0, 0.7), 4.0)
        assert sol.input_q * sol.input_p == pytest.approx(0.25, abs=1e-12)

    def test_flat_output(self):
        noise = MonoNoise(2.0, 0.5)
        sol = mono_solve(noise, 2.0)
        assert sol.input_q + noise.var_q + sol.modulation_q == pytest.approx(
            sol.water_level, abs=1e-12
        )
        assert sol.input_p + noise.var_p + sol.modulation_p == pytest.approx(
            sol.water_level, abs=1e-12
        )

    def test_below_threshold(self):
        with pytest.raises(BelowThresholdError) as excinfo:
            mono_solve(MonoNoise(2.0, 0.5), 1.0)
        assert excinfo.value.threshold == pytest.approx(1.25, abs=1e-15)

    def test_energy_constraint_at_covariance_level(self):
        # The solved variances reproduce the photon budget through the
        # covariance-level accounting, (Tr gamma_in + Tr gamma_mod)/2 - 1/2
        # for one mode, and the input stays pure, det gamma_in = 1/4.
        sol = mono_solve(MonoNoise(2.0, 0.5), 2.0)
        total = sol.input_q + sol.input_p + sol.modulation_q + sol.modulation_p
        assert total / 2.0 - 0.5 == pytest.approx(2.0, abs=1e-12)
        assert abs(sol.input_q * sol.input_p - 0.25) <= 1e-9

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            mono_solve(MonoNoise(1.0, 1.0), -0.1)


class TestMonoCapacity:
    def test_thermal_reduction(self):
        assert mono_solve(MonoNoise(1.0, 1.0), 2.0).capacity_bits == pytest.approx(
            thermal_entropy(3.0) - thermal_entropy(1.0), abs=1e-15
        )
        # 4 log2 4 - 3 log2 3 - 2 = 6 - 3 log2 3.
        assert mono_solve(MonoNoise(1.0, 1.0), 2.0).capacity_bits == pytest.approx(
            6.0 - 3.0 * math.log2(3.0), abs=1e-12
        )

    def test_anisotropic_means(self):
        value = mono_solve(MonoNoise(2.0, 0.5), 2.0).capacity_bits
        assert value == pytest.approx(
            thermal_entropy(3.25) - thermal_entropy(1.0), abs=1e-15
        )

    def test_zero_energy_zero_capacity(self):
        assert mono_solve(MonoNoise(1.5, 1.5), 0.0).capacity_bits == 0.0

    def test_below_threshold(self):
        with pytest.raises(BelowThresholdError):
            mono_solve(MonoNoise(2.0, 0.5), 1.0).capacity_bits


# Correlations from weak, where (1 + c)/(1 - c) - 1 and (1 + c^2) K - pi/2
# cancel, to the strongest admissible.
MPMATH_PHIS = [1e-12, 1e-9, 1e-6, 1e-4, 0.01, 0.5, 0.999]


class TestMultimodeThreshold:
    def test_memoryless(self):
        assert multimode_threshold(MarkovNoise(1.0, 0.0)) == 0.0

    @pytest.mark.parametrize("phi", MPMATH_PHIS)
    def test_against_mpmath(self, phi):
        mpmath = pytest.importorskip("mpmath")
        variance = 2.3
        with mpmath.workdps(40):
            c = mpmath.mpf(phi)
            gain = (1 + c) / (1 - c) - 1
            expected = float(gain * (mpmath.mpf(variance) + mpmath.mpf(0.5)))
            expected_symmetric = float(gain * mpmath.mpf(variance))
        noise = MarkovNoise(variance, phi)
        assert multimode_threshold(noise) == pytest.approx(expected, rel=1e-15, abs=0)
        assert symmetric_threshold(noise) == pytest.approx(expected_symmetric, rel=1e-15, abs=0)

    def test_reference_points(self):
        # Closed form lands within one ulp of the round values.
        assert abs(multimode_threshold(MarkovNoise(1.0, 0.7)) - 7.0) <= 1e-12
        assert abs(multimode_threshold(MarkovNoise(1.0, 0.9)) - 27.0) <= 1e-12
        assert multimode_threshold(MarkovNoise(1.0, 0.5)) == 3.0

    def test_correlation_cap(self):
        with pytest.raises(ValueError):
            multimode_threshold(MarkovNoise(1.0, 0.9995))
        with pytest.raises(ValueError):
            multimode_threshold(MarkovNoise(1.0, -0.1))


class TestSqueezingFraction:
    def test_white_noise_coherent(self):
        assert squeezing_fraction(MarkovNoise(1.0, 0.0), 3.0) == 0.0
        # No squeezing is needed, so zero energy is no error.
        assert squeezing_fraction(MarkovNoise(1.0, 0.0), 0.0) == 0.0

    @pytest.mark.parametrize("phi", MPMATH_PHIS + [0.99, 0.9985])
    def test_against_mpmath(self, phi):
        mpmath = pytest.importorskip("mpmath")
        n_bar = 2.0
        with mpmath.workdps(40):
            c = mpmath.mpf(phi)
            excess = (1 + c * c) * mpmath.ellipk(c**4) - mpmath.pi / 2
            expected = float(excess / (mpmath.pi * n_bar))
        value = squeezing_fraction(MarkovNoise(1.0, phi), n_bar)
        assert value == pytest.approx(expected, rel=1e-15, abs=0)

    @pytest.mark.parametrize("n_bar", [6e307, 1e308, 1.7e308])
    def test_largest_energies(self, n_bar):
        # pi * n_bar overflows here, so the fraction is divided by pi first;
        # the subnormal result is good to one unit of its last place.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            excess = (1 + mpmath.mpf(0.25)) * mpmath.ellipk(mpmath.mpf(0.5) ** 4) - mpmath.pi / 2
            expected = float(excess / (mpmath.pi * n_bar))
        value = squeezing_fraction(MarkovNoise(1.0, 0.5), n_bar)
        assert value > 0.0
        assert value == pytest.approx(expected, rel=1e-15, abs=math.ulp(0.0))

    def test_variance_independent(self):
        lo = squeezing_fraction(MarkovNoise(1.0, 0.5), 1.0)
        hi = squeezing_fraction(MarkovNoise(7.0, 0.5), 1.0)
        assert lo == hi

    def test_against_trapezoid_oracle(self):
        phi = 0.5
        integrand = 0.5 * np.sqrt(
            (1 + phi**2 + 2 * phi * np.cos(XS_DENSE))
            / (1 + phi**2 - 2 * phi * np.cos(XS_DENSE))
        )
        expected = trapezoid_mean(integrand, XS_DENSE) - 0.5
        value = squeezing_fraction(MarkovNoise(1.0, phi), 1.0)
        assert value == pytest.approx(expected, abs=1e-9)
        # Frozen from the 2,000,001-point evaluation of the same oracle.
        assert value == pytest.approx(0.13512460006066118, abs=1e-9)

    def test_fixed_snr_ordering(self):
        # At matching signal-to-noise ratio the weaker correlation spends
        # a larger energy share on squeezing.
        nbar_07 = multimode_threshold(MarkovNoise(1.0, 0.7))
        nbar_09 = multimode_threshold(MarkovNoise(1.0, 0.9))
        assert squeezing_fraction(MarkovNoise(1.0, 0.7), nbar_07) > squeezing_fraction(
            MarkovNoise(1.0, 0.9), nbar_09
        )

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            squeezing_fraction(MarkovNoise(1.0, 0.5), 0.0)

    def test_domain_edge_correlation(self):
        # Strongest admissible correlation: the input spectrum peaks near
        # 1e3 in a layer of width ~1e-3, which the quadrature must resolve.
        noise = MarkovNoise(1.0, 0.999)
        threshold = multimode_threshold(noise)
        eta = squeezing_fraction(noise, threshold)
        phi = 0.999
        xs = np.linspace(0.0, math.pi, 4_000_001)
        integrand = 0.5 * np.sqrt(
            (1 + phi**2 + 2 * phi * np.cos(xs)) / (1 + phi**2 - 2 * phi * np.cos(xs))
        )
        expected = (trapezoid_mean(integrand, xs) - 0.5) / threshold
        assert eta == pytest.approx(expected, abs=1e-8)
        assert 0.0 < eta < 1.0


class TestMultimodeSolve:
    def test_memoryless_flat(self):
        sol = multimode_solve(MarkovNoise(1.0, 0.0), 2.0)
        assert sol.water_level == pytest.approx(3.5, abs=1e-15)
        assert sol.squeezing_fraction == 0.0
        for x in (0.0, 1.0, math.pi):
            assert sol.input_q(x) == pytest.approx(0.5, abs=1e-12)
            assert sol.modulation_q(x) == pytest.approx(2.0, abs=1e-12)

    def test_water_level_and_binding_point(self):
        sol = multimode_solve(MarkovNoise(1.0, 0.7), 7.5)
        assert sol.water_level == pytest.approx(9.0, abs=1e-12)
        mods = np.array([sol.modulation_q(float(x)) for x in GRID])
        assert mods.min() >= -1e-12
        # The q modulation is squeezed out where the q noise peaks: x = 0.
        assert np.argmin(mods) == 0
        assert mods[0] == pytest.approx(7.5 - 7.0, abs=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.1, 0.4, 0.7, 0.9, 0.99, 0.999])
    @pytest.mark.parametrize("variance", [0.01, 1.0, 100.0])
    def test_input_matches_anisotropy_closed_form(self, phi, variance):
        # The input spectrum follows from the two noise spectra; the
        # variance cancels in their ratio.
        noise = MarkovNoise(variance, phi)
        sol = multimode_solve(noise, multimode_threshold(noise) + 1.0)
        xs = np.linspace(0.0, math.pi, 100001)
        # |1 + phi e^{ix}|^2 / |1 - phi e^{ix}|^2, both free of cancellation.
        gap_p = (1 - phi) ** 2 + 4 * phi * np.cos(0.5 * xs) ** 2
        gap_q = (1 - phi) ** 2 + 4 * phi * np.sin(0.5 * xs) ** 2
        expected = 0.5 * np.sqrt(gap_p / gap_q)
        assert np.max(np.abs(sol.input_q(xs) / expected - 1.0)) <= 4.5e-16

    def test_purity_everywhere(self):
        sol = multimode_solve(MarkovNoise(1.0, 0.6), 6.0)
        for x in GRID[::50]:
            assert sol.input_q(float(x)) * sol.input_p(float(x)) == pytest.approx(
                0.25, abs=1e-12
            )

    def test_flat_total_output(self):
        sol = multimode_solve(MarkovNoise(1.0, 0.5), 4.0)
        for x in GRID[::10]:
            x = float(x)
            total_q = sol.input_q(x) + sol.noise_q(x) + sol.modulation_q(x)
            total_p = sol.input_p(x) + sol.noise_p(x) + sol.modulation_p(x)
            assert total_q == pytest.approx(sol.water_level, abs=1e-10)
            assert total_p == pytest.approx(sol.water_level, abs=1e-10)

    def test_modulation_energy_share(self):
        noise = MarkovNoise(1.0, 0.7)
        n_bar = 7.5
        sol = multimode_solve(noise, n_bar)
        mods = sol.modulation_q(XS_DENSE)
        assert trapezoid_mean(mods, XS_DENSE) == pytest.approx(
            (1.0 - sol.squeezing_fraction) * n_bar, abs=1e-8
        )

    def test_binding_exactly_at_threshold(self):
        sol = multimode_solve(MarkovNoise(1.0, 0.5), 3.0)
        assert sol.modulation_q(0.0) == pytest.approx(0.0, abs=1e-12)
        assert sol.modulation_p(math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_below_threshold_carries_value(self):
        with pytest.raises(BelowThresholdError) as excinfo:
            multimode_solve(MarkovNoise(1.0, 0.7), 6.9)
        assert excinfo.value.threshold == pytest.approx(7.0, abs=1e-12)

    @pytest.mark.parametrize(
        "phi, variance, n_bar, abs_tol",
        [
            # Explicit ids keep the names of the cases without a reference check.
            pytest.param(0.0, 1.0, 2.0, None, id="0.0-1.0-2.0"),
            pytest.param(0.4, 0.5, 3.0, None, id="0.4-0.5-3.0"),
            pytest.param(0.7, 1.0, 7.5, None, id="0.7-1.0-7.5"),
            pytest.param(0.95, 3.0, 200.0, None, id="0.95-3.0-200.0"),
            *[
                (phi, 1.0, n_bar, abs_tol)
                for phi, n_bar in [(0.3, 4.0), (0.9, 40.0), (0.999, 3000.0)]
                for abs_tol in (1e-6, 1e-12)
            ],
        ],
    )
    def test_same_numbers_as_public_functions(self, phi, variance, n_bar, abs_tol):
        noise = MarkovNoise(variance, phi)
        if abs_tol is not None:
            # The fixed 1e-10 target is met with room to spare: the
            # capacity also holds a loose and a tight tolerance against
            # mpmath at 30 digits.
            def entropy_of_env(mp, x):
                c = mp.mpf(phi)
                nu = variance * (1 - c * c) / mp.sqrt((1 - c * c) ** 2 + 4 * c * c * mp.sin(x) ** 2)
                return (nu + 1) * mp.log(nu + 1, 2) - nu * mp.log(nu, 2)

            expected = thermal_entropy(n_bar + variance) - float(mpmath_mean(entropy_of_env))
            assert asymptotic_capacity(noise, n_bar) == pytest.approx(expected, abs=abs_tol)
        sol = multimode_solve(noise, n_bar)
        assert sol.capacity_bits == asymptotic_capacity(noise, n_bar)
        # The same point among others in one batched call.
        batch = asymptotic_capacity(
            [MarkovNoise(2.0, 0.5), noise, MarkovNoise(0.5, 0.95)], [10.0, n_bar, 100.0]
        )
        assert sol.capacity_bits == batch[1]
        assert sol.squeezing_fraction == squeezing_fraction(noise, n_bar)
        assert sol.threshold == multimode_threshold(noise)

    @pytest.mark.parametrize("phi", [0.0, 1e-17, 1e-13])
    def test_white_noise_zero_energy(self, phi):
        # The threshold 3 phi / (1 - phi) is 0 only for white noise, where
        # zero energy is the binding point; zero energy lies below every
        # positive threshold, however small.
        noise = MarkovNoise(1.0, phi)
        if phi > 0:
            with pytest.raises(BelowThresholdError) as excinfo:
                multimode_solve(noise, 0.0)
            assert excinfo.value.threshold == pytest.approx(3.0 * phi / (1.0 - phi), rel=1e-15, abs=0)
            return
        sol = multimode_solve(noise, 0.0)
        assert sol.threshold == pytest.approx(3.0 * phi / (1.0 - phi), rel=1e-15, abs=0)
        assert sol.squeezing_fraction == 0.0
        assert sol.water_level == 1.5
        assert sol.capacity_bits == asymptotic_capacity(noise, 0.0)
        assert sol.capacity_bits == symmetric_noise_solution(noise, 0.0).capacity_bits
        assert sol.capacity_bits == pytest.approx(0.0, abs=1e-15)


class TestAsymptoticCapacity:
    def test_memoryless_reduction(self):
        value = asymptotic_capacity(MarkovNoise(1.0, 0.0), 7.5)
        assert value == pytest.approx(
            thermal_entropy(8.5) - thermal_entropy(1.0), abs=1e-12
        )

    def test_regression_constant(self):
        # Frozen from a 2,000,001-point trapezoidal evaluation of the
        # spectral integral.
        value = asymptotic_capacity(MarkovNoise(1.0, 0.7), 7.5)
        assert value == pytest.approx(3.1989254398785825, abs=1e-9)

    def test_against_trapezoid_oracle(self):
        variance, phi, n_bar = 1.0, 0.5, 4.0
        mean_entropy = trapezoid_mean(g_vec(nu_env_vec(variance, phi, XS_DENSE)), XS_DENSE)
        expected = float(g_vec(n_bar + variance)) - mean_entropy
        value = asymptotic_capacity(MarkovNoise(variance, phi), n_bar)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_bounds(self):
        value = asymptotic_capacity(MarkovNoise(1.0, 0.7), 7.5)
        assert thermal_entropy(8.5) - thermal_entropy(1.0) < value < thermal_entropy(8.5)

    def test_environment_entropy_vanishes_at_full_correlation(self):
        terms = [mean_environment_entropy(MarkovNoise(1.0, phi)) for phi in (0.9, 0.99, 0.999)]
        assert terms[0] > terms[1] > terms[2] > 0.0

    def test_full_correlation_limit_value(self):
        # The analytic limit is the thermal entropy of the total energy;
        # the strongest admissible correlation sits within its entropy
        # term of that value.
        noise = MarkovNoise(1.0, 0.999)
        n_bar = multimode_threshold(noise) + 1.0
        limit = full_correlation_capacity(noise, n_bar)
        assert limit == thermal_entropy(n_bar + 1.0)
        value = asymptotic_capacity(noise, n_bar)
        assert limit - mean_environment_entropy(noise) == pytest.approx(value, abs=1e-12)
        assert limit - value <= 0.05

    def test_below_threshold(self):
        with pytest.raises(BelowThresholdError):
            asymptotic_capacity(MarkovNoise(1.0, 0.9), 7.5)

    def test_huge_energy_stays_non_negative(self):
        # g(1e300) needs the cancellation-free form; the direct one gave
        # a capacity of -1.73 bits here.
        noise = MarkovNoise(1.0, 0.5)
        value = asymptotic_capacity(noise, 1e300)
        assert value >= 0.0
        assert value == pytest.approx(
            thermal_entropy(1e300) - mean_environment_entropy(noise), rel=1e-15, abs=0
        )


class TestAsymptoticCapacitySequences:
    # Fixed-SNR sweep as in fig3, with every correlation in one sequence so
    # that batches of the shared integral also mix correlations.
    PHIS = (0.0, 0.1, 0.4, 0.7, 0.9, 0.99, 0.999)
    VARIANCES = np.geomspace(1.0, 1e4, 200).tolist()

    def sweep(self):
        noises, energies = [], []
        for phi in self.PHIS:
            snr = multimode_threshold(MarkovNoise(1.0, phi))
            for variance in self.VARIANCES:
                noises.append(MarkovNoise(variance, phi))
                energies.append(variance * snr)
        return noises, energies

    def test_bitwise_equal_to_one_point_calls(self):
        noises, energies = self.sweep()
        batch = asymptotic_capacity(noises, energies)
        assert isinstance(batch, np.ndarray)
        expected = [asymptotic_capacity(noise, n_bar) for noise, n_bar in zip(noises, energies)]
        assert batch.tolist() == expected

    def test_scalar_form_returns_float(self):
        assert type(asymptotic_capacity(MarkovNoise(1.0, 0.7), 7.5)) is float
        assert asymptotic_capacity([], []).shape == (0,)

    def test_one_point_below_threshold_raises(self, monkeypatch):
        # The point sits in the second batch; it must raise before the
        # first batch is integrated.
        def no_integral(*args):
            raise AssertionError("integrated before validating every point")

        monkeypatch.setattr(solver, "integrate", no_integral)
        noises = [MarkovNoise(1.0, 0.5)] * 40
        energies = [10.0] * 40
        energies[33] = 1.0
        with pytest.raises(BelowThresholdError) as excinfo:
            asymptotic_capacity(noises, energies)
        assert excinfo.value.threshold == multimode_threshold(noises[33])

    def test_validation(self):
        noise = MarkovNoise(1.0, 0.5)
        with pytest.raises(ValueError, match="energies"):
            asymptotic_capacity([noise, noise], [7.5])
        with pytest.raises(ValueError, match="energies"):
            asymptotic_capacity(noise, [7.5, 7.5])
        with pytest.raises(ValueError, match="n_bar must be finite"):
            asymptotic_capacity([noise, noise], [7.5, math.nan])
        with pytest.raises(ValueError, match="closed-form solvers accept"):
            asymptotic_capacity([noise, MarkovNoise(1.0, -0.5)], [7.5, 7.5])



class TestSqueezingFractionSequences:
    PHIS = (0.0, 1e-13, 0.1, 0.5, 0.9, 0.999)
    # From subnormal to the largest doubles, where pi * n_bar overflows.
    ENERGIES = [5e-324, 1e-320, 1e-13, 0.5, 2.0, 7.5, 1e4, 6e307, 1.7e308]

    def test_bitwise_equal_to_one_point_calls(self, monkeypatch):
        noises, energies = [], []
        for phi in self.PHIS:
            # Zero energy is valid only at phi = 0, whose threshold is 0.
            points = [*self.ENERGIES, 0.0] if phi == 0 else self.ENERGIES
            for i, n_bar in enumerate(points):
                noises.append(MarkovNoise(1.0 + i, phi) if n_bar else MarkovNoise(1.0, phi))
                energies.append(n_bar)
        expected = [squeezing_fraction(noise, n_bar) for noise, n_bar in zip(noises, energies)]
        calls = []
        landen = solver._landen_ellipk

        def counting(c, alt_form):
            calls.append(c)
            return landen(c, alt_form)

        monkeypatch.setattr(solver, "_landen_ellipk", counting)
        batch = squeezing_fraction(noises, np.array(energies))
        assert isinstance(batch, np.ndarray)
        assert batch.tolist() == expected
        assert expected[len(self.ENERGIES)] == 0.0
        # One closed form per run of one correlation.
        assert calls == list(self.PHIS)

    def test_zero_energy_below_a_positive_threshold(self):
        values = squeezing_fraction([MarkovNoise(1.0, 0.0)] * 2, [0.0, 2.0])
        assert values.tolist() == [0.0, 0.0]
        # Zero energy lies below every positive threshold, down to 3e-13
        # at phi = 1e-13, N = 1.
        for noise in (MarkovNoise(1.0, 1e-13), MarkovNoise(10.0, 1e-13), MarkovNoise(1.0, 0.5)):
            with pytest.raises(ValueError, match="n_bar must be positive, got 0"):
                squeezing_fraction([MarkovNoise(1.0, 0.0), noise], [0.0, 0.0])

    def test_scalar_form_returns_float(self):
        assert type(squeezing_fraction(MarkovNoise(1.0, 0.7), 7.5)) is float
        assert squeezing_fraction([], []).shape == (0,)
        with pytest.raises(ValueError, match="energies"):
            squeezing_fraction([MarkovNoise(1.0, 0.5)] * 2, [7.5])


def _first_one_point_error(function, noises, energies):
    for noise, n_bar in zip(noises, energies):
        try:
            function(noise, n_bar)
        except ValueError as err:
            return type(err), str(err)
    raise AssertionError("no point fails")


@pytest.mark.parametrize("function", [asymptotic_capacity, squeezing_fraction])
@pytest.mark.parametrize("points", [
    [(1.0, 0.5, 10.0), (1.0, 0.5, math.nan), (1.0, 0.9995, 10.0)],
    [(1.0, 0.5, 10.0), (1.0, 0.5, 1.0), (1.0, -0.5, 10.0)],
    [(1.0, 0.5, 10.0), (1.0, 0.9995, math.nan)],
    [(1e308, 0.0, 1e308), (1.0, 0.5, math.nan)],
    [(1.0, 0.5, 10.0), (1.0, 0.5, -1.0), (1.0, 0.5, math.inf)],
    [(1.0, 0.5, 10.0), (1.0, 0.5, math.inf)],
    [(1.0, 1e-13, 0.0), (10.0, 1e-13, 0.0)],
], ids=["nan", "below-then-sign", "correlation", "sum-overflow", "negative", "inf", "zero"])
def test_sequence_raises_the_first_one_point_error(function, points):
    # The sequence forms check points in arrays; the first point whose
    # one-point call fails must raise that call's error.
    noises = [MarkovNoise(variance, phi) for variance, phi, _ in points]
    energies = [n_bar for *_, n_bar in points]
    with pytest.raises(ValueError) as excinfo:
        function(noises, energies)
    assert (type(excinfo.value), str(excinfo.value)) == _first_one_point_error(function, noises, energies)

class TestFiniteNRate:
    def test_single_use(self):
        value = finite_n_rate(MarkovNoise(1.0, 0.7), 7.5, 1)
        assert value == pytest.approx(
            thermal_entropy(8.5) - thermal_entropy(1.0), abs=1e-12
        )

    def test_white_noise_flat_in_n(self):
        expected = thermal_entropy(8.5) - thermal_entropy(1.0)
        for n in (1, 7, 32):
            assert finite_n_rate(MarkovNoise(1.0, 0.0), 7.5, n) == pytest.approx(
                expected, abs=1e-12
            )

    def test_converges_toward_asymptotic(self):
        noise = MarkovNoise(1.0, 0.7)
        capacity = asymptotic_capacity(noise, 7.5)
        dev_16 = abs(finite_n_rate(noise, 7.5, 16) - capacity)
        dev_64 = abs(finite_n_rate(noise, 7.5, 64) - capacity)
        assert dev_64 < dev_16

    @staticmethod
    def finite_threshold(variance, phi, n):
        """The least n_bar at which the paired water filling over n uses keeps every modulation non-negative.

        The tallest column pairs the largest q eigenvalue l_1 with the
        smallest p eigenvalue, which equals the smallest q eigenvalue l_n:
        l_1 + sqrt(l_1 / l_n) / 2 against the water level n_bar + N + 1/2.
        The eigenvalues come from a dense solve of N c^|i-j|.
        """
        block = variance * phi ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        lam = np.linalg.eigvalsh(block)
        return lam[-1] + 0.5 * math.sqrt(lam[-1] / lam[0]) - variance - 0.5

    def test_finite_threshold_rises_toward_the_asymptotic_one(self):
        # A second route to the closed form 3 phi / (1 - phi) at N = 1.
        noise = MarkovNoise(1.0, 0.9)
        values = [self.finite_threshold(1.0, 0.9, n) for n in (1, 2, 10, 50, 400)]
        assert values[0] == pytest.approx(0.0, abs=1e-14)
        assert values[1:] == pytest.approx([2.5794, 11.6273, 23.1263, 26.8803], abs=5e-5)
        assert values == sorted(values)
        assert multimode_threshold(noise) == pytest.approx(27.0, abs=1e-12)
        assert multimode_threshold(noise) - values[-1] == pytest.approx(0.1197, abs=5e-5)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: finite_n_rate does not check the finite-use threshold",
    )
    def test_below_the_finite_use_threshold_raises(self):
        # 7.5 is below the n = 10 threshold 11.6273; today the call
        # returns the fig4 row 3.71993063598 instead.
        with pytest.raises(BelowThresholdError):
            finite_n_rate(MarkovNoise(1.0, 0.9), 7.5, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            finite_n_rate(MarkovNoise(1.0, 0.5), 7.5, 0)
        for n in (2.5, 1e3):
            with pytest.raises(ValueError, match="n must be an integer"):
                finite_n_rate(MarkovNoise(1.0, 0.5), 7.5, n)

    @pytest.mark.parametrize("phi", [0.0, 0.3, 0.9, 0.999])
    @pytest.mark.parametrize("n", [1, 2, 5, 50, 300])
    def test_matches_two_block_reference(self, phi, n):
        # Reference: both noise blocks built here and solved separately,
        # descending q eigenvalues paired with ascending p eigenvalues.
        variance, n_bar = 1.3, 7.5
        dist = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        lam_q = np.linalg.eigh(variance * phi**dist)[0][::-1]
        lam_p = np.linalg.eigh(variance * (-phi) ** dist)[0]
        expected = float(g_vec(n_bar + variance) - np.mean(g_vec(np.sqrt(lam_q * lam_p))))
        value = finite_n_rate(MarkovNoise(variance, phi), n_bar, n)
        assert value == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("phi", [0.4, 0.7, 0.999])
    @pytest.mark.parametrize("n", [1, 2, 3, 600])
    def test_matches_dense_eigvalsh_rate(self, phi, n):
        # Reference: one full dense eigvalsh of the q block, against the
        # two half-size solves behind finite_n_rate.
        variance, n_bar = 1.0, 7.5
        dist = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        lam = np.linalg.eigvalsh(variance * phi**dist)
        expected = float(g_vec(n_bar + variance) - np.mean(g_vec(np.sqrt(lam * lam[::-1]))))
        value = finite_n_rate(MarkovNoise(variance, phi), n_bar, n)
        assert value == pytest.approx(expected, abs=1e-13)

    def test_huge_variance(self):
        # The paired eigenvalues near N = 1e200 overflow as a product.
        # Reference: the unit-variance spectrum from eigvalsh, scaled by N
        # and paired in mpmath, with g(x) = log2 x + (x + 1) log2(1 + 1/x).
        mpmath = pytest.importorskip("mpmath")
        variance, phi, n_bar, n = 1e200, 0.5, 1.0, 3
        dist = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        unit = np.linalg.eigvalsh(phi**dist)
        with mpmath.workdps(40):
            def g(x):
                return mpmath.log(x, 2) + (x + 1) * mpmath.log1p(1 / x) / mpmath.log(2)

            big = mpmath.mpf(variance)
            pairs = [big * mpmath.sqrt(mpmath.mpf(a) * mpmath.mpf(b))
                     for a, b in zip(unit.tolist(), unit[::-1].tolist())]
            expected = float(g(big + n_bar) - sum(g(p) for p in pairs) / n)
        assert expected == pytest.approx(0.276691666186, rel=1e-11, abs=0)
        value = finite_n_rate(MarkovNoise(variance, phi), n_bar, n)
        assert value == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "phi, variance, expected_a",
        [(0.4, 1.0, -0.1571969), (0.7, 1.0, -0.4713449), (0.95, 1.0, -0.8727808),
         (0.7, 2.5, -0.6609292)],
    )
    def test_first_order_term(self, phi, variance, expected_a):
        # R(n) = C + a/n + O(1/n^2): with a from its integral form, the
        # residual R(n) - C - a/n falls four times per doubling of n.
        #   a = g(N) - M - (1/pi) int_0^pi nu g'(nu) c sin x
        #         [d_-(x) / (1 + 2c cos x + c^2) - d_+(x) / (1 - 2c cos x + c^2)] dx
        # with nu the environment spectrum, M its spectral mean of g,
        # g'(nu) = log2(1 + 1/nu) and d_+-(x) = 2 (x - atan2(sin x, cos x -+ c)).
        # The integrand is even and symmetric about pi/2, with singularities
        # at e^{2ix} = c^2 and 1/c^2, so it is integrated on u = 2x with r = c^2.
        noise, n_bar, c = MarkovNoise(variance, phi), 200.0, phi

        def integrand(x):
            nu = nu_env_vec(variance, c, x)
            d_plus = 2.0 * (x - np.arctan2(np.sin(x), np.cos(x) - c))
            d_minus = 2.0 * (x - np.arctan2(np.sin(x), np.cos(x) + c))
            bracket = (d_minus / (1 + 2 * c * np.cos(x) + c * c)
                       - d_plus / (1 - 2 * c * np.cos(x) + c * c))
            return nu * np.log2(1.0 + 1.0 / nu) * c * np.sin(x) * bracket

        a = (thermal_entropy(variance) - mean_environment_entropy(noise)
             - integrate(lambda u: integrand(0.5 * u), c * c) / math.pi)
        assert a == pytest.approx(expected_a, abs=1e-7)
        capacity = asymptotic_capacity(noise, n_bar)
        residual = [finite_n_rate(noise, n_bar, n) - capacity - a / n for n in (250, 500, 1000, 2000)]
        for coarse, fine in zip(residual, residual[1:]):
            assert coarse / fine == pytest.approx(4.0, abs=0.03)


def williamson_rate(variance, phi, n_bar, n):
    """g(n_bar + N) - mean g(nu) over Williamson's symplectic spectrum of diag(T, D T D).

    For block-diagonal noise diag(A, B) the symplectic eigenvalues are
    sqrt(eig(A B)) (Williamson 1936); with A = T and B = D T D, D =
    diag((-1)^i), they are |eig(T D)|, the moduli of the eigenvalues of
    the symmetric T^(1/2) D T^(1/2).  Dense eigensolves only.
    """
    dist = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    lam, vectors = np.linalg.eigh(variance * phi**dist)
    root = (vectors * np.sqrt(lam)) @ vectors.T
    signs = (-1.0) ** np.arange(n)
    nu = np.abs(np.linalg.eigvalsh((root * signs) @ root))
    return thermal_entropy(n_bar + variance) - float(np.mean(thermal_entropy(nu)))


class TestWilliamsonSpectrum:
    # finite_n_rate pairs the descending q eigenvalues with the ascending
    # p ones, which is exact only where T and D T D commute: n <= 2.
    GRID = [(variance, phi) for variance in (1e-3, 1.0, 1e3)
            for phi in (0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)]

    @pytest.mark.parametrize("n", [1, 2])
    def test_pairing_exact_for_one_and_two_uses(self, n):
        for variance, phi in self.GRID:
            paired = finite_n_rate(MarkovNoise(variance, phi), 7.5, n)
            assert paired == pytest.approx(williamson_rate(variance, phi, 7.5, n), abs=1e-14)

    @pytest.mark.parametrize("n", [3, 8, 50, 300])
    def test_paired_entropy_below_williamson(self, n):
        # The paired mean of g is the smaller one, so R(n) exceeds the
        # Williamson rate; the smallest gap on this grid is ~1.5e-11.
        for variance, phi in self.GRID:
            paired = finite_n_rate(MarkovNoise(variance, phi), 7.5, n)
            assert paired > williamson_rate(variance, phi, 7.5, n)

    def test_gap_is_order_one_over_n(self):
        # n x gap settles (0.0716, 0.0722, 0.0725, 0.0727 at c = 0.7, N = 1)
        # with increments that halve per doubling of n, while both rates
        # approach C with deviations that halve too.
        noise, n_bar, ns = MarkovNoise(1.0, 0.7), 7.5, (100, 200, 400, 800)
        capacity = asymptotic_capacity(noise, n_bar)
        paired = np.array([finite_n_rate(noise, n_bar, n) for n in ns])
        williamson = np.array([williamson_rate(1.0, 0.7, n_bar, n) for n in ns])
        scaled = np.array(ns) * (paired - williamson)
        assert scaled == pytest.approx([0.0716, 0.0722, 0.0725, 0.0727], abs=1e-4)
        steps = np.diff(scaled)
        assert steps[:-1] / steps[1:] == pytest.approx([2.0, 2.0], abs=0.05)
        for rates in (paired, williamson):
            deviation = rates - capacity
            assert np.all(deviation < 0)
            assert deviation[:-1] / deviation[1:] == pytest.approx([2.0] * 3, abs=0.01)


NON_FINITE = [math.nan, math.inf, -math.inf]

ENERGY_ENTRY_POINTS = {
    "mono_solve": lambda e: mono_solve(MonoNoise(2.0, 0.5), e),
    "finite_n_rate": lambda e: finite_n_rate(MarkovNoise(1.0, 0.5), e, 10),
    "multimode_solve": lambda e: multimode_solve(MarkovNoise(1.0, 0.5), e),
    "asymptotic_capacity": lambda e: asymptotic_capacity(MarkovNoise(1.0, 0.5), e),
    "squeezing_fraction": lambda e: squeezing_fraction(MarkovNoise(1.0, 0.5), e),
    "symmetric_noise_solution": lambda e: symmetric_noise_solution(MarkovNoise(1.0, 0.5), e),
    "full_correlation_capacity": lambda e: full_correlation_capacity(MarkovNoise(1.0, 0.5), e),
    "brute_force_mono_oracle": lambda e: brute_force_mono_oracle(MonoNoise(2.0, 0.5), e),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("n_bar", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", sorted(ENERGY_ENTRY_POINTS))
    def test_energy_rejected(self, entry, n_bar):
        with pytest.raises(ValueError, match="n_bar must be finite") as excinfo:
            ENERGY_ENTRY_POINTS[entry](n_bar)
        assert excinfo.type is ValueError

    @pytest.mark.parametrize("snr", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_snr_rejected(self, snr):
        with pytest.raises(ValueError, match="snr must be positive"):
            classical_limit_capacity(MarkovNoise(1.0, 0.5), snr)

    @pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_mono_noise_rejected(self, bad):
        with pytest.raises(ValueError):
            MonoNoise(bad, 1.0)
        with pytest.raises(ValueError):
            MonoNoise(1.0, bad)


# n_bar + variance overflows at the largest doubles, although each is finite.
OVERFLOW_ENTRY_POINTS = {
    "mono_solve": lambda: mono_solve(MonoNoise(1e308, 1e308), 1e308),
    "finite_n_rate": lambda: finite_n_rate(MarkovNoise(1e308, 0.0), 1e308, 3),
    "multimode_solve": lambda: multimode_solve(MarkovNoise(1e308, 0.0), 1e308),
    "asymptotic_capacity": lambda: asymptotic_capacity(MarkovNoise(1e308, 0.0), 1e308),
    "symmetric_noise_solution": lambda: symmetric_noise_solution(MarkovNoise(1e308, 0.0), 1e308),
    "full_correlation_capacity": lambda: full_correlation_capacity(MarkovNoise(1e308, 0.0), 1e308),
}


class TestOutputEnergyOverflow:
    @pytest.mark.parametrize("entry", sorted(OVERFLOW_ENTRY_POINTS))
    def test_overflow_names_both_terms(self, entry):
        message = "n_bar \\+ noise variance overflows: n_bar = 1e\\+308, variance = 1e\\+308"
        with pytest.raises(ValueError, match=message) as excinfo:
            OVERFLOW_ENTRY_POINTS[entry]()
        assert excinfo.type is ValueError

    def test_numpy_scalars_do_not_warn(self):
        with pytest.raises(ValueError, match="overflows"):
            finite_n_rate(MarkovNoise(np.float64(1e308), 0.0), np.float64(1e308), 3)

    def test_checked_before_any_integral(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("integrated before validating every point")

        monkeypatch.setattr(solver, "integrate", unreachable)
        with pytest.raises(ValueError, match="overflows: n_bar = 1e\\+308"):
            asymptotic_capacity([MarkovNoise(1.0, 0.5), MarkovNoise(1e308, 0.0)], [5.0, 1e308])

    def test_largest_finite_sum_accepted(self):
        assert asymptotic_capacity(MarkovNoise(8e307, 0.0), 8e307) == pytest.approx(1.0, rel=1e-12, abs=0)
        assert mono_solve(MonoNoise(8e307, 8e307), 8e307).water_level == 1.6e308


class TestFixedQuadratureTarget:
    # integrate's error target is a constant 1e-10.  Every spectral mean
    # the solvers take meets it, from the smallest to the largest
    # variances, at every correlation they accept.
    CORRELATIONS = np.linspace(0.0, solver.MAX_CORRELATION, 40).tolist()
    VARIANCES = np.logspace(-300, 308, 100).tolist()

    def _points(self, threshold_of):
        for c in self.CORRELATIONS:
            for variance in self.VARIANCES:
                noise = MarkovNoise(variance, c)
                n_bar = threshold_of(noise)
                if math.isfinite(n_bar + variance):
                    yield noise, n_bar

    def test_asymptotic_capacity_meets_the_target(self):
        noises, energies = zip(*self._points(multimode_threshold))
        assert len(noises) > 3900
        capacities = asymptotic_capacity(noises, energies)
        assert np.all(np.isfinite(capacities))
        assert capacities.min() >= 0.0

    def test_symmetric_noise_meets_the_target(self):
        points = list(self._points(symmetric_threshold))[::10]
        assert len(points) > 390
        for noise, n_bar in points:
            assert symmetric_noise_solution(noise, n_bar).capacity_bits >= 0.0


class TestClassicalLimit:
    def test_white_noise_unit_snr(self):
        assert classical_limit_capacity(MarkovNoise(1.0, 0.0), 1.0) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_correlated(self):
        assert classical_limit_capacity(MarkovNoise(1.0, 0.5), 3.0) == pytest.approx(
            math.log2(16.0 / 3.0), abs=1e-12
        )

    def test_quantum_capacity_below_classical(self):
        phi = 0.7
        snr = multimode_threshold(MarkovNoise(1.0, phi))
        noise = MarkovNoise(1.0, phi)
        assert asymptotic_capacity(noise, snr) < classical_limit_capacity(noise, snr)

    @pytest.mark.parametrize("phi", [1e-9, 1e-6, 5e-4, 0.5, 0.99, 0.995, 0.999])
    def test_against_mpmath(self, phi):
        # At the threshold snr, where the quotient is near 1 at weak correlation;
        # summed log1p terms keep every digit there.
        mpmath = pytest.importorskip("mpmath")
        snr = multimode_threshold(MarkovNoise(1.0, phi))
        with mpmath.workdps(40):
            c = mpmath.mpf(phi)
            expected = float(mpmath.log((1 + mpmath.mpf(snr)) / (1 - c * c), 2))
        value = classical_limit_capacity(MarkovNoise(1.0, phi), snr)
        assert value == pytest.approx(expected, rel=5e-16, abs=0)

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            classical_limit_capacity(MarkovNoise(1.0, 0.5), 0.0)


class TestSymmetricNoise:
    def test_memoryless_matches_general_solver(self):
        general = multimode_solve(MarkovNoise(1.0, 0.0), 2.0)
        symmetric = symmetric_noise_solution(MarkovNoise(1.0, 0.0), 2.0)
        assert symmetric.capacity_bits == pytest.approx(general.capacity_bits, abs=1e-12)
        assert symmetric.water_level == general.water_level
        for x in (0.0, 1.5, math.pi):
            assert symmetric.input_q(x) == general.input_q(x) == 0.5

    @pytest.mark.parametrize("phi", [0.3, 0.7])
    def test_coherent_input_everywhere(self, phi):
        sol = symmetric_noise_solution(MarkovNoise(1.0, phi), 6.0)
        assert sol.squeezing_fraction == 0.0
        for x in GRID[::100]:
            assert sol.input_q(float(x)) == 0.5
            assert sol.input_p(float(x)) == 0.5

    def test_capacity_formula(self):
        variance, phi, n_bar = 1.0, 0.7, 6.0
        spectrum = variance * (1 - phi**2) / (1 + phi**2 - 2 * phi * np.cos(XS_DENSE))
        expected = float(g_vec(n_bar + variance)) - trapezoid_mean(g_vec(spectrum), XS_DENSE)
        sol = symmetric_noise_solution(MarkovNoise(variance, phi), n_bar)
        assert sol.capacity_bits == pytest.approx(expected, abs=1e-9)

    def test_threshold(self):
        assert symmetric_threshold(MarkovNoise(1.0, 0.7)) == pytest.approx(
            2 * 0.7 / 0.3, abs=1e-12
        )
        with pytest.raises(BelowThresholdError):
            symmetric_noise_solution(MarkovNoise(1.0, 0.7), 4.0)

    def test_water_fills_over_noise(self):
        sol = symmetric_noise_solution(MarkovNoise(1.0, 0.3), 2.0)
        for x in GRID[::100]:
            x = float(x)
            total = sol.input_q(x) + sol.noise_q(x) + sol.modulation_q(x)
            assert total == pytest.approx(sol.water_level, abs=1e-10)


class TestFirstModeVariance:
    def test_white_noise_vacuum(self):
        assert first_mode_variance(0.0) == pytest.approx(0.5, abs=1e-10)

    def test_against_trapezoid_oracle(self):
        phi = 0.5
        integrand = np.sqrt(
            (1 + phi + 2 * phi * np.cos(XS_DENSE)) / (1 + phi - 2 * phi * np.cos(XS_DENSE))
        )
        expected = 0.5 * trapezoid_mean(integrand, XS_DENSE)
        value = first_mode_variance(phi)
        assert value == pytest.approx(expected, abs=1e-9)
        # Frozen from the 2,000,001-point evaluation of the same oracle.
        assert value == pytest.approx(0.5760350545188413, abs=1e-9)

    def test_thermal_excess_and_monotone(self):
        values = [first_mode_variance(0.05 * k) for k in range(20)]
        assert all(v > 0.5 for v in values[1:])
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_alt_form(self):
        # The alternate integrand equals the mean input spectrum, so its
        # value is the squeezing fraction (at unit energy) plus 1/2.
        phi = 0.5
        alt = first_mode_variance(phi, alt_form=True)
        assert alt == pytest.approx(
            squeezing_fraction(MarkovNoise(1.0, phi), 1.0) + 0.5, abs=1e-9
        )
        for p in (0.3, 0.9):
            assert first_mode_variance(p, alt_form=True) > first_mode_variance(p)

    @pytest.mark.parametrize("phi", [0.3, 0.6, 0.9])
    def test_dense_back_rotated_input(self, phi):
        # The optimal input of n uses, rotated back from the eigenbasis U of
        # the q noise block: U diag(sqrt(l_k / l_{n+1-k}) / 2) U^T.  Its
        # middle diagonal entry tends to the alt_form value, and its first
        # to the input spectrum weighted by the limit 2 sin^2 x / (1 - 2c cos x
        # + c^2) of n U_{1k}^2.  Both converge like 1/n, so the Richardson
        # value 2 M(1000) - M(500) is within 1e-5 of each limit.
        def middle_and_first(n):
            lam, vectors = np.linalg.eigh(markov_matrix(MarkovNoise(1.0, phi), n))
            rotated = (vectors * (0.5 * np.sqrt(lam / lam[::-1]))) @ vectors.T
            return np.array([rotated[n // 2, n // 2], rotated[0, 0]])

        def weighted_input(mp, x):
            c = mp.mpf(phi)
            input_q = 0.5 * mp.sqrt((1 + c * c + 2 * c * mp.cos(x)) / (1 + c * c - 2 * c * mp.cos(x)))
            return input_q * 2 * mp.sin(x) ** 2 / (1 + c * c - 2 * c * mp.cos(x))

        middle, first = 2 * middle_and_first(1000) - middle_and_first(500)
        assert abs(middle - first_mode_variance(phi, alt_form=True)) <= 1e-5
        assert abs(first - float(mpmath_mean(weighted_input))) <= 1e-5
        # Neither mode reproduces the primary value.
        assert min(abs(middle - first_mode_variance(phi)), abs(first - first_mode_variance(phi))) > 1e-2

    @pytest.mark.parametrize("phi", MPMATH_PHIS + [0.99, 0.9985, 1 - 1e-6, 1 - 1e-9, math.nextafter(1.0, 0.0)])
    @pytest.mark.parametrize("alt_form", [False, True])
    def test_against_mpmath(self, phi, alt_form):
        # The alternative form is checked in its pre-Landen shape (1 + c^2) K(c^4).
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            c = mpmath.mpf(phi)
            if alt_form:
                expected = float((1 + c * c) * mpmath.ellipk(c**4) / mpmath.pi)
            else:
                expected = float(mpmath.ellipk((2 * c / (1 + c)) ** 2) / mpmath.pi)
        assert first_mode_variance(phi, alt_form=alt_form) == pytest.approx(expected, rel=1e-15, abs=0)

    def test_domain(self):
        with pytest.raises(ValueError):
            first_mode_variance(1.0)
        with pytest.raises(ValueError):
            first_mode_variance(-0.2)


class TestBruteForceOracle:
    def test_matches_closed_form_symmetric(self):
        noise = MonoNoise(1.0, 1.0)
        closed = mono_solve(noise, 2.0)
        found = brute_force_mono_oracle(noise, 2.0)
        assert abs(found.capacity_bits - closed.capacity_bits) <= 1e-4
        assert abs(found.input_q - closed.input_q) <= 5e-3

    def test_matches_closed_form_anisotropic(self):
        noise = MonoNoise(2.0, 0.5)
        closed = mono_solve(noise, 2.0)
        found = brute_force_mono_oracle(noise, 2.0)
        assert abs(found.capacity_bits - closed.capacity_bits) <= 1e-4
        assert abs(found.input_q - closed.input_q) <= 5e-3
        assert abs(found.modulation_q - closed.modulation_q) <= 5e-3
        assert abs(found.modulation_p - closed.modulation_p) <= 5e-3

    def test_below_threshold_boundary_solution(self):
        found = brute_force_mono_oracle(MonoNoise(2.0, 0.5), 1.0)
        assert not found.above_threshold
        assert min(found.modulation_q, found.modulation_p) == 0.0
        assert found.capacity_bits > 0.0

    def test_zero_energy(self):
        found = brute_force_mono_oracle(MonoNoise(1.0, 1.0), 0.0)
        assert found.input_q == pytest.approx(0.5, abs=1e-12)
        assert found.capacity_bits == 0.0

    @pytest.mark.parametrize("noise", [MonoNoise(1.0, 1.0), MonoNoise(2.0, 0.5), MonoNoise(10.0, 0.1)])
    @pytest.mark.parametrize(
        "n_bar, tol",
        [(1e3, 1e-5), (1e5, 1e-5), (1e7, 1e-5), (5e7, 1e-5), (1e12, 2e-5),
         (1e50, 5e-6), (1e150, 5e-6), (1e300, 5e-6)],
    )
    def test_matches_closed_form_at_large_energy(self, noise, n_bar, tol):
        # The squeezing axis spans |s| <= acosh(2 n_bar + 1), which grows
        # like ln(n_bar); extra passes keep the final grid step in s at
        # most 0.01, so the shortfall does not grow with it.  With three
        # passes only, it reached 3.9e-3 bits at 1e300.
        found = brute_force_mono_oracle(noise, n_bar)
        closed = mono_solve(noise, n_bar)
        assert abs(closed.capacity_bits - found.capacity_bits) <= tol

    @pytest.mark.parametrize("n_bar", [1e150, 1e300])
    def test_huge_energy_stays_finite(self, n_bar):
        found = brute_force_mono_oracle(MonoNoise(2.0, 0.5), n_bar)
        assert abs(mono_solve(MonoNoise(2.0, 0.5), n_bar).capacity_bits - found.capacity_bits) <= 1e-2

    def test_overflowing_budget_rejected(self):
        with pytest.raises(ValueError, match="n_bar = 1e\\+308"):
            brute_force_mono_oracle(MonoNoise(2.0, 0.5), 1e308)

    def test_deterministic(self):
        noise = MonoNoise(1.5, 0.8)
        assert brute_force_mono_oracle(noise, 2.5) == brute_force_mono_oracle(noise, 2.5)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            brute_force_mono_oracle(MonoNoise(1.0, 1.0), 1.0, resolution=32)

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            brute_force_mono_oracle(MonoNoise(2.0, 0.5), 1.0, resolution=100.5)

    @pytest.mark.parametrize("k", [0, 2, 10, 50, 100, 200, 300])
    @pytest.mark.parametrize("mirror", [False, True], ids=["q", "p"])
    @pytest.mark.parametrize("factor", [1.0, 10.0], ids=["threshold", "10x"])
    def test_reaches_the_optimum_at_every_anisotropy(self, k, mirror, factor):
        # The split is searched over all of [0, 1], so the optimum stays
        # reachable at split = 0 or 1.  A 2-D grid over (s, split) shrank
        # its split box away from 0 and fell 3.66e-3 bits short at k >= 200.
        noise = MonoNoise(10.0**-k, 10.0**k) if mirror else MonoNoise(10.0**k, 10.0**-k)
        n_bar = factor * mono_threshold(noise)
        shortfall = mono_solve(noise, n_bar).capacity_bits - brute_force_mono_oracle(noise, n_bar).capacity_bits
        assert -1e-9 <= shortfall <= 3e-6

    @pytest.mark.parametrize("noise", [MonoNoise(2.0, 0.5), MonoNoise(0.01, 30.0)])
    def test_above_threshold_agrees_with_mono_solve(self, noise):
        # At the threshold, one ulp either side, and just past the
        # round-off slack of 4 eps |threshold| either side.
        threshold = mono_threshold(noise)
        step = 8.0 * np.finfo(float).eps * threshold
        energies = [
            threshold,
            math.nextafter(threshold, math.inf),
            math.nextafter(threshold, 0.0),
            threshold + step,
            threshold - step,
        ]
        outcomes = []
        for n_bar in energies:
            try:
                mono_solve(noise, n_bar)
                solvable = True
            except BelowThresholdError:
                solvable = False
            found = brute_force_mono_oracle(noise, n_bar, resolution=64)
            assert found.above_threshold is solvable, n_bar
            outcomes.append(solvable)
        assert outcomes == [True, True, True, True, False]


# At phi = 0 and n_bar = 0 the output is the noise itself, so every route
# gives capacity 0; round-off in the subtracted entropy (trapezoid weights
# that do not sum to exactly pi, sqrt(l) * sqrt(l') != N) used to land up
# to 7e-15 bits below it.
ZERO_CAPACITY_ROUTES = {
    "asymptotic": lambda v: asymptotic_capacity(MarkovNoise(v, 0.0), 0.0),
    "symmetric": lambda v: symmetric_noise_solution(MarkovNoise(v, 0.0), 0.0).capacity_bits,
    "finite_n1": lambda v: finite_n_rate(MarkovNoise(v, 0.0), 0.0, 1),
    "finite_n7": lambda v: finite_n_rate(MarkovNoise(v, 0.0), 0.0, 7),
    "mono": lambda v: mono_solve(MonoNoise(v, v), 0.0).capacity_bits,
}


@pytest.mark.parametrize("route", sorted(ZERO_CAPACITY_ROUTES))
def test_zero_energy_white_noise_capacity_is_not_negative(route):
    values = [ZERO_CAPACITY_ROUTES[route](v) for v in np.logspace(-6, 6, 49).tolist()]
    assert min(values) >= 0.0
    assert max(values) <= 1e-13


class TestMonoExtremeVariances:
    # Ratios and products of the variances overflowed although the
    # threshold, the variances and the capacity are all representable.
    # For large x, g(x) = log2(e x) + O(1/x).

    def test_threshold_of_extreme_anisotropy(self):
        assert mono_threshold(MonoNoise(1e300, 1e-300)) == pytest.approx(
            0.5 * (1e300 + 1e300 - 1), rel=1e-15, abs=0
        )

    def test_solve_above_extreme_threshold(self):
        sol = mono_solve(MonoNoise(1e300, 1e-300), 1e301)
        assert sol.input_q == pytest.approx(5e299, rel=1e-15, abs=0)
        assert sol.input_p == pytest.approx(5e-301, rel=1e-15, abs=0)
        assert sol.water_level == pytest.approx(1.05e301, rel=1e-15, abs=0)
        # The geometric mean of the noise is 1, and g(1) = 2.
        assert sol.capacity_bits == pytest.approx(math.log2(math.e * 1.05e301) - 2.0, rel=1e-14, abs=0)

    def test_product_of_large_variances(self):
        sol = mono_solve(MonoNoise(1e200, 4e200), 1e201)
        assert sol.input_q == pytest.approx(0.25, rel=1e-15, abs=0)
        # g(1e201 + 2.5e200) - g(2e200).
        assert sol.capacity_bits == pytest.approx(math.log2(6.25), rel=1e-12, abs=0)

    def test_oracle_reports_above_threshold(self):
        assert brute_force_mono_oracle(MonoNoise(1e300, 1e-300), 1e301).above_threshold

    def test_threshold_at_the_largest_doubles(self):
        # sqrt(1e308 / 1e-308) + 1e308 overflows before the halving.
        assert mono_threshold(MonoNoise(1e308, 1e-308)) == 0.5e308 + 0.5e308

    def test_solve_at_the_largest_doubles(self):
        # var_q + var_p overflows before the halving.
        sol = mono_solve(MonoNoise(1e308, 1e308), 1.0)
        assert sol.water_level == 0.5e308 + 0.5e308
        assert (sol.input_q, sol.modulation_q, sol.capacity_bits) == (0.5, 0.0, 0.0)
        sol = mono_solve(MonoNoise(1e308, 1e-308), 1e308)
        assert sol.water_level == pytest.approx(1.5e308, rel=1e-15, abs=0)
        # The geometric mean of the noise is 1, and g(1) = 2.
        assert sol.capacity_bits == pytest.approx(math.log2(1.5e308) + math.log2(math.e) - 2.0, rel=1e-14, abs=0)
