"""Tests for the Gaussian covariance-matrix primitives."""

import math

import numpy as np
import pytest

from gmcapacity.gaussian import (
    CovarianceBlocks,
    UnphysicalStateError,
    entropy,
    mean_photon_number,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_entropy,
    validate_pure_input,
)
from gmcapacity.spectra import MarkovNoise, markov_matrix

LOG2E = math.log2(math.e)


class TestThermalEntropy:
    def test_zero(self):
        assert thermal_entropy(0.0) == 0.0

    def test_one_photon_exact(self):
        # (1+1) log2 2 - 1 log2 1 = 2 exactly.
        assert thermal_entropy(1.0) == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            thermal_entropy(-1e-3)

    def test_large_argument_offset(self):
        # g(x) ~ log2(x) + log2(e) for large x; the residual shrinks like 1/x.
        assert abs(thermal_entropy(1e3) - math.log2(1e3) - LOG2E) < 2e-3
        assert abs(thermal_entropy(1e6) - math.log2(1e6) - LOG2E) < 2e-6

    def test_monotone_and_concave(self):
        xs = [0.0, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
        values = [thermal_entropy(x) for x in xs]
        assert all(a < b for a, b in zip(values, values[1:]))
        for a, b in zip(xs, xs[1:]):
            mid = 0.5 * (a + b)
            assert thermal_entropy(mid) >= 0.5 * (thermal_entropy(a) + thermal_entropy(b))

    def test_against_mpmath(self):
        # Reference in the log1p form at 50 digits: the direct form
        # (x+1) log2(x+1) - x log2(x) would need more than 2 log10(x)
        # digits to survive its own cancellation.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for x in np.logspace(-300, 300, 241).tolist() + [0.5, 1.0, 2.0, 1e-310]:
                xm = mpmath.mpf(x)
                exact = (mpmath.log1p(xm) + xm * mpmath.log1p(1 / xm)) / mpmath.log(2)
                assert thermal_entropy(x) == pytest.approx(float(exact), rel=1e-15), x

    def test_extreme_arguments_finite(self):
        for x in (5e-324, 1e308, 1.7976931348623157e308):
            value = thermal_entropy(x)
            assert math.isfinite(value) and value > 0.0

    def test_excess_over_log_positive_decreasing(self):
        xs = [10.0**k for k in range(0, 7)]
        gaps = [thermal_entropy(x) - math.log2(x) for x in xs]
        assert all(gap > 0 for gap in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestCovarianceBlocks:
    def test_vacuum(self):
        cov = CovarianceBlocks.vacuum(3)
        assert cov.n_modes == 3
        assert cov.trace() == pytest.approx(3.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            CovarianceBlocks(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            CovarianceBlocks(np.eye(2), np.eye(3))

    def test_immutable(self):
        cov = CovarianceBlocks.vacuum(2)
        with pytest.raises(ValueError):
            cov.q_block[0, 0] = 9.0


class TestSymplecticForm:
    def test_squares_to_minus_identity(self):
        for n in (1, 2, 5):
            j = symplectic_form(n)
            assert np.allclose(j @ j, -np.eye(2 * n))


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        nus = symplectic_eigenvalues(CovarianceBlocks.vacuum(3))
        assert np.allclose(nus, 0.5)

    def test_single_mode_product(self):
        nus = symplectic_eigenvalues(CovarianceBlocks.diagonal([2.0], [0.5]))
        assert nus == pytest.approx([1.0], abs=1e-12)

    def test_noncommuting_blocks_match_dense_form(self):
        # Oracle: moduli of the eigenvalue pairs of J @ gamma on the
        # full 8x8 form, via the general-purpose eigensolver.
        noise = MarkovNoise(1.0, 0.5)
        a = markov_matrix(noise, 1, 4)
        b = markov_matrix(noise, -1, 4)
        gamma = np.block([[a, np.zeros((4, 4))], [np.zeros((4, 4)), b]])
        moduli = np.abs(np.linalg.eigvals(symplectic_form(4) @ gamma))
        expected = np.sort(moduli)[::-1][::2]
        nus = symplectic_eigenvalues(CovarianceBlocks(a, b))
        assert np.allclose(nus, expected, atol=1e-10)

    def test_descending_order(self):
        nus = symplectic_eigenvalues(CovarianceBlocks.diagonal([0.5, 3.0, 1.0], [0.5, 3.0, 1.0]))
        assert np.all(np.diff(nus) <= 0)


class TestEntropy:
    def test_vacuum_is_zero(self):
        for n in (1, 4):
            assert entropy(CovarianceBlocks.vacuum(n)) == 0.0

    def test_single_mode_thermal(self):
        for photons in (0.5, 1.0, 3.0):
            cov = CovarianceBlocks.diagonal([photons + 0.5], [photons + 0.5])
            assert entropy(cov) == pytest.approx(thermal_entropy(photons), abs=1e-12)

    def test_two_mode_sum(self):
        cov = CovarianceBlocks.diagonal([1.5, 2.5], [1.5, 2.5])
        expected = thermal_entropy(1.0) + thermal_entropy(2.0)
        assert entropy(cov) == pytest.approx(expected, abs=1e-12)

    def test_unphysical_names_eigenvalue(self):
        with pytest.raises(UnphysicalStateError, match="0.1"):
            entropy(CovarianceBlocks.diagonal([0.1], [0.1]))

    def test_invariant_under_joint_rotation(self):
        rng = np.random.default_rng(42)
        ortho, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        q = np.diag([1.5, 0.8, 2.5, 0.6])
        p = np.diag([0.7, 1.1, 0.9, 1.2])
        base = entropy(CovarianceBlocks(q, p))
        rotated = entropy(CovarianceBlocks(ortho.T @ q @ ortho, ortho.T @ p @ ortho))
        assert rotated == pytest.approx(base, abs=1e-9)

    def test_general_path_physical_state(self):
        # Non-commuting blocks whose symplectic spectrum stays above 1/2.
        noise = MarkovNoise(1.0, 0.5)
        cov = CovarianceBlocks(markov_matrix(noise, 1, 4), markov_matrix(noise, -1, 4))
        nus = symplectic_eigenvalues(cov)
        expected = sum(thermal_entropy(nu - 0.5) for nu in nus)
        assert entropy(cov) == pytest.approx(expected, abs=1e-12)


class TestMeanPhotonNumber:
    def test_vacuum_zero_modulation(self):
        assert mean_photon_number(CovarianceBlocks.vacuum(3), CovarianceBlocks.zero(3)) == 0.0

    def test_squeezed_input(self):
        gamma_in = CovarianceBlocks.diagonal([1.0], [0.25])
        assert mean_photon_number(gamma_in, CovarianceBlocks.zero(1)) == pytest.approx(0.125)

    def test_modulation_only(self):
        n_bar = 2.25
        mod = CovarianceBlocks(np.eye(2) * n_bar, np.eye(2) * n_bar)
        assert mean_photon_number(CovarianceBlocks.vacuum(2), mod) == pytest.approx(n_bar)

    def test_shift_one_block_adds_half(self):
        vac = CovarianceBlocks.vacuum(2)
        base = mean_photon_number(vac, CovarianceBlocks.zero(2))
        c = 0.8
        shifted = CovarianceBlocks(np.eye(2) * c, np.zeros((2, 2)))
        assert mean_photon_number(vac, shifted) == pytest.approx(base + c / 2, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mean_photon_number(CovarianceBlocks.vacuum(2), CovarianceBlocks.zero(3))


class TestValidatePureInput:
    def test_squeezed_pure(self):
        assert validate_pure_input(CovarianceBlocks.diagonal([1.0], [0.25]))

    def test_thermal_not_pure(self):
        assert not validate_pure_input(CovarianceBlocks.diagonal([1.0], [1.0]))

    def test_noise_matched_squeezing_is_pure(self):
        # Input variances half the square-root noise ratio keep the state pure.
        var_q, var_p = 2.0, 0.5
        gamma = CovarianceBlocks.diagonal(
            [0.5 * math.sqrt(var_q / var_p)], [0.5 * math.sqrt(var_p / var_q)]
        )
        assert validate_pure_input(gamma)

    def test_multimode_vacuum_pure(self):
        assert validate_pure_input(CovarianceBlocks.vacuum(3))

    def test_multimode_thermal_not_pure(self):
        assert not validate_pure_input(CovarianceBlocks.diagonal([1.5, 0.5], [1.5, 0.5]))
