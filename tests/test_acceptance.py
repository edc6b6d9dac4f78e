"""Acceptance suite: twelve end-to-end criteria with pinned tolerances.

Each criterion is one test; the conftest hook prints a PASS/FAIL line per
criterion in the terminal summary.  Tolerances are fixed here, not
calibrated: closed forms are held against independent routes (grid
oracle, dense eigensolves, midpoint and trapezoidal sums on dense grids
written out in this file) at the stated accuracy.
"""

import math

import numpy as np
import pytest

from gmcapacity.gaussian import thermal_entropy
from gmcapacity.solver import (
    BelowThresholdError,
    MonoNoise,
    asymptotic_capacity,
    brute_force_mono_oracle,
    classical_limit_capacity,
    env_symplectic_spectrum,
    finite_n_rate,
    first_mode_variance,
    mean_environment_entropy,
    mono_solve,
    mono_threshold,
    multimode_solve,
    multimode_threshold,
    squeezing_fraction,
    symmetric_noise_solution,
)
from gmcapacity.spectra import (
    MarkovNoise,
    asymptotic_markov_spectrum,
    circulant_embedding,
    commutator_norm,
    finite_spectrum,
    fourier_diagonalizer,
    markov_matrix,
    tridiagonal_inverse,
    inverse_symbol,
)

GRID = np.linspace(0.0, math.pi, 2001)


def midpoint_grid(n):
    return np.pi * (np.arange(1, n + 1) - 0.5) / n


def szego_deviation(noise, n):
    values = finite_spectrum(markov_matrix(noise, n))
    samples = np.sort(
        [asymptotic_markov_spectrum(noise, float(x)) for x in midpoint_grid(n)]
    )[::-1]
    return float(np.max(np.abs(values - samples)))


def test_c01_mono_oracle_equivalence():
    """Closed-form single-mode solution vs brute-force grid search, 27 cases."""
    worst_cap = 0.0
    worst_var = 0.0
    for var_q in (0.5, 1.0, 2.0):
        for var_p in (0.5, 1.0, 2.0):
            noise = MonoNoise(var_q, var_p)
            threshold = mono_threshold(noise)
            for bump in (0.5, 1.5, 3.0):
                n_bar = threshold + bump
                closed = mono_solve(noise, n_bar)
                found = brute_force_mono_oracle(noise, n_bar)
                worst_cap = max(
                    worst_cap, abs(closed.capacity_bits - found.capacity_bits)
                )
                worst_var = max(
                    worst_var,
                    abs(closed.input_q - found.input_q),
                    abs(closed.input_p - found.input_p),
                    abs(closed.modulation_q - found.modulation_q),
                    abs(closed.modulation_p - found.modulation_p),
                )
    assert worst_cap <= 1e-4
    assert worst_var <= 5e-3
    print(
        f"criterion 01 (mono oracle equivalence): PASS "
        f"worst capacity gap {worst_cap:.2e}, worst variance gap {worst_var:.2e}"
    )


def test_c02_memoryless_reduction():
    """White noise reduces the spectral capacity to the thermal-channel value."""
    for variance, n_bar in ((1.0, 2.0), (1.0, 7.5), (2.0, 5.0)):
        value = asymptotic_capacity(MarkovNoise(variance, 0.0), n_bar)
        expected = thermal_entropy(n_bar + variance) - thermal_entropy(variance)
        assert abs(value - expected) <= 1e-9
    print("criterion 02 (memoryless reduction): PASS within 1e-9 bits")


def test_c03_threshold_value():
    """Threshold at correlation 0.7, unit variance: the round value 7."""
    threshold = multimode_threshold(MarkovNoise(1.0, 0.7))
    # Closed form; binary floats land within one ulp of 7.0.
    assert abs(threshold - 7.0) <= 1e-12
    solution = multimode_solve(MarkovNoise(1.0, 0.7), 7.0)
    minimum = min(solution.modulation_q(float(x)) for x in GRID)
    assert abs(minimum) <= 1e-8
    with pytest.raises(BelowThresholdError):
        multimode_solve(MarkovNoise(1.0, 0.7), 6.9)
    print(
        f"criterion 03 (threshold value): PASS threshold {threshold!r}, "
        f"binding modulation minimum {minimum:.2e}"
    )


def test_c04_finite_rate_convergence():
    """Finite-use rates approach the asymptotic capacity monotonically."""
    uses = (10, 50, 100, 200, 400)
    for phi in (0.0, 0.4, 0.55, 0.7):
        noise = MarkovNoise(1.0, phi)
        capacity = asymptotic_capacity(noise, 7.5)
        deviations = [abs(finite_n_rate(noise, 7.5, n) - capacity) for n in uses]
        if phi == 0.0:
            assert all(dev <= 1e-12 for dev in deviations)
            continue
        assert all(a > b for a, b in zip(deviations, deviations[1:]))
        assert deviations[-1] <= 2e-2
    print("criterion 04 (finite-rate convergence): PASS at n up to 400")


def test_c05_fixed_snr_trends():
    """Capacity grows toward (but stays under) the classical limit; squeezing share shrinks."""
    variances = (1.0, 3.0, 10.0, 30.0, 100.0)
    shares = {}
    for phi in (0.4, 0.7, 0.9):
        snr = multimode_threshold(MarkovNoise(1.0, phi))
        capacities = []
        etas = []
        for variance in variances:
            noise = MarkovNoise(variance, phi)
            n_bar = variance * snr
            capacities.append(asymptotic_capacity(noise, n_bar))
            etas.append(squeezing_fraction(noise, n_bar))
            assert capacities[-1] < classical_limit_capacity(noise, snr)
        assert all(a < b for a, b in zip(capacities, capacities[1:]))
        assert all(a > b for a, b in zip(etas, etas[1:]))
        shares[phi] = etas
    for i in range(len(variances)):
        assert shares[0.7][i] > shares[0.9][i]
    print("criterion 05 (fixed-SNR trends): PASS for all correlations and variances")


def test_c06_classical_limit_identity():
    """Spectral mean of log2 over the symplectic noise spectrum collapses in closed form."""
    worst = 0.0
    for phi in (0.3, 0.6, 0.9):
        for variance in (1.0, 5.0):
            nu_env = env_symplectic_spectrum(MarkovNoise(variance, phi))
            mean_log = float(np.mean(np.log2(nu_env(midpoint_grid(4096)))))
            target = math.log2(variance * (1.0 - phi * phi))
            worst = max(worst, abs(mean_log - target))
    assert worst <= 1e-8
    print(f"criterion 06 (classical-limit identity): PASS worst gap {worst:.2e}")


def test_c07_full_correlation_limit():
    """The environment entropy term dies out as the correlation approaches 1."""
    terms = [mean_environment_entropy(MarkovNoise(1.0, phi)) for phi in (0.9, 0.99, 0.999)]
    assert terms[0] > terms[1] > terms[2]
    assert terms[2] <= 0.05
    print(
        "criterion 07 (full-correlation limit): PASS entropy terms "
        + ", ".join(f"{t:.4f}" for t in terms)
    )


def test_c08_spectral_machinery():
    """Fourier diagonalization, commutators and Szego convergence."""
    noise = MarkovNoise(1.0, 0.5)
    for n in (8, 9, 64, 65, 255, 256):
        q = fourier_diagonalizer(n)
        c = circulant_embedding(noise, n)
        d = q.T @ c @ q
        off = float(np.linalg.norm(d - np.diag(np.diag(d))))
        assert off <= 1e-10, f"off-diagonal {off:.2e} at n={n}"
    for n in (8, 64, 256):
        pair = commutator_norm(
            circulant_embedding(noise, n), circulant_embedding(MarkovNoise(1.0, -0.5), n)
        )
        assert pair <= 1e-12
    assert commutator_norm(markov_matrix(noise, 4), markov_matrix(MarkovNoise(1.0, -0.5), 4)) > 1e-3
    for phi in (0.5, 0.8):
        corr = MarkovNoise(1.0, phi)
        assert szego_deviation(corr, 256) <= szego_deviation(corr, 64) / 2
    print("criterion 08 (spectral machinery): PASS diagonalization, commutators, Szego")


def test_c09_asymptotic_inverse():
    """Tridiagonal inverse: exact interior rows and converging spectrum."""
    noise = MarkovNoise(1.0, 0.6)
    n = 10
    product = tridiagonal_inverse(noise, n) @ markov_matrix(noise, n)
    interior = product[1:-1] - np.eye(n)[1:-1]
    assert float(np.max(np.abs(interior))) <= 1e-12
    symbol = inverse_symbol(noise)
    deviations = []
    for size in (64, 256):
        values = finite_spectrum(tridiagonal_inverse(noise, size))
        samples = np.sort([symbol(float(x)) for x in midpoint_grid(size)])[::-1]
        deviations.append(float(np.max(np.abs(values - samples))))
    assert deviations[1] < deviations[0]
    print(
        f"criterion 09 (asymptotic inverse): PASS interior rows exact, "
        f"spectrum deviation {deviations[0]:.2e} -> {deviations[1]:.2e}"
    )


def test_c10_energy_closure_and_flatness():
    """Water-filling flatness and the energy constraint at correlation 0.5."""
    noise = MarkovNoise(1.0, 0.5)
    n_bar = 4.0
    solution = multimode_solve(noise, n_bar)
    assert abs(solution.water_level - 5.5) <= 1e-12
    worst_flat = 0.0
    for x in GRID:
        x = float(x)
        total_q = solution.input_q(x) + solution.noise_q(x) + solution.modulation_q(x)
        total_p = solution.input_p(x) + solution.noise_p(x) + solution.modulation_p(x)
        worst_flat = max(
            worst_flat, abs(total_q - solution.water_level), abs(total_p - solution.water_level)
        )
    assert worst_flat <= 1e-10
    xs = np.linspace(0.0, math.pi, 200001)
    input_mean = np.trapezoid(0.5 * (solution.input_q(xs) + solution.input_p(xs)), xs) / math.pi
    modulation_mean = np.trapezoid(
        0.5 * (solution.modulation_q(xs) + solution.modulation_p(xs)), xs
    ) / math.pi
    energy = input_mean + modulation_mean - 0.5
    assert abs(energy - n_bar) <= 1e-8
    print(
        f"criterion 10 (energy closure): PASS flatness {worst_flat:.2e}, "
        f"energy gap {abs(energy - n_bar):.2e}"
    )


def test_c11_symmetric_noise_case():
    """Symmetric correlations leave the optimal input coherent."""
    for phi in (0.3, 0.7):
        solution = symmetric_noise_solution(MarkovNoise(1.0, phi), 6.0)
        assert solution.squeezing_fraction == 0.0
        for x in GRID[::40]:
            assert solution.input_q(float(x)) == 0.5
            assert solution.input_p(float(x)) == 0.5
    print("criterion 11 (symmetric noise): PASS coherent input, zero squeezing share")


def test_c12_first_mode_variance():
    """Back-rotated first-mode variance: vacuum at zero correlation, thermal above."""
    assert abs(first_mode_variance(0.0) - 0.5) <= 1e-10
    values = [first_mode_variance(phi) for phi in (0.3, 0.6, 0.9)]
    assert all(v > 0.5 for v in values)
    assert values[0] < values[1] < values[2]
    print(
        "criterion 12 (first-mode variance): PASS values "
        + ", ".join(f"{v:.6f}" for v in values)
    )
