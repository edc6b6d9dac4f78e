"""Tests for the quadrature, eigensolver and grid-search kernels."""

import itertools
import math

import numpy as np
import pytest

from gmcapacity.gaussian import thermal_entropy
from gmcapacity.numerics import (
    IntegrationError,
    QuadratureConfig,
    ellipk,
    grid_maximize,
    integrate,
    symmetric_eigen,
)
from gmcapacity.solver import env_symplectic_spectrum
from gmcapacity.spectra import MarkovNoise


class TestIntegrate:
    def test_constant(self):
        assert integrate(np.ones_like, 0.0, math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_cosine(self):
        assert integrate(np.cos, 0.0, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_markov_symbol_normalization(self):
        # Mean of the AR(1) spectrum over [0, pi] is the plain variance,
        # so the unit-variance symbol integrates to pi.
        phi = 0.5
        f = lambda x: (1 - phi**2) / (1 + phi**2 - 2 * phi * np.cos(x))
        assert integrate(f, 0.0, math.pi) == pytest.approx(math.pi, abs=1e-10)

    def test_linearity(self):
        cfg = QuadratureConfig()
        f = lambda x: np.exp(-x) * np.sin(3 * x)
        g = lambda x: 1.0 / (1.0 + x * x)
        combo = integrate(lambda x: 2.5 * f(x) - 1.25 * g(x), 0.0, 2.0, cfg)
        parts = 2.5 * integrate(f, 0.0, 2.0, cfg) - 1.25 * integrate(g, 0.0, 2.0, cfg)
        assert combo == pytest.approx(parts, abs=2 * cfg.abs_tol)

    def test_empty_interval(self):
        assert integrate(np.sin, 1.0, 1.0) == 0.0

    def test_reversed_interval(self):
        assert integrate(np.sin, math.pi, 0.0) == pytest.approx(-2.0, abs=1e-12)

    def test_sharp_peak(self):
        # Narrow Lorentzian: forces real subdivision work.
        w = 1e-4
        f = lambda x: w / (w * w + (x - 0.3) ** 2)
        exact = math.atan((1 - 0.3) / w) - math.atan(-0.3 / w)
        assert integrate(f, 0.0, 1.0) == pytest.approx(exact, abs=1e-9)

    def test_poisson_kernel_closed_form(self):
        # Exact value pi / (1 - phi^2); at phi = 0.99 the integrand peaks
        # at 1e4 in a boundary layer of width ~1e-2.
        for phi in (0.5, 0.9, 0.99):
            f = lambda x: 1.0 / (1 + phi * phi - 2 * phi * np.cos(x))
            exact = math.pi / (1 - phi * phi)
            assert integrate(f, 0.0, math.pi) == pytest.approx(exact, rel=1e-12)

    def test_non_convergence_carries_estimate(self):
        cfg = QuadratureConfig(abs_tol=1e-30)
        with pytest.raises(IntegrationError) as excinfo:
            integrate(np.cos, 0.0, math.pi, cfg)
        err = excinfo.value
        assert abs(err.estimate) < 1e-6
        assert math.isfinite(err.error_bound)

    @pytest.mark.parametrize(
        "f, a, b, exact",
        [
            (np.sin, 0.0, math.pi, 2.0),
            (np.exp, 0.0, 1.0, math.e - 1.0),
            (np.cos, 0.0, math.pi, 0.0),
        ],
        ids=["sin", "exp", "cos"],
    )
    def test_unattainable_tolerance_raises(self, f, a, b, exact):
        # Double precision cannot certify 1e-30: the round-off floor keeps
        # the error bound positive, so the target is never met.
        cfg = QuadratureConfig(abs_tol=1e-30)
        with pytest.raises(IntegrationError) as excinfo:
            integrate(f, a, b, cfg)
        err = excinfo.value
        assert err.error_bound > 0.0
        assert err.error_bound >= abs(err.estimate - exact)

    def test_noise_floor_failure_still_accurate(self):
        # At phi = 0.999 the kernel integrates to ~1572 while cancellation
        # noise in the integrand caps the certifiable absolute error near
        # 1e-8, so the default 1e-10 target must fail; the raised error
        # still carries an estimate good to the reported bound.
        phi = 0.999
        f = lambda x: 1.0 / (1 + phi * phi - 2 * phi * np.cos(x))
        exact = math.pi / (1 - phi * phi)
        cfg = QuadratureConfig(abs_tol=1e-10)
        with pytest.raises(IntegrationError) as excinfo:
            integrate(f, 0.0, math.pi, cfg)
        err = excinfo.value
        assert abs(err.estimate - exact) <= 1e-6
        assert err.error_bound < 1e-6

    def test_unattainable_tolerance_fails_fast(self):
        # Once the change between levels is at the round-off floor, more
        # panels cannot help: the failure comes after a few levels, not
        # after the panel cap.
        calls = []

        def counted_cos(x):
            calls.append(x.size)
            return np.cos(x)

        with pytest.raises(IntegrationError):
            integrate(counted_cos, 0.0, math.pi, QuadratureConfig(abs_tol=1e-30))
        assert len(calls) <= 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_fails_fast(self, bad):
        # A non-finite value poisons every later level sum: the failure
        # comes at once, not after 2**20 panels.
        calls = []

        def poisoned(x):
            calls.append(x.size)
            return np.where(x > 0.3, bad, 1.0)

        with pytest.raises(IntegrationError, match="not finite") as excinfo:
            integrate(poisoned, 0.0, 1.0)
        assert len(calls) <= 2
        assert excinfo.value.error_bound == math.inf

    @pytest.mark.parametrize(
        "a, b",
        [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)],
        ids=["upper-inf", "lower-inf", "lower-nan", "upper-nan"],
    )
    def test_non_finite_bound_rejected(self, a, b):
        calls = []

        def counted_cos(x):
            calls.append(x.size)
            return np.cos(x)

        with pytest.raises(ValueError, match="bounds must be finite"):
            integrate(counted_cos, a, b)
        assert calls == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_config_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=bad)


def _counted(f, calls):
    def counted(x):
        calls.append(x.size)
        return f(x)

    return counted


def _entropy_integrand(phi, variance=1.0):
    spectrum = env_symplectic_spectrum(MarkovNoise(variance, phi))
    return lambda x: thermal_entropy(spectrum(x))


def _error_of(f, a, b, cfg):
    with pytest.raises(IntegrationError) as excinfo:
        integrate(f, a, b, cfg)
    err = excinfo.value
    return str(err), err.estimate, err.error_bound


class TestIntegrateRows:
    def test_rows_bitwise_equal_one_row_calls(self):
        # Weak and strong correlation stop at different levels; each row of
        # the shared call must still be the one-row value, bit for bit.
        rows = [_entropy_integrand(phi, n) for phi in (0.1, 0.999, 0.7) for n in (1.0, 50.0)]
        levels = []
        singles = []
        for f in rows:
            calls = []
            singles.append(integrate(_counted(f, calls), 0.0, math.pi))
            levels.append(len(calls))
        assert len(set(levels)) > 1
        batch = integrate(lambda x: np.stack([f(x) for f in rows]), 0.0, math.pi)
        assert isinstance(batch, np.ndarray)
        assert batch.tolist() == singles

    def test_one_dimensional_integrand_returns_float(self):
        assert type(integrate(np.cos, 0.0, 1.0)) is float
        one_row = integrate(lambda x: np.cos(x)[None, :], 0.0, 1.0)
        assert one_row.shape == (1,)
        assert one_row[0] == integrate(np.cos, 0.0, 1.0)

    def test_empty_and_reversed_intervals(self):
        rows = lambda x: np.stack([np.sin(x), np.cos(x)])
        assert integrate(rows, 1.0, 1.0).tolist() == [0.0, 0.0]
        assert integrate(rows, math.pi, 0.0).tolist() == [
            -integrate(np.sin, 0.0, math.pi), -integrate(np.cos, 0.0, math.pi)
        ]

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            integrate(lambda x: np.ones((2, 2, x.size)), 0.0, 1.0)

    def test_lowest_index_failing_row_raises(self):
        # At abs_tol = 1e-13 the small row converges and the others fail:
        # the NaN and cosine rows at the second level, the exponential row
        # at its round-off floor five levels later.  A loop over the rows
        # would raise the exponential row's error, so the batch must too.
        cfg = QuadratureConfig(abs_tol=1e-13)
        rows = [
            lambda x: 1e-3 * np.sin(x),
            lambda x: 1000.0 * np.exp(x),
            lambda x: np.full_like(x, np.nan),
            lambda x: 100.0 * np.cos(x),
        ]
        integrate(rows[0], 0.0, math.pi, cfg)
        expected = _error_of(rows[1], 0.0, math.pi, cfg)
        assert expected != _error_of(rows[3], 0.0, math.pi, cfg)
        batch = lambda x: np.stack([f(x) for f in rows])
        assert _error_of(batch, 0.0, math.pi, cfg) == expected
        # Without the exponential row the NaN row is the first to fail.
        rest = lambda x: np.stack([rows[0](x), rows[2](x), rows[3](x)])
        message, _, bound = _error_of(rest, 0.0, math.pi, cfg)
        assert "not finite" in message
        assert bound == math.inf

    def test_nan_row_fails_fast(self):
        calls = []
        rows = lambda x: np.stack([np.full_like(x, np.nan), np.sin(x), np.exp(x)])
        with pytest.raises(IntegrationError, match="not finite") as excinfo:
            integrate(_counted(rows, calls), 0.0, 1.0)
        assert len(calls) == 2
        assert excinfo.value.error_bound == math.inf


class TestEllipk:
    @pytest.mark.parametrize("m", [0.0, 0.5, 0.99, 0.999999])
    def test_against_mpmath(self, m):
        mpmath = pytest.importorskip("mpmath")
        exact = float(mpmath.ellipk(m))
        assert ellipk(m) == pytest.approx(exact, rel=1e-15)

    def test_domain(self):
        for m in (-0.1, 1.0, math.nan):
            with pytest.raises(ValueError):
                ellipk(m)


class TestSymmetricEigen:
    def test_diagonal(self):
        values = symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(values, [3.0, 2.0, 1.0])

    def test_2x2_closed_form(self):
        values = symmetric_eigen(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert values == pytest.approx([1.5, 0.5], abs=1e-12)

    def test_reconstruction_seeded_random(self):
        # Without eigenvectors the spectrum is pinned by two invariants:
        # the trace and the squared Frobenius norm.
        rng = np.random.default_rng(20260808)
        a = rng.standard_normal((64, 64))
        m = 0.5 * (a + a.T)
        values = symmetric_eigen(m)
        assert np.all(np.diff(values) <= 0)
        assert np.sum(values) == pytest.approx(np.trace(m), abs=1e-9 * 64)
        assert np.sum(values**2) == pytest.approx(np.sum(m * m), rel=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eigen(np.zeros((2, 3)))

    def test_empty(self):
        assert symmetric_eigen(np.zeros((0, 0))).shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        for m in (np.full((2, 2), bad), np.diag([1.0, bad]), np.array([[1.0, bad], [bad, 1.0]])):
            with pytest.raises(ValueError, match="non-finite"):
                symmetric_eigen(m)


class TestGridMaximize:
    def test_1d_quadratic(self):
        point, value = grid_maximize(lambda x: -((x - 1.0) ** 2), [(0.0, 2.0)], 65, 2)
        assert abs(point[0] - 1.0) <= 1e-3
        assert value <= 0.0

    def test_2d_quadratic(self):
        objective = lambda x, y: -((x - 0.3) ** 2) - 2.0 * (y + 0.4) ** 2
        point, _ = grid_maximize(objective, [(-1.0, 1.0), (-1.0, 1.0)], 65, 2)
        assert abs(point[0] - 0.3) <= 1e-3
        assert abs(point[1] + 0.4) <= 1e-3

    def test_deterministic(self):
        objective = lambda x, y: np.sin(5 * x) * np.cos(3 * y)
        box = [(0.0, 2.0), (0.0, 2.0)]
        first = grid_maximize(objective, box, 65, 2)
        second = grid_maximize(objective, box, 65, 2)
        assert first == second

    def test_tie_break_lexicographic(self):
        # Flat objective: every grid point ties, the smallest corner wins.
        point, value = grid_maximize(lambda x, y: np.ones_like(y), [(0.0, 1.0), (2.0, 3.0)], 65, 1)
        assert point == (0.0, 2.0)
        assert value == 1.0

    def test_non_finite_objective_rejected(self):
        with pytest.raises(ValueError, match="non-finite value"):
            grid_maximize(lambda x: np.where(x > 0.5, np.inf, x), [(0.0, 1.0)], 65, 0)

    def test_degenerate_box(self):
        point, value = grid_maximize(lambda x: -x * x, [(0.5, 0.5)], 65, 1)
        assert point == (0.5,)
        assert value == -0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_maximize(lambda x: x, [(0.0, 1.0)], 1, 0)
        with pytest.raises(ValueError):
            grid_maximize(lambda x: x, [(1.0, 0.0)], 65, 0)
        with pytest.raises(ValueError):
            grid_maximize(lambda x: x, [(0.0, math.inf)], 65, 0)
        for resolution, refinements in [(65.5, 0), (65, 1.5), (math.nan, 0)]:
            with pytest.raises(ValueError, match="must be an integer"):
                grid_maximize(lambda x: x, [(0.0, 1.0)], resolution, refinements)


def _scalar_grid_maximize(objective, box, resolution, refinements):
    """Point-by-point reference: the full grid in itertools order, scalar calls."""
    original = [(float(lo), float(hi)) for lo, hi in box]
    current = list(original)
    best_point, best_value = None, -math.inf
    for _ in range(refinements + 1):
        axes = [np.linspace(lo, hi, resolution).tolist() for lo, hi in current]
        for point in itertools.product(*axes):
            value = float(objective(*point))
            if value > best_value or (value == best_value and point < best_point):
                best_value, best_point = value, point
        shrunk = []
        for (olo, ohi), (lo, hi), x in zip(original, current, best_point):
            width = (hi - lo) / 4.0
            shrunk.append((max(olo, x - width / 2.0), min(ohi, x + width / 2.0)))
        current = shrunk
    return best_point, best_value


def _oracle_objective(var_q, var_p, n_bar):
    """The single-mode oracle objective over (s, split), s = ln(2 input_q), for arrays."""
    budget = 2.0 * n_bar + 1.0

    def objective(s, split):
        in_q, in_p = 0.5 * np.exp(s), 0.5 * np.exp(-s)
        mod_total = np.maximum(budget - np.cosh(s), 0.0)
        nu_out = np.sqrt(in_q + var_q) * np.sqrt(in_p + var_p)
        nu_bar = np.sqrt(in_q + var_q + split * mod_total) * np.sqrt(
            in_p + var_p + (1.0 - split) * mod_total
        )
        return thermal_entropy(nu_bar - 0.5) - thermal_entropy(nu_out - 0.5)

    half_width = math.acosh(budget)
    return objective, [(-half_width, half_width), (0.0, 1.0)]


class TestGridMaximizeMatchesScalarSearch:
    @pytest.mark.parametrize(
        "var_q, var_p, n_bar",
        [(2.0, 0.5, 2.5), (2.0, 0.5, 0.2), (10.0, 0.1, 20.0)],
        ids=["above", "below", "anisotropic"],
    )
    def test_oracle_objective(self, var_q, var_p, n_bar):
        objective, box = _oracle_objective(var_q, var_p, n_bar)
        expected = _scalar_grid_maximize(objective, box, 65, 2)
        assert grid_maximize(objective, box, 65, 2) == expected

    def test_exact_ties(self):
        # A plateau of exact ties across slices and passes: the
        # lexicographically smallest point of the plateau wins.
        objective = lambda x, y: -np.maximum(np.abs(x - 0.3), np.abs(y - 0.6)) // 0.25
        box = [(0.0, 1.0), (0.0, 1.0)]
        expected = _scalar_grid_maximize(objective, box, 65, 2)
        assert grid_maximize(objective, box, 65, 2) == expected
