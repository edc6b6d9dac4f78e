"""Tests for the quadrature, eigensolver and grid-search kernels."""

import math
import re

import numpy as np
import pytest

import reference
from gmcapacity.gaussian import thermal_entropy
from gmcapacity.numerics import (
    IntegrationError,
    ellipk_split,
    grid_maximize,
    integrate,
    symmetric_eigen,
)
from gmcapacity.solver import env_symplectic_spectrum
from gmcapacity.spectra import MarkovNoise


def _distance_squared(r):
    """|1 - r e^{iu}|^2 as (1 - r)^2 + 4 r sin^2(u/2), free of cancellation near u = 0."""
    return lambda u: (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * u) ** 2


def _counted(f, calls):
    def counted(x):
        calls.append(x.size)
        return f(x)

    return counted


def _node_count(r):
    # The least multiple of 4, at least 8, with M ln(1/s) >= 128.
    s = r / (1.0 + math.sqrt(1.0 - r * r))
    m = 8
    while s > 0.0 and m * math.log(1.0 / s) < 128.0:
        m += 4
    return m


class TestIntegrate:
    def test_constant(self):
        for r in (0.0, 0.5, 0.99):
            assert integrate(np.ones_like, r) == pytest.approx(math.pi, abs=1e-12)

    def test_cosine(self):
        assert integrate(np.cos, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_markov_symbol_normalization(self):
        # Mean of the AR(1) spectrum over [0, pi] is the plain variance,
        # so the unit-variance symbol integrates to pi.
        phi = 0.5
        f = lambda x: (1 - phi**2) / (1 + phi**2 - 2 * phi * np.cos(x))
        assert integrate(f, phi) == pytest.approx(math.pi, abs=1e-10)

    def test_linearity(self):
        f = lambda u: np.exp(np.cos(u)) * np.cos(3 * u)
        g = lambda u: 1.0 / _distance_squared(0.8)(u)
        combo = integrate(lambda u: 2.5 * f(u) - 1.25 * g(u), 0.8)
        parts = 2.5 * integrate(f, 0.8) - 1.25 * integrate(g, 0.8)
        # Twice the fixed error target of integrate.
        assert combo == pytest.approx(parts, abs=2e-10)

    def test_poisson_kernel_closed_form(self):
        # Exact value pi / (1 - r^2); at r = 0.999 the integrand peaks at
        # 1e6 in a boundary layer of width ~1e-3.
        for r in (0.5, 0.9, 0.99, 0.999):
            exact = math.pi / (1 - r * r)
            value = integrate(lambda u: 1.0 / _distance_squared(r)(u), r)
            assert value == pytest.approx(exact, rel=1e-13, abs=0)

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.9, 0.99, 0.999])
    def test_jensen_closed_form(self, r):
        # Jensen's formula: the mean of log|1 - r e^{iu}| is 0 for r < 1.
        value = integrate(lambda u: np.log(_distance_squared(r)(u)), r)
        assert value == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("r", [0.3, 0.9, 0.99, 0.999])
    def test_elliptic_closed_form(self, r):
        # The p = 1 member of the family: with u = 2t, |1 - r e^{iu}|^2 is
        # (1 - r)^2 cos^2 t + (1 + r)^2 sin^2 t, so 1 / |1 - r e^{iu}|
        # integrates to pi / AGM(1 - r, 1 + r) (Gauss).
        a, b = 1.0 - r, 1.0 + r
        while abs(a - b) > 1e-15 * b:
            a, b = math.sqrt(a * b), 0.5 * (a + b)
        exact = math.pi / b
        value = integrate(lambda u: 1.0 / np.sqrt(_distance_squared(r)(u)), r)
        assert value == pytest.approx(exact, rel=1e-13, abs=0)

    def test_non_convergence_carries_estimate(self):
        # Scaled by 1e6, cos has a round-off floor of ~2.2e-8, above the
        # fixed 1e-10 target.
        with pytest.raises(IntegrationError) as excinfo:
            integrate(lambda u: 1e6 * np.cos(u), 0.0)
        err = excinfo.value
        assert abs(err.estimate) < 1e-6
        assert math.isfinite(err.error_bound)
        assert str(err) == (f"quadrature missed abs_tol=1e-10: the round-off floor is above it "
                            f"(estimate {err.estimate:.12g}, bound {err.error_bound:.3g})")

    @pytest.mark.parametrize(
        "f, exact",
        [
            (lambda u: np.sin(u) ** 2, 0.5 * math.pi),
            (lambda u: np.exp(np.cos(u)), math.pi * float(np.i0(1.0))),
            (np.cos, 0.0),
        ],
        ids=["sin", "exp", "cos"],
    )
    def test_unattainable_tolerance_raises(self, f, exact):
        # Scaled by 1e6, each integrand has a round-off floor above the
        # fixed 1e-10 target, so the target is never met.
        with pytest.raises(IntegrationError, match="round-off floor") as excinfo:
            integrate(lambda u: 1e6 * f(u), 0.0)
        err = excinfo.value
        assert err.error_bound > 0.0
        assert err.error_bound >= abs(err.estimate - 1e6 * exact)

    def test_noise_floor_failure_still_accurate(self):
        # At phi = 0.999 the kernel integrates to ~1572 while cancellation
        # noise in 1 + phi^2 - 2 phi cos u caps the certifiable absolute
        # error near 1e-8, so the fixed 1e-10 target must fail; the
        # raised error still carries an estimate good to 1e-6.
        phi = 0.999
        f = lambda x: 1.0 / (1 + phi * phi - 2 * phi * np.cos(x))
        exact = math.pi / (1 - phi * phi)
        with pytest.raises(IntegrationError) as excinfo:
            integrate(f, phi)
        err = excinfo.value
        assert abs(err.estimate - exact) <= 1e-6
        assert err.error_bound < 1e-6

    def test_unattainable_tolerance_fails_fast(self):
        # One evaluation decides: a missed target makes the rule refine no further.
        calls = []
        with pytest.raises(IntegrationError):
            integrate(_counted(lambda u: 1e6 * np.cos(u), calls), 0.0)
        assert calls == [5]

    @pytest.mark.parametrize("r", [0.0, 1e-20, 0.01, 0.3, 0.9, 0.998, 0.999])
    def test_node_count_fixed_by_r(self, r):
        # f is called once, on M/2 + 1 nodes.
        f = lambda u: 1.0 / _distance_squared(r)(u)
        calls = []
        try:
            integrate(_counted(f, calls), r)
        except IntegrationError:
            pass
        assert calls == [_node_count(r) // 2 + 1]

    def test_node_cap_itself_is_accepted(self):
        # The largest r whose rule asks for exactly 2**20 nodes, found by
        # bisection over doubles, integrates on them; the next double is rejected.
        def nodes(r):
            s = r / (1.0 + math.sqrt((1.0 - r) * (1.0 + r)))
            return 4 * math.ceil(32.0 / -math.log(s))

        lo, hi = 0.9, 1.0 - 1e-12
        while math.nextafter(lo, 1.0) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if nodes(mid) <= 2**20 else (lo, mid)
        calls = []
        assert integrate(_counted(np.ones_like, calls), lo) == pytest.approx(math.pi, abs=1e-12)
        assert calls == [2**19 + 1]
        message = f"nodes at pole radius {hi} must be at most {2**20}, got {2**20 + 4}"
        with pytest.raises(ValueError, match=re.escape(message)):
            integrate(np.ones_like, hi)

    def test_nodes_in_the_interval(self):
        # The nodes run from 0 to pi and cluster near the pole at u = 0.
        seen = []

        def record(u):
            seen.append(u)
            return np.ones_like(u)

        integrate(record, 0.9)
        [u] = seen
        assert u[0] == 0.0 and u[-1] == math.pi
        assert np.all(np.diff(u) > 0)
        assert np.sum(u < 0.5 * math.pi) > 0.8 * u.size

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_fails_fast(self, bad):
        # A non-finite value fails its row at once, with an infinite bound.
        calls = []

        def poisoned(x):
            calls.append(x.size)
            return np.where(x > 0.3, bad, 1.0)

        with pytest.raises(IntegrationError, match="not finite") as excinfo:
            integrate(poisoned, 0.5)
        assert len(calls) == 1
        assert excinfo.value.error_bound == math.inf

    @pytest.mark.parametrize("r", [-0.1, 1.0, 2.0, 1.0 - 1e-12, math.nan, math.inf, -math.inf])
    def test_pole_radius_rejected(self, r):
        calls = []
        with pytest.raises(ValueError, match="pole radius"):
            integrate(_counted(np.cos, calls), r)
        assert calls == []


def _entropy_integrand(phi, variance=1.0):
    # The symplectic spectrum on the doubled angle u = 2x, with r = phi^2.
    spectrum = env_symplectic_spectrum(MarkovNoise(variance, phi))
    return lambda u: thermal_entropy(spectrum(0.5 * u))


def _error_of(f, r):
    with pytest.raises(IntegrationError) as excinfo:
        integrate(f, r)
    err = excinfo.value
    return str(err), err.estimate, err.error_bound


class TestIntegrateRows:
    def test_rows_bitwise_equal_one_row_calls(self):
        # 1e-305 sends the whole batch through the slow path of g.
        rows = [_entropy_integrand(0.7, n) for n in (1e-3, 1.0, 50.0, 1e6, 1e-305)]
        singles = [integrate(f, 0.49) for f in rows]
        batch = integrate(lambda u: np.stack([f(u) for f in rows]), 0.49)
        assert isinstance(batch, np.ndarray)
        assert batch.tolist() == singles

    def test_one_dimensional_integrand_returns_float(self):
        assert type(integrate(np.cos, 0.5)) is float
        one_row = integrate(lambda x: np.cos(x)[None, :], 0.5)
        assert one_row.shape == (1,)
        assert one_row[0] == integrate(np.cos, 0.5)

    def test_rejects_other_shapes(self):
        for shape in (lambda n: (2, 2, n), lambda n: (), lambda n: (n + 1,), lambda n: (3, n - 1)):
            with pytest.raises(ValueError, match="shape"):
                integrate(lambda x: np.ones(shape(x.size)), 0.5)

    def test_lowest_index_failing_row_raises(self):
        # The small row meets the 1e-10 target and the others fail: the
        # exponential and cosine rows, scaled so that their round-off
        # floors lie above the target, and the NaN row as not finite.  A
        # loop over the rows would raise the exponential row's error, so
        # the batch must too.
        rows = [
            lambda x: 1e-3 * np.sin(x) ** 2,
            lambda x: 1e6 * np.exp(np.cos(x)),
            lambda x: np.full_like(x, np.nan),
            lambda x: 1e5 * np.cos(x),
        ]
        integrate(rows[0], 0.0)
        expected = _error_of(rows[1], 0.0)
        assert "round-off floor" in expected[0]
        assert expected != _error_of(rows[3], 0.0)
        batch = lambda x: np.stack([f(x) for f in rows])
        assert _error_of(batch, 0.0) == expected
        # Without the exponential row the NaN row is the first to fail.
        rest = lambda x: np.stack([rows[0](x), rows[2](x), rows[3](x)])
        message, _, bound = _error_of(rest, 0.0)
        assert "not finite" in message
        assert bound == math.inf

    def test_nan_row_fails_fast(self):
        calls = []
        rows = lambda x: np.stack([np.full_like(x, np.nan), np.sin(x) ** 2, np.exp(np.cos(x))])
        with pytest.raises(IntegrationError, match="not finite") as excinfo:
            integrate(_counted(rows, calls), 0.5)
        assert len(calls) == 1
        assert excinfo.value.error_bound == math.inf


class TestEllipk:
    @pytest.mark.parametrize("m", [0.0, 0.5, 0.99, 0.999999])
    def test_against_mpmath(self, m):
        exact = float(reference.ellipk(m)[0])
        assert ellipk_split(m, 1 - m)[0] == pytest.approx(exact, rel=1e-15, abs=0)

    @pytest.mark.parametrize("m", [0.0, 1e-48, 1e-24, 1e-12, 1e-4, 0.5, 0.99, 0.999999])
    def test_split_against_mpmath(self, m):
        # K - pi/2 keeps its relative precision down to the smallest m; at
        # m = 1e-48 it is ~4e-49, so the reference needs 80 digits.
        exact, exact_excess = map(float, reference.ellipk(m))
        k, excess = ellipk_split(m, 1 - m)
        assert k == pytest.approx(exact, rel=1e-15, abs=0)
        assert excess == pytest.approx(exact_excess, rel=1e-15, abs=0)

    @pytest.mark.parametrize("m1", [1e-20, 1e-32, 5e-324])
    def test_tiny_complement_against_mpmath(self, m1):
        # m = 1.0 is the rounding of 1 - m1; K follows the exact complement.
        exact, exact_excess = map(float, reference.ellipk(1.0, m1))
        k, excess = ellipk_split(1.0, m1)
        assert k == pytest.approx(exact, rel=1e-15, abs=0)
        assert excess == pytest.approx(exact_excess, rel=1e-15, abs=0)

    def test_domain(self):
        bad_pairs = [(1.0, m1) for m1 in (0.0, -1e-300, 1.5, math.nan)]
        bad_pairs += [(m, 1.0 - m) for m in (-0.1, 1.1, math.nan)]
        # Each value lies in its range, but the two do not sum to 1.
        bad_pairs.append((0.5, 0.25))
        for m, m1 in bad_pairs:
            with pytest.raises(ValueError):
                ellipk_split(m, m1)


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
        assert np.sum(values**2) == pytest.approx(np.sum(m * m), rel=1e-12, abs=0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_asymmetry_tolerance_scales_with_the_largest_entry(self):
        # The accepted asymmetry is 1e-12 max(1, max|m|): 1e-7 passes at
        # entries of 2e6, and 1e-11 fails at entries of 1.
        values = symmetric_eigen(np.array([[2e6, 1e6], [1e6 + 1e-7, 2e6]]))
        assert values == pytest.approx([3e6, 1e6], rel=1e-12, abs=0)
        with pytest.raises(ValueError, match="not symmetric"):
            symmetric_eigen(np.array([[1.0, 0.5], [0.5 + 1e-11, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="expected a square matrix, got shape \\(2, 3\\)"):
            symmetric_eigen(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="expected a square matrix, got shape \\(3,\\)"):
            symmetric_eigen(np.zeros(3))

    def test_empty(self):
        assert symmetric_eigen(np.zeros((0, 0))).shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        for m in (np.full((2, 2), bad), np.diag([1.0, bad]), np.array([[1.0, bad], [bad, 1.0]])):
            with pytest.raises(ValueError, match="non-finite"):
                symmetric_eigen(m)


class TestGridMaximize:
    def test_1d_quadratic(self):
        x, value = grid_maximize(lambda x: -((x - 1.0) ** 2), (0.0, 2.0), 65, 2)
        assert abs(x - 1.0) <= 1e-3
        assert value <= 0.0

    def test_deterministic(self):
        objective = lambda x: np.sin(5 * x) * np.cos(3 * x)
        first = grid_maximize(objective, (0.0, 2.0), 65, 2)
        second = grid_maximize(objective, (0.0, 2.0), 65, 2)
        assert first == second

    def test_ties_go_to_the_smaller_x(self):
        # Flat objective: every grid point of every pass ties, the left end wins.
        x, value = grid_maximize(lambda x: np.ones_like(x), (2.0, 3.0), 65, 1)
        assert (x, value) == (2.0, 1.0)

    def test_one_call_per_pass(self):
        calls = []

        def objective(xs):
            calls.append(xs)
            return -xs * xs

        grid_maximize(objective, (-1.0, 1.0), 65, 3)
        assert [xs.shape for xs in calls] == [(65,)] * 4
        assert [(xs[0], xs[-1]) for xs in calls[:2]] == [(-1.0, 1.0), (-0.25, 0.25)]

    def test_refinements_clip_to_the_interval(self):
        # The maximum sits at the right end: each pass shrinks four-fold
        # around it, and the clipped half past the end is cut off.
        calls = []

        def objective(xs):
            calls.append((xs[0], xs[-1]))
            return xs

        x, value = grid_maximize(objective, (0.0, 1.0), 65, 2)
        assert (x, value) == (1.0, 1.0)
        assert calls == [(0.0, 1.0), (0.875, 1.0), (0.984375, 1.0)]

    def test_non_finite_objective_rejected(self):
        with pytest.raises(ValueError, match="non-finite value at 0.515625"):
            grid_maximize(lambda x: np.where(x > 0.5, np.inf, x), (0.0, 1.0), 65, 0)
        with pytest.raises(ValueError, match="non-finite value at 0.0"):
            grid_maximize(lambda x: np.where(x < 0.5, np.nan, x), (0.0, 1.0), 65, 0)

    def test_equal_value_in_a_later_pass_keeps_the_smaller_x(self):
        # A plateau on [0.3, 0.4]: the first pass finds it at 1/3, the
        # refined even grid first at 0.375, and the tie keeps 1/3.
        plateau = lambda x: ((x >= 0.3) & (x <= 0.4)).astype(float)
        assert grid_maximize(plateau, (0.0, 1.0), 4, 1) == (1.0 / 3.0, 1.0)

    def test_degenerate_box(self):
        x, value = grid_maximize(lambda x: -x * x, (0.5, 0.5), 65, 1)
        assert (x, value) == (0.5, -0.25)

    def test_validation(self):
        assert grid_maximize(lambda x: x, (0.0, 1.0), 2, 0) == (1.0, 1.0)
        with pytest.raises(ValueError, match="resolution must be at least 2, got 1"):
            grid_maximize(lambda x: x, (0.0, 1.0), 1, 0)
        with pytest.raises(ValueError, match="lo <= hi"):
            grid_maximize(lambda x: x, (1.0, 0.0), 65, 0)
        with pytest.raises(ValueError, match="finite"):
            grid_maximize(lambda x: x, (0.0, math.inf), 65, 0)
        with pytest.raises(ValueError, match="finite"):
            grid_maximize(lambda x: x, (math.nan, 1.0), 65, 0)
        for resolution, refinements in [(65.5, 0), (65, 1.5), (math.nan, 0)]:
            with pytest.raises(ValueError, match="must be an integer"):
                grid_maximize(lambda x: x, (0.0, 1.0), resolution, refinements)

    def test_negative_refinements_rejected(self):
        assert grid_maximize(lambda x: x, (0.0, 1.0), 65, 0) == (1.0, 1.0)
        with pytest.raises(ValueError, match="refinements must be at least 0, got -1"):
            grid_maximize(lambda x: x, (0.0, 1.0), 65, -1)

    def test_objective_shape_checked(self):
        with pytest.raises(ValueError, match=r"objective returned shape \(3,\), expected \(65,\)"):
            grid_maximize(lambda x: np.ones(3), (0.0, 1.0), 65, 0)
        with pytest.raises(ValueError, match=r"objective returned shape \(\), expected \(65,\)"):
            grid_maximize(lambda x: 1.0, (0.0, 1.0), 65, 0)


def _scalar_grid_maximize(objective, interval, resolution, refinements):
    """Point-by-point reference: every grid point in increasing order, scalar calls."""
    olo, ohi = (float(bound) for bound in interval)
    lo, hi = olo, ohi
    best_x, best_value = None, -math.inf
    for _ in range(refinements + 1):
        for x in np.linspace(lo, hi, resolution).tolist():
            value = float(objective(x))
            if value > best_value or (value == best_value and x < best_x):
                best_value, best_x = value, x
        width = (hi - lo) / 4.0
        lo, hi = max(olo, best_x - width / 2.0), min(ohi, best_x + width / 2.0)
    return best_x, best_value


def _oracle_profile(var_q, var_p, n_bar):
    """The single-mode oracle objective over s = ln(2 input_q), maximized over 65 splits.

    Takes a float or an array of s; the splits run along a new last axis.
    """
    budget = 2.0 * n_bar + 1.0
    split = np.linspace(0.0, 1.0, 65)

    def objective(s):
        s = np.asarray(s)[..., None]
        in_q, in_p = 0.5 * np.exp(s), 0.5 * np.exp(-s)
        mod_total = np.maximum(budget - np.cosh(s), 0.0)
        nu_out = np.sqrt(in_q + var_q) * np.sqrt(in_p + var_p)
        nu_bar = np.sqrt(in_q + var_q + split * mod_total) * np.sqrt(
            in_p + var_p + (1.0 - split) * mod_total
        )
        return np.max(thermal_entropy(nu_bar - 0.5) - thermal_entropy(nu_out - 0.5), axis=-1)

    half_width = math.acosh(budget)
    return objective, (-half_width, half_width)


class TestGridMaximizeMatchesScalarSearch:
    @pytest.mark.parametrize(
        "var_q, var_p, n_bar",
        [(2.0, 0.5, 2.5), (2.0, 0.5, 0.2), (10.0, 0.1, 20.0)],
        ids=["above", "below", "anisotropic"],
    )
    def test_oracle_objective(self, var_q, var_p, n_bar):
        objective, interval = _oracle_profile(var_q, var_p, n_bar)
        expected = _scalar_grid_maximize(objective, interval, 65, 2)
        assert grid_maximize(objective, interval, 65, 2) == expected

    def test_exact_ties(self):
        # A plateau of exact ties on (0.05, 0.55): each pass moves the
        # incumbent to the smallest plateau point on its grid.
        objective = lambda x: -np.abs(x - 0.3) // 0.25
        expected = _scalar_grid_maximize(objective, (0.0, 1.0), 65, 2)
        assert grid_maximize(objective, (0.0, 1.0), 65, 2) == expected
        assert 0.05 < expected[0] < 0.0625 and expected[1] == -1.0
