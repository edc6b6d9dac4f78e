"""Tests for the thermal entropy function g."""

import math
import warnings

import numpy as np
import pytest

import reference
from gmcapacity.gaussian import thermal_entropy

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
        # The reference takes the log1p form: the direct form
        # (x+1) log2(x+1) - x log2(x) would need more than 2 log10(x)
        # digits to survive its own cancellation.
        for x in np.logspace(-300, 300, 241).tolist() + [0.5, 1.0, 2.0, 1e-310]:
            exact = float(reference.thermal_entropy(x))
            assert thermal_entropy(x) == pytest.approx(exact, rel=1e-15, abs=0), x

    def test_extreme_arguments_finite(self):
        for x in (5e-324, 1e308, 1.7976931348623157e308):
            value = thermal_entropy(x)
            assert math.isfinite(value) and value > 0.0

    def test_array_matches_scalar_form(self):
        # The array evaluation against the scalar stable form, entry by
        # entry, including the tiny-argument branch and g(0) = 0.
        def scalar(x):
            if x == 0.0:
                return 0.0
            if x < 2.0**-1000:
                return ((1.0 + x) * math.log1p(x) - x * math.log(x)) / math.log(2.0)
            return (math.log1p(x) + x * math.log1p(1.0 / x)) / math.log(2.0)

        xs = np.concatenate([[0.0, 5e-324, 2.0**-1000], np.logspace(-300, 308, 20001)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = thermal_entropy(xs)
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        for x, value in zip(xs.tolist(), values.tolist()):
            assert value == pytest.approx(scalar(x), rel=4e-16, abs=0.0), x

    def test_array_rejects_one_negative_entry(self):
        with pytest.raises(ValueError, match="non-negative"):
            thermal_entropy(np.array([0.0, 1.0, -1e-3, 2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            thermal_entropy(bad)
        with pytest.raises(ValueError, match="finite"):
            thermal_entropy(np.array([0.0, 1.0, bad, 2.0]))

    def test_scalar_returns_python_float(self):
        for x in (0.0, 5e-324, 1.0, np.float64(3.0), np.array(3.0)):
            assert type(thermal_entropy(x)) is float

    def test_excess_over_log_positive_decreasing(self):
        xs = [10.0**k for k in range(0, 7)]
        gaps = [thermal_entropy(x) - math.log2(x) for x in xs]
        assert all(gap > 0 for gap in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
