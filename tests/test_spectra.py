"""Tests for the AR(1) noise matrices and their spectral analysis."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds

from gmcapacity.numerics import integrate
from gmcapacity.solver import env_symplectic_spectrum
from gmcapacity.spectra import (
    MarkovNoise,
    asymptotic_markov_spectrum,
    circulant_embedding,
    commutator_norm,
    finite_spectrum,
    fourier_diagonalizer,
    inverse_symbol,
    markov_matrix,
    markov_symbol,
    tridiagonal_inverse,
)


def midpoint_grid(n):
    return np.pi * (np.arange(1, n + 1) - 0.5) / n


class TestMarkovNoise:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MarkovNoise(0.0, 0.5)
        with pytest.raises(ValueError):
            MarkovNoise(1.0, 1.0)
        with pytest.raises(ValueError):
            MarkovNoise(1.0, -1.0)

    def test_negative_correlation_allowed(self):
        assert MarkovNoise(1.0, -0.5).correlation == -0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            MarkovNoise(bad, 0.5)
        with pytest.raises(ValueError):
            MarkovNoise(1.0, bad)


class TestMarkovMatrix:
    def test_white_noise_identity(self):
        assert np.array_equal(markov_matrix(MarkovNoise(1.0, 0.0), 3), np.eye(3))

    def test_two_by_two(self):
        m = markov_matrix(MarkovNoise(1.0, 0.5), 2)
        assert np.allclose(m, [[1.0, 0.5], [0.5, 1.0]])

    def test_sign_flipped_elementwise(self):
        m = markov_matrix(MarkovNoise(2.0, -0.4), 3)
        expected = [[2.0, -0.8, 0.32], [-0.8, 2.0, -0.8], [0.32, -0.8, 2.0]]
        assert np.allclose(m, expected, atol=1e-15)

    def test_validation(self):
        noise = MarkovNoise(1.0, 0.5)
        with pytest.raises(ValueError):
            markov_matrix(noise, 0)
        for n in (7.5, 1e3):
            with pytest.raises(ValueError, match="n must be an integer"):
                markov_matrix(noise, n)

    def test_positive_definite(self):
        values = finite_spectrum(markov_matrix(MarkovNoise(1.0, 0.9), 64))
        assert values[-1] > 0

    @pytest.mark.parametrize("phi", [0.0, 0.3, 0.7, 0.94, 0.999, -0.7])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", [1, 2, 7, 600])
    def test_equals_elementwise_powers(self, phi, sign, n):
        # The gathered powers must reproduce n^2 scalar powers bit for bit.
        idx = np.arange(n)
        expected = 1.3 * (sign * phi) ** np.abs(idx[:, None] - idx[None, :])
        m = markov_matrix(MarkovNoise(1.3, sign * phi), n)
        assert np.array_equal(m, expected)
        assert not m.flags.writeable
        low, high = byte_bounds(m)
        assert high - low == (2 * n - 1) * 8

    @pytest.mark.parametrize("phi", [0.3, 0.7, 0.95, 0.999, -0.7])
    @pytest.mark.parametrize("n", [1, 2, 5, 50, 300])
    def test_sign_branches_share_spectrum(self, phi, n):
        # The correlation -phi matrix is D T D with D = diag((-1)^i), an
        # orthogonal similarity of the correlation phi matrix T.
        q = np.linalg.eigvalsh(markov_matrix(MarkovNoise(1.0, phi), n))
        p = np.linalg.eigvalsh(markov_matrix(MarkovNoise(1.0, -phi), n))
        assert np.max(np.abs(p - q)) <= 1e-13 * q[-1]


class TestCirculantEmbedding:
    def test_white_noise(self):
        for n in (2, 5, 6):
            assert np.array_equal(
                circulant_embedding(MarkovNoise(2.0, 0.0), n), 2.0 * np.eye(n)
            )

    def test_odd_three_wraps_far_corner(self):
        c = circulant_embedding(MarkovNoise(1.0, 0.5), 3)
        assert np.allclose(c, [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])

    def test_rows_are_cyclic_shifts(self):
        c = circulant_embedding(MarkovNoise(1.0, 0.4), 5)
        for r in range(1, 5):
            assert np.allclose(c[r], np.roll(c[0], r))

    def test_agrees_with_toeplitz_up_to_kappa(self):
        noise = MarkovNoise(1.0, 0.6)
        for n in (7, 8):
            kappa = (n - 1) // 2 if n % 2 else n // 2
            t = markov_matrix(noise, n)
            c = circulant_embedding(noise, n)
            idx = np.arange(n)
            near = np.abs(idx[:, None] - idx[None, :]) <= kappa
            assert np.allclose(c[near], t[near])

    def test_size_validation(self):
        with pytest.raises(ValueError):
            circulant_embedding(MarkovNoise(1.0, 0.5), 1)
        for n in (7.5, 1e3):
            with pytest.raises(ValueError, match="n must be an integer"):
                circulant_embedding(MarkovNoise(1.0, 0.5), n)

    @pytest.mark.parametrize("phi", [0.0, 0.3, 0.7, 0.999, -0.7])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 601, 600])
    def test_equals_elementwise_powers(self, phi, sign, n):
        # The gathered powers must reproduce n^2 scalar powers of the
        # wrapped distance bit for bit, for odd and even n.
        kappa = (n - 1) // 2 if n % 2 else n // 2
        idx = np.arange(n)
        dist = np.abs(idx[:, None] - idx[None, :])
        expected = 1.3 * (sign * phi) ** np.where(dist <= kappa, dist, n - dist)
        m = circulant_embedding(MarkovNoise(1.3, sign * phi), n)
        assert np.array_equal(m, expected)
        assert not m.flags.writeable
        low, high = byte_bounds(m)
        assert high - low == (2 * n - 1) * 8


class TestFourierDiagonalizer:
    def test_trivial(self):
        assert np.array_equal(fourier_diagonalizer(1), [[1.0]])

    def test_size_validation(self):
        with pytest.raises(ValueError):
            fourier_diagonalizer(0)
        for n in (7.5, 1e3):
            with pytest.raises(ValueError, match="n must be an integer"):
                fourier_diagonalizer(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
    def test_orthogonal(self, n):
        q = fourier_diagonalizer(n)
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-12

    @pytest.mark.parametrize("n", [9, 10, 64])
    def test_matches_row_by_row_reference(self, n):
        # The per-row loop at unreduced angles, whose entries carry errors ~n eps.
        j = np.arange(n)
        qt = np.zeros((n, n))
        qt[0] = 1.0 / math.sqrt(n)
        for k in range(1, (n + 1) // 2):
            angle = 2.0 * math.pi * k * j / n
            qt[k] = math.sqrt(2.0 / n) * np.cos(angle)
            qt[n - k] = math.sqrt(2.0 / n) * np.sin(angle)
        if n % 2 == 0:
            qt[n // 2] = (-1.0) ** j / math.sqrt(n)
        assert np.max(np.abs(fourier_diagonalizer(n) - qt.T)) <= n * 1e-15

    @pytest.mark.parametrize("n", [601, 1200])
    def test_orthonormal_to_rounding_at_large_n(self, n):
        # Angles reduced mod n keep the basis orthonormal to a few ulps;
        # unreduced, the error grew with n to 6.4e-14 at n = 1200.
        q = fourier_diagonalizer(n)
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 5e-15

    def test_first_row_constant(self):
        q = fourier_diagonalizer(6)
        assert np.allclose(q.T[0], 1.0 / math.sqrt(6))

    def test_even_alternating_row(self):
        n = 8
        q = fourier_diagonalizer(n)
        expected = np.array([(-1.0) ** j for j in range(n)]) / math.sqrt(n)
        assert np.allclose(q.T[n // 2], expected)

    def test_diagonalizes_circulant(self):
        n = 8
        q = fourier_diagonalizer(n)
        c = circulant_embedding(MarkovNoise(1.0, 0.5), n)
        d = q.T @ c @ q
        off = d - np.diag(np.diag(d))
        assert np.linalg.norm(off) <= 1e-10


class TestAsymptoticSpectrum:
    def test_white_noise_flat(self):
        noise = MarkovNoise(1.7, 0.0)
        for x in (0.0, 1.0, math.pi):
            assert asymptotic_markov_spectrum(noise, x) == 1.7

    def test_endpoints(self):
        noise = MarkovNoise(1.0, 0.5)
        assert asymptotic_markov_spectrum(noise, 0.0) == pytest.approx(3.0, abs=1e-12)
        assert asymptotic_markov_spectrum(noise, math.pi) == pytest.approx(1 / 3, abs=1e-12)

    def test_p_branch_is_mirrored(self):
        for x in (0.1, 0.9, 2.0):
            assert asymptotic_markov_spectrum(MarkovNoise(1.0, -0.6), x) == pytest.approx(
                asymptotic_markov_spectrum(MarkovNoise(1.0, 0.6), math.pi - x), abs=1e-12
            )

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            asymptotic_markov_spectrum(MarkovNoise(1.0, 0.5), -0.1)
        with pytest.raises(ValueError):
            asymptotic_markov_spectrum(MarkovNoise(1.0, 0.5), math.pi + 0.1)

    @pytest.mark.parametrize("phi", [0.0, 0.5, 0.999, -0.7])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_array_matches_scalar_formula(self, phi, sign):
        # One array call against the closed form evaluated point by point,
        # with 1 - c^2 and |1 - c e^{ix}|^2 in their cancellation-free forms.
        xs = np.linspace(0.0, math.pi, 1001)
        values = asymptotic_markov_spectrum(MarkovNoise(1.3, sign * phi), xs)
        c = sign * phi
        a = abs(c)
        for x, value in zip(xs.tolist(), values.tolist()):
            h = math.sin(0.5 * x) if c >= 0 else math.cos(0.5 * x)
            expected = 1.3 * ((1.0 - c) * (1.0 + c)) / ((1.0 - a) ** 2 + 4.0 * a * h * h)
            assert value == pytest.approx(expected, rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("bad", [-0.1, math.pi + 0.1, math.nan])
    def test_array_domain_validation(self, bad):
        xs = np.array([0.0, 1.0, bad, 2.0])
        with pytest.raises(ValueError, match="must lie in"):
            asymptotic_markov_spectrum(MarkovNoise(1.0, 0.5), xs)

    def test_bounds(self):
        noise = MarkovNoise(2.0, 0.7)
        lo = 2.0 * (1 - 0.7) / (1 + 0.7)
        hi = 2.0 * (1 + 0.7) / (1 - 0.7)
        for x in np.linspace(0.0, math.pi, 101):
            value = asymptotic_markov_spectrum(noise, float(x))
            assert lo - 1e-12 <= value <= hi + 1e-12

    def test_mean_equals_variance(self):
        # (1/pi) * integral of the symbol over [0, pi] recovers the variance.
        for variance, phi in [(1.0, 0.5), (2.5, 0.8)]:
            symbol = markov_symbol(MarkovNoise(variance, phi))
            mean = integrate(symbol, phi) / math.pi
            assert mean == pytest.approx(variance, abs=1e-9)

    @pytest.mark.parametrize("phi", [0.5, 0.9, 0.999, -0.999])
    def test_symbol_against_mpmath(self, phi):
        # The symbol, its inverse and the symplectic spectrum.  The symbol's
        # peak sits at x = 0 (phi > 0) or x = pi (phi < 0), where
        # 1 + c^2 - 2 c cos x cancels; the grid reaches 1e-8 from both ends.
        # At |c| = 0.999 a scale 1 - c*c, formed from the rounded c*c, errs
        # by ~1.5e-14 relative; (1 - c)(1 + c) stays within a few ulp.
        mpmath = pytest.importorskip("mpmath")
        offsets = [10.0**-k for k in range(1, 9)]
        xs = [0.0, *offsets, 0.5, 1.0, 1.5, 2.0, 2.5, *(math.pi - d for d in offsets), math.pi]
        noise = MarkovNoise(1.7, phi)
        values = {builder.__name__: builder(noise)(np.array(xs)).tolist()
                  for builder in (markov_symbol, inverse_symbol, env_symplectic_spectrum)}
        with mpmath.workdps(40):
            c = mpmath.mpf(phi)
            for i, x in enumerate(xs):
                cos = mpmath.cos(mpmath.mpf(x))
                gap = 1 + c * c - 2 * c * cos  # |1 - c e^{ix}|^2
                # |1 - c^2 e^{2ix}|^2 = 1 + c^4 - 2 c^2 cos 2x, with cos 2x = 2 cos^2 x - 1.
                symplectic_gap = 1 + c**4 - 2 * c * c * (2 * cos * cos - 1)
                scale = 1.7 * (1 - c * c)
                exact = {"markov_symbol": scale / gap, "inverse_symbol": gap / scale,
                         "env_symplectic_spectrum": scale / mpmath.sqrt(symplectic_gap)}
                for name, value in exact.items():
                    assert abs(values[name][i] / value - 1) <= 2e-15, (name, x)


class TestSzegoConvergence:
    @pytest.mark.parametrize("phi", [0.5, 0.8])
    def test_sorted_eigenvalues_approach_symbol(self, phi):
        noise = MarkovNoise(1.0, phi)
        deviations = []
        for n in (32, 64, 128, 256):
            values = finite_spectrum(markov_matrix(noise, n))
            samples = np.sort(
                [asymptotic_markov_spectrum(noise, float(x)) for x in midpoint_grid(n)]
            )[::-1]
            deviations.append(float(np.max(np.abs(values - samples))))
        assert all(a > b for a, b in zip(deviations, deviations[1:]))


class TestTridiagonalInverse:
    def test_white_noise(self):
        v = tridiagonal_inverse(MarkovNoise(4.0, 0.0), 5)
        assert np.allclose(v, np.eye(5) / 4.0)

    def test_interior_rows_invert_exactly(self):
        noise = MarkovNoise(1.0, 0.6)
        n = 10
        product = tridiagonal_inverse(noise, n) @ markov_matrix(noise, n)
        interior = product[1:-1] - np.eye(n)[1:-1]
        assert np.max(np.abs(interior)) <= 1e-12

    def test_spectrum_approaches_symbol(self):
        noise = MarkovNoise(1.0, 0.6)
        symbol = inverse_symbol(noise)
        deviations = []
        for n in (64, 256):
            values = finite_spectrum(tridiagonal_inverse(noise, n))
            samples = np.sort([symbol(float(x)) for x in midpoint_grid(n)])[::-1]
            deviations.append(float(np.max(np.abs(values - samples))))
        assert deviations[1] < deviations[0]

    def test_symbol_is_reciprocal(self):
        noise = MarkovNoise(2.0, 0.3)
        forward = markov_symbol(noise)
        backward = inverse_symbol(noise)
        for x in (0.0, 0.7, 2.2, math.pi):
            assert forward(x) * backward(x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("phi", [0.0, -0.0, 0.6, -0.7])
    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_equals_diag_construction(self, phi, n):
        v = tridiagonal_inverse(MarkovNoise(1.3, phi), n)
        prefactor = 1.0 / (1.3 * ((1.0 - phi) * (1.0 + phi)))
        # Assigned, not added, so that the -0.0 off-diagonal of phi = 0 stays.
        expected = np.diag(np.full(n, prefactor * (1.0 + phi * phi)))
        i = np.arange(n - 1)
        expected[i, i + 1] = expected[i + 1, i] = -prefactor * phi
        assert v.tobytes() == expected.tobytes()

    def test_size_validation(self):
        with pytest.raises(ValueError):
            tridiagonal_inverse(MarkovNoise(1.0, 0.5), 1)
        for n in (7.5, 1e3):
            with pytest.raises(ValueError, match="n must be an integer"):
                tridiagonal_inverse(MarkovNoise(1.0, 0.5), n)


@pytest.mark.parametrize("builder", [markov_matrix, circulant_embedding, tridiagonal_inverse])
def test_builder_allocates_one_matrix(builder):
    # The one matrix a builder returns is a view over its 2n - 1 values,
    # so no n x n array (128 MB at this n) is ever allocated.
    n = 4000
    noise = MarkovNoise(1.3, 0.7)
    builder(noise, 8)  # warm-up, so that first-call caches are not counted
    tracemalloc.start()
    try:
        m = builder(noise, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.shape == (n, n)
    assert peak <= 2**20


@pytest.mark.parametrize("builder", [markov_matrix, circulant_embedding, tridiagonal_inverse])
def test_builder_result_is_read_only(builder):
    m = builder(MarkovNoise(1.3, 0.7), 5)
    with pytest.raises(ValueError, match="read-only"):
        m[2, 2] = 0.0
    writeable = m.copy()
    writeable[2, 2] = 0.0
    assert writeable[2, 2] == 0.0 and m[2, 2] != 0.0


class TestCommutatorNorm:
    def test_self_commutes(self):
        m = markov_matrix(MarkovNoise(1.0, 0.7), 6)
        assert commutator_norm(m, m) == 0.0

    def test_circulants_commute(self):
        noise = MarkovNoise(1.0, 0.5)
        for n in (8, 64):
            cp = circulant_embedding(noise, n)
            cm = circulant_embedding(MarkovNoise(1.0, -0.5), n)
            assert commutator_norm(cp, cm) <= 1e-12

    def test_finite_toeplitz_blocks_do_not_commute(self):
        noise = MarkovNoise(1.0, 0.5)
        mp = markov_matrix(noise, 4)
        mm = markov_matrix(MarkovNoise(1.0, -0.5), 4)
        assert commutator_norm(mp, mm) > 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator_norm(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            commutator_norm(np.full((2, 2), bad), np.eye(2))
        with pytest.raises(ValueError, match="non-finite"):
            commutator_norm(np.eye(2), np.diag([1.0, bad]))


class TestFiniteSpectrum:
    def test_identity(self):
        assert np.allclose(finite_spectrum(np.eye(4)), np.ones(4))

    def test_two_by_two_closed_form(self):
        values = finite_spectrum(markov_matrix(MarkovNoise(1.0, 0.5), 2))
        assert values == pytest.approx([1.5, 0.5], abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            finite_spectrum(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "kind,n",
        [
            (kind, n)
            for kind in ("toeplitz", "circulant", "inverse")
            for n in (1, 2, 3, 4, 5, 50, 301, 600)
            if kind == "toeplitz" or n > 1
        ],
    )
    @pytest.mark.parametrize("phi", [0.0, 0.3, 0.7, 0.95, 0.999])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_split_matches_dense_eigvalsh(self, kind, n, phi, sign):
        # The two half-size blocks must reproduce one full dense solve.
        if kind == "toeplitz":
            m = markov_matrix(MarkovNoise(1.3, sign * phi), n)
        elif kind == "circulant":
            m = circulant_embedding(MarkovNoise(1.3, sign * phi), n)
        else:
            m = tridiagonal_inverse(MarkovNoise(1.3, sign * phi), n)
        expected = np.linalg.eigvalsh(m)[::-1]
        values = finite_spectrum(m)
        assert values.shape == (n,)
        assert np.max(np.abs(values - expected)) <= 5e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("builder", [markov_matrix, circulant_embedding])
    @pytest.mark.parametrize("phi,sign", [(0.7, -1), (0.999, 1)])
    def test_split_matches_dense_eigvalsh_at_1200(self, builder, phi, sign):
        m = builder(MarkovNoise(1.3, sign * phi), 1200)
        expected = np.linalg.eigvalsh(m)[::-1]
        assert np.max(np.abs(finite_spectrum(m) - expected)) <= 5e-14 * expected[0]

    def test_empty(self):
        assert finite_spectrum(np.zeros((0, 0))).shape == (0,)

    def test_rejects_symmetric_not_centrosymmetric(self):
        with pytest.raises(ValueError, match="centrosymmetric"):
            finite_spectrum(np.array([[1.0, 0.5], [0.5, 2.0]]))

    def test_rejects_centrosymmetric_not_symmetric(self):
        m = np.array([[1.0, 0.2, 0.3], [0.4, 1.0, 0.4], [0.3, 0.2, 1.0]])
        assert np.array_equal(m, m[::-1, ::-1])
        with pytest.raises(ValueError, match="symmetric"):
            finite_spectrum(m)

    @pytest.mark.parametrize("n", [4, 5])
    def test_rejects_single_entry_perturbations(self, n):
        # Every entry but the centre of an odd-size matrix has a distinct
        # mirror image, so moving it alone breaks centrosymmetry.
        base = markov_matrix(MarkovNoise(1.0, 0.6), n)
        for i in range(n):
            for j in range(n):
                m = base.copy()
                m[i, j] += 1e-6
                if n % 2 and i == j == n // 2:
                    expected = np.linalg.eigvalsh(m)[::-1]
                    assert np.max(np.abs(finite_spectrum(m) - expected)) <= 5e-14 * expected[0]
                    continue
                with pytest.raises(ValueError):
                    finite_spectrum(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            finite_spectrum(np.diag([1.0, bad]))
        with pytest.raises(ValueError, match="non-finite"):
            finite_spectrum(np.array([[1.0, bad], [bad, 1.0]]))
        # m[3, 3] is read only by the centrosymmetry check, not by the blocks.
        m = markov_matrix(MarkovNoise(1.0, 0.5), 4).copy()
        m[3, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            finite_spectrum(m)

    @pytest.mark.parametrize("n", [1200, 1201])
    def test_holds_one_half_size_block_at_a_time(self, n):
        # Beside the O(n) input view, one h x h block and the solver's copy
        # of it take 0.5 n^2 doubles; both blocks at once would take 0.75.
        noise = MarkovNoise(1.0, 0.7)
        finite_spectrum(markov_matrix(noise, 8))  # warm-up
        tracemalloc.start()
        try:
            finite_spectrum(markov_matrix(noise, n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.55 * n * n * 8

    def test_rejects_overflowing_blocks(self):
        # A + B J overflows; the overflowed block is rejected, with no warning.
        m = markov_matrix(MarkovNoise(1.7e308, 0.9), 5)
        with pytest.raises(ValueError, match="non-finite"):
            finite_spectrum(m)


class TestOverflowingSpectrum:
    # Entries that fit in a double can still give eigenvalues or symbol
    # values that do not; those raise instead of returning inf.

    def test_toeplitz_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue overflows"):
            finite_spectrum(markov_matrix(MarkovNoise(1e308, 0.5), 3))

    def test_circulant_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue overflows"):
            finite_spectrum(circulant_embedding(MarkovNoise(1e308, 0.5), 4))

    @pytest.mark.parametrize("x", [0.0, np.array([0.0, math.pi / 2, math.pi])])
    def test_asymptotic_value(self, x):
        with pytest.raises(ValueError, match="spectrum value overflows"):
            asymptotic_markov_spectrum(MarkovNoise(1e308, 0.999), x)

    def test_finite_values_still_returned(self):
        assert np.isfinite(finite_spectrum(markov_matrix(MarkovNoise(1e307, 0.5), 3))).all()
        assert np.isfinite(asymptotic_markov_spectrum(MarkovNoise(1e300, 0.999), 0.0))
