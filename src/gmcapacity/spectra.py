"""AR(1) (Gauss-Markov) noise matrices and their spectral machinery.

The q quadratures carry AR(1) noise ``MarkovNoise(N, phi)`` and the p
quadratures ``MarkovNoise(N, -phi)``; every function here takes the
correlation as given.  Builds the symmetric Toeplitz covariance of a
stationary AR(1) process, its circulant surrogate, the real Fourier
basis that diagonalizes every symmetric circulant, the limiting
eigenvalue symbol on the spectral interval [0, pi], the tridiagonal
matrix that inverts the AR(1) covariance in the large-size limit, and
the eigenvalues of these centrosymmetric matrices from two half-size
solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import _MAX_DENSE, _MAX_POINTS, _check_count, _check_mirror, _square, symmetric_eigen

__all__ = [
    "MarkovNoise",
    "SpectralFunction",
    "markov_matrix",
    "circulant_embedding",
    "fourier_diagonalizer",
    "asymptotic_markov_spectrum",
    "markov_symbol",
    "tridiagonal_inverse",
    "inverse_symbol",
    "commutator_norm",
    "finite_spectrum",
]


@dataclass(frozen=True)
class MarkovNoise:
    """Stationary AR(1) noise: variance of each sample and nearest-neighbor correlation.

    Covariances decay as variance * correlation**distance; |correlation|
    must stay below 1 for the process to be stationary.  The p quadrature
    of noise ``MarkovNoise(N, phi)`` is ``MarkovNoise(N, -phi)``.
    """

    variance: float
    correlation: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise ValueError(f"variance must be finite and positive, got {self.variance}")
        if not abs(self.correlation) < 1:
            raise ValueError(
                f"|correlation| must be below 1, got {self.correlation}"
            )


@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """Eigenvalue density on the spectral interval [0, pi].

    The evaluator is built from numpy ufuncs, so it takes a float or an
    array of spectral parameters.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        return self.evaluate(x)


def _symmetric_toeplitz(scale: float, first_row: np.ndarray) -> np.ndarray:
    """Read-only n x n view ``scale * first_row[|i - j|]`` over 2n - 1 stored values.

    The scaled row is mirrored once and every matrix row is a window of
    it, so no n x n array is built.  Writing into the result raises
    ``ValueError``; ``.copy()`` gives a writeable array.
    """
    n = len(first_row)
    scaled = scale * first_row
    mirrored = np.concatenate([scaled[:0:-1], scaled])
    return sliding_window_view(mirrored, n)[::-1]


def markov_matrix(noise: MarkovNoise, n: int) -> np.ndarray:
    """n x n AR(1) covariance: entries variance * correlation**|i-j|.

    Symmetric Toeplitz and positive definite for |correlation| < 1.  The
    p quadrature's block is ``markov_matrix(MarkovNoise(N, -phi), n)``.
    The result is a read-only view over 2n - 1 values; ``.copy()`` gives
    a writeable array.  ``n`` is at most 8192, the dense cap of one memory
    budget: every caller solves the matrix densely, at ~4.1 B per n^2.
    """
    _check_count(n, 1, "n", _MAX_DENSE)
    return _symmetric_toeplitz(noise.variance, noise.correlation ** np.arange(n))


def circulant_embedding(noise: MarkovNoise, n: int) -> np.ndarray:
    """Circulant surrogate of :func:`markov_matrix` with the same leading diagonals.

    Entries depend only on the cyclic distance min(|i-j|, n - |i-j|), at
    most n // 2, so every row is a cyclic shift of the first and the
    matrix is diagonalized exactly by :func:`fourier_diagonalizer`.
    The result is a read-only view over 2n - 1 values; ``.copy()`` gives
    a writeable array.  ``n`` is at most 10**6, the point cap of one memory
    budget: the spectrum of its first row takes ~44 B per n.
    """
    _check_count(n, 2, "n", _MAX_POINTS)
    lags = np.arange(n)
    powers = noise.correlation ** np.arange(n // 2 + 1)
    return _symmetric_toeplitz(noise.variance, powers[np.minimum(lags, n - lags)])


def fourier_diagonalizer(n: int) -> np.ndarray:
    """Real orthogonal basis Q diagonalizing every n x n symmetric circulant.

    The rows of Q^T are the constant row 1/sqrt(n), cosine rows
    sqrt(2/n) cos(2 pi k j / n) at index k, matching sine rows at index
    n - k, and for even n the alternating row (1, -1, ..., -1)/sqrt(n)
    at index n/2.
    """
    _check_count(n, 1)
    j = np.arange(n)
    k = np.arange(1, (n + 1) // 2)
    # Reduced mod n, every angle lies in [0, 2 pi), where cos and sin keep full precision.
    angle = 2.0 * math.pi * (np.outer(k, j) % n) / n
    qt = np.zeros((n, n))
    qt[0] = 1.0 / math.sqrt(n)
    amp = math.sqrt(2.0 / n)
    qt[k] = amp * np.cos(angle)
    qt[n - k] = amp * np.sin(angle)
    if n % 2 == 0:
        qt[n // 2] = (-1.0) ** j / math.sqrt(n)
    return qt.T


def asymptotic_markov_spectrum(noise: MarkovNoise, x):
    """Limiting eigenvalue of the AR(1) covariance at spectral parameter x in [0, pi].

    :func:`markov_symbol` evaluated at ``x``, a float or an array, after
    checking that every entry lies in the spectral interval.  Raises
    ``ValueError`` if a value overflows the largest double.
    """
    xs = np.asarray(x, dtype=float)
    outside = ~((xs >= 0.0) & (xs <= math.pi))
    if outside.any():
        raise ValueError(f"spectral parameter must lie in [0, pi], got {xs[outside][0]}")
    with np.errstate(over="ignore", divide="ignore"):
        values = markov_symbol(noise)(x)
    if not np.isfinite(values).all():
        raise ValueError("spectrum value overflows the largest double")
    return values


def _ar1_gap(r: float, x):
    """|1 - r e^{ix}|^2 as a sum of non-negative terms, so that it does not cancel near its minimum."""
    a = abs(r)
    h = (np.sin if r >= 0 else np.cos)(0.5 * x)  # 4 |r| h^2 = 2 |r| (1 -+ cos x)
    return (1.0 - a) * (1.0 - a) + 4.0 * a * h * h


def markov_symbol(noise: MarkovNoise) -> SpectralFunction:
    """Limiting AR(1) spectrum on [0, pi] as a callable.

    variance * (1 - c^2) / |1 - c e^{ix}|^2 with c = correlation, by :func:`_ar1_gap`,
    so the symbol of ``MarkovNoise(N, -phi)`` is this one at pi - x.  Here and in
    :func:`tridiagonal_inverse` and :func:`inverse_symbol`, 1 - c^2 is formed as
    (1 - c)(1 + c), which does not cancel near |c| = 1.
    """
    c = noise.correlation
    scale = noise.variance * ((1.0 - c) * (1.0 + c))
    return SpectralFunction(lambda x: scale / _ar1_gap(c, x))


def tridiagonal_inverse(noise: MarkovNoise, n: int) -> np.ndarray:
    """Tridiagonal inverse of the AR(1) covariance in the large-n limit.

    Diagonal (1 + c^2) / (variance (1 - c^2)), off-diagonals
    -c / (variance (1 - c^2)).  Multiplying by the finite covariance
    reproduces identity rows exactly away from the two boundary rows.
    The result is a read-only view over 2n - 1 values; ``.copy()`` gives
    a writeable array.
    """
    _check_count(n, 2)
    c = noise.correlation
    prefactor = 1.0 / (noise.variance * ((1.0 - c) * (1.0 + c)))
    first_row = np.zeros(n)
    first_row[:2] = prefactor * (1.0 + c * c), -prefactor * c
    return _symmetric_toeplitz(1.0, first_row)


def inverse_symbol(noise: MarkovNoise) -> SpectralFunction:
    """Symbol of :func:`tridiagonal_inverse`: 1 / :func:`markov_symbol`, also by :func:`_ar1_gap`."""
    c = noise.correlation
    prefactor = 1.0 / (noise.variance * ((1.0 - c) * (1.0 + c)))
    return SpectralFunction(lambda x: prefactor * _ar1_gap(c, x))


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a b - b a."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need two square matrices of equal shape, got {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("matrix has a non-finite entry")
    return float(np.linalg.norm(a @ b - b @ a))


def finite_spectrum(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric centrosymmetric matrix, descending.

    Every symmetric Toeplitz or symmetric circulant matrix is also
    centrosymmetric (J m J = m, with J the exchange matrix), so in the
    basis (e_i +- e_{n-1-i}) / sqrt(2) it splits into the two half-size
    symmetric blocks A + B J and A - B J, where A and B are the top-left
    and top-right h x h corners, h = n // 2 (Cantoni & Butler, *Linear
    Algebra Appl.* 13, 1976).  For odd n the middle index belongs to the
    A + B J block, bordered by sqrt(2) times the middle row and column.
    Two half-size eigensolves cost a quarter of one full one.  The
    blocks are built and solved one at a time, so beside ``m`` at most
    one half-size block and the solver's copy of it are alive.  Raises
    ``ValueError`` unless ``m`` is square, finite and centrosymmetric
    within ``1e-12 * max(1, max|m|)`` and both blocks are symmetric
    within ``1e-12 * max(1, max|block|)``, which makes ``m`` symmetric.
    Entries above half the largest double overflow the blocks, and
    eigenvalues can overflow even when the entries do not; both raise
    ``ValueError`` as well.
    """
    m = _square(m)
    n = len(m)
    h = n // 2
    _check_mirror(m, m[h:], m[: n - h][::-1, ::-1], "centrosymmetric")
    flipped = m[:h, n - h:][:, ::-1]
    with np.errstate(over="ignore"):
        plus = m[: n - h, : n - h].copy()
        plus[:h, :h] += flipped
        plus[h:, :h] *= math.sqrt(2.0)
        plus[:h, h:] *= math.sqrt(2.0)
    upper = symmetric_eigen(plus)
    del plus
    with np.errstate(over="ignore"):
        minus = m[:h, :h] - flipped
    values = np.concatenate([upper, symmetric_eigen(minus)])
    if not np.isfinite(values).all():
        raise ValueError("eigenvalue overflows the largest double")
    return np.sort(values)[::-1].copy()
