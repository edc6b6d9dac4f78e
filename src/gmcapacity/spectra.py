"""AR(1) (Gauss-Markov) noise matrices and their spectral machinery.

Builds the symmetric Toeplitz covariance of a stationary AR(1) process,
its circulant surrogate, the real Fourier basis that diagonalizes every
symmetric circulant, the limiting eigenvalue symbol on the spectral
interval [0, pi], and the tridiagonal matrix that inverts the AR(1)
covariance in the large-size limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import symmetric_eigen

__all__ = [
    "MarkovNoise",
    "ToeplitzSpec",
    "SpectralFunction",
    "markov_matrix",
    "circulant_embedding",
    "fourier_diagonalizer",
    "asymptotic_markov_spectrum",
    "markov_symbol",
    "tridiagonal_inverse",
    "inverse_symbol",
    "commutator_norm",
    "symplectic_block_check",
    "finite_spectrum",
]


@dataclass(frozen=True)
class MarkovNoise:
    """Stationary AR(1) noise: variance of each sample and nearest-neighbor correlation.

    Covariances decay as variance * correlation**distance; |correlation|
    must stay below 1 for the process to be stationary.
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


@dataclass(frozen=True)
class ToeplitzSpec:
    """Symmetric Toeplitz matrix given by its diagonal values t_0, t_1, ..., t_{n-1}."""

    diagonals: tuple[float, ...]

    def __post_init__(self) -> None:
        diag = tuple(float(t) for t in self.diagonals)
        if not diag:
            raise ValueError("need at least one diagonal value")
        object.__setattr__(self, "diagonals", diag)

    @property
    def n(self) -> int:
        return len(self.diagonals)

    def matrix(self) -> np.ndarray:
        idx = np.arange(self.n)
        return np.asarray(self.diagonals)[np.abs(idx[:, None] - idx[None, :])]

    def absolute_sum(self) -> float:
        """Sum of |t_k|; finite values put the matrix in the Wiener class."""
        return float(sum(abs(t) for t in self.diagonals))

    @classmethod
    def from_markov(cls, noise: MarkovNoise, sign: int, n: int) -> "ToeplitzSpec":
        _check_sign(sign)
        if n < 1:
            raise ValueError("n must be positive")
        rho = sign * noise.correlation
        return cls(tuple(noise.variance * rho**k for k in range(n)))


@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """Eigenvalue density on the spectral interval [0, pi].

    The evaluator is built from numpy ufuncs, so it takes a float or an
    array of spectral parameters.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        return self.evaluate(x)


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")


def markov_matrix(noise: MarkovNoise, sign: int, n: int) -> np.ndarray:
    """n x n AR(1) covariance: entries variance * (sign*correlation)**|i-j|.

    Symmetric Toeplitz and positive definite for |correlation| < 1.
    ``sign=-1`` flips the correlation sign, as carried by the second
    quadrature of the noise model.
    """
    _check_sign(sign)
    if n < 1:
        raise ValueError("n must be positive")
    idx = np.arange(n)
    powers = (sign * noise.correlation) ** idx
    return noise.variance * powers[np.abs(idx[:, None] - idx[None, :])]


def circulant_embedding(noise: MarkovNoise, sign: int, n: int) -> np.ndarray:
    """Circulant surrogate of :func:`markov_matrix` with the same leading diagonals.

    Entries depend only on the cyclic distance: the decay wraps around at
    kappa = (n-1)/2 (odd n) or n/2 (even n), so every row is a cyclic
    shift of the first and the matrix is diagonalized exactly by
    :func:`fourier_diagonalizer`.
    """
    _check_sign(sign)
    if n < 2:
        raise ValueError("n must be at least 2")
    kappa = (n - 1) // 2 if n % 2 else n // 2
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :])
    exponent = np.where(dist <= kappa, dist, n - dist)
    return noise.variance * (sign * noise.correlation) ** exponent


def fourier_diagonalizer(n: int) -> np.ndarray:
    """Real orthogonal basis Q diagonalizing every n x n symmetric circulant.

    The rows of Q^T are the constant row 1/sqrt(n), cosine rows
    sqrt(2/n) cos(2 pi k j / n) at index k, matching sine rows at index
    n - k, and for even n the alternating row (1, -1, ..., -1)/sqrt(n)
    at index n/2.
    """
    if n < 1:
        raise ValueError("n must be positive")
    j = np.arange(n)
    qt = np.zeros((n, n))
    qt[0] = 1.0 / math.sqrt(n)
    amp = math.sqrt(2.0 / n)
    for k in range(1, (n + 1) // 2):
        angle = 2.0 * math.pi * k * j / n
        qt[k] = amp * np.cos(angle)
        qt[n - k] = amp * np.sin(angle)
    if n % 2 == 0:
        qt[n // 2] = (-1.0) ** j / math.sqrt(n)
    return qt.T


def asymptotic_markov_spectrum(noise: MarkovNoise, x: float, sign: int = 1) -> float:
    """Limiting eigenvalue of the AR(1) covariance at spectral parameter x in [0, pi].

    variance * (1 - c^2) / (1 + c^2 - 2 c cos x) with c = sign *
    correlation.  The sign=-1 branch equals the sign=+1 branch at pi - x.
    """
    _check_sign(sign)
    if not 0.0 <= x <= math.pi:
        raise ValueError(f"spectral parameter must lie in [0, pi], got {x}")
    c = sign * noise.correlation
    return noise.variance * (1.0 - c * c) / (1.0 + c * c - 2.0 * c * math.cos(x))


def markov_symbol(noise: MarkovNoise, sign: int = 1) -> SpectralFunction:
    """The AR(1) spectrum of :func:`asymptotic_markov_spectrum` as a callable."""
    _check_sign(sign)
    variance = noise.variance
    c = sign * noise.correlation
    one_plus = 1.0 + c * c
    scale = variance * (1.0 - c * c)

    def evaluate(x):
        return scale / (one_plus - 2.0 * c * np.cos(x))

    return SpectralFunction(evaluate)


def tridiagonal_inverse(noise: MarkovNoise, n: int) -> np.ndarray:
    """Tridiagonal inverse of the AR(1) covariance in the large-n limit.

    Diagonal (1 + c^2) / (variance (1 - c^2)), off-diagonals
    -c / (variance (1 - c^2)).  Multiplying by the finite covariance
    reproduces identity rows exactly away from the two boundary rows.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    c = noise.correlation
    prefactor = 1.0 / (noise.variance * (1.0 - c * c))
    v = np.zeros((n, n))
    np.fill_diagonal(v, prefactor * (1.0 + c * c))
    off = -prefactor * c
    rng = np.arange(n - 1)
    v[rng, rng + 1] = off
    v[rng + 1, rng] = off
    return v


def inverse_symbol(noise: MarkovNoise) -> SpectralFunction:
    """Spectral symbol of :func:`tridiagonal_inverse`: the reciprocal AR(1) symbol."""
    c = noise.correlation
    prefactor = 1.0 / (noise.variance * (1.0 - c * c))
    one_plus = 1.0 + c * c

    def evaluate(x):
        return prefactor * (one_plus - 2.0 * c * np.cos(x))

    return SpectralFunction(evaluate)


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a b - b a."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need two square matrices of equal shape, got {a.shape} and {b.shape}")
    return float(np.linalg.norm(a @ b - b @ a))


def symplectic_block_check(
    u_q: np.ndarray, u_p: np.ndarray, tol: float = 1e-10
) -> bool:
    """True when the pair (u_q, u_p) acts as a passive symplectic transformation.

    Both inputs must be orthogonal within ``tol`` (otherwise a
    ``ValueError`` flags them); the check itself is u_q^T u_p = identity
    within ``tol``, i.e. both quadrature blocks are rotated by the same
    orthogonal matrix.
    """
    u_q = np.asarray(u_q, dtype=float)
    u_p = np.asarray(u_p, dtype=float)
    if u_q.shape != u_p.shape or u_q.ndim != 2 or u_q.shape[0] != u_q.shape[1]:
        raise ValueError("need two square matrices of equal shape")
    eye = np.eye(u_q.shape[0])
    for name, u in (("u_q", u_q), ("u_p", u_p)):
        if float(np.max(np.abs(u.T @ u - eye))) > tol:
            raise ValueError(f"{name} is not orthogonal within tolerance {tol:g}")
    return float(np.max(np.abs(u_q.T @ u_p - eye))) <= tol


def finite_spectrum(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending."""
    return symmetric_eigen(m)
