"""Covariance-matrix primitives for Gaussian bosonic states.

Conventions used throughout the package: the vacuum carries variance 1/2
per quadrature, entropies are reported in bits, and covariance matrices
never mix the q and p quadratures, i.e. they are stored as the two
symmetric blocks of a block-diagonal 2n x 2n form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VACUUM_VARIANCE = 0.5

# Accepted asymmetry of covariance blocks and accepted round-off below
# the physical floor nu >= 1/2.
SYMMETRY_TOL = 1e-10
PHYSICALITY_TOL = 1e-9

_LN2 = math.log(2.0)
_TINY = 2.0**-1000

__all__ = [
    "VACUUM_VARIANCE",
    "CovarianceBlocks",
    "UnphysicalStateError",
    "thermal_entropy",
    "symplectic_form",
    "symplectic_eigenvalues",
    "entropy",
    "mean_photon_number",
    "validate_pure_input",
]


class UnphysicalStateError(ValueError):
    """A covariance matrix violates the uncertainty bound nu >= 1/2."""


def thermal_entropy(mean_photons):
    """Entropy, in bits, of a single-mode thermal state with the given mean photon number.

    g(x) = (x+1) log2(x+1) - x log2(x), with g(0) = 0.  Strictly
    increasing and concave on [0, inf).  Evaluated as
    (log1p(x) + x log1p(1/x)) / ln 2, which is free of the cancellation
    of the two large terms for large x.  Below 2**-1000, where 1/x
    could overflow, the defining form is used; its two terms are both
    non-negative there.  Takes a float, returning a float, or an array,
    returning the array of entrywise values.
    """
    x = np.asarray(mean_photons, dtype=float)
    small = x < _TINY
    if small.any():
        if (x < 0.0).any():
            raise ValueError(f"mean photon number must be non-negative, got {x.min()}")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tiny = ((1.0 + x) * np.log1p(x) - x * np.log(x)) / _LN2
            stable = (np.log1p(x) + x * np.log1p(1.0 / x)) / _LN2
        g = np.where(x == 0.0, 0.0, np.where(small, tiny, stable))
    else:
        g = (np.log1p(x) + x * np.log1p(1.0 / x)) / _LN2
    return float(g) if g.ndim == 0 else g


@dataclass(frozen=True, eq=False)
class CovarianceBlocks:
    """Symmetric q and p blocks of an n-mode covariance matrix.

    The blocks are copied, validated (square, equal size, symmetric
    within ``SYMMETRY_TOL``) and frozen.  Physicality is *not* enforced
    here: modulation covariances may legitimately be zero or singular.
    """

    q_block: np.ndarray
    p_block: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.q_block, dtype=float)
        p = np.array(self.p_block, dtype=float)
        for name, block in (("q_block", q), ("p_block", p)):
            if block.ndim != 2 or block.shape[0] != block.shape[1]:
                raise ValueError(f"{name} must be a square matrix, got shape {block.shape}")
            scale = max(1.0, float(np.max(np.abs(block)))) if block.size else 1.0
            if float(np.max(np.abs(block - block.T))) > SYMMETRY_TOL * scale:
                raise ValueError(f"{name} is not symmetric within tolerance")
        if q.shape != p.shape:
            raise ValueError(f"block shapes differ: {q.shape} vs {p.shape}")
        if q.shape[0] < 1:
            raise ValueError("need at least one mode")
        q.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "q_block", q)
        object.__setattr__(self, "p_block", p)

    @property
    def n_modes(self) -> int:
        return self.q_block.shape[0]

    def trace(self) -> float:
        """Trace of the full 2n x 2n form (sum over both blocks)."""
        return float(np.trace(self.q_block) + np.trace(self.p_block))

    @classmethod
    def vacuum(cls, n_modes: int) -> "CovarianceBlocks":
        eye = np.eye(n_modes) * VACUUM_VARIANCE
        return cls(eye, eye)

    @classmethod
    def zero(cls, n_modes: int) -> "CovarianceBlocks":
        z = np.zeros((n_modes, n_modes))
        return cls(z, z)

    @classmethod
    def diagonal(cls, q_diag, p_diag) -> "CovarianceBlocks":
        return cls(np.diag(np.atleast_1d(np.asarray(q_diag, dtype=float))),
                   np.diag(np.atleast_1d(np.asarray(p_diag, dtype=float))))


def symplectic_form(n_modes: int) -> np.ndarray:
    """Commutation matrix [[0, I], [-I, 0]] for n modes; squares to -identity."""
    if n_modes < 1:
        raise ValueError("n_modes must be positive")
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


def symplectic_eigenvalues(cov: CovarianceBlocks, commute_tol: float = 1e-10) -> np.ndarray:
    """Symplectic spectrum of a block-diagonal covariance matrix, descending.

    When the two blocks commute (Frobenius norm of the commutator below
    ``commute_tol``) the values are the paired products sqrt(lq_k * lp_k)
    in the common eigenbasis, evaluated through the symmetric surrogate
    sqrt(A) B sqrt(A).  Otherwise they are the moduli of the eigenvalue
    pairs of J @ gamma.  The vacuum gives 1/2 on either path.
    """
    a = cov.q_block
    b = cov.p_block
    commutator = float(np.linalg.norm(a @ b - b @ a))
    if commutator <= commute_tol:
        wa, va = np.linalg.eigh(a)
        scale = max(1.0, float(np.max(np.abs(wa))))
        if wa[0] >= -1e-12 * scale:
            root = (va * np.sqrt(np.clip(wa, 0.0, None))) @ va.T
            prod = root @ b @ root
            w = np.linalg.eigvalsh(0.5 * (prod + prod.T))
            return np.sqrt(np.clip(w, 0.0, None))[::-1].copy()
    gamma = np.block(
        [[a, np.zeros_like(a)], [np.zeros_like(b), b]]
    )
    moduli = np.abs(np.linalg.eigvals(symplectic_form(cov.n_modes) @ gamma))
    # Eigenvalues come in +/- i nu pairs; keep one member of each.
    return np.sort(moduli)[::-1][::2].copy()


def entropy(cov: CovarianceBlocks) -> float:
    """Von Neumann entropy in bits: sum of g(nu_k - 1/2) over the symplectic spectrum.

    Raises :class:`UnphysicalStateError` when any symplectic eigenvalue
    falls below 1/2 beyond round-off.
    """
    nus = symplectic_eigenvalues(cov)
    floor = VACUUM_VARIANCE - PHYSICALITY_TOL
    if np.any(nus < floor):
        worst = float(np.min(nus))
        raise UnphysicalStateError(
            f"symplectic eigenvalue {worst:.12g} violates the physical floor 1/2"
        )
    return float(np.sum(thermal_entropy(np.maximum(nus - VACUUM_VARIANCE, 0.0))))


def mean_photon_number(gamma_in: CovarianceBlocks, gamma_mod: CovarianceBlocks) -> float:
    """Mean photon number per mode carried by an input state plus its modulation.

    (Tr(gamma_in) + Tr(gamma_mod)) / (2n) - 1/2, traces over the full
    2n x 2n forms.  The vacuum with zero modulation gives exactly 0.
    """
    if gamma_in.n_modes != gamma_mod.n_modes:
        raise ValueError(
            f"mode count mismatch: {gamma_in.n_modes} vs {gamma_mod.n_modes}"
        )
    n = gamma_in.n_modes
    return (gamma_in.trace() + gamma_mod.trace()) / (2.0 * n) - VACUUM_VARIANCE


def validate_pure_input(gamma_in: CovarianceBlocks, tol: float = 1e-9) -> bool:
    """True when the input covariance describes a pure Gaussian state.

    Single mode: det(gamma_in) = 1/4 within ``tol``.  Multimode: every
    symplectic eigenvalue equals 1/2 within ``tol``.
    """
    if gamma_in.n_modes == 1:
        det = float(gamma_in.q_block[0, 0] * gamma_in.p_block[0, 0])
        return abs(det - 0.25) <= tol
    nus = symplectic_eigenvalues(gamma_in)
    return bool(np.all(np.abs(nus - VACUUM_VARIANCE) <= tol))
