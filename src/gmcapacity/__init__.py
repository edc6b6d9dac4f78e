"""Capacity of bosonic Gaussian additive-noise channels with AR(1) correlated noise.

The thermal entropy function g, Toeplitz/circulant spectral machinery
for the noise model, closed-form water-filling solvers with an
independent brute-force oracle, and a CSV-emitting CLI.
The package exports the names of the library quick start; everything
else lives in the ``gaussian``, ``numerics``, ``spectra`` and ``solver``
submodules.
"""

from . import gaussian, numerics, solver, spectra  # noqa: F401
from .gaussian import thermal_entropy
from .spectra import MarkovNoise
from .solver import (
    BelowThresholdError,
    MonoNoise,
    asymptotic_capacity,
    finite_n_rate,
    mono_solve,
    multimode_solve,
)

__version__ = "0.1.0"

__all__ = [
    "MarkovNoise",
    "MonoNoise",
    "BelowThresholdError",
    "multimode_solve",
    "asymptotic_capacity",
    "finite_n_rate",
    "mono_solve",
    "thermal_entropy",
]
