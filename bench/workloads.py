"""Seeded command lists for the four benchmark workloads.

A seed draws the physical parameters (correlations ``phi``, noise
variances ``N``, photon numbers ``nbar``, single-mode variances) from
fixed ranges around the paper's values.  Counts and sizes (number of
commands, number of correlations per sweep, ``--n-max``, ``--steps``,
``--n``, ``--samples``, ``--resolution``) never depend on the seed, so
the cost of a pass stays comparable across seeds.  Every range is
chosen so that the regime of each command (above or below its
water-filling threshold) is the same for every seed.  The check
recomputes every threshold; for the oracle, whose output has no status
column, the regime drawn here is also recorded in ``Command.note`` and
compared with the output.

The program receives only the generated command-line arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Why each workload exists, and which layers it must reach (checked on
# the traced run: every listed counter has to be nonzero).
WHY = {
    "rates": "fig4 finite-use rates R(n) up to n=600: dense n x n AR(1) matrices "
    "plus two eigh calls per point dominate; a fast R(n) route moves it",
    "capacity": "fig3 sweep (2100 points) plus one first-mode capacity: adaptive "
    "quadrature and scalar g calls, no eigensolves; closed forms move it",
    "oracle": "three brute-force grid searches: ~620k scalar g calls each through "
    "grid_maximize, no quadrature and no eigensolves",
    "spectrum": "full toeplitz and circulant spectra at n=1200 and a 200001-row "
    "asymptotic table: one large solve each and the CSV rendering layer",
}

EXPECTED_NONZERO = {
    "rates": [
        "solver.finite_n_rate.calls", "spectra.markov_matrix.calls",
        "numerics.symmetric_eigen.calls", "numerics.integrate.calls",
        "gaussian.thermal_entropy.calls",
    ],
    "capacity": [
        "solver.asymptotic_capacity.calls", "solver.squeezing_fraction.calls",
        "solver.first_mode_variance.calls", "numerics.integrate.calls",
        "numerics.integrate.evals", "spectra.symbol_calls",
        "gaussian.thermal_entropy.calls",
    ],
    "oracle": [
        "solver.brute_force_mono_oracle.calls", "numerics.grid_maximize.calls",
        "numerics.grid_maximize.evals", "gaussian.thermal_entropy.calls",
    ],
    "spectrum": [
        "spectra.markov_matrix.calls", "spectra.circulant_embedding.calls",
        "spectra.finite_spectrum.calls", "numerics.symmetric_eigen.calls",
        "spectra.asymptotic_markov_spectrum.calls", "cli.rows",
    ],
}

RATES_N_MAX = 600
FIG3_STEPS = 300
FIG3_N_RANGE = (1.0, 100.0)
ORACLE_RESOLUTION = 321
SPECTRUM_N = 1200
SPECTRUM_SAMPLES = 200001


@dataclass(frozen=True)
class Command:
    """One gmcap invocation, its expected exit code and its regime note."""

    args: tuple[str, ...]
    expect_rc: int = 0
    note: str = ""


def _num(value: float) -> str:
    return format(value, ".6g")


def _draw(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


def _rates(rng: random.Random) -> list[Command]:
    # phi=0 is the memoryless case; the third correlation stays above its
    # threshold (<= 7.93 for phi <= 0.70, N <= 1.2) and the fourth below it
    # (>= 15.9 for phi >= 0.86, N >= 0.8) for every nbar in [8, 10].
    phis = [0.0, _draw(rng, 0.35, 0.45), _draw(rng, 0.50, 0.60),
            _draw(rng, 0.66, 0.70), _draw(rng, 0.86, 0.94)]
    variance = _draw(rng, 0.8, 1.2)
    nbar = _draw(rng, 8.0, 10.0)
    args = ["fig4"]
    for phi in phis:
        args += ["--phi", _num(phi)]
    args += ["--N", _num(variance), "--nbar", _num(nbar), "--n-max", str(RATES_N_MAX)]
    return [Command(tuple(args))]


def _capacity(rng: random.Random) -> list[Command]:
    # Narrow windows: the adaptive quadrature's work changes in steps with
    # phi, so even these move a pass's integrand evaluations by up to 7%.
    windows = [(0.095, 0.105), (0.295, 0.305), (0.495, 0.505), (0.695, 0.705),
               (0.895, 0.905), (0.988, 0.99), (0.9985, 0.999)]
    args = ["fig3"]
    for lo, hi in windows:
        args += ["--phi", _num(_draw(rng, lo, hi))]
    args += ["--n-min", _num(FIG3_N_RANGE[0]), "--n-max", _num(FIG3_N_RANGE[1]),
             "--steps", str(FIG3_STEPS)]
    # Threshold at phi <= 0.999, N <= 1 is at most 2997, below nbar >= 3000.
    single = ["capacity", "--phi", _num(_draw(rng, 0.998, 0.999)),
              "--N", _num(_draw(rng, 0.9, 1.0)), "--nbar", _num(_draw(rng, 3000, 4000, 1)),
              "--first-mode"]
    return [Command(tuple(args)), Command(tuple(single))]


def _oracle(rng: random.Random) -> list[Command]:
    def call(gq: float, gp: float, nbar: float, note: str) -> Command:
        return Command(
            ("oracle", "--gq", _num(gq), "--gp", _num(gp), "--nbar", _num(nbar),
             "--resolution", str(ORACLE_RESOLUTION)),
            note=note,
        )

    # Thresholds: at most 1.80 for the first range (nbar >= 2), at least
    # 0.74 for the second (nbar <= 0.5), at most 11.6 for the third
    # (nbar >= 15).
    return [
        call(_draw(rng, 1.5, 2.5), _draw(rng, 0.4, 0.6), _draw(rng, 2.0, 3.0), "above"),
        call(_draw(rng, 1.5, 2.5), _draw(rng, 0.4, 0.6), _draw(rng, 0.05, 0.5), "below"),
        call(_draw(rng, 8.0, 12.0), _draw(rng, 0.08, 0.12), _draw(rng, 15.0, 25.0), "above"),
    ]


def _spectrum(rng: random.Random) -> list[Command]:
    def params() -> list[str]:
        return ["--phi", _num(_draw(rng, 0.6, 0.8)), "--N", _num(_draw(rng, 0.5, 2.0))]

    return [
        Command(("spectrum", "--kind", "toeplitz", *params(), "--n", str(SPECTRUM_N),
                 "--sign", "-1")),
        Command(("spectrum", "--kind", "circulant", *params(), "--n", str(SPECTRUM_N))),
        Command(("spectrum", "--kind", "asymptotic", *params(),
                 "--samples", str(SPECTRUM_SAMPLES))),
    ]


_GENERATORS = {
    "rates": _rates,
    "capacity": _capacity,
    "oracle": _oracle,
    "spectrum": _spectrum,
}

NAMES = tuple(_GENERATORS)


def commands(workload: str, seed: int) -> list[Command]:
    """The command list of ``workload`` for ``seed``; same seed, same list."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
