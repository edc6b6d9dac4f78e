"""Command-line front end: capacities, thresholds, spectra and figure-data sweeps.

Every command emits deterministic CSV: ``#``-prefixed comment lines echo
the full parameter set, then a header row and data rows with values
printed at 12 significant digits, locale-independent.  Output goes to
stdout or to the file named by ``--out``, written in blocks of at most
``_CHUNK_ROWS`` lines and about ``_CHUNK_CHARS`` characters.  A command
computes every number before it writes a line, so a failing command
writes nothing to stdout and creates no ``--out`` file.  A ``--config``
key that names no option of any command is a usage error.

Exit codes: 0 success, 2 usage error, 3 below the water-filling
threshold, 4 numerical failure (a quadrature missed its fixed 1e-10
bound).  No option is read from the environment.
"""

from __future__ import annotations

import contextlib
import functools
import math

import click
import numpy as np

from .gaussian import VACUUM_VARIANCE
from .numerics import IntegrationError
from .spectra import (
    MarkovNoise,
    asymptotic_markov_spectrum,
    circulant_embedding,
    finite_spectrum,
    markov_matrix,
)
from .solver import (
    BelowThresholdError,
    MonoNoise,
    _check_energy,
    _reaches,
    asymptotic_capacity,
    brute_force_mono_oracle,
    classical_limit_capacity,
    finite_n_rate,
    first_mode_variance,
    mono_solve,
    mono_threshold,
    multimode_threshold,
    squeezing_fraction,
)

EXIT_OK = 0
EXIT_BELOW_THRESHOLD = 3
EXIT_NUMERICAL = 4


def _fmt(value) -> str:
    """Fixed 12-significant-digit decimal rendering; empty for missing fields."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def _csv(command: str, params, columns, rows):
    """CSV lines: comment lines for the parameters, the header, then ``rows``, each one string."""
    yield f"# command = {command}"
    for key, value in params:
        yield f"# {key} = {value}"
    yield ",".join(columns)
    yield from rows


# _write sends, and _array_rows converts from numpy to Python numbers,
# this many lines at a time, so that neither holds the whole table; a
# write also ends once its lines pass _CHUNK_CHARS characters, so that
# long lines (a --dump-matrix row) do not add up to one large block.
_CHUNK_ROWS = 4096
_CHUNK_CHARS = 1 << 20


def _array_rows(template: str, *columns: np.ndarray):
    """Yield ``template.format(...)`` for each row of equal-length array columns."""
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        chunks = [column[start:start + _CHUNK_ROWS].tolist() for column in columns]
        yield from map(template.format, *chunks)


def _blocks(lines):
    """Join ``lines`` into newline-ended texts of ``_CHUNK_ROWS`` lines, cut short past ``_CHUNK_CHARS`` characters."""
    block, size = [], 0
    for line in lines:
        block.append(line)
        size += len(line)
        if len(block) == _CHUNK_ROWS or size >= _CHUNK_CHARS:
            # The empty last item ends the text with a newline; the lines
            # are dropped before the text is written.
            text, block, size = "\n".join([*block, ""]), [], 0
            yield text
    if block:
        yield "\n".join([*block, ""])


def _write(lines, out_path: str | None) -> None:
    """Write ``lines`` to ``out_path`` or stdout, one text of :func:`_blocks` per write."""
    target = open(out_path, "w", encoding="ascii", newline="") if out_path else contextlib.nullcontext()
    with target as handle:
        for text in _blocks(lines):
            click.echo(text, file=handle, nl=False)


def _load_config(path: str) -> dict[str, tuple[int, str]]:
    values: dict[str, tuple[int, str]] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise click.UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = (lineno, value.strip())
    return values


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Optional key=value file of option defaults, keyed by flag names without the dashes; "
    "a repeatable option takes space-separated values (explicit flags win).",
)
@click.pass_context
def main(ctx: click.Context, config_path: str | None) -> None:
    """Capacities of bosonic additive-noise channels with AR(1) correlated noise."""
    if config_path is None:
        return
    raw = _load_config(config_path)
    known = {
        opt.lstrip("-")
        for command in main.commands.values()
        for param in command.params
        for opt in param.opts
    }
    for key, (lineno, _) in raw.items():
        if key not in known:
            raise click.UsageError(f"{config_path}:{lineno}: no command has an option {key!r}")
    # Only the command being run converts its values: a list for a
    # repeatable option elsewhere may be a bad value for a scalar one here.
    defaults = {}
    for param in main.commands[ctx.invoked_subcommand].params:
        for key in (opt.lstrip("-") for opt in param.opts):
            if key in raw:
                value = raw[key][1]
                defaults[param.name] = param.type_cast_value(
                    ctx, value.split() if param.multiple else value
                )
    ctx.default_map = {ctx.invoked_subcommand: defaults}


def _command(body):
    """Register ``body``, which returns its output lines and exit code, as a command with ``--out``.

    A ``ValueError``, and an ``OverflowError`` or ``MemoryError`` from a
    size or count too large to convert or allocate, is a usage error
    (exit 2); an :class:`IntegrationError` exits with ``EXIT_NUMERICAL``
    and no output.
    """

    @functools.wraps(body)
    def run(out_path, **kwargs):
        try:
            lines, code = body(**kwargs)
        except (ValueError, OverflowError, MemoryError) as err:
            raise click.UsageError(str(err))
        except IntegrationError as err:
            click.echo(f"numerical failure: {err}", err=True)
            code = EXIT_NUMERICAL
        else:
            _write(lines, out_path)
        click.get_current_context().exit(code)

    command = main.command()(run)
    command.params.append(click.Option(["--out", "out_path"], type=click.Path(dir_okay=False),
                                       help="Write the CSV to this file instead of stdout."))
    return command


# The MonoSolution fields of a single-mode row, which are also its column names.
_MONO_FIELDS = ["input_q", "input_p", "modulation_q", "modulation_p", "water_level", "capacity_bits"]


def _mono_csv(command, params, noise, nbar, extra, sol):
    """Single-mode CSV: gq, gp, nbar, then ``params``; one row of ``sol`` (None: below threshold)."""
    params = [("gq", _fmt(noise.var_q)), ("gp", _fmt(noise.var_p)), ("nbar", _fmt(nbar)), *params]
    columns = ["gamma_q", "gamma_p", "nbar", "threshold", *extra, *_MONO_FIELDS, "status"]
    row = [_fmt(noise.var_q), _fmt(noise.var_p), _fmt(nbar), _fmt(mono_threshold(noise))]
    if sol is None:
        row += [""] * len(_MONO_FIELDS) + ["below_threshold"]
    else:
        row += [_fmt(getattr(sol, name)) for name in [*extra, *_MONO_FIELDS]] + ["ok"]
    return _csv(command, params, columns, [",".join(row)])


_MULTIMODE_FIELDS = ["phi", "N", "nbar", "threshold", "eta", "mu_global", "capacity_bits", "status"]


def _multimode_rows(noises, energies):
    """One ``_MULTIMODE_FIELDS`` row per noise and energy, checked point by point in order.

    The capacities of all points above threshold come from one batched
    :func:`asymptotic_capacity` call.
    """
    rows, above = [], []
    for noise, nbar in zip(noises, energies):
        threshold = multimode_threshold(noise)
        _check_energy(nbar)
        row = [_fmt(noise.correlation), _fmt(noise.variance), _fmt(nbar), _fmt(threshold)]
        if _reaches(nbar, threshold):
            mu_global = _fmt(nbar + noise.variance + VACUUM_VARIANCE)
            row += [_fmt(squeezing_fraction(noise, nbar)), mu_global, "", "ok"]
            above.append(len(rows))
        else:
            row += ["", "", "", "below_threshold"]
        rows.append(row)
    capacities = asymptotic_capacity([noises[i] for i in above], [energies[i] for i in above])
    for i, cap in zip(above, capacities.tolist()):
        rows[i][6] = _fmt(cap)
    return rows


@_command
@click.option("--gq", type=float, required=True, help="Noise variance in the q quadrature.")
@click.option("--gp", type=float, required=True, help="Noise variance in the p quadrature.")
@click.option("--nbar", type=float, required=True, help="Mean photon number per use.")
def mono(gq, gp, nbar):
    """Single-mode channel: optimal variances, water level and capacity."""
    noise = MonoNoise(gq, gp)
    try:
        sol, code = mono_solve(noise, nbar), EXIT_OK
    except BelowThresholdError:
        sol, code = None, EXIT_BELOW_THRESHOLD
    return _mono_csv("mono", [], noise, nbar, [], sol), code


@_command
@click.option("--phi", type=float, required=True, help="Nearest-neighbor correlation.")
@click.option("--N", "variance", type=float, required=True, help="Noise variance per quadrature.")
@click.option("--nbar", type=float, required=True, help="Mean photon number per use.")
@click.option("--allow-below", is_flag=True, help="Below threshold, report the threshold and exit 0.")
@click.option(
    "--first-mode",
    is_flag=True,
    help="Also print the back-rotated first-mode input variance, in both integrand variants.",
)
def capacity(phi, variance, nbar, allow_below, first_mode):
    """Infinite-use capacity of the correlated-noise channel."""
    params = [
        ("phi", _fmt(phi)), ("N", _fmt(variance)), ("nbar", _fmt(nbar)),
        ("allow_below", _fmt(allow_below)), ("first_mode", _fmt(first_mode)),
    ]
    [row] = _multimode_rows([MarkovNoise(variance, phi)], [nbar])
    columns = list(_MULTIMODE_FIELDS)
    if first_mode:
        columns[-1:-1] = ["first_mode_variance", "first_mode_variance_alt"]
        row[-1:-1] = [_fmt(first_mode_variance(phi, alt_form=alt)) for alt in (False, True)]
    code = EXIT_OK if row[-1] == "ok" or allow_below else EXIT_BELOW_THRESHOLD
    return _csv("capacity", params, columns, [",".join(row)]), code


def _geometric_floats(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    ratio = hi / lo
    if math.isinf(ratio):
        # Only the ratio overflows: step in log space, with exact end points.
        log_lo, log_hi = math.log(lo), math.log(hi)
        inner = (math.exp(log_lo + (log_hi - log_lo) * i / (steps - 1)) for i in range(1, steps - 1))
        return [lo, *inner, hi]
    return [lo * ratio ** (i / (steps - 1)) for i in range(steps)]


@_command
@click.option("--phi", "phis", type=float, multiple=True, default=(0.4, 0.7, 0.9),
              show_default=True, help="Correlations to sweep (repeatable).")
@click.option("--n-min", type=float, default=1.0, show_default=True, help="Smallest noise variance N.")
@click.option("--n-max", type=float, default=100.0, show_default=True, help="Largest noise variance N.")
@click.option("--steps", type=int, default=15, show_default=True, help="Geometric steps over [n-min, n-max].")
def fig3(phis, n_min, n_max, steps):
    """Capacity, squeezing fraction and classical limit along the fixed-SNR protocol.

    For each correlation the signal-to-noise ratio nbar/N is pinned to the
    threshold value at N = 1, which keeps every N >= 1 above threshold.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not 0 < n_min <= n_max:
        raise ValueError("need 0 < n-min <= n-max")
    if math.isinf(n_max):
        raise ValueError(f"n-max must be finite, got {n_max}")
    params = [
        ("phi", " ".join(_fmt(p) for p in phis)),
        ("n_min", _fmt(n_min)), ("n_max", _fmt(n_max)), ("steps", _fmt(steps)),
    ]
    columns = [*_MULTIMODE_FIELDS[:-1], "classical_limit_bits", "status"]
    rows = []
    for phi in phis:
        snr = multimode_threshold(MarkovNoise(1.0, phi))
        noises, energies, limits = [], [], []
        for variance in _geometric_floats(n_min, n_max, steps):
            nbar = variance * snr
            if math.isinf(nbar):
                raise ValueError(f"nbar = N * snr overflows at N = {_fmt(variance)}, snr = {_fmt(snr)}")
            noise = MarkovNoise(variance, phi)
            limits.append(_fmt(classical_limit_capacity(noise, snr)))
            noises.append(noise)
            energies.append(nbar)
        for row, limit in zip(_multimode_rows(noises, energies), limits):
            row[-1:-1] = [limit]
            rows.append(row)
    return _csv("fig3", params, columns, map(",".join, rows)), EXIT_OK


# Geometric grid points of fig4's channel-use counts when no --n is given.
_USE_POINTS = 25


def _geometric_ints(n_max: int) -> list[int]:
    return sorted({1, n_max, *(int(round(v)) for v in _geometric_floats(1.0, n_max, _USE_POINTS))})


@_command
@click.option("--phi", "phis", type=float, multiple=True, default=(0.0, 0.4, 0.55, 0.7),
              show_default=True, help="Correlations to sweep (repeatable).")
@click.option("--N", "variance", type=float, default=1.0, show_default=True,
              help="Noise variance per quadrature.")
@click.option("--nbar", type=float, default=7.5, show_default=True, help="Mean photon number per use.")
@click.option("--n-max", type=int, default=400, show_default=True, help="Largest number of channel uses.")
@click.option("--n", "n_values", type=int, multiple=True,
              help="Explicit channel-use counts (overrides the --n-max grid).")
def fig4(phis, variance, nbar, n_max, n_values):
    """Finite-use transmission rate versus channel uses, with the asymptotic value."""
    if n_max < 1:
        raise ValueError("n-max must be at least 1")
    uses = sorted(set(n_values)) if n_values else _geometric_ints(n_max)
    if uses and uses[0] < 1:
        raise ValueError("channel-use counts must be positive")
    params = [
        ("phi", " ".join(_fmt(p) for p in phis)),
        ("N", _fmt(variance)), ("nbar", _fmt(nbar)),
        ("n", " ".join(str(n) for n in uses)),
    ]
    columns = ["phi", "n", "rate_bits", "capacity_bits", "status"]
    rows = []
    for phi in phis:
        noise = MarkovNoise(variance, phi)
        # One correlation at a time keeps a point-by-point error order.
        [[*_, cap, status]] = _multimode_rows([noise], [nbar])
        for n in uses:
            rows.append([_fmt(phi), str(n), _fmt(finite_n_rate(noise, nbar, n)), cap, status])
    return _csv("fig4", params, columns, map(",".join, rows)), EXIT_OK


@_command
@click.option("--kind", type=click.Choice(["toeplitz", "circulant", "asymptotic"]),
              required=True, help="Finite matrix spectra or the limiting symbol.")
@click.option("--phi", type=float, required=True, help="Nearest-neighbor correlation.")
@click.option("--N", "variance", type=float, default=1.0, show_default=True,
              help="Noise variance per quadrature.")
@click.option("--n", type=int, default=None, help="Matrix size (matrix kinds only).")
@click.option("--samples", type=int, default=201, show_default=True,
              help="Sample count on [0, pi] (asymptotic kind only).")
@click.option("--sign", type=click.Choice(["+1", "-1"]), default="+1", show_default=True,
              help="Correlation sign branch (+1: q quadrature, -1: p quadrature).")
@click.option("--dump-matrix", is_flag=True,
              help="Emit the matrix itself: plain rows of space-separated decimals.")
def spectrum(kind, phi, variance, n, samples, sign, dump_matrix):
    """Noise eigenvalue spectra: finite Toeplitz/circulant matrices or the symbol."""
    noise = MarkovNoise(variance, phi)
    if sign == "-1":
        noise = MarkovNoise(variance, -phi)
    params = [
        ("kind", kind), ("phi", _fmt(phi)), ("N", _fmt(variance)),
        ("sign", sign),
    ]
    if kind == "asymptotic":
        if dump_matrix:
            raise ValueError("--dump-matrix applies to matrix kinds only")
        if samples < 2:
            raise ValueError("samples must be at least 2")
        params.append(("samples", _fmt(samples)))
        xs = math.pi * np.arange(samples) / (samples - 1)
        values = asymptotic_markov_spectrum(noise, xs)
        rows = _array_rows("{:.12g},{:.12g}", xs, values)
        return _csv("spectrum", params, ["x", "value"], rows), EXIT_OK
    if n is None:
        raise ValueError(f"--n is required for kind={kind}")
    params.append(("n", str(n)))
    builder = markov_matrix if kind == "toeplitz" else circulant_embedding
    matrix = builder(noise, n)
    if dump_matrix:
        return (" ".join(_fmt(v) for v in row) for row in matrix), EXIT_OK
    values = finite_spectrum(matrix)
    rows = _array_rows("{},{:.12g}", np.arange(n), values)
    return _csv("spectrum", params, ["index", "eigenvalue"], rows), EXIT_OK


@_command
@click.option("--gq", type=float, required=True, help="Noise variance in the q quadrature.")
@click.option("--gp", type=float, required=True, help="Noise variance in the p quadrature.")
@click.option("--nbar", type=float, required=True, help="Mean photon number per use.")
@click.option("--resolution", type=int, default=161, show_default=True,
              help="Grid points per search variable (minimum 64).")
def oracle(gq, gp, nbar, resolution):
    """Brute-force grid search for the single-mode optimum.

    The search refines at least twice, and more until its final step in
    the squeezing parameter is at most 0.01.  Unlike the closed-form
    solver this also explores the below-threshold regime, pinning one
    modulation variance at zero there; the above_threshold column
    records which side the input energy is on.
    """
    noise = MonoNoise(gq, gp)
    sol = brute_force_mono_oracle(noise, nbar, resolution)
    params = [("resolution", _fmt(resolution))]
    return _mono_csv("oracle", params, noise, nbar, ["above_threshold"], sol), EXIT_OK


if __name__ == "__main__":
    main()
