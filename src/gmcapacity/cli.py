"""Command-line front end: capacities, thresholds, spectra and figure-data sweeps.

Every command emits deterministic CSV: ``#``-prefixed comment lines echo
the full parameter set, then a header row and data rows with values
printed at 12 significant digits, locale-independent.  Output goes to
stdout or to the file named by ``--out``, one text of whole lines to a
write: the comment lines and header, at most ``_CHUNK_ROWS`` table rows,
or one ``--dump-matrix`` row.  A command computes every number before
it writes a line, so a failing command writes nothing to stdout and
creates no ``--out`` file.  A ``--config`` key that names no option of
any command is a usage error.

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
    _multimode,
    asymptotic_capacity,
    brute_force_mono_oracle,
    classical_limit_capacity,
    finite_n_rate,
    first_mode_variance,
    mono_solve,
    mono_threshold,
    multimode_solve,
    multimode_threshold,
)

EXIT_OK = 0
EXIT_BELOW_THRESHOLD = 3
EXIT_NUMERICAL = 4


def _fmt(value) -> str:
    """Fixed 12-significant-digit decimal rendering."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def _csv(command: str, params, columns, rows):
    """CSV texts: the comment lines for the parameters and the header as one text, then ``rows``."""
    yield "\n".join([f"# command = {command}", *(f"# {key} = {value}" for key, value in params),
                     ",".join(columns)])
    yield from rows


# _array_rows hands a table to _write _CHUNK_ROWS rows to a text, so no
# write holds it whole.
_CHUNK_ROWS = 4096


def _array_rows(template: str, *columns: np.ndarray):
    """Yield the ``template.format(...)`` rows of equal-length array columns, ``_CHUNK_ROWS`` to a text."""
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        chunks = [column[start:start + _CHUNK_ROWS].tolist() for column in columns]
        yield "\n".join(map(template.format, *chunks))


def _write(texts, out_path: str | None) -> None:
    """Write each of ``texts``, one or more whole lines, to ``out_path`` or stdout as one write."""
    target = open(out_path, "w", encoding="ascii", newline="") if out_path else contextlib.nullcontext()
    with target as handle:
        for text in texts:
            click.echo(text, file=handle)


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
    """Register ``body``, which returns its output texts and exit code, as a command with ``--out``.

    A ``ValueError``, and an ``OverflowError`` or ``MemoryError`` from a
    size or count too large to convert or allocate, is a usage error
    (exit 2); an :class:`IntegrationError` exits with ``EXIT_NUMERICAL``
    and no output.
    """

    @functools.wraps(body)
    def run(out_path, **kwargs):
        try:
            texts, code = body(**kwargs)
        except (ValueError, OverflowError, MemoryError) as err:
            raise click.UsageError(str(err))
        except IntegrationError as err:
            click.echo(f"numerical failure: {err}", err=True)
            code = EXIT_NUMERICAL
        else:
            _write(texts, out_path)
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


def _fig3_texts(phi: float, variances: np.ndarray, energies: np.ndarray, p, limit: str):
    """The CSV texts of one correlation's fig3 rows, one ``_array_rows`` call per run of equal ``above``.

    ``p`` holds the columns that :func:`~gmcapacity.solver._multimode`
    returned for these variances and energies.  A row above threshold
    prints every field; one below prints its threshold, then empty
    ``eta``, ``mu_global`` and ``capacity_bits``.  ``limit`` holds the
    classical-limit field and its comma.
    """
    head = f"{_fmt(phi)},{{:.12g}},{{:.12g}},{{:.12g}},"
    ok = head + "{:.12g},{:.12g},{:.12g}," + limit + "ok"
    below = head + ",,," + limit + "below_threshold"
    edges = [0, *(np.flatnonzero(np.diff(p.above)) + 1).tolist(), len(p.above)]
    for start, stop in zip(edges, edges[1:]):
        run = slice(start, stop)
        if p.above[start]:
            yield from _array_rows(ok, variances[run], energies[run], p.threshold[run],
                                   p.squeezing_fraction[run], p.water_level[run], p.capacity_bits[run])
        else:
            yield from _array_rows(below, variances[run], energies[run], p.threshold[run])


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
    noise = MarkovNoise(variance, phi)  # checks N, then |phi| < 1
    try:
        sol = multimode_solve(noise, nbar)
        fields = [_fmt(v) for v in (sol.threshold, sol.squeezing_fraction, sol.water_level, sol.capacity_bits)]
        status, code = "ok", EXIT_OK
    except BelowThresholdError as below:
        fields, status = [_fmt(below.threshold), "", "", ""], "below_threshold"
        code = EXIT_OK if allow_below else EXIT_BELOW_THRESHOLD
    columns = list(_MULTIMODE_FIELDS)
    if first_mode:
        # After the solver, which reports a correlation outside its range first.
        columns[-1:-1] = ["first_mode_variance", "first_mode_variance_alt"]
        fields += [_fmt(first_mode_variance(phi, alt_form=alt)) for alt in (False, True)]
    row = [_fmt(phi), _fmt(variance), _fmt(nbar), *fields, status]
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


# fig3 computes every number of its table before it writes a row: ~40 B a
# row held in arrays, plus ~0.13 KB a row while one correlation is
# evaluated (tracemalloc peaks of 169 B a row at 1 x 20000 rows and 67 B
# at 7 x 14000).  At the cap, 7 x 14000 rows peaked at 37 MB RSS, 8 MB
# above the import floor (Python 3.11, numpy 2.4).  The cap bounds that
# memory and the run time.
_FIG3_MAX_ROWS = 100_000


@_command
@click.option("--phi", "phis", type=float, multiple=True, default=(0.4, 0.7, 0.9),
              show_default=True, help="Correlations to sweep (repeatable).")
@click.option("--n-min", type=float, default=1.0, show_default=True, help="Smallest noise variance N.")
@click.option("--n-max", type=float, default=100.0, show_default=True, help="Largest noise variance N.")
@click.option("--steps", type=int, default=15, show_default=True,
              help=f"Geometric steps over [n-min, n-max]; steps times the number of "
              f"correlations is at most {_FIG3_MAX_ROWS}.")
def fig3(phis, n_min, n_max, steps):
    """Capacity, squeezing fraction and classical limit along the fixed-SNR protocol.

    For each correlation the signal-to-noise ratio nbar/N is pinned to the
    threshold value at N = 1, which keeps every N >= 1 above threshold.
    Every correlation and energy is checked before any row is evaluated.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if steps * len(phis) > _FIG3_MAX_ROWS:
        raise ValueError(f"steps x correlations must be at most {_FIG3_MAX_ROWS}, got {steps} x {len(phis)}")
    if not 0 < n_min <= n_max:
        raise ValueError("need 0 < n-min <= n-max")
    if math.isinf(n_max):
        raise ValueError(f"n-max must be finite, got {n_max}")
    params = [
        ("phi", " ".join(_fmt(p) for p in phis)),
        ("n_min", _fmt(n_min)), ("n_max", _fmt(n_max)), ("steps", _fmt(steps)),
    ]
    columns = [*_MULTIMODE_FIELDS[:-1], "classical_limit_bits", "status"]
    variances = np.array(_geometric_floats(n_min, n_max, steps))
    sweeps = []
    for phi in phis:
        noise = MarkovNoise(1.0, phi)
        snr = multimode_threshold(noise)
        if snr == 0:
            raise ValueError(f"fig3 needs correlations above 0: at phi = {_fmt(phi)} "
                             "the fixed-SNR protocol pins nbar to 0")
        with np.errstate(over="ignore"):
            energies = variances * snr
        overflow = np.flatnonzero(np.isinf(energies))
        if overflow.size:
            raise ValueError(f"nbar = N * snr overflows at N = {_fmt(variances[overflow[0]])}, snr = {_fmt(snr)}")
        # The classical limit reads only the correlation and the snr.
        sweeps.append((phi, energies, _fmt(classical_limit_capacity(noise, snr)) + ","))
    evaluated = [(phi, energies, _multimode(phi, variances, energies), limit) for phi, energies, limit in sweeps]
    texts = (text for phi, energies, points, limit in evaluated
             for text in _fig3_texts(phi, variances, energies, points, limit))
    return _csv("fig3", params, columns, texts), EXIT_OK


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
    texts = []
    for phi in phis:
        noise = MarkovNoise(variance, phi)
        try:
            cap, status = _fmt(asymptotic_capacity(noise, nbar)), "ok"
        except BelowThresholdError:
            cap, status = "", "below_threshold"
        rates = np.array([finite_n_rate(noise, nbar, n) for n in uses])
        # One correlation's rows; its fixed cells go into the template, as in fig3.
        texts += _array_rows(f"{_fmt(phi)},{{}},{{:.12g}},{cap},{status}", np.array(uses), rates)
    return _csv("fig4", params, columns, texts), EXIT_OK


def _circulant_spectrum(first_row: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending, of the symmetric circulant with ``first_row``: its real DFT.

    The DFT diagonalizes every circulant (Gray, *Toeplitz and Circulant
    Matrices: A Review*, 2006).  A symmetric first row makes eigenvalue
    ``k`` equal eigenvalue ``n - k``, so ``rfft`` gives each pair once.
    Raises ``ValueError`` if an eigenvalue overflows the largest double.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.fft.rfft(first_row).real
    if not np.isfinite(half).all():
        raise ValueError("eigenvalue overflows the largest double")
    values = np.concatenate([half, half[1:(len(first_row) + 1) // 2]])
    values.sort()
    return values[::-1]


# spectrum --kind asymptotic holds a few arrays of its samples before it
# writes a row: at 1000000 samples one run peaked at 55 MB RSS in 1.4 s,
# against 36 MB at 200001 (Python 3.11, numpy 2.4).  The cap bounds that
# memory and the run time.
_MAX_SAMPLES = 1_000_000


@_command
@click.option("--kind", type=click.Choice(["toeplitz", "circulant", "asymptotic"]),
              required=True, help="Finite matrix spectra or the limiting symbol.")
@click.option("--phi", type=float, required=True, help="Nearest-neighbor correlation.")
@click.option("--N", "variance", type=float, default=1.0, show_default=True,
              help="Noise variance per quadrature.")
@click.option("--n", type=int, default=None, help="Matrix size (matrix kinds only).")
@click.option("--samples", type=int, default=201, show_default=True,
              help=f"Sample count on [0, pi], at most {_MAX_SAMPLES} (asymptotic kind only).")
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
        if samples > _MAX_SAMPLES:
            raise ValueError(f"samples must be at most {_MAX_SAMPLES}, got {samples}")
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
        template = " ".join(["{:.12g}"] * n)
        return (template.format(*row.tolist()) for row in matrix), EXIT_OK
    values = finite_spectrum(matrix) if kind == "toeplitz" else _circulant_spectrum(matrix[0])
    rows = _array_rows("{},{:.12g}", np.arange(n), values)
    return _csv("spectrum", params, ["index", "eigenvalue"], rows), EXIT_OK


@_command
@click.option("--gq", type=float, required=True, help="Noise variance in the q quadrature.")
@click.option("--gp", type=float, required=True, help="Noise variance in the p quadrature.")
@click.option("--nbar", type=float, required=True, help="Mean photon number per use.")
@click.option("--resolution", type=int, default=161, show_default=True,
              help="Grid points on the squeezing axis (minimum 64).")
def oracle(gq, gp, nbar, resolution):
    """Brute-force search for the single-mode optimum.

    The squeezing parameter is searched on a grid, refined at least
    twice, and more until its final step is at most 0.01; at each grid
    point the modulation split is searched over all of [0, 1].  Unlike
    the closed-form solver this also explores the below-threshold
    regime, pinning one modulation variance at zero there; the
    above_threshold column records which side the input energy is on.
    """
    noise = MonoNoise(gq, gp)
    sol = brute_force_mono_oracle(noise, nbar, resolution)
    params = [("resolution", _fmt(resolution))]
    return _mono_csv("oracle", params, noise, nbar, ["above_threshold"], sol), EXIT_OK


if __name__ == "__main__":
    main()
