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
threshold, 4 numerical failure.
"""

from __future__ import annotations

import contextlib
import functools
import math

import click
import numpy as np

from .numerics import IntegrationError, QuadratureConfig
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
    _reaches,
    asymptotic_capacity,
    brute_force_mono_oracle,
    classical_limit_capacity,
    finite_n_rate,
    first_mode_variance,
    mono_solve,
    mono_threshold,
    multimode_solve,
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


_quad_tol_option = click.option(
    "--quad-tol",
    type=float,
    default=1e-10,
    show_default=True,
    envvar="GMCAP_QUAD_TOL",
    help="Absolute tolerance of the environment-entropy integral "
    "(overridable via GMCAP_QUAD_TOL).",
)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Optional key=value file of option defaults, keyed by flag names without the dashes; "
    "a repeatable option takes space-separated values (explicit flags and GMCAP_QUAD_TOL win).",
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

    :class:`BelowThresholdError` passes through (the commands report it as
    a row), any other ``ValueError`` is a usage error (exit 2), and an
    :class:`IntegrationError` exits with ``EXIT_NUMERICAL`` and no output.
    """

    @functools.wraps(body)
    def run(out_path, **kwargs):
        try:
            lines, code = body(**kwargs)
        except BelowThresholdError:
            raise
        except ValueError as err:
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


@_command
@click.option("--gq", type=float, required=True, help="Noise variance in the q quadrature.")
@click.option("--gp", type=float, required=True, help="Noise variance in the p quadrature.")
@click.option("--nbar", type=float, required=True, help="Mean photon number per use.")
def mono(gq, gp, nbar):
    """Single-mode channel: optimal variances, water level and capacity."""
    noise = MonoNoise(gq, gp)
    threshold = mono_threshold(noise)
    params = [("gq", _fmt(gq)), ("gp", _fmt(gp)), ("nbar", _fmt(nbar))]
    columns = [
        "gamma_q", "gamma_p", "nbar", "threshold",
        "input_q", "input_p", "modulation_q", "modulation_p",
        "water_level", "capacity_bits", "status",
    ]
    echo = [_fmt(gq), _fmt(gp), _fmt(nbar), _fmt(threshold)]
    try:
        sol = mono_solve(noise, nbar)
    except BelowThresholdError:
        row, code = echo + [""] * 6 + ["below_threshold"], EXIT_BELOW_THRESHOLD
    else:
        row, code = echo + [
            _fmt(sol.input_q), _fmt(sol.input_p),
            _fmt(sol.modulation_q), _fmt(sol.modulation_p),
            _fmt(sol.water_level), _fmt(sol.capacity_bits), "ok",
        ], EXIT_OK
    return _csv("mono", params, columns, [",".join(row)]), code


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
@_quad_tol_option
def capacity(phi, variance, nbar, allow_below, first_mode, quad_tol):
    """Infinite-use capacity of the correlated-noise channel."""
    cfg = QuadratureConfig(abs_tol=quad_tol)
    noise = MarkovNoise(variance, phi)
    threshold = multimode_threshold(noise)
    params = [
        ("phi", _fmt(phi)), ("N", _fmt(variance)), ("nbar", _fmt(nbar)),
        ("allow_below", _fmt(allow_below)), ("first_mode", _fmt(first_mode)),
        ("quad_tol", _fmt(quad_tol)),
    ]
    columns = ["phi", "N", "nbar", "threshold", "eta", "mu_global", "capacity_bits"]
    fm_fields = []
    if first_mode:
        columns += ["first_mode_variance", "first_mode_variance_alt"]
        fm_fields = [_fmt(first_mode_variance(phi, alt_form=alt)) for alt in (False, True)]
    columns.append("status")
    echo = [_fmt(phi), _fmt(variance), _fmt(nbar), _fmt(threshold)]
    try:
        sol = multimode_solve(noise, nbar, cfg)
    except BelowThresholdError:
        row = echo + ["", "", ""] + fm_fields + ["below_threshold"]
        code = EXIT_OK if allow_below else EXIT_BELOW_THRESHOLD
    else:
        row = echo + [
            _fmt(sol.squeezing_fraction), _fmt(sol.water_level),
            _fmt(sol.capacity_bits),
        ] + fm_fields + ["ok"]
        code = EXIT_OK
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
@_quad_tol_option
def fig3(phis, n_min, n_max, steps, quad_tol):
    """Capacity, squeezing fraction and classical limit along the fixed-SNR protocol.

    For each correlation the signal-to-noise ratio nbar/N is pinned to the
    threshold value at N = 1, which keeps every N >= 1 above threshold.
    """
    cfg = QuadratureConfig(abs_tol=quad_tol)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not 0 < n_min <= n_max:
        raise ValueError("need 0 < n-min <= n-max")
    params = [
        ("phi", " ".join(_fmt(p) for p in phis)),
        ("n_min", _fmt(n_min)), ("n_max", _fmt(n_max)), ("steps", _fmt(steps)),
        ("quad_tol", _fmt(quad_tol)),
    ]
    columns = [
        "phi", "N", "nbar", "threshold", "eta", "mu_global",
        "capacity_bits", "classical_limit_bits", "status",
    ]
    rows = []
    for phi in phis:
        snr = multimode_threshold(MarkovNoise(1.0, phi))
        # Rows above threshold wait for one batched capacity call per phi.
        pending, noises, energies = [], [], []
        try:
            for variance in _geometric_floats(n_min, n_max, steps):
                noise = MarkovNoise(variance, phi)
                nbar = variance * snr
                if math.isinf(nbar):
                    raise ValueError(f"nbar = N * snr overflows at N = {_fmt(variance)}, snr = {_fmt(snr)}")
                threshold = multimode_threshold(noise)
                ccl = _fmt(classical_limit_capacity(noise, snr))
                echo = [_fmt(phi), _fmt(variance), _fmt(nbar), _fmt(threshold)]
                eta = squeezing_fraction(noise, nbar)
                if not _reaches(nbar, threshold):
                    rows.append(echo + ["", "", "", ccl, "below_threshold"])
                    continue
                mu_global = nbar + variance + 0.5
                row = echo + [_fmt(eta), _fmt(mu_global), "", ccl, "ok"]
                rows.append(row)
                pending.append(row)
                noises.append(noise)
                energies.append(nbar)
        except ValueError:
            # A point-by-point sweep would have integrated the earlier
            # points first, so their failure takes precedence.
            asymptotic_capacity(noises, energies, cfg)
            raise
        for row, cap in zip(pending, asymptotic_capacity(noises, energies, cfg).tolist()):
            row[6] = _fmt(cap)
    return _csv("fig3", params, columns, map(",".join, rows)), EXIT_OK


def _geometric_ints(n_max: int, points: int = 25) -> list[int]:
    if n_max == 1:
        return [1]
    values = {1, n_max}
    for i in range(points):
        values.add(int(round(n_max ** (i / (points - 1)))))
    return sorted(values)


@_command
@click.option("--phi", "phis", type=float, multiple=True, default=(0.0, 0.4, 0.55, 0.7),
              show_default=True, help="Correlations to sweep (repeatable).")
@click.option("--N", "variance", type=float, default=1.0, show_default=True,
              help="Noise variance per quadrature.")
@click.option("--nbar", type=float, default=7.5, show_default=True, help="Mean photon number per use.")
@click.option("--n-max", type=int, default=400, show_default=True, help="Largest number of channel uses.")
@click.option("--n", "n_values", type=int, multiple=True,
              help="Explicit channel-use counts (overrides the --n-max grid).")
@_quad_tol_option
def fig4(phis, variance, nbar, n_max, n_values, quad_tol):
    """Finite-use transmission rate versus channel uses, with the asymptotic value."""
    cfg = QuadratureConfig(abs_tol=quad_tol)
    if n_max < 1:
        raise ValueError("n-max must be at least 1")
    uses = sorted(set(n_values)) if n_values else _geometric_ints(n_max)
    if uses and uses[0] < 1:
        raise ValueError("channel-use counts must be positive")
    params = [
        ("phi", " ".join(_fmt(p) for p in phis)),
        ("N", _fmt(variance)), ("nbar", _fmt(nbar)),
        ("n", " ".join(str(n) for n in uses)),
        ("quad_tol", _fmt(quad_tol)),
    ]
    columns = ["phi", "n", "rate_bits", "capacity_bits", "status"]
    rows = []
    for phi in phis:
        noise = MarkovNoise(variance, phi)
        try:
            cap = _fmt(asymptotic_capacity(noise, nbar, cfg))
            status = "ok"
        except BelowThresholdError:
            cap = ""
            status = "below_threshold"
        for n in uses:
            rate = finite_n_rate(noise, nbar, n)
            rows.append([_fmt(phi), str(n), _fmt(rate), cap, status])
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
    sign_value = 1 if sign == "+1" else -1
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
        values = asymptotic_markov_spectrum(noise, xs, sign_value)
        rows = _array_rows("{:.12g},{:.12g}", xs, values)
        return _csv("spectrum", params, ["x", "value"], rows), EXIT_OK
    if n is None:
        raise ValueError(f"--n is required for kind={kind}")
    params.append(("n", str(n)))
    builder = markov_matrix if kind == "toeplitz" else circulant_embedding
    matrix = builder(noise, sign_value, n)
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
@click.option("--refinements", type=int, default=2, show_default=True,
              help="Coarse-to-fine refinement passes.")
def oracle(gq, gp, nbar, resolution, refinements):
    """Brute-force grid search for the single-mode optimum.

    Unlike the closed-form solver this also explores the below-threshold
    regime, pinning one modulation variance at zero there; the
    above_threshold column records which side the input energy is on.
    """
    noise = MonoNoise(gq, gp)
    sol = brute_force_mono_oracle(noise, nbar, resolution, refinements)
    threshold = mono_threshold(noise)
    params = [
        ("gq", _fmt(gq)), ("gp", _fmt(gp)), ("nbar", _fmt(nbar)),
        ("resolution", _fmt(resolution)), ("refinements", _fmt(refinements)),
    ]
    columns = [
        "gamma_q", "gamma_p", "nbar", "threshold", "above_threshold",
        "input_q", "input_p", "modulation_q", "modulation_p",
        "water_level", "capacity_bits", "status",
    ]
    row = [
        _fmt(gq), _fmt(gp), _fmt(nbar), _fmt(threshold), _fmt(sol.above_threshold),
        _fmt(sol.input_q), _fmt(sol.input_p),
        _fmt(sol.modulation_q), _fmt(sol.modulation_p),
        _fmt(sol.water_level), _fmt(sol.capacity_bits), "ok",
    ]
    return _csv("oracle", params, columns, [",".join(row)]), EXIT_OK


if __name__ == "__main__":
    main()
