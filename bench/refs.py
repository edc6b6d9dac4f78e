"""Independent reference routes and the correctness check of every gmcap CSV.

Nothing here imports gmcapacity.  Each printed number is recomputed by a
route that shares no code with the program:

- ``g`` in the cancellation-free form (log1p(x) + x log1p(1/x)) / ln 2;
- finite-use rates R(n) from ``numpy.linalg.eigvalsh`` of AR(1)
  matrices built here (the p block has the q spectrum, so one solve);
- Toeplitz spectra from ``eigvalsh``; circulant spectra from the FFT of
  the first row, which diagonalizes every circulant exactly;
- the asymptotic spectrum, thresholds, water levels and the classical
  limit from their closed forms;
- the squeezing integral and the first-mode variances from complete
  elliptic integrals (AGM): (1+c^2) K(c^2) and K(2c/(1+c)) / pi;
- the environment-entropy integral from the midpoint rule with point
  doubling, which converges geometrically for these even, periodic,
  analytic integrands;
- the single-mode optimum from a log-spaced numpy zoom search of the
  same information quantity, which matches the closed form above
  threshold to ~1e-15.

Tolerances are stated below.  A row fails when any of its fields misses
its reference by more than the tolerance; a command fails when its exit
code differs from the expected one or its CSV does not have the
expected shape.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

# Numbers echoed or computed in closed form, printed at 12 significant digits.
ECHO_REL = 1e-11
# Quadrature-backed values: the CLI default asks for 1e-10 absolute on each
# integral over [0, pi]; a capacity carries one integral divided by pi.
INTEGRAL_ABS = 1e-9
INTEGRAL_REL = 1e-10
# Finite-use rates from dense eigensolves.
RATE_ABS = 1e-10
# Finite spectra, relative to the largest eigenvalue.
EIGEN_REL = 1e-10
# Grid-search optimum against the continuous optimum, in bits; the
# 321-point, two-refinement grid lands within ~3e-8 on these ranges.
ORACLE_ABS = 1e-6
# The oracle's reported variables must satisfy purity, the energy budget
# and reproduce its own capacity.
IDENTITY_REL = 1e-9


def g(x):
    """Thermal entropy in bits, cancellation-free; g(0) = 0."""
    x = np.asarray(x, dtype=float)
    safe = np.where(x > 0, x, 1.0)
    value = (np.log1p(safe) + safe * np.log1p(1.0 / safe)) / LN2
    return np.where(x > 0, value, 0.0)


def ellipk(k):
    """Complete elliptic integral of the first kind at modulus k, by the AGM."""
    a = np.ones_like(np.asarray(k, dtype=float))
    b = np.sqrt(1.0 - np.asarray(k, dtype=float) ** 2)
    for _ in range(64):
        if np.all(np.abs(a - b) <= 4e-16 * a):
            break
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return np.pi / (2.0 * a)


def multimode_threshold(c, variance):
    return ((1.0 + c) / (1.0 - c) - 1.0) * (variance + 0.5)


def squeezing_integral(c):
    """Integral over [0, pi] of 1/2 sqrt((1+c^2+2c cos x)/(1+c^2-2c cos x))."""
    return (1.0 + c * c) * ellipk(c * c)


def env_entropy(c: float, variances: np.ndarray) -> np.ndarray:
    """(1/pi) * integral over [0, pi] of g(nu_env(x)) for each noise variance.

    nu_env depends on cos^2 x, so the mean over [0, pi/2] is used; the
    midpoint rule doubles its nodes until two levels agree to 1e-13,
    above the ~1e-14 round-off floor of the sums; convergence is geometric,
    so the finer level is far more accurate than that.
    """
    variances = np.atleast_1d(np.asarray(variances, dtype=float))
    nodes = 64
    previous = None
    while True:
        x = (np.arange(nodes) + 0.5) * (0.5 * math.pi / nodes)
        cos_x = np.cos(x)
        shape = (1.0 - c * c) / np.sqrt(
            (1.0 + c * c - 2.0 * c * cos_x) * (1.0 + c * c + 2.0 * c * cos_x)
        )
        current = np.empty_like(variances)
        for start in range(0, variances.size, 16):
            chunk = variances[start:start + 16]
            current[start:start + 16] = g(chunk[:, None] * shape[None, :]).mean(axis=1)
        if previous is not None and np.all(
            np.abs(current - previous) <= 1e-13 * np.maximum(1.0, np.abs(current))
        ):
            return current
        if nodes >= 2**20:
            raise RuntimeError(f"midpoint rule did not settle at phi={c}")
        previous = current
        nodes *= 2


def ar1_matrix(rho: float, variance: float, n: int) -> np.ndarray:
    powers = np.cumprod(np.concatenate(([1.0], np.full(n - 1, rho))))
    idx = np.arange(n)
    return variance * powers[np.abs(idx[:, None] - idx[None, :])]


def finite_rate(c: float, variance: float, nbar: float, n: int) -> float:
    lam = np.linalg.eigvalsh(ar1_matrix(c, variance, n))
    paired = np.sqrt(np.clip(lam * lam[::-1], 0.0, None))
    return float(g(nbar + variance) - g(paired).mean())


def _mono_information(in_q, split, var_q, var_p, budget):
    in_p = 0.25 / in_q
    mod_total = np.maximum(budget - in_q - in_p, 0.0)
    mod_q = split * mod_total
    mod_p = (1.0 - split) * mod_total
    nu_bar = np.sqrt((in_q + var_q + mod_q) * (in_p + var_p + mod_p))
    nu_out = np.sqrt((in_q + var_q) * (in_p + var_p))
    return g(nu_bar - 0.5) - g(nu_out - 0.5)


def mono_optimum(var_q: float, var_p: float, nbar: float) -> float:
    """Maximum single-mode information over pure inputs and energy splits."""
    budget = 2.0 * nbar + 1.0
    spread = math.sqrt(budget * budget - 1.0)
    log_lo = math.log(0.5 * (budget - spread))
    log_hi = math.log(0.5 * (budget + spread))
    u_lo, u_hi, s_lo, s_hi = log_lo, log_hi, 0.0, 1.0
    best = -math.inf
    for _ in range(12):
        u = np.linspace(u_lo, u_hi, 401)
        s = np.linspace(s_lo, s_hi, 401)
        values = _mono_information(np.exp(u)[:, None], s[None, :], var_q, var_p, budget)
        i, j = np.unravel_index(np.argmax(values), values.shape)
        best = max(best, float(values[i, j]))
        du = (u_hi - u_lo) / 8.0
        ds = (s_hi - s_lo) / 8.0
        u_lo, u_hi = max(log_lo, u[i] - du), min(log_hi, u[i] + du)
        s_lo, s_hi = max(0.0, s[j] - ds), min(1.0, s[j] + ds)
    return best


# ---------------------------------------------------------------------------
# CSV reading
# ---------------------------------------------------------------------------


class ShapeError(ValueError):
    """The CSV does not have the rows or columns the command must produce."""


def parse_csv(text: str):
    params: dict[str, str] = {}
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    body = 0
    while body < len(lines) and lines[body].startswith("# "):
        key, sep, value = lines[body][2:].partition(" = ")
        if not sep:
            raise ShapeError(f"malformed comment line {lines[body]!r}")
        params[key] = value
        body += 1
    if body >= len(lines):
        raise ShapeError("no header row")
    header = lines[body].split(",")
    rows = [line.split(",") for line in lines[body + 1:]]
    for row in rows:
        if len(row) != len(header):
            raise ShapeError(f"row has {len(row)} fields, header {len(header)}")
    return params, header, rows


def _columns(header, rows, names):
    if header != names:
        raise ShapeError(f"header {header} != {names}")
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def _near(got: float, ref: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - ref) <= abs_tol + rel * abs(ref)


def _close(value: str, ref: float, rel: float, abs_tol: float = 0.0) -> bool:
    try:
        return _near(float(value), ref, rel, abs_tol)
    except ValueError:
        return False


def _arg(args, flag):
    return [args[i + 1] for i, a in enumerate(args) if a == flag]


def _geometric_floats(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo * (hi / lo) ** (i / (steps - 1)) for i in range(steps)]


def _geometric_ints(n_max: int, points: int = 25) -> list[int]:
    values = {1, n_max}
    values.update(int(round(n_max ** (i / (points - 1)))) for i in range(points))
    return sorted(values)


def _above(nbar: float, threshold: float) -> bool:
    return nbar >= threshold - 1e-12 * max(1.0, abs(threshold))


# ---------------------------------------------------------------------------
# Per-command checks: each returns (rows, failed_rows, messages)
# ---------------------------------------------------------------------------


def _check_fig4(args, header, rows):
    cols = _columns(header, rows, ["phi", "n", "rate_bits", "capacity_bits", "status"])
    phis = [float(p) for p in _arg(args, "--phi")]
    variance = float(_arg(args, "--N")[0])
    nbar = float(_arg(args, "--nbar")[0])
    uses = _geometric_ints(int(_arg(args, "--n-max")[0]))
    if len(rows) != len(phis) * len(uses):
        raise ShapeError(f"{len(rows)} rows, expected {len(phis) * len(uses)}")
    failed, messages, r = 0, [], 0
    for c in phis:
        above = _above(nbar, multimode_threshold(c, variance))
        capacity = float(g(nbar + variance) - env_entropy(c, [variance])[0]) if above else None
        for n in uses:
            ok = (
                _close(cols["phi"][r], c, ECHO_REL)
                and cols["n"][r] == str(n)
                and _close(cols["rate_bits"][r], finite_rate(c, variance, nbar, n), 0.0, RATE_ABS)
                and cols["status"][r] == ("ok" if above else "below_threshold")
                and (
                    _close(cols["capacity_bits"][r], capacity, INTEGRAL_REL, INTEGRAL_ABS)
                    if above else cols["capacity_bits"][r] == ""
                )
            )
            if not ok:
                failed += 1
                messages.append(f"fig4 row phi={c} n={n}: {rows[r]}")
            r += 1
    return len(rows), failed, messages


def _check_fig3(args, header, rows):
    cols = _columns(header, rows, [
        "phi", "N", "nbar", "threshold", "eta", "mu_global",
        "capacity_bits", "classical_limit_bits", "status",
    ])
    phis = [float(p) for p in _arg(args, "--phi")]
    grid = np.array(_geometric_floats(
        float(_arg(args, "--n-min")[0]), float(_arg(args, "--n-max")[0]),
        int(_arg(args, "--steps")[0]),
    ))
    if len(rows) != len(phis) * grid.size:
        raise ShapeError(f"{len(rows)} rows, expected {len(phis) * grid.size}")
    failed, messages, r = 0, [], 0
    for c in phis:
        snr = multimode_threshold(c, 1.0)
        nbars = grid * snr
        env = env_entropy(c, grid)
        eta = (squeezing_integral(c) - 0.5 * math.pi) / (math.pi * nbars)
        classical = math.log2((1.0 + snr) / (1.0 - c * c))
        capacity = g(nbars + grid) - env
        for k, variance in enumerate(grid):
            ok = (
                _close(cols["phi"][r], c, ECHO_REL)
                and _close(cols["N"][r], variance, ECHO_REL)
                and _close(cols["nbar"][r], nbars[k], ECHO_REL)
                and _close(cols["threshold"][r], multimode_threshold(c, variance), ECHO_REL)
                and _close(cols["eta"][r], eta[k], INTEGRAL_REL, INTEGRAL_ABS)
                and _close(cols["mu_global"][r], nbars[k] + variance + 0.5, ECHO_REL)
                and _close(cols["capacity_bits"][r], capacity[k], INTEGRAL_REL, INTEGRAL_ABS)
                and _close(cols["classical_limit_bits"][r], classical, ECHO_REL)
                and cols["status"][r] == "ok"
            )
            if not ok:
                failed += 1
                messages.append(f"fig3 row phi={c} N={variance}: {rows[r]}")
            r += 1
    return len(rows), failed, messages


def _check_capacity(args, header, rows):
    cols = _columns(header, rows, [
        "phi", "N", "nbar", "threshold", "eta", "mu_global", "capacity_bits",
        "first_mode_variance", "first_mode_variance_alt", "status",
    ])
    if len(rows) != 1:
        raise ShapeError(f"{len(rows)} rows, expected 1")
    c = float(_arg(args, "--phi")[0])
    variance = float(_arg(args, "--N")[0])
    nbar = float(_arg(args, "--nbar")[0])
    squeeze = float(squeezing_integral(c))
    capacity = float(g(nbar + variance) - env_entropy(c, [variance])[0])
    ok = (
        all(_close(cols[k][0], v, ECHO_REL)
            for k, v in (("phi", c), ("N", variance), ("nbar", nbar)))
        and _close(cols["threshold"][0], multimode_threshold(c, variance), ECHO_REL)
        and _above(nbar, multimode_threshold(c, variance))
        and _close(cols["eta"][0], (squeeze - 0.5 * math.pi) / (math.pi * nbar),
                   INTEGRAL_REL, INTEGRAL_ABS)
        and _close(cols["mu_global"][0], nbar + variance + 0.5, ECHO_REL)
        and _close(cols["capacity_bits"][0], capacity, INTEGRAL_REL, INTEGRAL_ABS)
        and _close(cols["first_mode_variance"][0], float(ellipk(2.0 * c / (1.0 + c))) / math.pi,
                   INTEGRAL_REL, INTEGRAL_ABS)
        and _close(cols["first_mode_variance_alt"][0], squeeze / math.pi,
                   INTEGRAL_REL, INTEGRAL_ABS)
        and cols["status"][0] == "ok"
    )
    return 1, 0 if ok else 1, [] if ok else [f"capacity row: {rows[0]}"]


def _check_oracle(args, header, rows, note):
    cols = _columns(header, rows, [
        "gamma_q", "gamma_p", "nbar", "threshold", "above_threshold",
        "input_q", "input_p", "modulation_q", "modulation_p",
        "water_level", "capacity_bits", "status",
    ])
    if len(rows) != 1:
        raise ShapeError(f"{len(rows)} rows, expected 1")
    var_q = float(_arg(args, "--gq")[0])
    var_p = float(_arg(args, "--gp")[0])
    nbar = float(_arg(args, "--nbar")[0])
    hi, lo = max(var_q, var_p), min(var_q, var_p)
    threshold = 0.5 * (math.sqrt(hi / lo) + abs(var_q - var_p) - 1.0)
    above = _above(nbar, threshold)
    try:
        in_q, in_p, mod_q, mod_p, level, cap = (
            float(cols[k][0]) for k in (
                "input_q", "input_p", "modulation_q", "modulation_p",
                "water_level", "capacity_bits",
            )
        )
    except ValueError:
        return 1, 1, [f"oracle row: {rows[0]}"]
    if above:
        best = float(g(nbar + 0.5 * (var_q + var_p)) - g(math.sqrt(var_q * var_p)))
    else:
        best = mono_optimum(var_q, var_p, nbar)
    recomputed = float(
        g(math.sqrt((in_q + var_q + mod_q) * (in_p + var_p + mod_p)) - 0.5)
        - g(math.sqrt((in_q + var_q) * (in_p + var_p)) - 0.5)
    )
    ok = (
        all(_close(cols[k][0], v, ECHO_REL)
            for k, v in (("gamma_q", var_q), ("gamma_p", var_p), ("nbar", nbar)))
        and _close(cols["threshold"][0], threshold, ECHO_REL)
        and cols["above_threshold"][0] == ("true" if above else "false")
        and above == (note == "above")
        and _near(in_q * in_p, 0.25, IDENTITY_REL)
        and _near(in_q + in_p + mod_q + mod_p, 2.0 * nbar + 1.0, IDENTITY_REL)
        and _near(level, max(in_q + var_q + mod_q, in_p + var_p + mod_p), IDENTITY_REL)
        and _near(cap, recomputed, IDENTITY_REL, IDENTITY_REL)
        and best - ORACLE_ABS <= cap <= best + IDENTITY_REL
        and cols["status"][0] == "ok"
    )
    return 1, 0 if ok else 1, [] if ok else [f"oracle row (optimum {best!r}): {rows[0]}"]


def _check_spectrum(args, header, rows):
    kind = _arg(args, "--kind")[0]
    c = float(_arg(args, "--phi")[0])
    variance = float(_arg(args, "--N")[0])
    sign = -1.0 if _arg(args, "--sign") == ["-1"] else 1.0
    rho = sign * c
    if kind == "asymptotic":
        cols = _columns(header, rows, ["x", "value"])
        samples = int(_arg(args, "--samples")[0])
        if len(rows) != samples:
            raise ShapeError(f"{len(rows)} rows, expected {samples}")
        x_ref = math.pi * np.arange(samples) / (samples - 1)
        ref = variance * (1.0 - rho * rho) / (1.0 + rho * rho - 2.0 * rho * np.cos(x_ref))
        got_x = np.array(cols["x"], dtype=float)
        got = np.array(cols["value"], dtype=float)
        bad = (np.abs(got_x - x_ref) > ECHO_REL * np.abs(x_ref)) | (
            np.abs(got - ref) > ECHO_REL * np.abs(ref)
        )
    else:
        cols = _columns(header, rows, ["index", "eigenvalue"])
        n = int(_arg(args, "--n")[0])
        if len(rows) != n:
            raise ShapeError(f"{len(rows)} rows, expected {n}")
        if kind == "toeplitz":
            ref = np.linalg.eigvalsh(ar1_matrix(rho, variance, n))[::-1]
        else:
            k = np.arange(n)
            first_row = variance * rho ** np.minimum(k, n - k)
            ref = np.sort(np.fft.fft(first_row).real)[::-1]
        got = np.array(cols["eigenvalue"], dtype=float)
        bad = (np.array(cols["index"]) != np.arange(n).astype(str)) | (
            np.abs(got - ref) > EIGEN_REL * np.max(np.abs(ref))
        )
    failed = int(np.count_nonzero(bad))
    messages = [f"spectrum {kind} row {i}: {rows[i]}" for i in np.flatnonzero(bad)[:5]]
    return len(rows), failed, messages


def check(command, stdout: bytes):
    """Check one command's CSV; returns (rows, failed_rows, messages).

    Raises :class:`ShapeError` when the output cannot be read as the CSV
    the command must produce.
    """
    args = command.args
    try:
        text = stdout.decode("ascii")
    except UnicodeDecodeError as err:
        raise ShapeError(f"output is not ASCII: {err}") from err
    params, header, rows = parse_csv(text)
    if params.get("command") != args[0]:
        raise ShapeError(f"CSV says command={params.get('command')!r}")
    if args[0] == "fig4":
        return _check_fig4(args, header, rows)
    if args[0] == "fig3":
        return _check_fig3(args, header, rows)
    if args[0] == "capacity":
        return _check_capacity(args, header, rows)
    if args[0] == "oracle":
        return _check_oracle(args, header, rows, command.note)
    if args[0] == "spectrum":
        return _check_spectrum(args, header, rows)
    raise ShapeError(f"no check for command {args[0]!r}")
