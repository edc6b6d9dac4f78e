"""High-precision references for the tests, in mpmath.

Each function evaluates one quantity the package computes, from the
paper's formulas and nothing of ``gmcapacity``, at the program's own
double inputs.  Closed forms run at ``DIGITS`` significant digits and
spectral means at ``QUAD_DIGITS``; both return ``mpmath.mpf`` values,
which a test turns into floats or renders with :func:`rendered`.

mpmath is imported through ``pytest.importorskip`` when a reference is
called, so a test that needs one is skipped where mpmath is missing and
the other tests of its file still run.
"""

import pytest

# Working precision, in decimal digits, of the closed forms and of the
# spectral means.  Either is at least the precision its callers need: an
# excess K - pi/2 ~ 4e-49 at m = 1e-48 keeps 30 digits at 80.
DIGITS = 80
QUAD_DIGITS = 40

# Relative distance from a rounding tie of the 12-digit rendering within
# which a double may print either way.
TIE = 4e-16


def _mp():
    mpmath = pytest.importorskip("mpmath")
    return mpmath


def _g(mp, x):
    """g(x) = (x + 1) log2(x + 1) - x log2 x in the log1p form, g(0) = 0."""
    if x == 0:
        return mp.mpf(0)
    return (mp.log1p(x) + x * mp.log1p(1 / x)) / mp.log(2)


def thermal_entropy(x):
    """g(x) of a photon number ``x``."""
    mp = _mp()
    with mp.workdps(DIGITS):
        return _g(mp, mp.mpf(x))


def ellipk(m, m1=None):
    """K(m) and its excess K(m) - pi/2; with ``m1``, at the exact m = 1 - m1."""
    mp = _mp()
    # With m1, as many more digits as m1 has leading zeros, so that 1 - m1 is exact.
    extra = 0 if m1 is None else max(0, -int(mp.floor(mp.log10(m1))))
    with mp.workdps(DIGITS + extra):
        k = mp.ellipk(mp.mpf(m) if m1 is None else 1 - mp.mpf(m1))
        return k, k - mp.pi / 2


def mono_solution(var_q, var_p, n_bar):
    """The single-mode closed form: threshold, pure input, modulation, water level and capacity."""
    mp = _mp()
    with mp.workdps(DIGITS):
        q, p, n = mp.mpf(var_q), mp.mpf(var_p), mp.mpf(n_bar)
        level = n + (q + p) / 2 + mp.mpf(0.5)
        input_q, input_p = mp.sqrt(q / p) / 2, mp.sqrt(p / q) / 2
        return {
            "threshold": (mp.sqrt(max(q, p) / min(q, p)) + abs(q - p) - 1) / 2,
            "input_q": input_q,
            "input_p": input_p,
            "modulation_q": level - input_q - q,
            "modulation_p": level - input_p - p,
            "water_level": level,
            "capacity_bits": _g(mp, level - mp.mpf(0.5)) - _g(mp, mp.sqrt(q * p)),
        }


def water_level(n_bar, variance):
    """n_bar + N + 1/2: the level of the flat multimode output."""
    mp = _mp()
    with mp.workdps(DIGITS):
        return mp.mpf(n_bar) + mp.mpf(variance) + mp.mpf(0.5)


def multimode_threshold(c, variance):
    """2c / (1 - c) (N + 1/2): the least energy of the multimode water filling."""
    mp = _mp()
    with mp.workdps(DIGITS):
        c = mp.mpf(c)
        return 2 * c / (1 - c) * (mp.mpf(variance) + mp.mpf(0.5))


def symmetric_threshold(c, variance):
    """2c / (1 - c) N: the threshold when both quadratures carry the same correlation."""
    mp = _mp()
    with mp.workdps(DIGITS):
        c = mp.mpf(c)
        return 2 * c / (1 - c) * mp.mpf(variance)


def squeezing_fraction(c, n_bar):
    """((1 + c^2) K(c^4) - pi/2) / (pi n_bar): the share of the energy spent on squeezing."""
    mp = _mp()
    with mp.workdps(DIGITS):
        c = mp.mpf(c)
        return ((1 + c * c) * mp.ellipk(c**4) - mp.pi / 2) / (mp.pi * mp.mpf(n_bar))


def first_mode_variance(c, alt_form=False):
    """K((2c / (1 + c))^2) / pi, or with ``alt_form`` the pre-Landen (1 + c^2) K(c^4) / pi."""
    mp = _mp()
    with mp.workdps(DIGITS):
        c = mp.mpf(c)
        if alt_form:
            return (1 + c * c) * mp.ellipk(c**4) / mp.pi
        return mp.ellipk((2 * c / (1 + c)) ** 2) / mp.pi


def classical_limit(c, snr):
    """log2((1 + snr) / (1 - c^2)): the classical channel's capacity at a fixed snr."""
    mp = _mp()
    with mp.workdps(DIGITS):
        c = mp.mpf(c)
        return mp.log((1 + mp.mpf(snr)) / (1 - c * c), 2)


def abscissa(k, samples):
    """pi k / (samples - 1): abscissa ``k`` of ``samples`` equally spaced on [0, pi]."""
    mp = _mp()
    with mp.workdps(DIGITS):
        return mp.pi * k / (samples - 1)


def symbol(variance, c, x):
    """The AR(1) spectral density N (1 - c^2) / |1 - c e^{ix}|^2 at ``x``."""
    mp = _mp()
    with mp.workdps(DIGITS):
        c = mp.mpf(c)
        return mp.mpf(variance) * (1 - c * c) / (1 + c * c - 2 * c * mp.cos(mp.mpf(x)))


def kms_eigenvalues(variance, c, n):
    """The eigenvalues, descending, of the n x n Kac-Murdock-Szegő matrix N c^|i-j|.

    Eigenvalue k is N (1 - c^2) / |1 - c e^{i theta_k}|^2, with theta_k the
    root in ((k - 1) pi / n, k pi / n) of the phase equation
    (n - 1) theta + 2 atan2(sin theta, cos theta - c) = k pi (Kac, Murdock
    & Szegő, *Ann. Math. Stat.* 24, 1953); the left side increases with
    theta.  Each root is found by Newton's method from k pi / (n + 1), the
    root at c = 0, kept inside its bracket by bisection.
    """
    mp = _mp()
    with mp.workdps(DIGITS):
        c, big = mp.mpf(c), mp.mpf(variance)
        values = []
        for k in range(1, n + 1):
            lo, hi, theta = mp.pi * (k - 1) / n, mp.pi * k / n, mp.pi * k / (n + 1)
            step = 1
            while abs(step) > mp.mpf(10) ** (5 - DIGITS):
                cos = mp.cos(theta)
                phase = (n - 1) * theta + 2 * mp.atan2(mp.sin(theta), cos - c) - k * mp.pi
                lo, hi = (lo, theta) if phase > 0 else (theta, hi)
                step = phase / ((n - 1) + 2 * (1 - c * cos) / (1 - 2 * c * cos + c * c))
                theta = theta - step if lo <= theta - step <= hi else (lo + hi) / 2
            values.append(big * (1 - c * c) / (1 - 2 * c * mp.cos(theta) + c * c))
        return sorted(values, reverse=True)


def circulant_eigenvalues(variance, c, n):
    """The eigenvalues, descending, of the n x n circulant N c^min(|i-j|, n - |i-j|), for even n.

    Eigenvalue j is N (1 - c^2)(1 - (-1)^j c^{n/2}) / |1 - c e^{i theta_j}|^2,
    theta_j = 2 pi j / n: the first row's DFT, summed as two geometric series.
    """
    assert n % 2 == 0, "the closed form holds for even n"
    mp = _mp()
    with mp.workdps(DIGITS):
        c, big = mp.mpf(c), mp.mpf(variance)
        gaps = [1 - 2 * c * mp.cos(2 * mp.pi * j / n) + c * c for j in range(n)]
        values = [big * (1 - c * c) * (1 - (-1) ** j * c ** (n // 2)) / gap for j, gap in enumerate(gaps)]
        return sorted(values, reverse=True)


def _environment(mp, variance, c, x):
    c = mp.mpf(c)
    gap = (1 - c * c) ** 2 + 4 * c * c * mp.sin(mp.mpf(x)) ** 2
    return mp.mpf(variance) * (1 - c * c) / mp.sqrt(gap)


def environment_spectrum(variance, c, x):
    """The symplectic noise spectrum N (1 - c^2) / |1 - c^2 e^{2ix}| at ``x``."""
    mp = _mp()
    with mp.workdps(DIGITS):
        return _environment(mp, variance, c, x)


def mean(f):
    """(1/pi) times the integral of ``f`` over [0, pi], at ``QUAD_DIGITS`` digits.

    ``f`` takes an ``mpf`` abscissa.  Breakpoints near both ends resolve
    the boundary layers that strong correlations put there.
    """
    mp = _mp()
    with mp.workdps(QUAD_DIGITS):
        cuts = [mp.mpf(d) for d in ("1e-4", "1e-2", "0.5")]
        points = [0, *cuts, *(mp.pi - d for d in reversed(cuts)), mp.pi]
        return mp.quad(f, points) / mp.pi


def first_mode_integrand(c, alt_form=False):
    """(1/2) sqrt((b + 2c cos x) / (b - 2c cos x)), b = 1 + c, as a function of x.

    With ``alt_form``, b = 1 + c^2: the optimal q input spectrum
    (1/2) sqrt(|1 + c e^{ix}|^2 / |1 - c e^{ix}|^2).
    """
    mp = _mp()

    def f(x):
        base = 1 + (mp.mpf(c) ** 2 if alt_form else mp.mpf(c))
        cos = 2 * mp.mpf(c) * mp.cos(x)
        return mp.sqrt((base + cos) / (base - cos)) / 2

    return f


def first_entry_integrand(c):
    """The input spectrum weighted by 2 sin^2 x / |1 - c e^{ix}|^2, the limit of n U_{1k}^2."""
    mp = _mp()
    spectrum = first_mode_integrand(c, alt_form=True)

    def f(x):
        gap = 1 + mp.mpf(c) ** 2 - 2 * mp.mpf(c) * mp.cos(x)
        return spectrum(x) * 2 * mp.sin(x) ** 2 / gap

    return f


def mean_environment_entropy(variance, c):
    """The spectral mean of g over the symplectic noise spectrum, at ``QUAD_DIGITS`` digits.

    The spectrum is even about pi/2, so the mean is taken over [0, pi/2].
    Its one peak sits at x = 0, where the tanh-sinh nodes of
    ``mpmath.quad`` cluster, so the interval needs no breakpoints.
    """
    mp = _mp()
    with mp.workdps(QUAD_DIGITS):
        half = mp.quad(lambda x: _g(mp, _environment(mp, variance, c, x)), [0, mp.pi / 2])
        return 2 * half / mp.pi


def asymptotic_capacity(variance, c, n_bar):
    """g(n_bar + N) minus the spectral mean of g over the symplectic noise spectrum."""
    mp = _mp()
    with mp.workdps(QUAD_DIGITS):
        return _g(mp, mp.mpf(n_bar) + mp.mpf(variance)) - mean_environment_entropy(variance, c)


def paired_rate(variance, n_bar, unit_spectrum):
    """g(n_bar + N) minus the mean of g(N sqrt(l_k l_{n-1-k})) over a unit-variance spectrum ``l``."""
    mp = _mp()
    with mp.workdps(DIGITS):
        big = mp.mpf(variance)
        pairs = [big * mp.sqrt(mp.mpf(a) * mp.mpf(b)) for a, b in zip(unit_spectrum, unit_spectrum[::-1])]
        return _g(mp, big + mp.mpf(n_bar)) - mp.fsum(_g(mp, p) for p in pairs) / len(pairs)


def rendered(exact):
    """The 12-significant-digit ``.12g`` rendering of ``exact``, or None within ``TIE`` of a rounding tie."""
    mp = _mp()
    with mp.workdps(DIGITS):
        exact = mp.mpf(exact)
        if exact == 0:
            return "0"
        exponent = int(mp.floor(mp.log10(abs(exact)))) - 11
        mantissa = abs(exact) / mp.mpf(10) ** exponent
        if mantissa >= 10**12:  # log10 may land just below an exact power of 10
            mantissa, exponent = mantissa / 10, exponent + 1
        elif mantissa < 10**11:
            mantissa, exponent = mantissa * 10, exponent - 1
        if abs(mantissa - mp.floor(mantissa) - mp.mpf(0.5)) <= TIE * mantissa:
            return None
        digits = int(mp.nint(mantissa)) * (1 if exact > 0 else -1)
        return format(float(f"{digits}e{exponent}"), ".12g")
