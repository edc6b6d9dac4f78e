"""Tests for the command-line interface.

Every asserted value is compared as a formatted string against the
corresponding library call, since the CLI promises to add no computation
of its own.
"""

import math
import tracemalloc

import click
import numpy as np
import pytest
from click.testing import CliRunner

import reference
from gmcapacity import cli, solver
from gmcapacity.cli import _CHUNK_ROWS, _fmt, _geometric_floats, main
from gmcapacity.numerics import IntegrationError
from gmcapacity.solver import (
    MonoNoise,
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
from gmcapacity.spectra import (
    MarkovNoise,
    asymptotic_markov_spectrum,
    circulant_embedding,
    finite_spectrum,
    fourier_diagonalizer,
    markov_matrix,
)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def writes(monkeypatch):
    """The text of each ``click.echo`` call, with the newline that echo adds."""
    recorded = []
    echo = click.echo

    def recording_echo(message, **kwargs):
        recorded.append(message + "\n" if kwargs.get("nl", True) else message)
        echo(message, **kwargs)

    monkeypatch.setattr(click, "echo", recording_echo)
    return recorded


def _failing_integrate(f, r):
    raise IntegrationError("quadrature missed abs_tol=1e-10: injected", 0.0, 1.0)


def parse_csv(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestMono:
    def test_matches_library(self, runner):
        result = runner.invoke(main, ["mono", "--gq", "2", "--gp", "0.5", "--nbar", "2"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        sol = mono_solve(MonoNoise(2.0, 0.5), 2.0)
        row = rows[0]
        assert row["capacity_bits"] == _fmt(sol.capacity_bits)
        assert row["input_q"] == _fmt(sol.input_q)
        assert row["input_p"] == _fmt(sol.input_p)
        assert row["modulation_q"] == _fmt(sol.modulation_q)
        assert row["modulation_p"] == _fmt(sol.modulation_p)
        assert row["water_level"] == _fmt(sol.water_level)
        assert row["threshold"] == _fmt(mono_threshold(MonoNoise(2.0, 0.5)))
        assert row["status"] == "ok"

    def test_below_threshold_exit_code(self, runner):
        result = runner.invoke(main, ["mono", "--gq", "2", "--gp", "0.5", "--nbar", "1"])
        assert result.exit_code == 3
        _, rows = parse_csv(result.output)
        row = rows[0]
        assert row["threshold"] == _fmt(1.25)
        assert row["status"] == "below_threshold"
        assert row["capacity_bits"] == ""
        assert row["modulation_q"] == ""

    def test_missing_flag_is_usage_error(self, runner):
        result = runner.invoke(main, ["mono", "--gq", "2", "--gp", "0.5"])
        assert result.exit_code == 2

    def test_invalid_noise_is_usage_error(self, runner):
        result = runner.invoke(main, ["mono", "--gq", "-1", "--gp", "1", "--nbar", "2"])
        assert result.exit_code == 2


class TestCapacity:
    def test_matches_library(self, runner):
        result = runner.invoke(
            main, ["capacity", "--phi", "0.7", "--N", "1", "--nbar", "7.5"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        noise = MarkovNoise(1.0, 0.7)
        sol = multimode_solve(noise, 7.5)
        row = rows[0]
        assert row["capacity_bits"] == _fmt(sol.capacity_bits)
        assert row["eta"] == _fmt(sol.squeezing_fraction)
        assert row["mu_global"] == _fmt(sol.water_level)
        assert row["threshold"] == _fmt(multimode_threshold(noise))
        assert row["status"] == "ok"

    def test_memoryless(self, runner):
        result = runner.invoke(main, ["capacity", "--phi", "0", "--N", "1", "--nbar", "2"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert rows[0]["capacity_bits"] == _fmt(
            asymptotic_capacity(MarkovNoise(1.0, 0.0), 2.0)
        )

    def test_white_noise_zero_energy(self, runner):
        # The white-noise threshold is 0, so nbar = 0 is a valid point.
        result = runner.invoke(main, ["capacity", "--phi", "0", "--N", "1", "--nbar", "0"])
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.output)
        sol = multimode_solve(MarkovNoise(1.0, 0.0), 0.0)
        assert rows[0]["eta"] == _fmt(sol.squeezing_fraction) == "0"
        assert rows[0]["mu_global"] == _fmt(sol.water_level) == "1.5"
        assert rows[0]["capacity_bits"] == _fmt(sol.capacity_bits)
        assert rows[0]["status"] == "ok"

    def test_below_threshold(self, runner):
        result = runner.invoke(main, ["capacity", "--phi", "0.7", "--N", "1", "--nbar", "6"])
        assert result.exit_code == 3
        _, rows = parse_csv(result.output)
        assert rows[0]["status"] == "below_threshold"
        assert rows[0]["capacity_bits"] == ""
        assert rows[0]["threshold"] == _fmt(multimode_threshold(MarkovNoise(1.0, 0.7)))

    def test_below_a_tiny_threshold(self, runner):
        # The round-off slack is relative, so an energy 3e307 times below
        # the threshold 3e-13 does not reach it.
        result = runner.invoke(main, ["capacity", "--phi", "1e-13", "--N", "1", "--nbar", "1e-320"])
        assert result.exit_code == 3
        _, rows = parse_csv(result.output)
        assert [rows[0][key] for key in ("threshold", "eta", "status")] == ["3e-13", "", "below_threshold"]

    def test_allow_below_reports_threshold(self, runner):
        result = runner.invoke(
            main, ["capacity", "--phi", "0.7", "--N", "1", "--nbar", "6", "--allow-below"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert rows[0]["status"] == "below_threshold"

    def test_first_mode_columns(self, runner):
        result = runner.invoke(
            main,
            ["capacity", "--phi", "0.5", "--N", "1", "--nbar", "4", "--first-mode"],
        )
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert "first_mode_variance" in header
        assert rows[0]["first_mode_variance"] == _fmt(first_mode_variance(0.5))
        assert rows[0]["first_mode_variance_alt"] == _fmt(
            first_mode_variance(0.5, alt_form=True)
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["capacity", "--phi", "0.5", "--N", "1", "--nbar", "4"],
            ["fig3"],
            ["fig4"],
        ],
        ids=["capacity", "fig3", "fig4"],
    )
    def test_numerical_failure_exit_code(self, runner, monkeypatch, args):
        # No input the CLI accepts misses the quadrature's fixed target, so
        # the failure is injected.
        monkeypatch.setattr(solver, "integrate", _failing_integrate)
        result = runner.invoke(main, args)
        assert result.exit_code == 4
        assert result.stderr.startswith("numerical failure: ")

    def test_correlation_out_of_range_is_usage_error(self, runner):
        result = runner.invoke(main, ["capacity", "--phi", "1.2", "--N", "1", "--nbar", "2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("phi", ["-0.5", "0.9995"])
    def test_solver_range_reported_before_first_mode(self, runner, phi):
        # first_mode_variance accepts both correlations or rejects them with
        # its own message; the solver's check comes first.
        result = runner.invoke(main, ["capacity", "--phi", phi, "--N", "1", "--nbar", "2", "--first-mode"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.endswith(
            f"Error: closed-form solvers accept correlations in [0, 0.999], got {float(phi)}\n")

    def test_energy_reported_before_first_mode(self, runner):
        result = runner.invoke(main, ["capacity", "--phi", "0.5", "--N", "1", "--nbar", "nan", "--first-mode"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.endswith("Error: n_bar must be finite and non-negative, got nan\n")


class TestFig3:
    def test_rows_and_trends(self, runner):
        result = runner.invoke(
            main,
            ["fig3", "--phi", "0.4", "--n-min", "1", "--n-max", "4", "--steps", "2"],
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert len(rows) == 2
        for row in rows:
            assert row["status"] == "ok"
            assert float(row["capacity_bits"]) < float(row["classical_limit_bits"])
        # The protocol fixes nbar = N * threshold(phi, N=1).
        snr = multimode_threshold(MarkovNoise(1.0, 0.4))
        assert rows[1]["nbar"] == _fmt(4.0 * snr)
        assert rows[1]["classical_limit_bits"] == _fmt(
            classical_limit_capacity(MarkovNoise(4.0, 0.4), snr)
        )

    def test_deterministic(self, runner):
        args = ["fig3", "--phi", "0.7", "--n-min", "1", "--n-max", "10", "--steps", "3"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_bounds_whose_ratio_overflows(self, runner):
        # n_max / n_min overflows; the grid steps in log space instead and
        # keeps both end points exact.
        result = runner.invoke(
            main,
            ["fig3", "--phi", "0.5", "--n-min", "1e-300", "--n-max", "1e300", "--steps", "3"],
        )
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.output)
        assert [row["N"] for row in rows] == ["1e-300", "1", "1e+300"]
        assert [row["status"] for row in rows] == ["below_threshold", "ok", "ok"]
        assert _geometric_floats(1e-300, 1e300, 5)[::4] == [1e-300, 1e300]
        assert _geometric_floats(1e-300, 1e300, 5) == pytest.approx([1e-300, 1e-150, 1.0, 1e150, 1e300],
                                                                    rel=1e-12, abs=0)

    @pytest.mark.parametrize("n_min, n_max", [("0", "1"), ("-1", "1"), ("2", "1")])
    def test_variance_range_is_checked(self, runner, n_min, n_max):
        result = runner.invoke(main, ["fig3", "--phi", "0.5", "--n-min", n_min, "--n-max", n_max, "--steps", "2"])
        assert result.exit_code == 2, result.output
        assert result.stderr.endswith("Error: need 0 < n-min <= n-max\n")

    def test_finite_ratio_grid_unchanged(self):
        for lo, hi, steps in [(1.0, 100.0, 15), (0.3, 30.0, 40), (1e-300, 1e7, 9)]:
            ratio = hi / lo
            assert _geometric_floats(lo, hi, steps) == [
                lo * ratio ** (i / (steps - 1)) for i in range(steps)
            ]

    def test_energy_overflow_names_n_and_snr(self, runner):
        result = runner.invoke(main, ["fig3", "--phi", "0.5", "--n-max", "1e308", "--steps", "50"])
        assert result.exit_code == 2
        assert "nbar = N * snr overflows at N = 1e+308, snr = 3" in result.stderr

    def test_energy_underflow_below_threshold(self, runner):
        # N * snr underflows to 0 on the first row, which is below
        # threshold and so needs no squeezing fraction.
        result = runner.invoke(
            main, ["fig3", "--phi", "0.1", "--n-min", "5e-324", "--n-max", "1", "--steps", "2"]
        )
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.output)
        assert [row["nbar"] for row in rows] == ["0", _fmt(multimode_threshold(MarkovNoise(1.0, 0.1)))]
        assert [row["status"] for row in rows] == ["below_threshold", "ok"]
        assert rows[0]["eta"] == ""

    @staticmethod
    def one_point_sweep(runner, phis, n_min):
        """Run fig3 over ``phis`` on 40 steps of [n_min, 30]; check every row against one-point calls.

        Each phi is evaluated on arrays, its ok rows in batched integrals;
        every row must still print the one-point library values.  Returns
        the rows and the set of (phi, above threshold) seen.
        """
        args = ["fig3", "--n-min", repr(n_min), "--n-max", "30", "--steps", "40"]
        result = runner.invoke(main, [*args, *(arg for phi in phis for arg in ("--phi", repr(phi)))])
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.output)
        points = [(phi, n) for phi in phis for n in _geometric_floats(n_min, 30.0, 40)]
        assert len(rows) == len(points)
        seen = set()
        for row, (phi, variance) in zip(rows, points):
            noise = MarkovNoise(variance, phi)
            nbar = variance * multimode_threshold(MarkovNoise(1.0, phi))
            assert (row["N"], row["nbar"]) == (_fmt(variance), _fmt(nbar))
            assert row["threshold"] == _fmt(multimode_threshold(noise))
            above = row["status"] == "ok"
            if above:
                sol = multimode_solve(noise, nbar)
                assert row["eta"] == _fmt(sol.squeezing_fraction)
                assert row["mu_global"] == _fmt(sol.water_level)
                assert row["capacity_bits"] == _fmt(sol.capacity_bits)
            else:
                with pytest.raises(solver.BelowThresholdError):
                    multimode_solve(noise, nbar)
                assert row["status"] == "below_threshold"
                assert row["eta"] == row["mu_global"] == row["capacity_bits"] == ""
            seen.add((phi, above))
        return rows, seen

    def test_mixed_regimes(self, runner):
        # The fixed-SNR protocol puts every N < 1 below threshold.
        rows, seen = self.one_point_sweep(runner, (0.5, 0.95), 0.3)
        assert seen == {(0.5, False), (0.5, True), (0.95, False), (0.95, True)}
        assert [row["status"] == "ok" for row in rows] == [
            n >= 1.0 for _ in range(2) for n in _geometric_floats(0.3, 30.0, 40)
        ]

    def test_mixed_regimes_energy_underflow(self, runner):
        # N * snr underflows to 0 at N = 5e-324, which lies below the
        # positive threshold of either correlation, even phi = 1e-13's.
        rows, seen = self.one_point_sweep(runner, (1e-13, 0.1), 5e-324)
        assert seen == {(1e-13, False), (1e-13, True), (0.1, False), (0.1, True)}
        assert [row["status"] == "ok" for row in rows] == [
            n >= 1.0 for _ in range(2) for n in _geometric_floats(5e-324, 30.0, 40)
        ]
        for row in (rows[0], rows[40]):
            assert [row[key] for key in ("nbar", "eta", "status")] == ["0", "", "below_threshold"]

    @pytest.mark.parametrize("phis", [["0"], ["0.5", "0"], ["-0.0"]], ids=["alone", "after-valid", "negative-zero"])
    def test_zero_correlation_is_usage_error(self, runner, monkeypatch, tmp_path, phis):
        # At phi = 0 the snr, and so every nbar, is 0: the error names the
        # correlation, and comes before any sweep is evaluated.
        calls = []
        monkeypatch.setattr(cli, "_multimode", lambda *args: calls.append(args))
        target = tmp_path / "out.csv"
        args = [arg for phi in phis for arg in ("--phi", phi)]
        result = runner.invoke(main, ["fig3", *args, "--out", str(target)])
        assert result.exit_code == 2, result.output
        shown = "-0" if phis[-1] == "-0.0" else "0"
        assert (f"Error: fig3 needs correlations above 0: at phi = {shown} "
                "the fixed-SNR protocol pins nbar to 0") in result.stderr
        assert result.stdout == ""
        assert not target.exists()
        assert calls == []

    def test_memory_per_row(self, runner, tmp_path):
        # Each correlation is evaluated on numpy arrays in the solver: ~40 B
        # a row held until the table is written, and ~0.13 KB a row while
        # its correlation is evaluated; 169 B a row in all here.  A
        # MarkovNoise object per point above threshold took 260 B, and a
        # Python list of strings per row 820 B.
        steps = 20000
        args = ["fig3", "--phi", "0.5", "--n-min", "1", "--n-max", "100", "--steps", str(steps),
                "--out", str(tmp_path / "out.csv")]
        tracemalloc.start()
        try:
            result = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert peak / steps < 200

    @pytest.mark.parametrize("args, most", [
        (["--phi", "0.5", "--steps", "100001"], 100_000),
        (["--phi", "0.5", "--phi", "0.6", "--steps", "50001"], 50_000),
    ], ids=["one-phi", "two-phis"])
    def test_row_limit_is_usage_error(self, runner, tmp_path, args, most):
        # One past the limit: the grid is never built, so this fails at once.
        # The 100000 rows are shared out as a steps cap per correlation.
        target = tmp_path / "out.csv"
        result = runner.invoke(main, ["fig3", *args, "--out", str(target)])
        assert result.exit_code == 2, result.output
        assert result.stderr.endswith(f"Error: steps must be at most {most}, got {most + 1}\n")
        assert not target.exists()

    def test_row_limit_itself_is_accepted(self, runner, tmp_path):
        target = tmp_path / "out.csv"
        result = runner.invoke(main, ["fig3", "--phi", "0.5", "--phi", "0.6", "--steps", "50000",
                                      "--out", str(target)])
        assert result.exit_code == 0, result.output
        rows = [line for line in target.read_text().splitlines() if not line.startswith("#")]
        assert len(rows) == 1 + 100_000

    def test_row_limit_without_a_correlation(self, runner, tmp_path):
        # A config line "phi =" leaves no correlation; the steps still have
        # the whole row limit as their cap, checked before the grid is built.
        config = tmp_path / "gmcap.cfg"
        config.write_text("phi =\n")
        result = runner.invoke(main, ["--config", str(config), "fig3", "--steps", "100001"])
        assert result.exit_code == 2, result.output
        assert result.stderr.endswith("Error: steps must be at most 100000, got 100001\n")
        result = runner.invoke(main, ["--config", str(config), "fig3", "--steps", "100000"])
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines()[-1].startswith("phi,N,nbar,")  # the header, and no row

    def test_classical_limit_once_per_correlation(self, runner, monkeypatch):
        calls = []

        def counting(noise, snr):
            calls.append(noise.correlation)
            return classical_limit_capacity(noise, snr)

        monkeypatch.setattr(cli, "classical_limit_capacity", counting)
        args = ["fig3", "--phi", "0.4", "--phi", "0.7", "--n-min", "1", "--n-max", "10", "--steps", "5"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert calls == [0.4, 0.7]

    def test_rows_across_chunks(self, runner, writes):
        # 4097 rows are written as two texts, of _CHUNK_ROWS rows and of one,
        # with no blank line between; each row equals the one-row command
        # at its N, checked at the seam and at a stride.
        steps = _CHUNK_ROWS + 1
        args = ["fig3", "--phi", "0.5", "--n-min", "1", "--n-max", "100"]
        result = runner.invoke(main, [*args, "--steps", str(steps)])
        assert result.exit_code == 0, result.output
        assert "".join(writes) == result.output
        assert "" not in result.output.splitlines()
        _, *tables = [text.splitlines() for text in writes]
        assert [len(table) for table in tables] == [_CHUNK_ROWS, 1]
        rows = [row for table in tables for row in table]
        variances = _geometric_floats(1.0, 100.0, steps)
        assert [row.split(",")[1] for row in rows] == [_fmt(v) for v in variances]
        for i in [*range(0, steps, 256), _CHUNK_ROWS - 1, _CHUNK_ROWS]:
            n = repr(variances[i])
            one = runner.invoke(main, ["fig3", "--phi", "0.5", "--n-min", n, "--n-max", n, "--steps", "1"])
            assert one.output.splitlines()[-1] == rows[i]


class TestFig4:
    def test_rows_match_library(self, runner):
        args = [
            "fig4", "--phi", "0", "--phi", "0.4", "--N", "1", "--nbar", "7.5",
            "--n", "1", "--n", "4", "--n", "16",
        ]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert len(rows) == 6
        assert [row["n"] for row in rows] == ["1", "4", "16"] * 2
        noise = MarkovNoise(1.0, 0.4)
        row = next(r for r in rows if r["phi"] == "0.4" and r["n"] == "16")
        assert row["rate_bits"] == _fmt(finite_n_rate(noise, 7.5, 16))
        assert row["capacity_bits"] == _fmt(asymptotic_capacity(noise, 7.5))

    def test_white_noise_rate_equals_capacity(self, runner):
        result = runner.invoke(
            main, ["fig4", "--phi", "0", "--N", "1", "--nbar", "7.5", "--n", "1", "--n", "8"]
        )
        _, rows = parse_csv(result.output)
        for row in rows:
            assert row["rate_bits"] == row["capacity_bits"]

    def test_overflow_after_an_infinite_threshold(self, runner):
        # The threshold overflows to inf, so the capacity cell is empty;
        # the rate then reports that nbar + N overflows.
        result = runner.invoke(main, ["fig4", "--phi", "0.5", "--N", "1e308", "--nbar", "1e308", "--n", "3"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.endswith(
            "Error: n_bar + noise variance overflows: n_bar = 1e+308, variance = 1e+308\n")

    def test_below_threshold_phi_keeps_rates(self, runner):
        result = runner.invoke(
            main, ["fig4", "--phi", "0.9", "--N", "1", "--nbar", "7.5", "--n", "2"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert rows[0]["status"] == "below_threshold"
        assert rows[0]["capacity_bits"] == ""
        assert rows[0]["rate_bits"] == _fmt(finite_n_rate(MarkovNoise(1.0, 0.9), 7.5, 2))

    def test_single_use_grid(self, runner):
        result = runner.invoke(main, ["fig4", "--n-max", "1"])
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.output)
        assert [(row["phi"], row["n"]) for row in rows] == [
            (phi, "1") for phi in ["0", "0.4", "0.55", "0.7"]
        ]

    @pytest.mark.parametrize("counts, message", [
        (["5", "0"], "channel-use counts must be at least 1, got 0"),
        (["8193", "5"], "channel-use counts must be at most 8192, got 8193"),
    ], ids=["least", "most"])
    def test_counts_checked_at_both_ends_before_any_rate(self, runner, monkeypatch, counts, message):
        rates = []
        monkeypatch.setattr(cli, "finite_n_rate", lambda noise, nbar, n: rates.append(n))
        result = runner.invoke(main, ["fig4", "--phi", "0.5", "--n", counts[0], "--n", counts[1]])
        assert result.exit_code == 2, result.output
        assert result.stderr.endswith(f"Error: {message}\n")
        assert rates == []

    def test_one_text_per_correlation(self, runner, writes):
        # The header, then each correlation's rows as one text.
        result = runner.invoke(main, ["fig4", "--phi", "0", "--phi", "0.5", "--n", "1", "--n", "2", "--n", "3"])
        assert result.exit_code == 0, result.output
        assert "".join(writes) == result.output
        header, *tables = [text.splitlines() for text in writes]
        assert header[-1] == "phi,n,rate_bits,capacity_bits,status"
        assert [[row.split(",")[:2] for row in table] for table in tables] == [
            [[phi, n] for n in ["1", "2", "3"]] for phi in ["0", "0.5"]
        ]


class TestSpectrum:
    def test_asymptotic_endpoints(self, runner):
        result = runner.invoke(
            main,
            ["spectrum", "--kind", "asymptotic", "--phi", "0.5", "--N", "1", "--samples", "5"],
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert len(rows) == 5
        assert rows[0]["value"] == _fmt(3.0)
        noise = MarkovNoise(1.0, 0.5)
        assert rows[-1]["value"] == _fmt(asymptotic_markov_spectrum(noise, math.pi))

    def test_asymptotic_rows_across_chunks(self, runner):
        # Rows are formatted a chunk at a time; every row, including the
        # ones at chunk boundaries, must equal the per-value rendering.
        samples = 2 * _CHUNK_ROWS + 3
        result = runner.invoke(
            main,
            ["spectrum", "--kind", "asymptotic", "--phi", "0.7", "--N", "1.3",
             "--samples", str(samples), "--sign", "-1"],
        )
        assert result.exit_code == 0
        xs = math.pi * np.arange(samples) / (samples - 1)
        values = asymptotic_markov_spectrum(MarkovNoise(1.3, -0.7), xs)
        expected = [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(xs, values)]
        assert result.output.splitlines()[-samples:] == expected
        assert result.output.splitlines()[-samples - 1] == "x,value"

    def test_samples_above_the_cap_is_usage_error(self, runner, monkeypatch):
        # One past the cap fails before any array of the samples is built.
        def unreachable(*args, **kwargs):
            raise AssertionError("built an array before checking --samples")

        monkeypatch.setattr(cli.np, "arange", unreachable)
        result = runner.invoke(main, ["spectrum", "--kind", "asymptotic", "--phi", "0.5",
                                      "--samples", str(cli._MAX_POINTS + 1)])
        assert result.exit_code == 2, result.output
        assert f"Error: samples must be at most {cli._MAX_POINTS}, got {cli._MAX_POINTS + 1}" in result.stderr
        # The benchmark's table fits under the cap.
        assert cli._MAX_POINTS >= 200001

    def test_samples_at_the_cap_is_accepted(self, runner, tmp_path):
        target = tmp_path / "out.csv"
        result = runner.invoke(main, ["spectrum", "--kind", "asymptotic", "--phi", "0.5",
                                      "--samples", str(cli._MAX_POINTS), "--out", str(target)])
        assert result.exit_code == 0, result.output
        lines = target.read_text().splitlines()
        assert lines[5] == f"# samples = {cli._MAX_POINTS}"
        assert lines[6] == "x,value"
        assert len(lines) == 7 + cli._MAX_POINTS
        assert lines[-1].startswith("3.14159265359,")

    @pytest.mark.parametrize("sign, index, peak", [
        ("+1", 0, "0,1999"),
        ("-1", -1, "3.14159265359,1999"),
    ])
    def test_asymptotic_peak_is_exact(self, runner, sign, index, peak):
        # N (1 + c) / (1 - c) = 1999 at the peak, where 1 + c^2 - 2 c cos x
        # would cancel and miss it in the 10th digit.
        result = runner.invoke(
            main,
            ["spectrum", "--kind", "asymptotic", "--phi", "0.999", "--N", "1",
             "--samples", "2001", "--sign", sign],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[lines.index("x,value") + 1:][index] == peak

    @pytest.mark.parametrize("phi", ["0.6", "0.999"])
    @pytest.mark.parametrize("sign", ["+1", "-1"])
    def test_asymptotic_table_prints_the_exact_digits(self, runner, phi, sign):
        # Every printed value is the 12-digit rendering of the mpmath
        # symbol N (1 - c^2) / (1 + c^2 - 2 c cos x) at the program's own
        # float abscissa.  A value within reference.TIE of a rounding tie
        # may round either way; it is printed and not failed on.
        samples = 2001
        result = runner.invoke(main, ["spectrum", "--kind", "asymptotic", "--phi", phi, "--N", "1.7",
                                      "--samples", str(samples), "--sign", sign])
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.output)
        xs = (math.pi * np.arange(samples) / (samples - 1)).tolist()
        assert [row["x"] for row in rows] == [_fmt(x) for x in xs]
        misprints, ties = [], []
        for x, row in zip(xs, rows):
            exact = reference.symbol(1.7, float(sign) * float(phi), x)
            expected = reference.rendered(exact)
            if expected is None:
                ties.append((x, row["value"], str(exact)))
            elif row["value"] != expected:
                misprints.append((x, row["value"], str(exact)))
        print(f"phi = {phi}, sign = {sign}: {len(ties)} ties", *ties, sep="\n")
        assert misprints == []

    @pytest.mark.parametrize("samples", [14, 100])
    def test_last_abscissa_is_pi(self, runner, samples):
        # pi * (s - 1) / (s - 1) rounds one ulp above pi at these counts,
        # where the symbol rightly rejects it.
        assert math.pi * (samples - 1) / (samples - 1) > math.pi
        result = runner.invoke(main, ["spectrum", "--kind", "asymptotic", "--phi", "0.5",
                                      "--samples", str(samples)])
        assert result.exit_code == 0, result.output
        noise = MarkovNoise(1.0, 0.5)
        at_pi = _fmt(asymptotic_markov_spectrum(noise, math.pi))
        assert result.output.splitlines()[-1] == f"3.14159265359,{at_pi}"
        with pytest.raises(ValueError, match="must lie in"):
            asymptotic_markov_spectrum(noise, math.nextafter(math.pi, 4.0))

    def test_toeplitz_white_noise(self, runner):
        result = runner.invoke(
            main, ["spectrum", "--kind", "toeplitz", "--phi", "0", "--n", "4"]
        )
        _, rows = parse_csv(result.output)
        assert [row["eigenvalue"] for row in rows] == ["1", "1", "1", "1"]

    def test_circulant_matches_library(self, runner):
        result = runner.invoke(
            main, ["spectrum", "--kind", "circulant", "--phi", "0.5", "--n", "5"]
        )
        _, rows = parse_csv(result.output)
        expected = finite_spectrum(circulant_embedding(MarkovNoise(1.0, 0.5), 5))
        assert [row["index"] for row in rows] == ["0", "1", "2", "3", "4"]
        assert [row["eigenvalue"] for row in rows] == [_fmt(v) for v in expected]

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 601, 1200])
    def test_circulant_matches_dense_routes(self, runner, n):
        # The printed eigenvalues come from one FFT of the first row.  Each
        # must be within 1e-14 * lambda_max of the dense eigvalsh spectrum,
        # and of the Rayleigh quotients diag(Q^T C Q) of the real Fourier
        # basis, which carry the basis's own rounding: Q^T Q is the identity
        # only to within its largest entry error, which the second bound adds.
        q = fourier_diagonalizer(n)
        defect = np.abs(q.T @ q - np.eye(n)).max()
        for phi in [0.0, 0.3, 0.7, 0.999, -0.7]:
            result = runner.invoke(
                main, ["spectrum", "--kind", "circulant", "--phi", str(phi), "--n", str(n)]
            )
            assert result.exit_code == 0, result.output
            printed = np.array([float(row["eigenvalue"]) for row in parse_csv(result.output)[1]])
            c = circulant_embedding(MarkovNoise(1.0, phi), n)
            dense = np.linalg.eigvalsh(c)[::-1]
            basis = np.sort((q * (c @ q)).sum(axis=0))[::-1]
            tol = 1e-14 * dense[0]
            for ref, bound in [(dense, tol), (basis, tol + defect * dense[0])]:
                # Rounding to 12 digits is monotone, so a value within the
                # bound prints between the printed ends of the interval.
                low = [float(_fmt(v)) for v in ref - bound]
                high = [float(_fmt(v)) for v in ref + bound]
                assert np.all((low <= printed) & (printed <= high)), (phi, n)

    def test_circulant_skips_the_dense_solve(self, runner, monkeypatch):
        def dense_solve(matrix):
            raise RuntimeError("dense eigensolve")

        monkeypatch.setattr(cli, "finite_spectrum", dense_solve)
        args = ["--phi", "0.5", "--n", "8"]
        circulant = runner.invoke(main, ["spectrum", "--kind", "circulant", *args])
        toeplitz = runner.invoke(main, ["spectrum", "--kind", "toeplitz", *args])
        assert circulant.exit_code == 0, circulant.output
        assert len(parse_csv(circulant.output)[1]) == 8
        assert str(toeplitz.exception) == "dense eigensolve"

    def test_sign_branch(self, runner):
        result = runner.invoke(
            main,
            ["spectrum", "--kind", "asymptotic", "--phi", "0.5", "--samples", "3", "--sign", "-1"],
        )
        _, rows = parse_csv(result.output)
        noise = MarkovNoise(1.0, -0.5)
        assert rows[0]["value"] == _fmt(asymptotic_markov_spectrum(noise, 0.0))

    def test_dump_matrix(self, runner):
        result = runner.invoke(
            main,
            ["spectrum", "--kind", "toeplitz", "--phi", "0.5", "--n", "3", "--dump-matrix"],
        )
        assert result.exit_code == 0
        parsed = np.array(
            [[float(v) for v in line.split()] for line in result.output.splitlines()]
        )
        assert np.allclose(parsed, markov_matrix(MarkovNoise(1.0, 0.5), 3), atol=1e-10)

    def test_dump_matrix_rejected_for_symbol(self, runner):
        result = runner.invoke(
            main, ["spectrum", "--kind", "asymptotic", "--phi", "0.5", "--dump-matrix"]
        )
        assert result.exit_code == 2

    def test_matrix_kind_requires_n(self, runner):
        result = runner.invoke(main, ["spectrum", "--kind", "toeplitz", "--phi", "0.5"])
        assert result.exit_code == 2
        assert result.stderr.endswith("Error: --n is required for kind=toeplitz\n")

    @pytest.mark.parametrize("kind", ["toeplitz", "circulant"])
    def test_dump_matrix_above_the_dense_cap(self, runner, kind):
        # n^2 numbers: one past the dense cap fails before the first row,
        # although the circulant spectrum alone accepts n up to 10**6.
        args = ["spectrum", "--kind", kind, "--phi", "0.5", "--n", "8193", "--dump-matrix"]
        tracemalloc.start()
        try:
            result = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.endswith("Error: n must be at most 8192, got 8193\n")
        assert peak < 1_000_000

    def test_dump_matrix_at_the_dense_cap(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_DENSE", 4)
        args = ["spectrum", "--kind", "circulant", "--phi", "0.5", "--dump-matrix", "--n"]
        result = runner.invoke(main, [*args, "4"])
        assert result.exit_code == 0, result.output
        assert len(result.stdout.splitlines()) == 4
        result = runner.invoke(main, [*args, "5"])
        assert result.exit_code == 2
        assert result.stderr.endswith("Error: n must be at most 4, got 5\n")
        # The smallest matrix dumps its one entry.
        result = runner.invoke(main, ["spectrum", "--kind", "toeplitz", "--phi", "0.5", "--n", "1", "--dump-matrix"])
        assert (result.exit_code, result.stdout) == (0, "1\n")

    def test_dump_matrix_help_states_the_cap(self):
        [option] = [param for param in main.commands["spectrum"].params if "--dump-matrix" in param.opts]
        assert "at most 8192" in option.help


NON_FINITE_ARGS = {
    "mono-nbar": ["mono", "--gq", "2", "--gp", "0.5", "--nbar", "{}"],
    "mono-gq": ["mono", "--gq", "{}", "--gp", "0.5", "--nbar", "2"],
    "capacity-nbar": ["capacity", "--phi", "0.5", "--N", "1", "--nbar", "{}"],
    "capacity-N": ["capacity", "--phi", "0.5", "--N", "{}", "--nbar", "5"],
    "fig4-nbar": ["fig4", "--phi", "0.4", "--N", "1", "--nbar", "{}", "--n", "3"],
    "fig4-N": ["fig4", "--phi", "0.4", "--N", "{}", "--nbar", "7.5", "--n", "3"],
    "fig3-n-max": ["fig3", "--phi", "0.4", "--n-max", "{}", "--steps", "2"],
    "fig3-n-max-one-step": ["fig3", "--phi", "0.4", "--n-max", "{}", "--steps", "1"],
    "oracle-nbar": ["oracle", "--gq", "2", "--gp", "0.5", "--nbar", "{}", "--resolution", "64"],
    "spectrum-N": ["spectrum", "--kind", "toeplitz", "--phi", "0.5", "--N", "{}", "--n", "3"],
}


REJECTED_VALUE_ARGS = {
    "mono": ["mono", "--gq", "-1", "--gp", "0.5", "--nbar", "2"],
    "capacity": ["capacity", "--phi", "1.5", "--N", "1", "--nbar", "2"],
    "fig3": ["fig3", "--phi", "0"],
    "fig4": ["fig4", "--n", "0"],
    "spectrum": ["spectrum", "--kind", "circulant", "--phi", "0.5", "--n", "1"],
    "oracle": ["oracle", "--gq", "2", "--gp", "0.5", "--nbar", "1", "--resolution", "10"],
}


@pytest.mark.parametrize("command", sorted(REJECTED_VALUE_ARGS))
def test_rejected_value_is_usage_error(runner, command):
    result = runner.invoke(main, REJECTED_VALUE_ARGS[command])
    assert result.exit_code == 2, result.output
    assert "Error: " in result.stderr
    # The domain error is mapped to a usage exit, not leaked as a ValueError.
    assert isinstance(result.exception, SystemExit)


# Each count option of the CLI: the arguments before its value, its least
# accepted value and the name its message gives it.
COUNT_ARGS = {
    "fig3-steps": (["fig3", "--phi", "0.5", "--steps"], 1, "steps"),
    "fig4-n-max": (["fig4", "--phi", "0.5", "--n-max"], 1, "n-max"),
    "fig4-n": (["fig4", "--phi", "0.5", "--n"], 1, "channel-use counts"),
    "spectrum-samples": (["spectrum", "--kind", "asymptotic", "--phi", "0.5", "--samples"], 2, "samples"),
    "spectrum-toeplitz-n": (["spectrum", "--kind", "toeplitz", "--phi", "0.5", "--n"], 1, "n"),
    "spectrum-circulant-n": (["spectrum", "--kind", "circulant", "--phi", "0.5", "--n"], 2, "n"),
    "oracle-resolution": (["oracle", "--gq", "2", "--gp", "0.5", "--nbar", "1", "--resolution"], 64, "resolution"),
}


@pytest.mark.parametrize("case", sorted(COUNT_ARGS))
def test_count_below_minimum_is_usage_error(runner, case):
    args, least, name = COUNT_ARGS[case]
    result = runner.invoke(main, [*args, str(least - 1)])
    assert result.exit_code == 2, result.output
    assert result.stderr.endswith(f"Error: {name} must be at least {least}, got {least - 1}\n")


@pytest.mark.parametrize("case", sorted(COUNT_ARGS))
def test_count_at_minimum_is_accepted(runner, case):
    args, least, _ = COUNT_ARGS[case]
    result = runner.invoke(main, [*args, str(least)])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""


def _unit_spectrum(m):
    return np.ones(len(m))


def _grid_origin(objective, interval, resolution, refinements):
    return 0.0, 0.0


# Each count option's largest accepted value, the name its upper-end message
# gives it, and where a run at the cap would take more than ~1 s, the solve
# that the run replaces with a stub: (module, attribute, stub).
COUNT_CAPS = {
    "fig3-steps": (100_000, "steps", None),
    "fig4-n-max": (8192, "channel-use counts", (solver, "finite_spectrum", _unit_spectrum)),
    "fig4-n": (8192, "channel-use counts", (solver, "finite_spectrum", _unit_spectrum)),
    "spectrum-samples": (1_000_000, "samples", None),
    "spectrum-toeplitz-n": (8192, "n", (cli, "finite_spectrum", _unit_spectrum)),
    "spectrum-circulant-n": (1_000_000, "n", None),
    "oracle-resolution": (1_000_000, "resolution", (solver, "grid_maximize", _grid_origin)),
}


@pytest.mark.parametrize("case", sorted(COUNT_ARGS))
def test_count_help_states_the_cap(case):
    args, _, _ = COUNT_ARGS[case]
    most, _, _ = COUNT_CAPS[case]
    [option] = [param for param in main.commands[args[0]].params if args[-1] in param.opts]
    assert str(most) in option.help


@pytest.mark.parametrize("case", sorted(COUNT_ARGS))
def test_count_above_maximum_is_usage_error(runner, case):
    # One past the cap fails before anything of the size it names is allocated.
    args, _, _ = COUNT_ARGS[case]
    most, name, _ = COUNT_CAPS[case]
    tracemalloc.start()
    try:
        result = runner.invoke(main, [*args, str(most + 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2, result.output
    assert result.stderr.endswith(f"Error: {name} must be at most {most}, got {most + 1}\n")
    assert peak < 1_000_000


@pytest.mark.parametrize("case", sorted(COUNT_ARGS))
def test_count_at_maximum_is_accepted(runner, monkeypatch, tmp_path, case):
    args, _, _ = COUNT_ARGS[case]
    most, _, stub = COUNT_CAPS[case]
    if stub:
        monkeypatch.setattr(*stub)
    target = tmp_path / "out.csv"
    result = runner.invoke(main, [*args, str(most), "--out", str(target)])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    # The parameter echo ends with the cap: the command ran at that size.
    with target.open() as lines:
        assert str(most) in {line.split()[-1] for line in lines if line.startswith("# ")}


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("case", sorted(NON_FINITE_ARGS))
    def test_usage_error(self, runner, case, bad):
        result = runner.invoke(main, [a.format(bad) for a in NON_FINITE_ARGS[case]])
        assert result.exit_code == 2, result.output


class TestOracle:
    def test_matches_library(self, runner):
        result = runner.invoke(
            main,
            ["oracle", "--gq", "1", "--gp", "1", "--nbar", "2",
             "--resolution", "81"],
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        sol = brute_force_mono_oracle(MonoNoise(1.0, 1.0), 2.0, 81)
        row = rows[0]
        assert row["capacity_bits"] == _fmt(sol.capacity_bits)
        assert row["input_q"] == _fmt(sol.input_q)
        assert row["above_threshold"] == "true"
        assert row["status"] == "ok"

    def test_large_energy(self, runner):
        result = runner.invoke(main, ["oracle", "--gq", "1", "--gp", "1", "--nbar", "5e7"])
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.output)
        assert rows[0]["capacity_bits"] == _fmt(mono_solve(MonoNoise(1.0, 1.0), 5e7).capacity_bits)

    def test_below_threshold_still_reports(self, runner):
        result = runner.invoke(
            main, ["oracle", "--gq", "2", "--gp", "0.5", "--nbar", "1", "--resolution", "81"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert rows[0]["above_threshold"] == "false"
        assert rows[0]["capacity_bits"] != ""


OUT_CASES = {
    "capacity": (["capacity", "--phi", "0.5", "--N", "1", "--nbar", "4"], 0),
    "mono-below": (["mono", "--gq", "2", "--gp", "0.5", "--nbar", "1"], 3),
    "fig3": (["fig3", "--phi", "0.4", "--phi", "0.9", "--n-min", "0.5", "--n-max", "8",
              "--steps", "5"], 0),
    "fig4": (["fig4", "--phi", "0", "--phi", "0.9", "--n", "1", "--n", "6"], 0),
    "spectrum-chunks": (["spectrum", "--kind", "asymptotic", "--phi", "0.6",
                         "--samples", str(2 * _CHUNK_ROWS + 3)], 0),
    "dump-matrix": (["spectrum", "--kind", "circulant", "--phi", "0.5", "--n", "6",
                     "--dump-matrix"], 0),
    "oracle": (["oracle", "--gq", "2", "--gp", "0.5", "--nbar", "1", "--resolution", "64"], 0),
}


class TestOutputPlumbing:
    @pytest.mark.parametrize("case", list(OUT_CASES))
    def test_out_file_equals_stdout(self, runner, tmp_path, case):
        args, code = OUT_CASES[case]
        piped = runner.invoke(main, args)
        target = tmp_path / "out.csv"
        written = runner.invoke(main, args + ["--out", str(target)])
        assert piped.exit_code == written.exit_code == code
        assert written.stdout == ""
        assert target.read_text() == piped.stdout

    def test_numerical_failure_writes_no_file(self, runner, monkeypatch, tmp_path):
        monkeypatch.setattr(solver, "integrate", _failing_integrate)
        target = tmp_path / "out.csv"
        result = runner.invoke(
            main, ["capacity", "--phi", "0.5", "--N", "1", "--nbar", "4", "--out", str(target)]
        )
        assert result.exit_code == 4
        assert result.stdout == ""
        assert not target.exists()

    def test_dump_matrix_written_a_row_at_a_time(self, runner, writes):
        # 1200 rows of ~20k characters: each is one write, so long lines do
        # not add up into one large write.
        result = runner.invoke(
            main, ["spectrum", "--kind", "toeplitz", "--phi", "0.7", "--n", "1200", "--dump-matrix"]
        )
        assert result.exit_code == 0
        assert writes == result.output.splitlines(keepends=True)
        assert len(writes) == 1200

    @pytest.mark.parametrize("samples", [2 * _CHUNK_ROWS + 3, 32 * _CHUNK_ROWS + 1])
    def test_table_writes_hold_at_most_chunk_rows(self, runner, writes, samples):
        # The comment lines and header are one write; then each write holds
        # _CHUNK_ROWS table rows, the last one the rest, so no write holds
        # the whole table.
        result = runner.invoke(
            main, ["spectrum", "--kind", "asymptotic", "--phi", "0.6", "--samples", str(samples)]
        )
        assert result.exit_code == 0
        assert "".join(writes) == result.output
        header, *tables = [text.splitlines() for text in writes]
        assert header[-1] == "x,value"
        assert all(line.startswith("# ") for line in header[:-1])
        full, rest = divmod(samples, _CHUNK_ROWS)
        assert [len(table) for table in tables] == [_CHUNK_ROWS] * full + [rest]

    def test_header_comments_echo_parameters(self, runner):
        result = runner.invoke(main, ["mono", "--gq", "1", "--gp", "1", "--nbar", "2"])
        comments = [line for line in result.output.splitlines() if line.startswith("#")]
        assert "# command = mono" in comments
        assert "# nbar = 2" in comments

    def test_config_file_supplies_defaults(self, runner, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("nbar = 7.5\nN = 1\n# comment line\n")
        result = runner.invoke(main, ["--config", str(cfg), "capacity", "--phi", "0.7"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert rows[0]["nbar"] == "7.5"
        assert rows[0]["capacity_bits"] == _fmt(
            asymptotic_capacity(MarkovNoise(1.0, 0.7), 7.5)
        )

    def test_flags_override_config(self, runner, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("nbar = 6\n")
        result = runner.invoke(
            main,
            ["--config", str(cfg), "capacity", "--phi", "0.7", "--N", "1", "--nbar", "7.5"],
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert rows[0]["nbar"] == "7.5"

    def test_malformed_config_rejected(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n")
        result = runner.invoke(main, ["--config", str(cfg), "mono", "--gq", "1", "--gp", "1", "--nbar", "1"])
        assert result.exit_code == 2
        assert result.stderr.endswith(f"Error: {cfg}:1: expected key=value, got 'this is not a pair'\n")

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("nbar = 7.5\nqaud_tol = 1e-6\n")
        result = runner.invoke(main, ["--config", str(cfg), "capacity", "--phi", "0.7", "--N", "1"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"{cfg}:2:" in result.stderr
        assert "'qaud_tol'" in result.stderr

    def test_quadrature_tolerance_is_not_an_option(self, runner, tmp_path):
        args = ["capacity", "--phi", "0.5", "--N", "1", "--nbar", "4"]
        result = runner.invoke(main, [*args, "--quad-tol", "1e-9"])
        assert result.exit_code == 2
        assert "No such option" in result.stderr
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("quad-tol = 1e-9\n")
        result = runner.invoke(main, ["--config", str(cfg), *args])
        assert result.exit_code == 2
        assert "no command has an option 'quad-tol'" in result.stderr
        plain = runner.invoke(main, args, env={"GMCAP_QUAD_TOL": "1e-30"})
        assert plain.exit_code == 0
        assert "quad_tol" not in plain.output

    @pytest.mark.parametrize("command", [["fig3", "--steps", "1"], ["fig4", "--n", "2"]])
    def test_config_list_for_repeatable_option(self, runner, tmp_path, command):
        cfg = tmp_path / "phis.cfg"
        cfg.write_text("phi = 0.3 0.5\n")
        result = runner.invoke(main, ["--config", str(cfg), *command])
        assert result.exit_code == 0
        assert "# phi = 0.3 0.5" in result.output
        _, rows = parse_csv(result.output)
        assert [row["phi"] for row in rows] == ["0.3", "0.5"]
        flagged = runner.invoke(main, ["--config", str(cfg), *command, "--phi", "0.7"])
        assert flagged.exit_code == 0
        _, rows = parse_csv(flagged.output)
        assert [row["phi"] for row in rows] == ["0.7"]

    def test_config_list_for_scalar_option_rejected(self, runner, tmp_path):
        # Click converts the value in the command's own context, so the
        # usage line names the command.
        cfg = tmp_path / "phis.cfg"
        cfg.write_text("phi = 0.3 0.5\n")
        result = runner.invoke(main, ["--config", str(cfg), "capacity", "--N", "1", "--nbar", "5"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines()[0] == "Usage: main capacity [OPTIONS]"
        assert "Error: Invalid value for '--phi': '0.3 0.5' is not a valid float." in result.stderr

    @pytest.mark.parametrize("text, args, code", [
        ("phi = 0.3 0.5\n", ["capacity", "--phi", "0.7", "--N", "1", "--nbar", "5"], 3),
        ("nbar = abc\n", ["mono", "--gq", "1", "--gp", "1", "--nbar", "2"], 0),
    ], ids=["phi-list", "nbar-text"])
    def test_config_value_under_a_flag_is_never_read(self, runner, tmp_path, text, args, code):
        # The flag wins, so the malformed config value is never converted.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["--config", str(cfg), *args])
        assert result.exit_code == code, result.output
        assert result.stderr == ""
        assert result.stdout == runner.invoke(main, args).stdout

    def test_help_shows_config_default_as_written(self, runner, tmp_path):
        cfg = tmp_path / "nbar.cfg"
        cfg.write_text("nbar = 1e0\n")
        result = runner.invoke(main, ["--config", str(cfg), "fig4", "--help"])
        assert result.exit_code == 0
        assert "Mean photon number per use.  [default: 1e0]" in result.output

    def test_deterministic_across_invocations(self, runner):
        args = ["capacity", "--phi", "0.7", "--N", "1", "--nbar", "7.5", "--first-mode"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_help(self, runner):
        assert runner.invoke(main, ["--help"]).exit_code == 0
        assert runner.invoke(main, ["capacity", "--help"]).exit_code == 0


class TestExtremeInputs:
    def test_zero_capacity_prints_zero(self, runner):
        result = runner.invoke(main, ["capacity", "--phi", "0", "--N", "1000", "--nbar", "0"])
        assert result.exit_code == 0, result.output
        assert parse_csv(result.output)[1][0]["capacity_bits"] == "0"
        result = runner.invoke(main, ["fig4", "--phi", "0", "--N", "1000", "--nbar", "0", "--n", "10"])
        assert result.exit_code == 0, result.output
        row = parse_csv(result.output)[1][0]
        assert (row["rate_bits"], row["capacity_bits"]) == ("0", "0")

    def test_mono_extreme_anisotropy_is_above_threshold(self, runner):
        result = runner.invoke(main, ["mono", "--gq", "1e300", "--gp", "1e-300", "--nbar", "1e301"])
        assert result.exit_code == 0, result.output
        row = parse_csv(result.output)[1][0]
        assert (row["threshold"], row["status"]) == ("1e+300", "ok")
        result = runner.invoke(main, ["oracle", "--gq", "1e300", "--gp", "1e-300", "--nbar", "1e301"])
        assert result.exit_code == 0, result.output
        assert parse_csv(result.output)[1][0]["above_threshold"] == "true"

    def test_mono_infinite_threshold_before_an_overflowing_sum(self, runner):
        # Both the threshold and nbar + (gq + gp)/2 overflow: the threshold
        # is checked first, so the row is below threshold, not a usage error.
        result = runner.invoke(main, ["mono", "--gq", "1e308", "--gp", "5e-324", "--nbar", "1.5e308"])
        assert result.exit_code == 3, result.output
        row = parse_csv(result.output)[1][0]
        assert (row["threshold"], row["status"]) == ("inf", "below_threshold")

    def test_mono_at_the_largest_doubles(self, runner):
        result = runner.invoke(main, ["mono", "--gq", "1e308", "--gp", "1e-308", "--nbar", "1e308"])
        assert result.exit_code == 0, result.output
        row = parse_csv(result.output)[1][0]
        assert (row["threshold"], row["status"]) == ("1e+308", "ok")
        result = runner.invoke(main, ["mono", "--gq", "1e308", "--gp", "1e308", "--nbar", "1"])
        assert result.exit_code == 0, result.output
        assert parse_csv(result.output)[1][0]["water_level"] == "1e+308"

    def test_capacity_eta_at_the_largest_energy(self, runner):
        # pi * nbar overflows; eta is subnormal but not zero.
        result = runner.invoke(main, ["capacity", "--phi", "0.999", "--N", "1e300", "--nbar", "1e308"])
        assert result.exit_code == 0, result.output
        row = parse_csv(result.output)[1][0]
        assert (row["eta"], row["status"]) == ("2.13991946284e-308", "ok")

    @pytest.mark.parametrize("args, nbar", [
        (["capacity", "--phi", "0", "--N", "1e308", "--nbar", "1e308"], "1e+308"),
        (["fig4", "--phi", "0", "--N", "1e308", "--nbar", "1e308", "--n", "2"], "1e+308"),
        (["fig3", "--phi", "0.3", "--n-min", "1e308", "--n-max", "1e308", "--steps", "1"], "1.28571e+308"),
        (["mono", "--gq", "1e308", "--gp", "1e308", "--nbar", "1e308"], "1e+308"),
    ], ids=["capacity", "fig4", "fig3", "mono"])
    def test_output_energy_overflow_is_usage_error(self, runner, args, nbar):
        # nbar + N overflows although both are finite; the error names both.
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert f"n_bar + noise variance overflows: n_bar = {nbar}, variance = 1e+308" in result.stderr

    def test_mono_large_variances(self, runner):
        result = runner.invoke(main, ["mono", "--gq", "1e200", "--gp", "1e200", "--nbar", "1"])
        assert result.exit_code == 0, result.output
        assert parse_csv(result.output)[1][0]["water_level"] == "1e+200"

    @pytest.mark.parametrize("args", [
        ["spectrum", "--kind", "toeplitz", "--phi", "0.5", "--N", "1e308", "--n", "3"],
        ["spectrum", "--kind", "circulant", "--phi", "0.5", "--N", "1e308", "--n", "4"],
        ["spectrum", "--kind", "asymptotic", "--phi", "0.999", "--N", "1e308", "--samples", "3"],
        ["fig4", "--phi", "0.5", "--N", "1e308", "--n", "3"],
    ], ids=lambda args: args[2] if args[0] == "spectrum" else args[0])
    def test_overflowing_spectrum_is_usage_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "overflows the largest double" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("args, message", [
        (["fig4", "--phi", "0.5", "--n-max", str(10**400)], "int too large to convert to float"),
        # The oracle's count rule rejects it before any float is formed.
        (["oracle", "--gq", "2", "--gp", "0.5", "--nbar", "1", "--resolution", str(10**400)],
         f"resolution must be at most 1000000, got {10**400}"),
    ], ids=["fig4", "oracle"])
    def test_integer_too_large_for_a_float_is_usage_error(self, runner, tmp_path, args, message):
        target = tmp_path / "out.csv"
        result = runner.invoke(main, [*args, "--out", str(target)])
        assert result.exit_code == 2, result.output
        assert f"Error: {message}" in result.stderr
        assert isinstance(result.exception, SystemExit)
        assert not target.exists()

    @pytest.mark.parametrize("module, args", [
        (cli, ["spectrum", "--kind", "toeplitz", "--phi", "0.5", "--n", "8"]),
        (solver, ["fig4", "--phi", "0.5", "--n", "8"]),
    ], ids=["spectrum", "fig4"])
    def test_failed_allocation_is_usage_error(self, runner, monkeypatch, tmp_path, module, args):
        # Injected: a real n x n request too large for memory can get the
        # process killed instead of raising.
        def unable_to_allocate(noise, n):
            raise MemoryError(f"Unable to allocate a {n} x {n} matrix")

        monkeypatch.setattr(module, "markov_matrix", unable_to_allocate)
        target = tmp_path / "out.csv"
        result = runner.invoke(main, [*args, "--out", str(target)])
        assert result.exit_code == 2, result.output
        assert "Error: Unable to allocate a 8 x 8 matrix" in result.stderr
        assert isinstance(result.exception, SystemExit)
        assert not target.exists()
