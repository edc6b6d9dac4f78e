"""Tests for the top-level package: its exports and the README examples.

Every ``gmcap`` line of the README's CLI block must reproduce, byte for
byte, the stdout and exit code recorded under ``tests/readme_cli/``, and
most recorded numbers must be the rendering of their mpmath reference.
After an intended change to those outputs, rewrite the records with
``PYTHONPATH=src python tests/test_package.py`` and say which digits moved.
"""

import ast
import importlib
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import gmcapacity
import reference
from gmcapacity.cli import _geometric_floats, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
GOLDEN = Path(__file__).resolve().parent / "readme_cli"


def test_exports_resolve():
    # bench/layers.py getattrs every name in each layer's __all__.
    for module in (gmcapacity, gmcapacity.solver, gmcapacity.spectra,
                   gmcapacity.numerics, gmcapacity.gaussian):
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{module.__name__}.{name}"


def test_layers_are_attributes():
    for layer in ("gaussian", "numerics", "spectra", "solver"):
        assert getattr(gmcapacity, layer).__name__ == f"gmcapacity.{layer}"


def test_readme_quick_start_runs(capsys):
    match = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no library quick start block"
    exec(compile(match.group(1), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert float(lines[0]) == pytest.approx(gmcapacity.asymptotic_capacity(
        gmcapacity.MarkovNoise(1.0, 0.7), 7.5), rel=1e-15, abs=0)
    # 2c/(1 - c) (N + 1/2) at c = 0.9 rounds to 27.000000000000007.
    assert float(lines[-1]) == pytest.approx(27.0, rel=1e-15, abs=0)


def test_readme_names_only_existing_options():
    # A deleted option or environment variable must leave the README too.
    text = README.read_text()
    params = [*main.params, *(param for command in main.commands.values() for param in command.params)]
    flags = {opt for param in params for opt in [*param.opts, *param.secondary_opts]}
    envvars = {param.envvar for param in params if isinstance(param.envvar, str)}
    assert sorted(set(re.findall(r"(?<![\w-])--\w[\w-]*", text)) - flags) == []
    assert sorted(set(re.findall(r"\bGMCAP_\w+", text)) - envvars) == []


def _readme_cli_examples():
    match = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no CLI block"
    lines = [line for line in match.group(1).splitlines() if line.startswith("gmcap ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def _golden(args):
    """The recorded ``(exit code, stdout path)`` of one README example."""
    index = json.loads((GOLDEN / "index.json").read_text())
    entry = index[" ".join(args)]
    return entry["exit_code"], GOLDEN / entry["stdout"]


@pytest.mark.parametrize("args", _readme_cli_examples(), ids=" ".join)
def test_readme_cli_example_runs(args, tmp_path):
    out = tmp_path / "example.csv"
    result = CliRunner().invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.stdout == ""
    lines = out.read_text().splitlines()
    assert lines
    code, stdout = _golden(args)
    assert result.exit_code == code
    assert out.read_bytes() == stdout.read_bytes()
    if "--dump-matrix" in args:
        # Raw matrix rows, no CSV header.
        return
    rows = [row for row in lines if not row.startswith("#")]
    assert re.fullmatch(r"\w+(,\w+)+", rows[0]), rows[0]


@pytest.mark.parametrize("command, name", [("fig3", "04_fig3.csv"), ("fig4", "05_fig4.csv")])
def test_figure_defaults_print_their_golden(command, name):
    # The README spells out each figure's default options.
    result = CliRunner().invoke(main, [command])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / name).read_bytes()


def _table_rows(text):
    """The table rows of a command's CSV ``text`` as dicts keyed by the header."""
    header, *rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    return [dict(zip(header, row)) for row in rows]


def _golden_rows(name):
    """The table rows of golden ``name`` as dicts keyed by the header."""
    return _table_rows((GOLDEN / name).read_text())


def _cells(where, row, exact):
    """``(where, printed, exact)`` for each column of ``exact``, which must name every number of ``row``."""
    assert set(row) - {"status", "capacity_bits"} <= set(exact) <= set(row), where
    return [(f"{where} {column}", row[column], value) for column, value in exact.items()]


def _audited_cells():
    """Every number of goldens 01-04 and 06-08 with its reference, at the program's double inputs."""
    [row] = _golden_rows("01_mono.csv")
    exact = {"gamma_q": 2.0, "gamma_p": 0.5, "nbar": 2.0, **reference.mono_solution(2.0, 0.5, 2.0)}
    cells = _cells("01", row, exact)
    exact = {
        "phi": 0.7, "N": 1.0, "nbar": 7.5, "threshold": reference.multimode_threshold(0.7, 1.0),
        "eta": reference.squeezing_fraction(0.7, 7.5), "mu_global": reference.water_level(7.5, 1.0),
        "capacity_bits": reference.asymptotic_capacity(1.0, 0.7, 7.5),
    }
    [row] = _golden_rows("02_capacity.csv")
    cells += _cells("02", row, exact)
    exact |= {"first_mode_variance": reference.first_mode_variance(0.7),
              "first_mode_variance_alt": reference.first_mode_variance(0.7, alt_form=True)}
    [row] = _golden_rows("03_capacity.csv")
    cells += _cells("03", row, exact)
    # fig3 forms its N grid and nbar = N snr in doubles; the capacity
    # quadrature is audited on every third row only, for time.
    variances = _geometric_floats(1.0, 100.0, 15)
    rows = _golden_rows("04_fig3.csv")
    assert len(rows) == 3 * len(variances)
    for i, row in enumerate(rows):
        phi, variance = (0.4, 0.7, 0.9)[i // len(variances)], variances[i % len(variances)]
        snr = gmcapacity.solver.multimode_threshold(gmcapacity.MarkovNoise(1.0, phi))
        nbar = variance * snr
        exact = {
            "phi": phi, "N": variance, "nbar": nbar,
            "threshold": reference.multimode_threshold(phi, variance),
            "eta": reference.squeezing_fraction(phi, nbar),
            "mu_global": reference.water_level(nbar, variance),
            "classical_limit_bits": reference.classical_limit(phi, snr),
        }
        if i % 3 == 0:
            exact["capacity_bits"] = reference.asymptotic_capacity(variance, phi, nbar)
        cells += _cells(f"04 row {i + 1}", row, exact)
    # The program's abscissae: pi k / 200 in doubles, and pi itself last.
    rows = _golden_rows("06_spectrum.csv")
    xs = [math.pi * k / (len(rows) - 1) for k in range(len(rows) - 1)] + [math.pi]
    for k, (row, x) in enumerate(zip(rows, xs)):
        exact = {"x": reference.abscissa(k, len(rows)), "value": reference.symbol(1.0, 0.5, x)}
        cells += _cells(f"06 row {k + 1}", row, exact)
    rows = _golden_rows("07_spectrum.csv")
    for k, (row, value) in enumerate(zip(rows, reference.kms_eigenvalues(1.0, 0.5, len(rows)))):
        cells += _cells(f"07 row {k + 1}", row, {"index": k, "eigenvalue": value})
    lines = (GOLDEN / "08_spectrum.csv").read_text().splitlines()
    cells += [(f"08 row {i + 1}", printed, 0.5 ** abs(i - j))
              for i, line in enumerate(lines) for j, printed in enumerate(line.split())]
    return cells


def test_readme_golden_digits():
    """Every number of the audited goldens is the 12-digit rendering of its mpmath reference.

    Audited: ``01`` mono, ``02`` and ``03`` capacity, ``04`` fig3, ``06``
    the symbol and ``07`` the Toeplitz eigenvalues, every column of every
    row except the fig3 capacity, which is audited on every third row; and
    ``08``, the matrix entries.  Left out: ``05``, whose R(n) would need the
    Kac-Murdock-Szegő roots at every n of its grid, for time; and ``09``,
    the oracle's search result, which has no closed form.  A value within ``reference.TIE`` of a rounding tie may print
    either way; it is printed and not failed on.
    """
    assert _misprints(_audited_cells()) == []


def _misprints(cells):
    """The cells whose printed number is not the rendering of their reference; ties are printed, not returned."""
    misprints, ties = [], []
    for where, printed, exact in cells:
        expected = reference.rendered(exact)
        if expected is None:
            ties.append((where, printed, str(exact)))
        elif printed != expected:
            misprints.append((where, printed, expected, str(exact)))
    print(f"{len(ties)} ties", *ties, sep="\n")
    return misprints


def _workload_commands(workload):
    """The argument lists of seed 1 of benchmark ``workload``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "bench"))
        return [command.args for command in importlib.import_module("workloads").commands(workload, 1)]


def _run(args):
    """The options of ``gmcap args`` as the command receives them, and the rows it prints."""
    name, *options = args
    params = main.commands[name].make_context(name, options).params
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0, result.output
    return params, _table_rows(result.stdout)


def _capacity_workload_cells():
    """Every audited number of seed 1 of the ``capacity`` workload with its reference, at the program's inputs."""
    sweep, single = _workload_commands("capacity")
    params, rows = _run(sweep)
    # fig3's N grid and its nbar = N snr, formed in doubles as the program forms them.
    variances = np.array(_geometric_floats(params["n_min"], params["n_max"], params["steps"]))
    ends = {0, len(variances) // 2, len(variances) - 1}
    assert len(rows) == len(params["phis"]) * len(variances)
    cells = []
    for j, phi in enumerate(params["phis"]):
        snr = gmcapacity.solver.multimode_threshold(gmcapacity.MarkovNoise(1.0, phi))
        energies = variances * snr
        for i, (variance, nbar) in enumerate(zip(variances.tolist(), energies.tolist())):
            exact = {
                "phi": phi, "N": variance, "nbar": nbar,
                "threshold": reference.multimode_threshold(phi, variance),
                "eta": reference.squeezing_fraction(phi, nbar),
                "mu_global": reference.water_level(nbar, variance),
                "classical_limit_bits": reference.classical_limit(phi, snr),
            }
            if i in ends:
                exact["capacity_bits"] = reference.asymptotic_capacity(variance, phi, nbar)
            k = j * len(variances) + i
            cells += _cells(f"fig3 row {k + 1}", rows[k], exact)
    params, [row] = _run(single)
    phi, variance, nbar = params["phi"], params["variance"], params["nbar"]
    exact = {
        "phi": phi, "N": variance, "nbar": nbar,
        "threshold": reference.multimode_threshold(phi, variance),
        "eta": reference.squeezing_fraction(phi, nbar),
        "mu_global": reference.water_level(nbar, variance),
        "capacity_bits": reference.asymptotic_capacity(variance, phi, nbar),
        "first_mode_variance": reference.first_mode_variance(phi),
        "first_mode_variance_alt": reference.first_mode_variance(phi, alt_form=True),
    }
    return cells + _cells("capacity row", row, exact)


def test_capacity_workload_digits():
    """Seed 1 of the benchmark's ``capacity`` workload prints the rendering of each audited reference.

    Audited: every column of every ``fig3`` row except the capacity, which
    is audited on the first, middle and last row of each correlation, for
    time; and every number of the ``capacity --first-mode`` row.  Each
    input is rebuilt as the program forms it, not read from the 12-digit
    echo: at the printed inputs a reference drifts by up to 5.3e-11 bits.
    """
    assert _misprints(_capacity_workload_cells()) == []


def _rates_workload_cells():
    """Seed 1 of the ``rates`` workload with its references, at the program's inputs.

    The rows of every correlation at each n <= 121, and the row of the
    strongest correlation at the largest n: the paired rate over the
    Kac-Murdock-Szegő eigenvalues, and the capacity where the row prints
    one.  The other rows are left out for time (~0.5 s of roots at n = 600).
    """
    [args] = _workload_commands("rates")
    params, rows = _run(args)
    phis, variance, nbar = params["phis"], params["variance"], params["nbar"]
    uses = gmcapacity.cli._geometric_ints(params["n_max"])
    assert len(rows) == len(phis) * len(uses)
    cells = []
    for j, phi in enumerate(phis):
        first = rows[j * len(uses)]
        # Below the threshold the capacity cell is empty, so it has no reference.
        capacity = first["capacity_bits"] and reference.asymptotic_capacity(variance, phi, nbar)
        for i, n in enumerate(uses):
            if n > 121 and (j, i) != (len(phis) - 1, len(uses) - 1):
                continue
            # An empty cell has no reference.
            row = {column: cell for column, cell in rows[j * len(uses) + i].items() if cell}
            exact = {"phi": phi, "n": n}
            if "rate_bits" in row:
                exact["rate_bits"] = reference.paired_rate(variance, nbar, reference.kms_eigenvalues(1.0, phi, n))
            if "capacity_bits" in row:
                exact["capacity_bits"] = capacity
            cells += _cells(f"fig4 phi {row['phi']} n {n}", row, exact)
    return cells


def test_rates_workload_digits():
    """Seed 1 of the benchmark's ``rates`` workload prints the rendering of each audited reference.

    Every printed rate of the audited rows is checked, also on the rows
    below the finite-use threshold, which print the paired formula's
    value today; an empty cell is skipped, so a rate left empty there
    would pass.  Each input is rebuilt as the program forms it: click's
    parse of the options and its grid of channel-use counts.
    """
    assert _misprints(_rates_workload_cells()) == []


def _spectrum_workload_cells():
    """Seed 1 of the ``spectrum`` workload with its references, at the program's inputs.

    Every row of the Toeplitz and circulant spectra, and every 100th row of
    the symbol table: its double abscissa as the program forms it.
    """
    toeplitz, circulant, symbol = _workload_commands("spectrum")
    cells = []
    for args, closed_form in [(toeplitz, reference.kms_eigenvalues),
                              (circulant, reference.circulant_eigenvalues)]:
        params, rows = _run(args)
        # --sign -1 negates the correlation.
        c = -params["phi"] if params["sign"] == "-1" else params["phi"]
        values = closed_form(params["variance"], c, params["n"])
        assert len(rows) == params["n"]
        cells += [cell for k, (row, value) in enumerate(zip(rows, values))
                  for cell in _cells(f"{params['kind']} row {k + 1}", row, {"index": k, "eigenvalue": value})]
    params, rows = _run(symbol)
    samples = params["samples"]
    assert len(rows) == samples
    for k in range(0, samples, 100):
        x = math.pi * k / (samples - 1) if k < samples - 1 else math.pi
        value = reference.symbol(params["variance"], params["phi"], x)
        cells += _cells(f"asymptotic row {k + 1}", rows[k], {"x": reference.abscissa(k, samples), "value": value})
    return cells


def test_spectrum_workload_digits():
    """Seed 1 of the benchmark's ``spectrum`` workload prints the rendering of each audited reference.

    The Toeplitz rows against the Kac-Murdock-Szegő eigenvalues, the
    circulant rows against their closed form, and the symbol table, at
    the program's own double inputs.
    """
    assert _misprints(_spectrum_workload_cells()) == []


def _unused_imports(path):
    """``file:line: name`` of each name an import binds that the module never reads.

    An import whose lines carry ``# noqa`` is exempt, and a string listed
    in ``__all__`` counts as a use.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(item.value for item in node.value.elts)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{alias.lineno}: {name}")
    return unused


def test_no_unused_imports():
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert [entry for path in files for entry in _unused_imports(path)] == []


def _approx_calls(path):
    """``file:line`` and whether it passes ``abs=``, for each ``approx(...)`` call in ``path``."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "approx":
                passes_abs = any(keyword.arg == "abs" for keyword in node.keywords)
                calls.append((f"{path.relative_to(ROOT)}:{node.lineno}", passes_abs))
    return calls


def test_every_approx_states_its_absolute_tolerance():
    # Without abs=, pytest.approx also accepts anything within 1e-12 of the
    # expected value, and without rel= too, within 1e-6 of it relatively.
    # Each call states abs= (0 where only rel= is meant), so it says what it checks.
    calls = [call for path in sorted((ROOT / "tests").rglob("*.py")) for call in _approx_calls(path)]
    assert len(calls) > 100
    assert [where for where, passes_abs in calls if not passes_abs] == []


def test_cli_imports_no_solver_check():
    # The threshold and energy rules live in the solver: the only private
    # name the CLI imports from it is the multimode core.
    tree = ast.parse((ROOT / "src" / "gmcapacity" / "cli.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "solver"
               for alias in node.names if alias.name.startswith("_")]
    assert private == ["_multimode"]


def test_reference_imports_nothing_from_the_package():
    # The mpmath references are an independent route: they share no code
    # with the functions they check.
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules
    assert [name for name in modules if name.partition(".")[0] == "gmcapacity"] == []
    assert not any(isinstance(node, ast.ImportFrom) and node.level for node in ast.walk(tree))


def _record_golden():
    """Rewrite the recorded stdout and exit code of every README example."""
    index = {}
    for number, args in enumerate(_readme_cli_examples(), start=1):
        result = CliRunner().invoke(main, args)
        name = f"{number:02d}_{args[0]}.csv"
        (GOLDEN / name).write_bytes(result.stdout_bytes)
        index[" ".join(args)] = {"exit_code": result.exit_code, "stdout": name}
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=1) + "\n")


if __name__ == "__main__":
    # Run as a script to rewrite the golden files after an intended change.
    _record_golden()
