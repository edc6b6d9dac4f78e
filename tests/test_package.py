"""Tests for the top-level package: its exports and the README examples."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

import gmcapacity
from gmcapacity.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


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
        gmcapacity.MarkovNoise(1.0, 0.7), 7.5), rel=1e-15)
    assert float(lines[-1]) == pytest.approx(27.0)


def _readme_cli_examples():
    match = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no CLI block"
    lines = [line for line in match.group(1).splitlines() if line.startswith("gmcap ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


@pytest.mark.parametrize("args", _readme_cli_examples(), ids=" ".join)
def test_readme_cli_example_runs(args, tmp_path):
    out = tmp_path / "example.csv"
    result = CliRunner().invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.stdout == ""
    lines = out.read_text().splitlines()
    assert lines
    if "--dump-matrix" in args:
        # Raw matrix rows, no CSV header.
        return
    rows = [row for row in lines if not row.startswith("#")]
    assert re.fullmatch(r"\w+(,\w+)+", rows[0]), rows[0]
