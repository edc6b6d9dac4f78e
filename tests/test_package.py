"""Tests for the top-level package: its exports and the README quick start."""

import re
from pathlib import Path

import pytest

import gmcapacity

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_resolve():
    for name in gmcapacity.__all__:
        assert getattr(gmcapacity, name) is not None, name


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
