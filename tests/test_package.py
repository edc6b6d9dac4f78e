"""Tests for the top-level package: its exports and the README examples.

Every ``gmcap`` line of the README's CLI block must reproduce, byte for
byte, the stdout and exit code recorded under ``tests/readme_cli/``.
After an intended change to those outputs, rewrite the records with
``PYTHONPATH=src python tests/test_package.py`` and say which digits moved.
"""

import ast
import json
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

import gmcapacity
from gmcapacity.cli import main

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
