"""Shared pytest hooks: one pass/fail summary line per acceptance criterion, and the size of ``src/``."""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_acceptance_outcomes: dict[str, str] = {}

# Tokens that carry no code: a line holding only these is blank or a comment.
_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def logic_lines(source: str) -> int:
    """Lines of ``source`` that hold code, outside docstrings, comments and blank lines."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NON_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_outcomes:
        terminalreporter.write_sep("-", "acceptance criteria")
        for nodeid in sorted(_acceptance_outcomes):
            name = nodeid.split("::")[-1]
            outcome = _acceptance_outcomes[nodeid]
            terminalreporter.write_line(f"{'PASS' if outcome == 'passed' else 'FAIL'}  {name}")
    total = sum(logic_lines(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py")))
    terminalreporter.write_line(f"src logic lines = {total}")
