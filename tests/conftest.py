"""Shared pytest hooks: a time budget per test, one pass/fail summary line per acceptance criterion, and the size of ``src/``."""

import ast
import io
import signal
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Seconds that one test's call may take; the slowest takes about 1 s.  A
# loop that never ends then fails its test instead of stalling the run.
TEST_BUDGET_S = 60

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


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call():
    def over_budget(signum, frame):
        pytest.fail(f"ran longer than the {TEST_BUDGET_S} s budget of one test")

    previous = signal.signal(signal.SIGALRM, over_budget)
    signal.alarm(TEST_BUDGET_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
