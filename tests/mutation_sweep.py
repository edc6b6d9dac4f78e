"""Mutation sweep of the test suite over ``src/gmcapacity``: which small code changes do the tests miss?

Run from the repository root (stdlib only; pytest does not collect this file)::

    python tests/mutation_sweep.py          # the default sweep (~22 min on two workers)
    python tests/mutation_sweep.py --full   # every site of the five modules (~42 min)

A site is one operator, constant or statement of a module's AST.  Each mutant changes
exactly one: ``+``/``-`` and ``*``/``/`` swap, a strict comparison becomes
non-strict and back, a float constant is scaled by ``1 + 1e-9`` (a 0.0 becomes
1e-300), a unary minus is dropped, the least value of a ``_check_count``
call, and its most value where it gives one, moves by one either way, and a
statement is replaced by ``pass``: an ``if`` that has no ``else`` and whose
body raises, or a bare call.  The mutant is spliced into the source text, so
comments and layout stay.  The default sweep takes every site of
``numerics`` and ``spectra`` and, in ``gaussian``, ``solver`` and ``cli``,
the statement sites and the sites on lines that call ``_check_count`` or
name a ``_MAX_`` cap.  Each mutant runs on one of ``WORKERS`` copies of the
repository with ``PYTHONDONTWRITEBYTECODE=1``: first the module's own test
file, then, if that passes, the whole suite, both with ``-x`` and under
``LIMIT_S`` seconds per mutant, so a hang is counted as ``hung``, not waited on.

Each result line reads ``verdict module.py:line:column: 'old' -> 'new'``
(the column counts bytes).  The default sweep, 331 mutants (80 of them
statement deletions) in ~22 min on two workers, left 306 killed, 0 hung and
these 25 survivors, each equivalent, boundary-only or not run by the suite:

- numerics 44:20, 49:12, 66:17: ``_ROUNDOFF_FACTOR``, ``_ABS_TOL`` and
  ``_SYMMETRY_TOL`` scaled by 1 + 1e-9.  No tested bound or asymmetry lies
  within a relative 1e-9 of its limit.
- numerics 93:43, 94:53, 96:10, 96:22: the Möbius ``s``, the node rule's
  32 and the map's ``k`` scaled by 1 + 1e-9.  They move the nodes, and the
  result stays within the 1e-10 target.
- numerics 95:25: the node count's least value 8 made 7; the rule never
  gives fewer than 8 nodes.
- numerics 116:20, 121:25, 189:12: ``bound > _ABS_TOL``, the failure
  reason's ``floor > _ABS_TOL`` and the symmetry check's ``err > tol``
  made non-strict.  They differ only at an exact float equality.
- numerics 145:25, 145:45: ``m <= 1.0`` and ``m1 <= 1.0`` scaled by
  1 + 1e-9 in ``ellipk_split``; the other bound and the sum check still
  reject every value they would let in.
- numerics 145:71, 145:74: the sum check ``|m + m1 - 1| <= 4 eps`` made
  strict, or its 4 scaled; boundary-only slack.
- numerics 149:17, 149:19, 149:30: the AGM stop ``a - b > 2 eps a`` made
  non-strict, its 2 scaled, or written ``2 eps / a``.  The loop stops at
  most one step apart, and ``pi / (a + b)`` is then already exact to
  rounding, as the AGM converges quadratically.
- numerics 189:34: ``max(1.0, max|m|)`` scaled by 1 + 1e-9; boundary-only.
- numerics 241:73: ``xs[k] < best_x`` made non-strict; at an equal ``x``
  the update rewrites the same point and value.
- spectra 161:22: ``r >= 0`` made strict in ``_ar1_gap``; at ``r = 0``
  the term ``4 |r| h^2`` is 0 with either half-angle function.
- solver 62:9: ``super().__init__(message)`` of ``BelowThresholdError``
  deleted.  ``BaseException`` keeps the positional arguments as ``args``,
  and the threshold is passed by keyword, so ``str(err)`` is still the
  message.
- cli 346:28: the least value 1 of ``fig4``'s largest channel-use count
  made 0; the smallest count, checked on the line before, is at least 1.
- cli 421:25: the least value 1 of the ``--dump-matrix`` cap made 0; both
  matrix builders have checked a larger least value before it.
- cli 452:5: ``main()`` under ``__main__`` deleted.  The suite calls
  ``main`` through click's test runner, never as a script.

The full sweep, 602 mutants in ~42 min on two workers, left 552 killed,
0 hung, those 25 and these 25 survivors, each equivalent or boundary-only:

- gaussian 17:9, 38:29, 38:63, 49:48: the ``_TINY`` and ``_HUGE``
  switches of ``thermal_entropy`` scaled or made (non-)strict; both forms
  agree at the switch.
- gaussian 47:26: ``(1.0 + x)`` written ``(1.0 - x)`` where
  ``x < 2**-1000``; the same double.
- solver 151:40, 601:26: the ``4 eps`` slack of ``_reaches`` and the
  oracle's ``4.0 * budget`` overflow guard scaled by 1 + 1e-9; boundary-only.
- solver 211:55, 310:25, 613:53: a 0.0 made 1e-300 in the ``mono_solve``
  p-modulation clamp, the zero-energy threshold test and the oracle's
  modulation clamp; no tested value lies in (0, 1e-300].
- solver 372:66: ``energies >= 0`` made strict in ``_multimode``'s
  invalid mask; a zero energy then reaches ``_check_energy``, which accepts it.
- solver 528:31, 528:33: ``correlation < 1.0`` in ``first_mode_variance``
  made non-strict or scaled; ``ellipk_split`` still rejects ``c >= 1``,
  with its own message.
- solver 541:22, 541:29, 541:36, 542:35, 561:21: the golden-section ratio
  and its 1e-9 step target scaled, or its ``f(x) >= f(y)`` made strict;
  the search still brackets a maximizer of the concave split to 1e-9.
- solver 606:11, 606:30, 606:43, 606:45, 606:64: the oracle's pass rule
  ``2 half_width 0.25**passes > 0.01 (resolution - 1)`` scaled, made
  non-strict or given ``resolution + 1``; at most one pass apart, within
  the oracle's tolerance.
- cli 250:20: ``columns[-1:1]`` for ``columns[-1:-1]``; both slices are
  empty at the last column, so the insertion is the same.
- cli 328:73: the start 1.0 of ``_geometric_ints``' grid scaled by 1 + 1e-9;
  ``round`` absorbs it.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "gmcapacity"
MODULES = ("numerics", "spectra", "gaussian", "solver", "cli")
# The default sweep takes every site of these modules, and in the others
# the statement sites and the sites on count lines.
DEFAULT_ALL = ("numerics", "spectra")
WORKERS = 2
LIMIT_S = 150.0
# Each mutated operator: its symbol and the symbol that replaces it.
SWAP = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
        ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}


def _span(starts, node):
    """Byte offsets of the start and end of ``node``, from ``starts``, the offset of each line."""
    return starts[node.lineno - 1] + node.col_offset, starts[node.end_lineno - 1] + node.end_col_offset


def _swap(source, starts, left, right, op):
    """The edit that swaps operator ``op`` in the gap between nodes ``left`` and ``right``."""
    lo, hi = _span(starts, left)[1], _span(starts, right)[0]
    symbol, replacement = SWAP[type(op)]
    at = source.index(symbol.encode(), lo, hi)
    return at, at + len(symbol), replacement


def sites(source: bytes):
    """``(start, end, replacement)`` for every mutation of ``source``, byte offsets into it."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    edits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAP:
            edits.append(_swap(source, starts, node.left, node.right, node.op))
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in SWAP:
                    edits.append(_swap(source, starts, left, right, op))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            at = _span(starts, node)[0]
            edits.append((at, at + 1, ""))
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            edits.append((*_span(starts, node), repr(node.value * (1 + 1e-9)) if node.value else "1e-300"))
        elif (isinstance(node, ast.If) and not node.orelse and any(isinstance(s, ast.Raise) for s in node.body)
              or isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
            # A check that raises, or a call made for its effect, deleted.
            edits.append((*_span(starts, node), "pass"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_count":
            # The least value, and the most value where the call gives one.
            bounds = [node.args[1], *node.args[3:], *(k.value for k in node.keywords if k.arg == "most")]
            edits += [(*_span(starts, bound), f"{ast.unparse(bound)} {sign} 1")
                      for bound in bounds for sign in "+-"]
    return sorted(edits)


def _is_count_line(text: str) -> bool:
    return "_check_count" in text or "_MAX_" in text


def run_mutant(copy: Path, module: str, mutant: bytes, limit: float) -> str:
    """``killed``, ``survived`` or ``hung``: the suite's verdict on ``mutant`` of ``module`` in ``copy``."""
    target = copy / PACKAGE / f"{module}.py"
    original = target.read_bytes()
    target.write_bytes(mutant)
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    try:
        for selection in ([f"tests/test_{module}.py"], []):
            command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
            process = subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                       stderr=subprocess.DEVNULL, start_new_session=True)
            try:
                if process.wait(timeout=limit) != 0:
                    return "killed"
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                return "hung"
        return "survived"
    finally:
        target.write_bytes(original)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--full", action="store_true", help="every site of every module")
    args = parser.parse_args(argv)
    jobs = []
    for module in MODULES:
        every = args.full or module in DEFAULT_ALL
        source = (ROOT / PACKAGE / f"{module}.py").read_bytes()
        lines = source.decode().splitlines()
        for start, end, text in sites(source):
            line = source.count(b"\n", 0, start) + 1
            if every or text == "pass" or _is_count_line(lines[line - 1]):
                column = start - source.rfind(b"\n", 0, start)
                label = f"{module}.py:{line}:{column}: {source[start:end].decode()!r} -> {text!r}"
                jobs.append((label, module, source[:start] + text.encode() + source[end:]))
    copies: queue.Queue[Path] = queue.Queue()
    with tempfile.TemporaryDirectory() as scratch:
        for k in range(WORKERS):
            copy = Path(scratch) / f"copy{k}"
            for part in ("src", "tests", "bench"):
                shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
            for name in ("pyproject.toml", "README.md"):
                shutil.copy(ROOT / name, copy / name)
            copies.put(copy)
        # The unmutated sources must pass, or every mutant would read as killed.
        baseline = run_mutant(copy, "numerics", (ROOT / PACKAGE / "numerics.py").read_bytes(), LIMIT_S)
        if baseline != "survived":
            print(f"the unmutated suite is {baseline}, not passing; no sweep")
            return 1

        def one(job):
            label, module, mutant = job
            copy = copies.get()
            try:
                verdict = run_mutant(copy, module, mutant, LIMIT_S)
            finally:
                copies.put(copy)
            print(f"{verdict:8s} {label}", flush=True)
            return verdict

        with ThreadPoolExecutor(WORKERS) as pool:
            verdicts = list(pool.map(one, jobs))
    counts = {verdict: verdicts.count(verdict) for verdict in ("killed", "survived", "hung")}
    print(f"{len(jobs)} mutants:", ", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
