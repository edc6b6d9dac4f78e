"""Benchmark of the gmcap command-line tool, end to end and layer by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload rates --seed 1 --seconds 20 --trace 0

``--trace 0`` runs each command of the workload as a user does,
``python -m gmcapacity.cli ...`` in a child process with ``src`` on
``PYTHONPATH`` and BLAS pinned to one thread, and repeats whole passes
over the command list for ``--seconds``.  Every CSV is checked against an
independent reference (``refs.py``).  It reports, per pass, the median
wall time, rows per second, child CPU time and peak child RSS, and the
median start-up time of ``--help``.

``--trace 1`` makes one such child pass, then alternates untraced and
traced passes in this process through ``gmcapacity.cli.main`` for
``--seconds``, with wrappers from ``layers.py`` around every layer's
public functions.  The traced CSV must be byte-identical to the child's.
It reports the per-layer counts and medians, and the tracing overhead.

Human-readable lines (environment, commands, every metric with its unit
and sample count) start with ``#``; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program under test must be at ``src/gmcapacity``; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, here and in every child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CLI = (sys.executable, "-m", "gmcapacity.cli")
SPAWN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawn.py")
COMMAND_TIMEOUT_S = 150
SETUP_MIN_SAMPLES = 7

END_TO_END = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.bytes_out": "B",
    "solver.finite_n_rate.calls": "count",
    "solver.finite_n_rate.s": "s",
    "solver.finite_n_rate.eigensolves_per_call": "count/call",
    "solver.asymptotic_capacity.s": "s",
    "solver.squeezing_fraction.s": "s",
    "solver.first_mode_variance.s": "s",
    "solver.brute_force_mono_oracle.s": "s",
    "solver.self_s": "s",
    "spectra.markov_matrix.calls": "count",
    "spectra.markov_matrix.s": "s",
    "spectra.markov_matrix.bytes_computed": "B",
    "spectra.circulant_embedding.s": "s",
    "spectra.finite_spectrum.s": "s",
    "spectra.symbol_calls": "count",
    "spectra.asymptotic_markov_spectrum.calls": "count",
    "spectra.self_s": "s",
    "numerics.integrate.calls": "count",
    "numerics.integrate.s": "s",
    "numerics.integrate.evals": "count",
    "numerics.integrate.evals_per_call": "count/call",
    "numerics.integrate.failures": "count",
    "numerics.symmetric_eigen.calls": "count",
    "numerics.symmetric_eigen.s": "s",
    "numerics.symmetric_eigen.n3_sum_computed": "count",
    "numerics.grid_maximize.calls": "count",
    "numerics.grid_maximize.s": "s",
    "numerics.grid_maximize.evals": "count",
    "numerics.self_s": "s",
    "gaussian.thermal_entropy.calls": "count",
    "trace.overhead_s": "s",
}


def report(line: str) -> None:
    print(f"# {line}", flush=True)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "loadavg_at_start": list(os.getloadavg()),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GMCAP_QUAD_TOL", None)  # the workloads use the CLI defaults
    # Bytecode caches in src/, as an installed package has them.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class Child:
    rc: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def run_child(args, env) -> Child:
    """Run one gmcap command through ``spawn.py``, which times it and reads its rusage."""
    proc = subprocess.Popen(
        (sys.executable, SPAWN, str(COMMAND_TIMEOUT_S)) + CLI + tuple(args),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    errors: list[bytes] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        proc.wait()
    stderr, _, last = b"".join(errors).rstrip(b"\n").rpartition(b"\n")
    usage = json.loads(last)
    return Child(usage["rc"], out, stderr, usage["wall_s"], usage["cpu_s"], usage["maxrss_kb"])


class Checker:
    """Checks command outputs; a byte-identical repeat reuses the verdict."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        # (args, stdout) -> (rows, failed): a malformed CSV is 0 rows, 1 failure.
        self._verdicts: dict[tuple, tuple[int, int]] = {}

    def check(self, command, rc: int, stdout: bytes, stderr: bytes) -> int:
        """Count the command and its rows; returns the rows that passed."""
        if rc != command.expect_rc:
            self.attempted += 1
            self.failed += 1
            report(f"FAIL exit {rc} != {command.expect_rc}: {' '.join(command.args)} "
                   f"{stderr.decode(errors='replace').strip()[-300:]}")
            return 0
        key = (command.args, stdout)
        if key not in self._verdicts:
            try:
                rows, bad, messages = refs.check(command, stdout)
            except refs.ShapeError as err:
                rows, bad, messages = 0, 1, [str(err)]
            for message in messages[:10]:
                report(f"FAIL {message}")
            self._verdicts[key] = (rows, bad)
        rows, bad = self._verdicts[key]
        self.attempted += 1 + rows
        self.failed += bad
        return max(rows - bad, 0)


def setup_sample(env, checker: Checker) -> float:
    """Wall time of ``gmcap --help``: interpreter start, numpy, click, package import."""
    child = run_child(["--help"], env)
    checker.attempted += 1
    if child.rc != 0 or not child.stdout.startswith(b"Usage:"):
        checker.failed += 1
        report(f"FAIL --help exited {child.rc}")
    return child.wall_s


def child_pass(commands, env, checker: Checker):
    """One pass over the command list in child processes; wall is their sum."""
    children = [run_child(command.args, env) for command in commands]
    wall = sum(child.wall_s for child in children)
    good_rows = 0
    for command, child in zip(commands, children):
        good_rows += checker.check(command, child.rc, child.stdout, child.stderr)
    return wall, good_rows, children


def summary(name: str, values: list[float], unit: str) -> float:
    mid = statistics.median(values)
    report(f"{name} = {mid:.6g} {unit} (median of {len(values)}; "
           f"min {min(values):.6g}, max {max(values):.6g})")
    return mid


def end_to_end(commands, seconds: float, env, checker: Checker) -> dict:
    """Whole passes in child processes for ``seconds``, each after one set-up sample."""
    setup_sample(env, checker)  # untimed: compiles the bytecode caches
    setup, walls, throughputs, cpus, peaks = [], [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        setup.append(setup_sample(env, checker))
        wall, good_rows, children = child_pass(commands, env, checker)
        walls.append(wall)
        throughputs.append(good_rows / wall)
        cpus.append(sum(child.cpu_s for child in children))
        peaks.append(max(child.maxrss_kb for child in children) / 1024.0)
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(setup_sample(env, checker))
    report("pass wall_s: " + " ".join(f"{w:.4f}" for w in walls))
    values = {
        "wall_s": summary("wall_s", walls, "s"),
        "points_per_s": summary("points_per_s", throughputs, "1/s"),
        "cpu_s": summary("cpu_s", cpus, "s"),
        "peak_rss_mb": summary("peak_rss_mb", peaks, "MB"),
        "setup_s": summary("setup_s", setup, "s"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def invoke(main, args) -> tuple[int, bytes]:
    """Run one command through ``gmcapacity.cli.main`` in this process."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = main.main(list(args), prog_name="gmcap", standalone_mode=False)
    return rc or 0, buffer.getvalue().encode("ascii")


def in_process_pass(package, commands, tracer=None):
    outputs = []
    if tracer is not None:
        tracer.install(package)
    start = time.perf_counter()
    try:
        for command in commands:
            if tracer is None:
                outputs.append(invoke(package.cli.main, command.args))
            else:
                outputs.append(tracer.run_span(
                    "cli", "command", invoke, package.cli.main, command.args))
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return wall, outputs


def layer_values(tracer: layers.Tracer, outputs) -> dict[str, float]:
    """Every per-layer quantity of one traced pass, by metric name."""
    values: dict[str, float] = dict(tracer.counts)
    for key, calls in tracer.calls.items():
        values[f"{key}.calls"] = calls
        values[f"{key}.s"] = tracer.seconds[key]
    for layer in layers.LAYERS:
        values[f"{layer}.self_s"] = tracer.self_seconds.get(layer, 0.0)
    values["cli.rows"] = sum(  # non-comment lines minus the header
        max(sum(1 for line in out.split(b"\n") if line and not line.startswith(b"#")) - 1, 0)
        for _, out in outputs
    )
    values["cli.bytes_out"] = sum(len(out) for _, out in outputs)
    for key, per_call, total in (
        ("solver.finite_n_rate.eigensolves_per_call", "solver.finite_n_rate.calls",
         "solver.finite_n_rate.eigensolves"),
        ("numerics.integrate.evals_per_call", "numerics.integrate.calls",
         "numerics.integrate.evals"),
    ):
        calls = values.get(per_call, 0)
        values[key] = values.get(total, 0) / calls if calls else 0.0
    return values


def traced(workload: str, commands, seconds: float, env, checker: Checker):
    """Per-layer metrics; returns (metrics, self-check passed)."""
    _, _, children = child_pass(commands, env, checker)
    expected = [(child.rc, child.stdout) for child in children]
    package = layers.load_package(SRC)
    plain, timed, samples = [], [], []
    identical = True
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        wall, outputs = in_process_pass(package, commands)
        plain.append(wall)
        identical &= outputs == expected
        tracer = layers.Tracer()
        wall, outputs = in_process_pass(package, commands, tracer)
        timed.append(wall)
        identical &= outputs == expected
        samples.append(layer_values(tracer, outputs))
    if not identical:
        report("FAIL in-process CSV or exit code differs from the child processes'")
    report(f"traced passes: {len(timed)}, untraced in-process passes: {len(plain)}; "
           "counts are per pass, times are medians per pass")
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = statistics.median(timed) - statistics.median(plain)
        else:
            value = statistics.median(sample.get(name, 0) for sample in samples)
        metrics[name] = {"value": value, "unit": unit}
        report(f"{name} = {value:.6g} {unit}")
    missing = [
        name for name in workloads.EXPECTED_NONZERO[workload]
        if not samples[-1].get(name)
    ]
    for name in missing:
        report(f"FAIL layer counter {name} is zero on {workload}")
    return metrics, identical and not missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "gmcapacity", "cli.py")):
        print(f"bench: no gmcapacity source under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    report(f"env {json.dumps(environment(), sort_keys=True)}")
    report(f"workload {opts.workload} seed {opts.seed} seconds {opts.seconds:g} "
           f"trace {opts.trace}: {workloads.WHY[opts.workload]}")
    commands = workloads.commands(opts.workload, opts.seed)
    for command in commands:
        report(f"command gmcap {' '.join(command.args)} (expect exit {command.expect_rc})")

    env = child_env()
    checker = Checker()
    self_check = True
    if opts.trace:
        metrics, self_check = traced(opts.workload, commands, opts.seconds, env, checker)
    else:
        metrics = end_to_end(commands, opts.seconds, env, checker)
    report(f"failed_frac = {checker.failed / max(checker.attempted, 1):.6g} "
           f"({checker.failed} of {checker.attempted} commands and rows)")
    print(json.dumps({
        "correct": checker.failed == 0 and self_check,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
