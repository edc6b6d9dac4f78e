"""The benchmark's layer gates and CSV checks, run in-process on seed 1 of every workload.

``bench/run.py --trace 1`` rejects a run in which a counter listed in
``workloads.EXPECTED_NONZERO`` reads zero, and counts every row that
``refs.check`` fails against its independent reference.  This runs the
same tracer on the same commands through the benchmark's own
``in_process_pass`` and ``layer_values``, and the same ``refs.check`` on
their outputs, so that a change which drops a layer from a workload or
moves a printed number off its reference fails here first.
"""

import importlib
import os
import pathlib

import pytest

import gmcapacity
import gmcapacity.cli  # noqa: F401  (the tracer wraps the cli layer too)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    # Importing run pins the BLAS thread counts in os.environ; restore them.
    with pytest.MonkeyPatch.context() as patch:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            patch.setenv(var, os.environ.get(var, "1"))
        patch.syspath_prepend(str(BENCH))
        yield importlib.import_module("run")


WORKLOADS = ["rates", "capacity", "oracle", "spectrum"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gates_nonzero(bench, workload):
    assert WORKLOADS == list(bench.workloads.NAMES)
    commands = bench.workloads.commands(workload, 1)
    tracer = bench.layers.Tracer()
    _, outputs = bench.in_process_pass(gmcapacity, commands, tracer)
    assert [rc for rc, _ in outputs] == [0] * len(commands)
    for command, (_, stdout) in zip(commands, outputs):
        rows, failed, messages = bench.refs.check(command, stdout)
        assert (failed, messages) == (0, []), command.args
        assert rows > 0, command.args
    values = bench.layer_values(tracer, outputs)
    gates = bench.workloads.EXPECTED_NONZERO[workload]
    assert [name for name in gates if not values.get(name)] == []
