"""Every benchmark operation runs once, traced, and keeps its recorded verdict.

Each workload of `perfbench/workloads.py` runs one pass in-process under the
benchmark's tracer (`perfbench/tracing.py`, loaded by path as the benchmark
loads it).  The correctness gate must find no problem against
`perfbench/expected.json`, and every layer the workload must reach must be
called, so a verdict change or a bypassed entry point fails here instead of
in a traced bench run.  Skipped when the benchmark directory is absent.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import obstruct.cli
from obstruct.beta import BetaSystem

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    if not BENCH.is_dir():
        return []
    return sorted(_load("workloads").WORKLOADS)


@pytest.mark.skipif(not BENCH.is_dir(), reason="perfbench/ is absent")
@pytest.mark.parametrize("workload", _workloads())
def test_workload_traced_pass(workload, tmp_path):
    wl, tracing = _load("workloads"), _load("tracing")
    wl.write_inputs(tmp_path)
    expected = wl.load_expected()
    fib = wl.fibonacci_table(max(wl.SWEEP_LENGTHS) + 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = [
            wl.run_sweep(BetaSystem, wl.sweep_order(random.Random(0)))
            if op == wl.SWEEP
            else wl.run_cli(obstruct.cli.main, op, tmp_path)
            for op in wl.WORKLOADS[workload]
        ]
    finally:
        tracer.uninstall()
    problems = [
        f"{res.op}: {p}" for res in results for p in wl.check(res, expected, fib).problems
    ]
    assert problems == []
    silent = [name for name in wl.LAYERS_REACHED[workload] if not tracer.calls[name]]
    assert silent == []
