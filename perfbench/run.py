#!/usr/bin/env python3
"""The obstruct benchmark: fixed CLI workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-truncated --seed 1 --seconds 30 --trace 0

Load model: one fresh single-threaded interpreter per run, closed loop with
one client (operations run back to back, in-process through
``obstruct.cli.main``).  The only child processes are the short, sequential
``import obstruct.cli`` interpreters that measure set-up time.

A run repeats whole passes over the workload's operations until ``--seconds``
would be exceeded (always at least one pass) and times each operation by its
median over the passes.  Times are rescaled to a reference interpreter speed
measured while they run (see ``speed.py``), because the shared host's own
speed drifts by up to 2x between runs.
With ``--trace 1`` it then makes one more pass with every layer's entry points
wrapped (see ``tracing.py``) and reports the per-layer metrics instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
per-operation times, the error rate with its base and the environment.  Each
run also writes its figures (and, when traced, its spans) to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads as wl
from tracing import COUNTERS, TARGETS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

# fresh-interpreter imports per run for setup_s; single imports spread 0.41-0.69 s.
# Each child times its interpreter's speed just before and after the import.
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import time, speed; b0 = speed.calibrate(); t = time.perf_counter(); "
    "import obstruct.cli; dt = time.perf_counter() - t; "
    "print(dt, (b0 + speed.calibrate()) / 2)"
)
SETUP_DEPENDENCIES = ("sympy", "networkx", "mpmath")
KINDS = ("verify", "spec", "mme", "factor")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OBSTRUCT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, check=True, timeout=120,
    )


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(seconds, reference seconds) to import obstruct.cli in fresh interpreters."""
    found = []
    for _ in range(samples):
        seconds, burst_s = map(float, _python("-c", SETUP_CODE).stdout.split())
        found.append((seconds, speed.rescale(seconds, burst_s)))
    return found


def import_breakdown(samples: int) -> dict[str, float]:
    """Median cumulative import seconds of each dependency, from -X importtime."""
    found = {dep: [] for dep in SETUP_DEPENDENCIES}
    for _ in range(samples):
        seen = set()
        for line in _python("-X", "importtime", "-c", "import obstruct.cli").stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name in found and name not in seen:
                seen.add(name)
                found[name].append(int(parts[1]) / 1e6)
    return {dep: statistics.median(v) if v else 0.0 for dep, v in found.items()}


def current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def environment() -> dict:
    import importlib.metadata as md

    digest = hashlib.sha256()
    for path in sorted((SRC / "obstruct").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "versions": {dep: md.version(dep) for dep in SETUP_DEPENDENCIES},
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "OBSTRUCT_THREADS": "removed from the run environment",
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- one pass -------------------------------------------------------------------


def run_pass(ctx, rng: random.Random, probe: speed.SpeedProbe | None,
             tracer: Tracer | None, label: str) -> dict:
    """Run every operation of the workload once, in a seed-chosen order.

    With a running `probe`, `times` are reference seconds and `raw` the
    seconds of work; without one both are the seconds measured.
    """
    times, raw, ratios, problems = {}, {}, {}, []
    attempted = failed = 0
    sweep_rss = None
    for op in wl.pass_order(ctx.workload, rng):
        queries = wl.sweep_order(rng) if op == wl.SWEEP else None
        gc.collect()
        if tracer is not None:
            tracer.run_id = f"{label}:{op}"
            span = tracer.begin(
                "automata.count_sweep" if op == wl.SWEEP else f"op.{wl.kind_of(op)}"
            )
        rss_before = current_rss_mb() if queries else None
        mark = probe.mark() if probe else 0
        start = time.perf_counter()
        if queries:
            res = wl.run_sweep(ctx.beta_system, queries)
        else:
            res = wl.run_cli(ctx.cli_main, op, ctx.inputs)
        elapsed = time.perf_counter() - start
        if probe:
            raw[op], times[op], ratios[op] = probe.measure(mark, probe.mark(), elapsed)
        else:
            raw[op] = times[op] = elapsed
        if queries:
            sweep_rss = current_rss_mb() - rss_before
        if tracer is not None:
            tracer.end(span)
        wl.check(res, ctx.expected, ctx.fib)
        if queries:
            attempted += len(queries)
            failed += len(res.problems)
        else:
            attempted += 1
            failed += bool(res.problems)
        problems += [f"{op}: {p}" for p in res.problems]
    return {
        "wall_s": sum(raw.values()),
        "times": times,
        "raw": raw,
        "speed_ratio": ratios,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "sweep_rss_mb": sweep_rss,
    }


class Context:
    def __init__(self, workload, cli_main, beta_system, inputs, expected):
        self.workload = workload
        self.cli_main = cli_main
        self.beta_system = beta_system
        self.inputs = inputs
        self.expected = expected
        needs_fib = wl.SWEEP in wl.WORKLOADS[workload]
        self.fib = wl.fibonacci_table(max(wl.SWEEP_LENGTHS) + 2) if needs_fib else None


# -- metrics --------------------------------------------------------------------


def timings(passes: list[dict]) -> dict:
    """Per-operation medians over passes, and their sums per kind and in all.

    Summing per-operation medians, rather than taking the median pass, lets a
    slow stretch of the machine spoil one operation's sample without
    spoiling the whole pass.  The per-kind sums are in reference seconds.
    """
    def medians(key):
        return {op: statistics.median(p[key][op] for p in passes)
                for op in passes[0][key]}

    op_median, raw_median = medians("times"), medians("raw")
    values = {f"{kind}_s": sum(t for op, t in op_median.items() if wl.kind_of(op) == kind)
              for kind in KINDS}
    values["wall_ref_s"] = sum(op_median.values())
    values["wall_s"] = sum(raw_median.values())
    values["op_median_ref_s"] = op_median
    values["op_median_s"] = raw_median
    ratios = [r for p in passes for r in p["speed_ratio"].values()]
    values["speed_ratio"] = statistics.median(ratios) if ratios else 1.0
    return values


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict, setup, setup_deps,
                  attempted: int, failed: int) -> dict:
    total, own = tracer.span_times()
    calls, counters = tracer.calls, tracer.counters
    values = {name: counters[name] for name in COUNTERS}
    for _, _, name, mode, _ in TARGETS:
        values[f"{name}.calls"] = calls[name]
        if mode == "span":
            values[f"{name}.s"] = total[name]
            values[f"{name}.self_s"] = own[name]
    values["automata.count_sweep.s"] = total["automata.count_sweep"]

    def share(part, whole):
        return part / whole if whole else 0.0

    values["perron.exact_share"] = share(
        counters["perron.exact"], calls["perron.perron_eigendata"])
    values["decomposition.exhaustive_pass_share"] = share(
        counters["decomposition.exhaustive_passes"],
        calls["decomposition.check_specification"])
    values["automata.count_sweep.rss_mb"] = traced["sweep_rss_mb"] or 0.0
    for dep, seconds in setup_deps.items():
        values[f"setup.{dep}_s"] = seconds
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    for kind in KINDS:
        values[f"{kind}_s"] = untraced[f"{kind}_s"]
    values["wall_s"] = untraced["wall_s"]
    values["setup_raw_s"] = statistics.median(s for s, _ in setup)
    values["speed.ratio"] = untraced["speed_ratio"]
    values["error_rate"] = failed / attempted
    return values


def select(values: dict, wanted: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, in its units; an unknown name fails."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def zero_call_problems(workload: str, tracer: Tracer) -> list[str]:
    """Layers this workload must reach; a zero means a wrapper went silent."""
    return [
        f"traced run made no calls to {name}; was it renamed or bypassed?"
        for name in wl.LAYERS_REACHED[workload]
        if not tracer.calls[name]
    ]


# -- entry point ----------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import obstruct from this checkout's src/, never from anywhere else."""
    if not (SRC / "obstruct" / "__init__.py").is_file():
        sys.exit(f"error: no obstruct sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import obstruct
    import obstruct.cli
    from obstruct.beta import BetaSystem

    if Path(obstruct.__file__).resolve().parent != (SRC / "obstruct").resolve():
        sys.exit(f"error: obstruct was imported from {obstruct.__file__}, not {SRC}")
    return obstruct.cli.main, BetaSystem


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("OBSTRUCT_THREADS", None)
    cli_main, beta_system = load_program()
    with open(BENCHMARK_FILE, encoding="ascii") as fh:
        spec = json.load(fh)

    inputs = WORK / "inputs"
    wl.write_inputs(inputs)
    ctx = Context(args.workload, cli_main, beta_system, inputs, wl.load_expected())
    setup = measure_setup(SETUP_SAMPLES)
    rng = random.Random(args.seed)

    passes = []
    probe = speed.SpeedProbe()
    probe.start()
    try:
        started = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            passes.append(run_pass(ctx, rng, probe, None, f"pass{len(passes)}"))
            now = time.perf_counter()
            if (now - started) + (now - pass_start) > args.seconds:
                break
    finally:
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced, tracer = None, None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(ctx, rng, None, tracer, "traced")
        finally:
            tracer.uninstall()
        traced["problems"] += zero_call_problems(args.workload, tracer)

    runs = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    problems = [p for r in runs for p in r["problems"]]

    untraced = timings(passes)
    if args.trace:
        values = layer_metrics(tracer, traced, untraced, setup,
                               import_breakdown(SETUP_SAMPLES), attempted, failed)
        metrics = select(values, spec["per_layer"])
    else:
        values = {
            "setup_s": statistics.median(ref for _, ref in setup),
            "wall_ref_s": untraced["wall_ref_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = select(values, spec["end_to_end"])

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "setup_samples_s": [s for s, _ in setup],
        "setup_samples_ref_s": [ref for _, ref in setup],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "untraced_s": untraced,
        "peak_rss_mb": peak_rss_mb,
        "error_rate": {"value": failed / attempted, "failed": failed,
                       "attempted": attempted,
                       "base": "CLI commands plus count_language queries, all passes"},
        "env": environment(),
    }
    record = dict(detail, metrics=metrics, problems=problems)
    if tracer is not None:
        record["counters"] = dict(tracer.counters)
        record["calls"] = dict(tracer.calls)
        record["spans"] = tracer.dump()
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="ascii")

    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
