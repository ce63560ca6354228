"""Workload definitions, input files and the correctness gate.

Each workload is a fixed list of operations: CLI argument vectors run
through ``obstruct.cli.main`` and, for ``mme-factor``, one library-level
count sweep.  The seed only permutes the order of the operations within a
pass (and of the queries inside the count sweep), so every seed does the
same total work and checks the same verdicts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import traceback
from fractions import Fraction
from pathlib import Path

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

# Input files the benchmark writes itself, by name.
INPUTS = {
    "golden": "period=2\n10\n",
    "p5": "period=5\n21001\n",
    "p9": "period=9\n110100100\n",
    # the README's 2-block code
    "xor": "00 -> 0\n01 -> 1\n10 -> 1\n11 -> 0\n",
    # 3-block binary majority code
    "maj3": "".join(
        f"{''.join(b)} -> {int(b.count('1') >= 2)}\n"
        for b in itertools.product("01", repeat=3)
    ),
}

SWEEP = "count-sweep"
SWEEP_LENGTHS = range(1000, 20001, 1000)

# Argument vectors; "@name" is replaced by the path of input file `name`.
WORKLOADS = {
    "verify-truncated": [
        "verify --beta 1.5 --horizon 60",
        "verify --beta 1.8 --horizon 60",
        "verify --beta 2.5 --horizon 60 --measure-depth 10",
    ],
    "verify-sofic": [
        "verify --beta 2",
        "verify --expansion-file @golden",
        "verify --expansion-file @p5 --depth 1 --tau-max 6",
        "verify --expansion-file @p9",
        "decomp --op spec --expansion-file @p5 --depth 1 --tau-max 6",
        "decomp --op spec --beta 2.5 --horizon 60 --depth 1",
    ],
    "mme-factor": [
        "mme --expansion-file @golden --n 1000",
        "mme --expansion-file @golden --n 2000",
        "mme --expansion-file @golden --n 4000",
        "factor --beta 2 --code-file @maj3",
        "factor --expansion-file @golden --code-file @xor",
        SWEEP,
    ],
}

# Traced entry points each workload must reach (see tracing.TARGETS); a zero
# call count fails the run, so a renamed or bypassed function shows up.
_EVERYWHERE = ["beta.BetaSystem", "cli.build_system", "reports.dumps_report"]
LAYERS_REACHED = {
    "verify-truncated": _EVERYWHERE + [
        "beta.greedy_expansion",
        "perron.perron_eigendata",
        "measures.parry_measure",
        "orbits.upper_entropy",
        "orbits.count_separated",
    ],
    "verify-sofic": _EVERYWHERE + [
        "perron.perron_eigendata",
        "measures.parry_measure",
        "automata.enumerate_words",
        "decomposition.min_gluing_time",
        "decomposition.check_specification",
        "suites.counting_suite",
        "suites.gibbs_check",
        "suites.mixing_check",
        "suites.positive_mass_count",
        "suites.mixing_liminf_probe",
        "orbits.upper_entropy",
        "orbits.count_separated",
    ],
    "mme-factor": _EVERYWHERE + [
        "measures.empirical_mme",
        "automata.state_counts",
        "automata.extension_counts",
        "factors.FactorSystem",
        "factors.build_pair_automaton",
        "factors.nonexpansive_growth",
        "factors.factor_entropy_positive",
        "quadratic.mul",
        "quadratic.div",
    ],
}


def kind_of(op: str) -> str:
    """The end-to-end time bucket an operation belongs to."""
    if op == SWEEP:
        return "sweep"
    if op.startswith("decomp --op spec"):
        return "spec"
    return op.split()[0]


def write_inputs(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="ascii")


def argv_for(op: str, inputs: Path) -> list[str]:
    return [
        str(inputs / tok[1:]) if tok.startswith("@") else tok for tok in op.split()
    ]


def pass_order(workload: str, rng: random.Random) -> list[str]:
    ops = list(WORKLOADS[workload])
    rng.shuffle(ops)
    return ops


def sweep_order(rng: random.Random) -> list[tuple[str, int]]:
    queries = [(name, n) for name in ("golden", "full3") for n in SWEEP_LENGTHS]
    rng.shuffle(queries)
    return queries


# -- running one operation ------------------------------------------------------


class OpResult:
    """Exit code, captured output and the verdict fields of one operation."""

    def __init__(self, op: str, code: int | None, out: str, err: str, counts=None):
        self.op = op
        self.code = code
        self.out = out
        self.err = err
        self.counts = counts  # (system, n, count) triples of the count sweep
        self.problems: list[str] = []
        self.verdict = None


def run_cli(cli_main, op: str, inputs: Path) -> OpResult:
    """Run one CLI operation in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv_for(op, inputs))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = None
    return OpResult(op, code, out.getvalue(), err.getvalue())


def run_sweep(beta_system, queries) -> OpResult:
    """Exact language counts of the golden mean and the full 3-shift.

    Each query is one operation: a query that raises gets the count None.
    """
    make = {"golden": beta_system.golden_mean, "full3": lambda: beta_system.full_shift(3)}
    systems, counts, err = {}, [], io.StringIO()
    for name, n in queries:
        try:
            if name not in systems:
                systems[name] = make[name]()
            counts.append((name, n, systems[name].count_language(n)))
        except Exception:
            traceback.print_exc(file=err)
            counts.append((name, n, None))
    return OpResult(SWEEP, 0, "", err.getvalue(), counts)


# -- correctness gate -----------------------------------------------------------


def _mass_digest(entries) -> str:
    rows = [[e["word"], e["mass_num"], e["mass_den"]] for e in entries]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def verdict_fields(op: str, code: int, report: dict) -> dict:
    """The fields of a report that must not change while the code gets faster."""
    p = report["payload"]
    kind = kind_of(op)
    fields = {"exit": code}
    if kind == "verify":
        fields.update(
            uniqueness_hypotheses_met=p["uniqueness_hypotheses_met"],
            checks=[[c["name"], c["passed"]] for c in p["checks"]],
            tau=p["constants"]["tau"],
        )
    elif kind == "spec":
        fields.update(
            gluing_time=p["gluing_time"],
            verdict=p["verdict"],
            exhaustive=p["exhaustive"],
        )
    elif kind == "mme":
        fields.update(
            depth=p["empirical"]["depth"],
            empirical_masses_sha256=_mass_digest(p["empirical"]["entries"]),
        )
    elif kind == "factor":
        fields.update(
            expansivity=p["expansivity"]["verdict"],
            image_entropy=p["image_entropy"]["verdict"],
            induced_gluing_time=p["induced_gluing_time"],
            uniqueness_hypotheses_met=p["uniqueness_hypotheses_met"],
        )
    return fields


def _mass_sums_problems(entries) -> list[str]:
    """Exact empirical masses of each word length must sum to exactly 1."""
    sums: dict[int, Fraction] = {}
    for e in entries:
        length = len(e["word"])
        sums[length] = sums.get(length, 0) + Fraction(int(e["mass_num"]), int(e["mass_den"]))
    return [f"masses of length {k} sum to {s}, not 1" for k, s in sorted(sums.items()) if s != 1]


def _sweep_problems(counts, fib) -> list[str]:
    """|L_n| is F(n+2) on the golden mean and 3^n on the full 3-shift."""
    return [
        f"{name} count at n={n} is {'missing' if got is None else 'wrong'}"
        for name, n, got in counts
        if got != (fib[n + 2] if name == "golden" else 3 ** n)
    ]


def fibonacci_table(n_max: int) -> list[int]:
    fib = [0, 1]
    while len(fib) <= n_max:
        fib.append(fib[-1] + fib[-2])
    return fib


def check(res: OpResult, expected: dict | None, fib=None) -> OpResult:
    """Fill in `res.problems`; an empty list means the operation succeeded."""
    if res.op == SWEEP:
        res.problems = _sweep_problems(res.counts, fib)
        if res.err:  # keep one problem per query; attach the tracebacks once
            res.problems[0] += "\n" + res.err
        return res
    if res.code is None:
        res.problems.append("raised an exception:\n" + res.err)
        return res
    if res.code == 2:
        res.problems.append("exited 2: " + res.err.strip())
        return res
    try:
        report = json.loads(res.out)
        res.verdict = verdict_fields(res.op, res.code, report)
    except (ValueError, KeyError, TypeError) as exc:
        res.problems.append(f"unreadable report: {exc!r}")
        return res
    if kind_of(res.op) == "mme":
        res.problems += _mass_sums_problems(report["payload"]["empirical"]["entries"])
    if expected is not None and res.verdict != expected.get(res.op):
        res.problems.append(
            f"verdict {res.verdict} differs from the recorded {expected.get(res.op)}"
        )
    return res


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="ascii") as fh:
        return json.load(fh)
