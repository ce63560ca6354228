"""Run CLI commands on two source trees and print the report fields that differ.

    python scripts/compare_reports.py OLD_TREE NEW_TREE
    python scripts/compare_reports.py OLD_TREE NEW_TREE --cmd "verify --beta 3"
    python scripts/compare_reports.py OLD_TREE NEW_TREE --extended

Each tree is the root of an obstruct checkout; its commands run as
`python -m obstruct.cli ...` with that tree's `src/` on PYTHONPATH, in one
shared temporary directory that holds the benchmark's input files, so `@name`
arguments and the echoed config agree between the two runs.  Without
`--cmd` the command list is the operations of `perfbench/workloads.py`
(read from this checkout), less the library count sweep; `--cmd` may be
repeated.  `--extended` runs `EXTENDED` after them: deeper horizons and
measure depths, large and refused inputs, exit-2 commands that the
benchmark leaves out, and commands on the script's own `INPUTS`, written
beside the benchmark's input files.

Every field outside `meta` that differs is printed as `path: old -> new`,
with the exit codes and, when a side prints no report, its stderr.  The
exit status is 0 when every report and exit code agrees, else 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _bernoulli_table(depth: int = 6) -> str:
    """A measure file of float masses: the (1/3, 2/3) Bernoulli measure on
    two symbols, to `depth`, each mass a rounded float."""
    entries = [
        {"word": "".join(map(str, w)),
         "mass_float": repr((1 / 3) ** w.count(0) * (2 / 3) ** w.count(1))}
        for n in range(depth + 1) for w in itertools.product((0, 1), repeat=n)
    ]
    return json.dumps({"depth": depth, "alphabet_size": 2,
                       "provenance": "bernoulli(1/3)", "entries": entries})

def _tiny_table(depth: int = 5) -> str:
    """A measure file of exact masses on two symbols: 0 and 1 have mass 1/2,
    00 and 11 have mass 10^-400, 01 and 10 the rest of their parent's, and
    each longer word half its parent's.  The correlation probe's running
    infimum is positive but below the least float."""
    tiny = Fraction(1, 10 ** 400)
    mass = {"": Fraction(1), "0": Fraction(1, 2), "1": Fraction(1, 2),
            "00": tiny, "11": tiny, "01": Fraction(1, 2) - tiny, "10": Fraction(1, 2) - tiny}
    for n in range(3, depth + 1):
        for w in itertools.product("01", repeat=n):
            mass["".join(w)] = mass["".join(w[:-1])] / 2
    entries = [{"word": w, "mass_num": str(m.numerator), "mass_den": str(m.denominator)}
               for w, m in mass.items()]
    return json.dumps({"depth": depth, "alphabet_size": 2,
                       "provenance": "tiny two-symbol correlations", "entries": entries})

# input files beyond the benchmark's, by name
INPUTS = {
    # a preperiodic wrap: its 4-state Perron root 2.568... is neither
    # rational nor quadratic, so its Perron data come by power iteration
    "wrap": "period=2\n2110\n",
    # the silver mean 1 + sqrt(2): exact arithmetic in a second field, D = 2
    "silver": "period=2\n20\n",
    # 2(1)^oo, beta = (3 + sqrt 5) / 2: exact quadratic Perron data on a
    # 2-state wrap that is not renewal-shaped
    "pq": "period=1\n21\n",
    # a small table of float masses, summed exactly by the mass checks
    "bernoulli": _bernoulli_table(),
    "tiny": _tiny_table(),
}

# commands outside the benchmark, run after it with --extended
EXTENDED = [
    "verify --beta 1.5 --horizon 600 --measure-depth 8",
    "verify --expansion-file @p9 --measure-depth 14",
    "verify --beta 2.5 --horizon 300 --measure-depth 8",
    "verify --beta 1.5 --horizon 60 --measure-depth 14",
    # the largest Parry class layers
    "verify --beta 1.8 --horizon 60 --measure-depth 16",
    "verify --beta 200",
    "verify --beta 3 --depth 2",
    # the full 3-shift: the tuple search of levels 1 and 2 is over its budget
    "verify --beta 3 --depth 1",
    "verify --beta 2.5 --horizon 60 --depth 2",
    # the certificate's gap, 9, exceeds --tau-max: no gluing time, and so no
    # proof constants
    "verify --beta 1.5 --horizon 60 --depth 3",
    # the degenerate scheme's finite levels keep the literal search
    "verify --degenerate --beta 1.5 --horizon 60",
    # the Gibbs walk on the degenerate scheme's level automaton, the
    # presentation itself, with j = 1 (exit 1)
    "verify --degenerate --expansion-file @p5 --depth 1 --tau-max 6",
    "verify --expansion-file @p5 --depth 2",
    "mme --beta 1.5 --horizon 600 --n 500",
    "mme --beta 1.5",
    "factor --beta 1.5 --horizon 1200 --code-file @xor",
    "factor --beta 1.5 --code-file @xor",
    "entropy --beta 2.5 --horizon 300 --nmax 300",
    # the gluing searches meet the truncation marker and still find tau = 3
    "decomp --op spec --beta 1.5 --horizon 8 --depth 1",
    # exit 2: counting meets the truncation marker
    "verify --beta 1.5 --horizon 10 --depth 1",
    # a depth-1 measure holds no two-symbol pattern
    "verify --beta 2 --measure-depth 1",
    "verify --expansion-file @wrap",
    # the subcommands and factor depth paths the benchmark leaves out
    "expand --beta 1.5 --horizon 20",
    "decomp --op coverage --beta 2.5 --horizon 60 --M 3",
    "decomp --op split --expansion-file @p5 --word 2100121",
    # the split read off the suffix length: a truncated system's suffix 4,
    # and a word outside the language (exit 2)
    "decomp --op split --beta 1.5 --horizon 20 --word 1001010",
    "decomp --op split --expansion-file @golden --word 0110",
    "entropy --expansion-file @p9 --nmax 40 --depth 2",
    "factor --beta 2 --code-file @xor --depth 2",
    # the push-forward gluing time, 7, fits --tau-max + window = 7
    "factor --beta 1.5 --horizon 1200 --code-file @xor --tau-max 5",
    # the witness walk stops at the pair, well inside 2^19 source words
    "factor --beta 2 --code-file @xor --depth 17",
    "factor --expansion-file @golden --code-file @maj3 --depth 1",
    # k + j past the enumeration cap: no length is searched
    "factor --beta 2 --code-file @xor --depth 23",
    # exact quadratic masses, powers and tail sums in Q(sqrt 2) and, deeper,
    # in Q(sqrt 5)
    "verify --expansion-file @silver --depth 1",
    "mme --expansion-file @silver --n 500",
    "verify --expansion-file @golden --measure-depth 16 --depth 1",
    "verify --expansion-file @pq",
    "mme --expansion-file @pq --n 300",
    # the window-sum chain: a 9-state deep chain, and at n = depth the
    # shortest one, S_1, with count rows read from its power A^1
    "mme --expansion-file @p9 --n 4000",
    "mme --expansion-file @p5 --n 4",
    # float Parry masses of integer data from the power iteration
    "mme --expansion-file @wrap --n 500",
    # the counting suite: level rows, coverage floors and tail sums past the
    # default n_max, at the least n_max, on a wrap at depth 2 and on the
    # degenerate level counter (exit 1); exit 2 where counting meets the
    # marker; and 601 states to n_max 400
    "verify --expansion-file @golden --nmax 60",
    "verify --beta 1.5 --horizon 20 --nmax 30",
    "verify --expansion-file @wrap --depth 2",
    "verify --degenerate --expansion-file @golden --depth 1",
    "verify --beta 2 --nmax 8",
    "verify --beta 1.5 --horizon 600 --nmax 400",
    # the mass checks on exact weights: a truncated 51-symbol system whose
    # depth-10 layer holds about 10^17 words, a float measure file, and the
    # growth rows decided on a wrap's Perron enclosure at depth 1
    "verify --beta 50.5",
    "verify --beta 2 --measure-file @bernoulli",
    "verify --expansion-file @wrap --depth 1 --tau-max 6",
    # the greedy digits on integer remainders: 1.25 = 5/4, a composite
    # denominator (verify exit 3), 1.01 with an essential part of one state
    # (exit 3), 7/3 (exit 0), and an mme that counting refuses (exit 2)
    "expand --beta 1.25 --horizon 60",
    "verify --beta 1.25 --horizon 60",
    "verify --beta 1.01 --horizon 120",
    "verify --beta 7/3 --horizon 40",
    "mme --beta 1.01 --horizon 120 --n 300",
    # a correlation-floor infimum that is positive but below the least float
    "verify --beta 2 --measure-file @tiny",
    # every gluing row a certificate, but the two-window gap does not fit the
    # measure's depth (exit 3)
    "verify --beta 1.5 --horizon 60 --depth 3 --tau-max 9",
]


def load_workloads():
    """perfbench.workloads of this checkout, loaded as a plain module."""
    path = HERE / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(tree: Path, op: str, inputs: Path, workloads) -> tuple:
    """(exit code, report without meta or None, stderr) of one command."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = workloads.argv_for(op, inputs)
    proc = subprocess.run(
        [sys.executable, "-m", "obstruct.cli", *argv],
        capture_output=True, text=True, env=env, cwd=inputs,
    )
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        return proc.returncode, None, proc.stderr
    report.pop("meta", None)
    return proc.returncode, report, proc.stderr


def differences(old, new, path=""):
    """(path, old value, new value) for every leaf that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else str(key)
            yield from differences(old.get(key), new.get(key), sub)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            # a verify check is named by its name field
            name = a.get("name") if isinstance(a, dict) else None
            named = name is not None and isinstance(b, dict) and b.get("name") == name
            yield from differences(a, b, f"{path}[{name if named else i}]")
    elif old != new:
        yield path, old, new


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="root of the first source tree")
    parser.add_argument("new", type=Path, help="root of the second source tree")
    parser.add_argument("--cmd", action="append", default=[],
                        help="one CLI command, e.g. 'verify --beta 2'")
    parser.add_argument("--extended", action="store_true",
                        help="also run the commands of EXTENDED")
    args = parser.parse_args(argv)
    workloads = load_workloads()
    ops = args.cmd or [
        op for name in workloads.WORKLOADS for op in workloads.WORKLOADS[name]
        if op != workloads.SWEEP
    ]
    if args.extended:
        ops = ops + EXTENDED
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        workloads.write_inputs(inputs)
        for name, text in INPUTS.items():
            (inputs / name).write_text(text, encoding="ascii")
        for op in ops:
            (code_a, rep_a, err_a), (code_b, rep_b, err_b) = (
                run(tree.resolve(), op, inputs, workloads)
                for tree in (args.old, args.new)
            )
            lines = []
            if code_a != code_b:
                lines.append(f"  exit: {code_a} -> {code_b}")
            if rep_a is None or rep_b is None:
                if (rep_a is None) != (rep_b is None) or err_a != err_b:
                    lines.append(f"  stderr: {err_a.strip()!r} -> {err_b.strip()!r}")
            else:
                lines += [
                    f"  {p}: {a!r} -> {b!r}" for p, a, b in differences(rep_a, rep_b)
                ]
            print(f"{op}: {'differs' if lines else 'identical'} (exit {code_b})")
            if lines:
                print("\n".join(lines))
            same = same and not lines
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
