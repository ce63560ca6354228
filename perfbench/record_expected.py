#!/usr/bin/env python3
"""Record the verdict fields the correctness gate compares against.

Runs every CLI operation of every workload once and writes
``perfbench/expected.json``.  Rerun it only when a change is meant to alter
a verdict, and say so in that change:

    python3 perfbench/record_expected.py
"""

import json
import sys

import run
import workloads as wl


def main() -> int:
    cli_main, _ = run.load_program()
    inputs = run.WORK / "inputs"
    wl.write_inputs(inputs)
    expected = {}
    for ops in wl.WORKLOADS.values():
        for op in ops:
            if op == wl.SWEEP:
                continue
            res = wl.check(wl.run_cli(cli_main, op, inputs), None)
            if res.problems:
                print(f"{op}: {res.problems}", file=sys.stderr)
                return 1
            expected[op] = res.verdict
            print(op, res.verdict["exit"], file=sys.stderr)
    with open(wl.EXPECTED_FILE, "w", encoding="ascii") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
