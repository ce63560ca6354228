"""Run `factor` on every binary block code of window 2 and 3 over four sources.

    python scripts/factor_sweep.py
    python scripts/factor_sweep.py --sources golden --windows 2 --csv verdicts.csv

A binary block code of window w maps each of the 2^w binary w-blocks to 0
or 1, so there are 16 codes of window 2 and 256 of window 3.  They are
built in a loop, in the order of their output tables read as binary
numbers, and each is written to a temporary file for
`obstruct.cli.cmd_factor`, which runs in process at default settings.
Every source is binary: the full 2-shift, the golden mean, and the
beta-shifts of 1.5 and 1.8 at horizons 80 and 60.

The paper's factor application says that every such image has a unique
measure of maximal entropy, so "met" is the answer wanted on every image
of positive entropy.  One line per source gives the codes whose report
reads the uniqueness hypotheses met, those that read them not met, those
refused with exit 2 (`cli.main` maps the same errors to exit 2), and the
wall time of the source's codes.  `--csv` writes one row per code.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys
import tempfile
import time

from obstruct.cli import RunConfig, cmd_factor
from obstruct.errors import EnumerationCapError, HorizonError, InputError, NonMixingError
from obstruct.factors import BlockCode

# the errors that `obstruct.cli.main` reports with exit 2
EXIT_2_ERRORS = (InputError, HorizonError, EnumerationCapError, NonMixingError)

# source name -> RunConfig fields; "golden" reads the expansion file below
SOURCES = {
    "2": {"beta": "2"},
    "golden": {"expansion_file": "golden"},
    "1.5@80": {"beta": "1.5", "horizon": 80},
    "1.8@60": {"beta": "1.8", "horizon": 60},
}
GOLDEN_EXPANSION = "period=2\n10\n"


def binary_codes(window: int):
    """(outputs, code) for every binary block code of the window: outputs
    is the output bit of each block, blocks in lexicographic order."""
    blocks = list(itertools.product((0, 1), repeat=window))
    for outputs in itertools.product((0, 1), repeat=len(blocks)):
        yield "".join(map(str, outputs)), BlockCode(window, dict(zip(blocks, outputs)), 2)


def verdict(config: RunConfig, code_file: str) -> str:
    """"met", "not met" or "exit 2" for one code."""
    try:
        _, report = cmd_factor(config, code_file)
    except EXIT_2_ERRORS:
        return "exit 2"
    return "met" if report["payload"]["uniqueness_hypotheses_met"] else "not met"


def write_codes(windows, tmp: str) -> list:
    """(window, outputs, path) for every code of the windows, each
    written to a file under tmp."""
    files = []
    for window in windows:
        for outputs, code in binary_codes(window):
            path = os.path.join(tmp, f"code-{window}-{outputs}")
            code.to_file(path, 2)
            files.append((window, outputs, path))
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sources", nargs="+", choices=list(SOURCES),
                        default=list(SOURCES))
    parser.add_argument("--windows", nargs="+", type=int, choices=(2, 3),
                        default=[2, 3])
    parser.add_argument("--csv", help="write source,window,outputs,verdict rows")
    args = parser.parse_args(argv)
    rows = []
    print(f"{'source':<8} {'codes':>5} {'met':>5} {'not met':>7} {'exit 2':>6} {'time':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        golden = os.path.join(tmp, "golden")
        with open(golden, "w", encoding="ascii") as fh:
            fh.write(GOLDEN_EXPANSION)
        files = write_codes(args.windows, tmp)
        for source in args.sources:
            fields = dict(SOURCES[source])
            if "expansion_file" in fields:
                fields["expansion_file"] = golden
            config = RunConfig(**fields)
            started = time.perf_counter()
            verdicts = [verdict(config, path) for _, _, path in files]
            seconds = time.perf_counter() - started
            print(f"{source:<8} {len(verdicts):>5} {verdicts.count('met'):>5} "
                  f"{verdicts.count('not met'):>7} {verdicts.count('exit 2'):>6} "
                  f"{seconds:>7.2f}s")
            rows += [(source, window, outputs, v)
                     for (window, outputs, _), v in zip(files, verdicts)]
    if args.csv:
        with open(args.csv, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(("source", "window", "outputs", "verdict"))
            writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
