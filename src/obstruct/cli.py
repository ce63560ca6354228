"""Batch command-line front end.

Subcommands: expand, entropy, decomp, mme, verify, factor.  Every command
builds one JSON report (written to --out or stdout) and exits with 0 when
all checks pass, 1 on a violated estimate, 2 on input or configuration
errors, and 3 when a search was inconclusive: nothing found within its
limits, or refused because it exceeds its budget; `verify` exits 3 when
any row of its battery was not run or is undecided.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import beta as beta_mod
from .decomposition import (
    SEARCH_LENGTHS,
    beta_decomposition,
    degenerate_decomposition,
    filtration_coverage,
    min_gluing_time,
)
from .errors import (
    EnumerationCapError,
    HorizonError,
    InputError,
    NonMixingError,
    ObstructError,
    SpecificationError,
)
from .factors import (
    BlockCode,
    factor_entropy_positive,
    induced_decomposition,
    nonexpansive_growth,
)
from .measures import CylinderMeasure, empirical_mme, max_depth_gap, parry_measure
from .orbits import OrbitCollection, count_separated, upper_entropy
from .reports import dumps_report, fmt_float, fmt_number, make_report, write_report
from .suites import verify_battery
from .words import format_word, parse_word

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3

# largest --nmax: every length up to it is counted in big integers
MAX_NMAX = 10_000
# largest --depth: the suites round the ratios count(n, j) / beta^n, about
# beta^j, to floats, and on the full 256-shift 256^j passes the float range
# at j = 128
MAX_DEPTH = 64


class RunConfig:
    """Everything a batch run needs; round-trips through a plain dict."""

    def __init__(
        self,
        beta: str | None = None,
        expansion_file: str | None = None,
        horizon: int = 80,
        depth: int = 0,
        nmax: int = 24,
        tau_max: int = 4,
        level: int = 2,
        measure_depth: int = 12,
        degenerate: bool = False,
        measure_file: str | None = None,
        emit_csv: bool = False,
        out: str | None = None,
    ):
        self.beta = beta
        self.expansion_file = expansion_file
        self.horizon = horizon
        self.depth = depth
        self.nmax = nmax
        self.tau_max = tau_max
        self.level = level
        self.measure_depth = measure_depth
        self.degenerate = degenerate
        self.measure_file = measure_file
        self.emit_csv = emit_csv
        self.out = out

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def to_dict(self) -> dict:
        return dict(vars(self))

    def validate(self) -> None:
        for name in ("horizon", "nmax", "measure_depth"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be positive")
        if self.nmax > MAX_NMAX:
            raise InputError(f"nmax {self.nmax} exceeds the cap {MAX_NMAX}")
        if self.depth > MAX_DEPTH:
            raise InputError(f"depth {self.depth} exceeds the cap {MAX_DEPTH}")
        if self.depth < 0 or self.tau_max < 0 or self.level < 0:
            raise InputError("depth, tau_max and level must be non-negative")


def read_expansion_file(path):
    """Digits of the expansion of 1, with an optional `period=<p>` header."""
    period = None
    digits_line = None
    try:
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if line.startswith("period="):
                    period = int(line.split("=", 1)[1])
                elif digits_line is None:
                    digits_line = line
                else:
                    raise InputError("expansion file has more than one digit line")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read expansion file: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"bad period header: {exc}") from exc
    if digits_line is None:
        raise InputError("expansion file has no digit line")
    digits = parse_word(digits_line)
    return digits, period


def build_system(config: RunConfig):
    if (config.beta is None) == (config.expansion_file is None):
        raise InputError("exactly one of --beta and --expansion-file is required")
    if config.beta is not None:
        return beta_mod.BetaSystem.from_beta(
            beta_mod.parse_beta(config.beta), horizon=config.horizon
        )
    digits, period = read_expansion_file(config.expansion_file)
    return beta_mod.BetaSystem.from_expansion(digits, period=period)


def _scheme(system, config: RunConfig):
    return (
        degenerate_decomposition(system)
        if config.degenerate
        else beta_decomposition(system)
    )


def _csv_path(config, name):
    if config.out is None:
        return None
    os.makedirs(config.out, exist_ok=True)
    return os.path.join(config.out, name)


def _write_csv(path, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


# -- commands -------------------------------------------------------------------


def cmd_expand(config: RunConfig):
    system = build_system(config)
    e = system.expansion
    payload = {
        "digits": format_word(e.digits, system.alphabet_size),
        "tail": e.tail.describe(),
        "alphabet_size": system.alphabet_size,
        "states": system.presentation.n_states,
        "beta_estimate": fmt_float(math.exp(system.log_beta())),
    }
    if config.emit_csv and config.out:
        system.presentation.dump_edges_csv(_csv_path(config, "automaton.csv"))
        payload["automaton_csv"] = "automaton.csv"
    return EXIT_PASS, make_report("expand", payload, config.to_dict())


def cmd_entropy(config: RunConfig):
    system = build_system(config)
    full = OrbitCollection.full_language(system)
    estimate = upper_entropy(full, config.depth, config.nmax)
    payload = {
        "rate": fmt_float(estimate.rate),
        "tail_rate": fmt_float(estimate.tail_rate),
        "method": estimate.method,
        "depth": config.depth,
        "log_beta": fmt_float(system.log_beta()),
        "samples": [[n, fmt_float(y)] for n, y in estimate.samples],
    }
    if config.emit_csv and config.out:
        rows = system.presentation.count_rows(config.nmax, first=1)
        _write_csv(
            _csv_path(config, "counts.csv"),
            [(n, sum(row)) for n, row in enumerate(rows, start=1)],
        )
        _write_csv(
            _csv_path(config, "separated.csv"),
            [
                (n, config.depth, count_separated(full, n, config.depth))
                for n in range(1, config.nmax + 1)
            ],
        )
        payload["counts_csv"] = "counts.csv"
    return EXIT_PASS, make_report("entropy", payload, config.to_dict())


def cmd_decomp(config: RunConfig, op: str, word_text: str | None = None, n: int | None = None):
    system = build_system(config)
    scheme = _scheme(system, config)
    if op == "split":
        if word_text is None:
            raise InputError("--op split needs --word")
        v = parse_word(word_text, system.alphabet_size)
        s = scheme.suffix_length(v)
        payload = {
            "word": format_word(v, system.alphabet_size),
            "prefix_len": 0,
            "core_len": len(v) - s,
            "suffix_len": s,
        }
        return EXIT_PASS, make_report("decomp-split", payload, config.to_dict())
    if op == "coverage":
        length = n if n is not None else min(config.nmax, 12)
        cov = filtration_coverage(system, scheme, config.level, length)
        payload = {
            "level": config.level,
            "n": length,
            "coverage": fmt_number(cov),
            "coverage_float": fmt_float(cov),
        }
        return EXIT_PASS, make_report("decomp-coverage", payload, config.to_dict())
    if op == "spec":
        collection = scheme.cores()
        result = min_gluing_time(
            system,
            collection,
            j=config.depth,
            tau_max=config.tau_max,
            lengths=SEARCH_LENGTHS,
        )
        rep = result.reports[-1]
        payload = {
            "collection": collection.label,
            "gluing_time": result.tau,
            "verdict": rep.verdict,
            "exhaustive": rep.exhaustive,
            "tuples_checked": rep.tuples_checked,
            "witnesses": [
                {
                    "segments": [format_word(w, system.alphabet_size) for w in segs],
                    "glued": format_word(z, system.alphabet_size),
                }
                for segs, z in rep.witnesses[:4]
            ],
        }
        code = EXIT_PASS if result.found else EXIT_INCONCLUSIVE
        return code, make_report("decomp-spec", payload, config.to_dict())
    raise InputError(f"unknown decomp op {op!r}")


def cmd_mme(config: RunConfig, n: int | None = None):
    system = build_system(config)
    n = n if n is not None else 500
    depth = min(config.measure_depth, 4, n)
    empirical = empirical_mme(system, n, depth)
    payload: dict = {
        "n": n,
        "depth": depth,
        "empirical": empirical.to_json_dict(),
    }
    code = EXIT_PASS
    try:
        parry = parry_measure(system, depth)
        payload["parry"] = parry.to_json_dict()
        gap = max_depth_gap(empirical, parry, depth)
        payload["max_gap_at_depth"] = fmt_float(gap)
    except NonMixingError as exc:
        payload["parry_error"] = str(exc)
    if config.emit_csv and config.out:
        rows = [("n", "word", "mass")]
        for nn in sorted({n // 8, n // 4, n // 2, n}):
            if nn < depth or nn < 1:
                continue
            # at nn = n the measure already computed has the same length-1 masses
            m = empirical if nn == n else empirical_mme(system, nn, min(depth, 1))
            for w in m.words_at(1):
                rows.append((nn, format_word(w, system.alphabet_size),
                             fmt_float(m.mass_float(w))))
        _write_csv(_csv_path(config, "mme_convergence.csv"), rows)
        payload["convergence_csv"] = "mme_convergence.csv"
    return code, make_report("mme", payload, config.to_dict())


def cmd_verify(config: RunConfig):
    system = build_system(config)
    scheme = _scheme(system, config)
    measure = (_load_measure(config.measure_file) if config.measure_file
               else parry_measure(system, config.measure_depth))
    rows, suite = verify_battery(system, scheme, measure, level=config.level,
                                 j=config.depth, tau_max=config.tau_max, n_max=config.nmax)
    checks = [{"name": r.name, "passed": bool(r.passed), "summary": r.summary, **r.details}
              for r in rows]
    by_name = {c["name"]: c for c in checks}
    payload = {
        "system": system.describe(),
        "scheme": scheme.name,
        "checks": checks,
        "uniqueness_hypotheses_met": by_name["obstruction-below-entropy"]["passed"],
        "constants": {
            "tau": by_name["gluing-cores"].get("tau"),
            "c1": fmt_float(suite.c1),
            "c1_sup": fmt_float(suite.c1_sup),
            "c2": fmt_float(suite.c2),
            "tails": {str(m): fmt_number(v) if isinstance(v, Fraction) else fmt_float(v)
                      for m, v in suite.b_tails.items()},
        },
    }
    # a row not run or undecided makes the run inconclusive
    passed = [r.passed for r in rows]
    code = (EXIT_INCONCLUSIVE if None in passed
            else EXIT_PASS if all(passed) else EXIT_VIOLATION)
    return code, make_report("verify", payload, config.to_dict())


def _load_measure(path) -> CylinderMeasure:
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read measure file: {exc}") from exc
    return CylinderMeasure.from_json_dict(data)


def cmd_factor(config: RunConfig, code_file: str):
    system = build_system(config)
    code = BlockCode.from_file(code_file, system.alphabet_size)
    scheme = beta_decomposition(system)
    # the one image system of the run; building it refuses a window past the
    # enumeration cap
    induced = induced_decomposition(system, code, scheme)
    factor_sys = induced.factor
    expans = nonexpansive_growth(system, code, n_max=config.nmax)
    suffix = upper_entropy(induced.suffixes(), 0, config.nmax)
    positive = factor_entropy_positive(system, code, j=config.depth, source_scheme=scheme)
    glue_tau, glue_note = induced.gluing_time(
        config.level, config.depth, config.tau_max + code.window)

    mme_gap = None
    if positive.positive:
        n1, n2 = 500, 1000
        depth3 = 3
        m1 = empirical_mme(factor_sys, n1, depth3)
        m2 = empirical_mme(factor_sys, n2, depth3)
        mme_gap = max_depth_gap(m1, m2, depth3)

    hypotheses_met = (
        expans.expansive
        and suffix.rate < 1e-9
        and positive.positive
        and glue_tau is not None
        and (mme_gap is None or mme_gap < 0.05)
    )
    payload = {
        "window": code.window,
        "expansivity": {
            "verdict": expans.verdict,
            "growth_bound": None
            if expans.growth_bound is None
            else fmt_float(expans.growth_bound),
            "pair_counts": list(expans.pair_counts),
        },
        "suffix_rate": fmt_float(suffix.rate),
        "image_entropy": {
            "verdict": positive.verdict,
            "rate_bound": None
            if positive.rate_bound is None
            else fmt_float(positive.rate_bound),
            "witness": None
            if positive.witness is None
            else [format_word(w, system.alphabet_size) for w in positive.witness[:2]],
        },
        "induced_gluing_time": glue_tau,
        "induced_gluing_evidence": glue_note,
        "mme_agreement_gap": None if mme_gap is None else fmt_float(mme_gap),
        "uniqueness_hypotheses_met": hypotheses_met,
    }
    if config.out:
        expans.automaton.dump_edges_csv(_csv_path(config, "pair_automaton.csv"))
        payload["pair_automaton_csv"] = "pair_automaton.csv"
    if positive.verdict == "inconclusive" or glue_tau is None:
        code_out = EXIT_INCONCLUSIVE
    else:
        code_out = EXIT_PASS
    return code_out, make_report("factor", payload, config.to_dict())


# -- argument parsing ----------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", help="beta as a decimal literal, e.g. 1.5")
    parser.add_argument("--expansion-file", help="digits file with optional period= header")
    parser.add_argument("--horizon", type=int, default=80, help="digits computed for beta")
    parser.add_argument("--nmax", type=int, default=24, help="largest word length used")
    parser.add_argument("--depth", type=int, default=0, help="scale depth index j")
    parser.add_argument("--tau-max", type=int, default=4,
                        help="largest gluing gap: gaps are searched up to it, "
                        "and a larger certificate gap is not established")
    parser.add_argument("--M", dest="level", type=int, default=2, help="filtration level")
    parser.add_argument("--measure-depth", type=int, default=12)
    parser.add_argument("--out", help="output directory for reports and CSV")
    parser.add_argument("--emit-csv", action="store_true")


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(
        beta=args.beta,
        expansion_file=args.expansion_file,
        horizon=args.horizon,
        depth=args.depth,
        nmax=args.nmax,
        tau_max=args.tau_max,
        level=args.level,
        measure_depth=args.measure_depth,
        degenerate=getattr(args, "degenerate", False),
        measure_file=getattr(args, "measure_file", None),
        emit_csv=args.emit_csv,
        out=args.out,
    )
    cfg.validate()
    return cfg


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it as it
    was)."""
    parser = argparse.ArgumentParser(
        prog="obstruct",
        description="beta-shift decompositions, maximal-entropy measures, "
        "and machine checks of the estimates behind intrinsic ergodicity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="digit expansion of 1 and its automaton")
    _add_common(p)

    p = sub.add_parser("entropy", help="language growth of the system")
    _add_common(p)

    p = sub.add_parser("decomp", help="splits, coverage, and gluing checks")
    _add_common(p)
    p.add_argument("--op", choices=("split", "coverage", "spec"), required=True)
    p.add_argument("--word", help="word to split (word file format)")
    p.add_argument("--n", type=int, help="length for coverage")

    p = sub.add_parser("mme", help="empirical measure vs stationary oracle")
    _add_common(p)
    p.add_argument("--n", type=int, default=500, help="empirical time parameter")

    p = sub.add_parser("verify", help="run every estimate check")
    _add_common(p)
    p.add_argument("--degenerate", action="store_true",
                   help="use the everything-is-suffix scheme")
    p.add_argument("--measure-file", help="cylinder-measure JSON instead of the oracle")

    p = sub.add_parser("factor", help="sliding-block image analysis")
    _add_common(p)
    p.add_argument("--code-file", required=True, help="k-block rule file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "expand":
            code, report = cmd_expand(config)
        elif args.command == "entropy":
            code, report = cmd_entropy(config)
        elif args.command == "decomp":
            code, report = cmd_decomp(config, args.op, args.word, args.n)
        elif args.command == "mme":
            code, report = cmd_mme(config, args.n)
        elif args.command == "verify":
            code, report = cmd_verify(config)
        elif args.command == "factor":
            code, report = cmd_factor(config, args.code_file)
        else:  # pragma: no cover
            raise InputError(f"unknown command {args.command!r}")
    except (InputError, HorizonError, EnumerationCapError, NonMixingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SpecificationError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except ObstructError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        write_report(report, os.path.join(config.out, f"{args.command}.json"))
    else:
        sys.stdout.write(dumps_report(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
