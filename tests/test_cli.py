import contextlib
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from obstruct.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_PASS,
    EXIT_VIOLATION,
    MAX_DEPTH,
    MAX_NMAX,
    RunConfig,
    build_parser,
    build_system,
    cmd_decomp,
    cmd_entropy,
    cmd_expand,
    cmd_factor,
    cmd_mme,
    cmd_verify,
    main,
    read_expansion_file,
)
from obstruct.errors import InputError
from obstruct.factors import BlockCode
from obstruct.measures import parry_measure
from obstruct.reports import dumps_report, reports_equal


_ZERO_DENOMINATOR_MEASURE = (
    '{"depth": 1, "provenance": "p", "entries": [{"word": "", "mass_num": "1",'
    ' "mass_den": "0"}]}'
)


def _measure_text(depth, *words):
    """A measure file on two symbols: each word's mass is 2^-length."""
    entries = [{"word": w, "mass_num": "1", "mass_den": str(2 ** len(w))} for w in words]
    return json.dumps({"depth": depth, "alphabet_size": 2, "provenance": "p",
                       "entries": entries})


@pytest.fixture()
def golden_file(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text("period=2\n10\n")
    return str(path)


@pytest.fixture()
def xor_file(tmp_path):
    path = tmp_path / "xor.code"
    BlockCode.xor().to_file(path)
    return str(path)


class TestConfig:
    def test_roundtrip(self):
        cfg = RunConfig(beta="1.5", nmax=30, emit_csv=True)
        assert RunConfig(**cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(InputError):
            RunConfig(beta="2", nmax=0).validate()

    def test_exactly_one_system_source(self, golden_file):
        with pytest.raises(InputError):
            build_system(RunConfig())
        with pytest.raises(InputError):
            build_system(RunConfig(beta="2", expansion_file=golden_file))


class TestExpansionFile:
    def test_read(self, golden_file):
        digits, period = read_expansion_file(golden_file)
        assert digits == (1, 0) and period == 2

    def test_truncated_without_period(self, tmp_path):
        path = tmp_path / "trunc.txt"
        path.write_text("10100000\n")
        digits, period = read_expansion_file(str(path))
        assert period is None
        system = build_system(RunConfig(expansion_file=str(path)))
        assert system.horizon == 8

    def test_missing_digits(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# comment only\n")
        with pytest.raises(InputError):
            read_expansion_file(str(path))

    def test_non_ascii_file_is_unreadable(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes("period=2\n1\xe90\n".encode("latin-1"))
        with pytest.raises(InputError, match="cannot read expansion file"):
            read_expansion_file(str(path))
        assert main(["verify", "--expansion-file", str(path)]) == EXIT_INPUT
        assert "cannot read expansion file" in capsys.readouterr().err


class TestCommands:
    def test_expand(self):
        code, report = cmd_expand(RunConfig(beta="1.5", horizon=20))
        assert code == EXIT_PASS
        assert report["payload"]["digits"].startswith("10100000")

    def test_entropy_full_shift(self):
        code, report = cmd_entropy(RunConfig(beta="2", nmax=30))
        assert code == EXIT_PASS
        assert float(report["payload"]["rate"]) == pytest.approx(
            math.log(2), abs=1e-9
        )

    def test_decomp_split(self, golden_file):
        code, report = cmd_decomp(
            RunConfig(expansion_file=golden_file), "split", word_text="00101"
        )
        assert code == EXIT_PASS
        payload = report["payload"]
        assert (payload["prefix_len"], payload["core_len"], payload["suffix_len"]) == (
            0, 2, 3,
        )

    def test_decomp_coverage(self):
        code, report = cmd_decomp(
            RunConfig(beta="2", level=3), "coverage", n=10
        )
        assert report["payload"]["coverage"] == "15/16"

    def test_decomp_spec(self, golden_file):
        code, report = cmd_decomp(RunConfig(expansion_file=golden_file), "spec")
        assert code == EXIT_PASS
        assert report["payload"]["gluing_time"] == 0

    def test_decomp_spec_over_budget_is_refused(self):
        # 3 symbols at depth 2: the tuple space exceeds the default budget
        code, report = cmd_decomp(RunConfig(beta="3", depth=2), "spec")
        assert code == EXIT_INCONCLUSIVE
        payload = report["payload"]
        assert payload["verdict"] == "inconclusive"
        assert payload["exhaustive"] is False and payload["tuples_checked"] == 0
        assert payload["gluing_time"] is None and payload["witnesses"] == []

    def test_mme(self, golden_file):
        code, report = cmd_mme(RunConfig(expansion_file=golden_file), n=120)
        assert code == EXIT_PASS
        assert float(report["payload"]["max_gap_at_depth"]) < 0.05

    def test_verify_golden_passes(self, golden_file):
        code, report = cmd_verify(RunConfig(expansion_file=golden_file))
        assert code == EXIT_PASS
        assert report["payload"]["uniqueness_hypotheses_met"] is True
        assert all(c["passed"] for c in report["payload"]["checks"])

    def test_verify_degenerate_fails(self, golden_file):
        code, report = cmd_verify(
            RunConfig(expansion_file=golden_file, degenerate=True)
        )
        assert code == EXIT_VIOLATION
        assert report["payload"]["uniqueness_hypotheses_met"] is False

    def test_verify_inconclusive_when_gap_capped(self, golden_file):
        code, report = cmd_verify(RunConfig(expansion_file=golden_file, tau_max=0))
        assert code == EXIT_INCONCLUSIVE

    def test_factor_identity(self, golden_file, tmp_path):
        ident = tmp_path / "ident.code"
        BlockCode.identity(2).to_file(ident)
        code, report = cmd_factor(
            RunConfig(expansion_file=golden_file), str(ident)
        )
        assert code == EXIT_PASS
        payload = report["payload"]
        assert payload["expansivity"]["verdict"] == "positively-expansive"
        assert float(payload["suffix_rate"]) == 0.0
        assert payload["uniqueness_hypotheses_met"] is True

    def test_factor_merge(self, golden_file, tmp_path):
        merge = tmp_path / "merge.code"
        BlockCode.merge_all(2).to_file(merge)
        code, report = cmd_factor(RunConfig(expansion_file=golden_file), str(merge))
        assert report["payload"]["image_entropy"]["verdict"] == "single-point-at-scale"
        assert report["payload"]["uniqueness_hypotheses_met"] is False

    def test_factor_xor(self, xor_file):
        code, report = cmd_factor(RunConfig(beta="2"), xor_file)
        assert code == EXIT_PASS
        bound = float(report["payload"]["image_entropy"]["rate_bound"])
        assert bound >= math.log(2) / 2 - 1e-12


class TestDeterminism:
    def test_verify_reports_identical(self, golden_file):
        cfg = RunConfig(expansion_file=golden_file)
        _, a = cmd_verify(cfg)
        _, b = cmd_verify(cfg)
        assert reports_equal(a, b)
        strip = lambda r: dumps_report({k: v for k, v in r.items() if k != "meta"})
        assert strip(a) == strip(b)

    def test_timestamp_is_isolated(self, golden_file):
        cfg = RunConfig(expansion_file=golden_file)
        _, a = cmd_verify(cfg)
        assert "timestamp" in a["meta"]
        payload_text = dumps_report(a["payload"])
        assert a["meta"]["timestamp"] not in payload_text

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
        | st.dictionaries(st.text(), inner),
        max_leaves=30,
    ))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_report_bytes_are_those_of_json_dumps(self, tree):
        # NaN, infinities, non-ASCII text, empty containers and tuples
        report = {"payload": tree}
        assert dumps_report(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"


# every option a subcommand shares, with a value and what it parses to
_COMMON_FLAGS = [
    ("--beta", "1.5", "beta", "1.5"),
    ("--expansion-file", "e.txt", "expansion_file", "e.txt"),
    ("--horizon", "7", "horizon", 7),
    ("--nmax", "9", "nmax", 9),
    ("--depth", "1", "depth", 1),
    ("--tau-max", "3", "tau_max", 3),
    ("--M", "1", "level", 1),
    ("--measure-depth", "5", "measure_depth", 5),
    ("--out", "reports", "out", "reports"),
    ("--emit-csv", None, "emit_csv", True),
]
_DEFAULTS = {"beta": None, "expansion_file": None, "horizon": 80, "nmax": 24, "depth": 0,
             "tau_max": 4, "level": 2, "measure_depth": 12, "out": None, "emit_csv": False}


@pytest.mark.parametrize("command, required", [
    ("expand", []), ("entropy", []), ("decomp", ["--op", "split"]), ("mme", []),
    ("verify", []), ("factor", ["--code-file", "c.code"]),
])
def test_every_subcommand_takes_every_common_flag(command, required):
    args = build_parser().parse_args([command, *required])
    assert {dest: getattr(args, dest) for dest in _DEFAULTS} == _DEFAULTS
    argv = [command, *required]
    for flag, value, _, _ in _COMMON_FLAGS:
        argv += [flag] if value is None else [flag, value]
    args = build_parser().parse_args(argv)
    assert {dest: getattr(args, dest) for _, _, dest, _ in _COMMON_FLAGS} == {
        dest: parsed for _, _, dest, parsed in _COMMON_FLAGS}


class TestMainEntry:
    def test_exit_codes_via_argv(self, golden_file, capsys):
        assert main(["verify", "--expansion-file", golden_file]) == EXIT_PASS
        capsys.readouterr()

    def test_missing_system_is_input_error(self, capsys):
        assert main(["entropy"]) == EXIT_INPUT
        capsys.readouterr()

    def test_corrupt_measure_file(self, golden_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        code = main(
            ["verify", "--expansion-file", golden_file, "--measure-file", str(bad)]
        )
        assert code == EXIT_INPUT
        capsys.readouterr()

    def test_measure_file_zero_denominator(self, tmp_path, capsys):
        # also a negative depth, and a depth past the longest word, which
        # would send the correlation probe through gaps up to depth - 2
        bad = tmp_path / "bad.json"
        for text in (_ZERO_DENOMINATOR_MEASURE, _measure_text(-1, ""),
                     _measure_text(20_000, "", "0", "1")):
            bad.write_text(text)
            code = main(["verify", "--beta", "2", "--measure-file", str(bad)])
            assert code == EXIT_INPUT, text
            err = capsys.readouterr().err
            assert err.startswith("error: malformed measure file"), text
            assert "Traceback" not in err

    def test_out_directory_files(self, golden_file, tmp_path, capsys):
        out = tmp_path / "reports"
        assert (
            main(
                ["entropy", "--expansion-file", golden_file, "--nmax", "20",
                 "--out", str(out), "--emit-csv"]
            )
            == EXIT_PASS
        )
        report = json.loads((out / "entropy.json").read_text())
        assert report["schema"] == 1
        counts = (out / "counts.csv").read_text().strip().split("\n")
        assert counts[0] == "1,2"
        separated = (out / "separated.csv").read_text().strip().split("\n")
        assert separated[0] == "1,0,2"
        capsys.readouterr()

    def test_factor_pair_dump(self, golden_file, tmp_path, capsys):
        ident = tmp_path / "ident.code"
        BlockCode.identity(2).to_file(ident)
        out = tmp_path / "fac"
        assert (
            main(
                ["factor", "--expansion-file", golden_file,
                 "--code-file", str(ident), "--out", str(out)]
            )
            == EXIT_PASS
        )
        assert (out / "pair_automaton.csv").exists()
        capsys.readouterr()


def test_expand_dumps_automaton_csv(golden_file, tmp_path, capsys):
    out = tmp_path / "exp"
    assert (
        main(["expand", "--expansion-file", golden_file, "--out", str(out),
              "--emit-csv"])
        == EXIT_PASS
    )
    rows = (out / "automaton.csv").read_text().strip().split("\n")
    assert sorted(rows) == ["0,0,0", "0,1,1", "1,0,0"]
    capsys.readouterr()


def test_factor_window_beyond_cap(golden_file, tmp_path, capsys):
    big = tmp_path / "big.code"
    big.write_text(f"{'0' * 30} -> 0\n")
    code = main(
        ["factor", "--expansion-file", golden_file, "--code-file", str(big)]
    )
    assert code == EXIT_INPUT
    capsys.readouterr()


def test_factor_image_entropy_walks_only_to_the_witness(xor_file, capsys):
    # at depth 22 the searched length 24 holds 2^24 source words; the lazy
    # walk stops at the third, so the depth is decided
    main(["factor", "--beta", "2", "--code-file", xor_file, "--depth", "22"])
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["image_entropy"]["verdict"] == "positive-entropy"
    assert payload["image_entropy"]["witness"] == ["0" * 24, "0" * 22 + "10"]


def test_factor_image_entropy_stops_at_the_word_budget(xor_file, monkeypatch, capsys):
    # a walk that visits more source words than the budget concludes nothing
    monkeypatch.setattr("obstruct.factors.MAX_ENUMERATED_WORDS", 2)
    code = main(["factor", "--beta", "2", "--code-file", xor_file, "--depth", "22"])
    assert code == EXIT_INCONCLUSIVE
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["image_entropy"]["verdict"] == "inconclusive"
    assert payload["image_entropy"]["witness"] is None


def test_factor_gluing_time_is_pushed_forward_not_searched(xor_file, monkeypatch, capsys):
    # image level 2 of a window-2 code lies in the image of source level 3,
    # whose state-0 gap at depth 2 is 2; the literal search would find 2
    def refuse(*args, **kwargs):
        raise AssertionError("factor ran the literal gluing search")

    monkeypatch.setattr("obstruct.cli.min_gluing_time", refuse)
    monkeypatch.setattr("obstruct.decomposition.min_gluing_time", refuse)
    code = main(["factor", "--beta", "2", "--code-file", xor_file, "--depth", "2"])
    assert code == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["induced_gluing_time"] == 3
    assert payload["induced_gluing_evidence"] == (
        "push-forward of source level 3 at depth 2: gap 2 + 1; "
        "all lengths, any number of segments"
    )


def test_factor_image_entropy_past_the_cap_is_inconclusive(xor_file, capsys):
    # at depth 23 the first searched length, k + j = 25, is past the cap of
    # 24: nothing is searched, so nothing is concluded
    code = main(["factor", "--beta", "2", "--code-file", xor_file, "--depth", "23"])
    assert code == EXIT_INCONCLUSIVE
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["image_entropy"]["verdict"] == "inconclusive"
    assert payload["image_entropy"]["witness"] is None


def test_non_integer_word_is_input_error(capsys):
    code = main(["decomp", "--op", "split", "--beta", "2", "--word", "0a1"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--beta", "1e400"],
        ["expand", "--beta", "1.5", "--horizon", "10000000"],
        ["mme", "--beta", "2", "--n", "10001"],
        ["entropy", "--beta", "2", "--nmax", str(MAX_NMAX + 1)],
        # c1 ~ beta^j would pass the float range, or j its digit limit
        ["verify", "--beta", "2", "--depth", str(MAX_DEPTH + 1)],
    ],
    ids=["alphabet", "horizon", "empirical-n", "nmax", "depth"],
)
def test_size_caps_refuse_before_work(argv, capsys):
    assert main(argv) == EXIT_INPUT
    assert "cap" in capsys.readouterr().err


def _cli_imports(module: str) -> bool:
    probe = f"import obstruct.cli, sys; print({module!r} in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    return out.stdout.strip() == "True"


# heavy packages, and stdlib modules that cost start-up time for no run-time work
@pytest.mark.parametrize(
    "module", ["networkx", "sympy", "mpmath", "dataclasses", "inspect", "datetime"]
)
def test_cli_import_leaves_out(module):
    assert not _cli_imports(module)


_WITHOUT_MPMATH = """
import json, sys
sys.modules["mpmath"] = None  # any import of mpmath now fails
from obstruct.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(codes))
"""


def test_cli_runs_without_mpmath(tmp_path):
    # the preperiodic `2110 period=2` reaches the power iteration
    pre = tmp_path / "pre.txt"
    pre.write_text("period=2\n2110\n")
    runs = [
        ["verify", "--beta", "1.5", "--horizon", "60"],
        ["mme", "--expansion-file", str(pre)],
    ]
    argvs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_MPMATH, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == [EXIT_PASS, EXIT_PASS]
    for i, argv in enumerate(runs):
        name = f"{argv[0]}.json"
        with open(tmp_path / str(i) / name, encoding="ascii") as fh:
            isolated = json.load(fh)
        assert main(argv + ["--out", str(tmp_path / f"here{i}")]) == EXIT_PASS
        with open(tmp_path / f"here{i}" / name, encoding="ascii") as fh:
            here = json.load(fh)
        isolated["config"]["out"] = here["config"]["out"]
        assert reports_equal(isolated, here)


def test_verify_reuses_level_zero_gluing_for_cores(monkeypatch, capsys):
    # on the beta scheme the cores are level 0: one certificate per level
    from obstruct.decomposition import BetaDecomposition

    calls = []
    certificate = BetaDecomposition.gluing_time
    monkeypatch.setattr(
        BetaDecomposition, "gluing_time",
        lambda *args, **kwargs: calls.append(args) or certificate(*args, **kwargs),
    )
    with tempfile.TemporaryDirectory() as tmp:
        p5 = Path(tmp) / "p5.txt"
        p5.write_text("period=5\n21001\n")
        code = main(["verify", "--expansion-file", str(p5), "--depth", "1"])
    assert code in (EXIT_PASS, EXIT_INCONCLUSIVE)
    report = json.loads(capsys.readouterr().out)
    level = report["config"]["level"]
    assert len(calls) == level + 1
    checks = {c["name"]: c for c in report["payload"]["checks"]}
    assert checks["gluing-cores"]["passed"] == checks["gluing-level-0"]["passed"]


def test_golden_count_ratio_survives_cancellation(golden_file, capsys):
    # count(n) / phi^n is a difference in Q(sqrt 5) that cancels to a number
    # near C1 = 1.1708...; its float must keep those digits, and at n = 800
    # convert without overflowing
    assert main(["verify", "--expansion-file", golden_file, "--nmax", "40"]) == EXIT_PASS
    constants = json.loads(capsys.readouterr().out)["payload"]["constants"]
    assert float(constants["c1"]) == pytest.approx(1.17082, abs=1e-5)
    assert float(constants["c1_sup"]) == pytest.approx(1.23607, abs=1e-5)
    assert main(["verify", "--expansion-file", golden_file, "--nmax", "800"]) == EXIT_PASS
    capsys.readouterr()


def test_measure_file_accepted_when_valid(golden_file, tmp_path):
    system = build_system(RunConfig(expansion_file=golden_file))
    measure = parry_measure(system, 12)
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure.to_json_dict()))
    cfg = RunConfig(expansion_file=golden_file, measure_file=str(path))
    code, report = cmd_verify(cfg)
    assert code == EXIT_PASS


def test_measure_file_sets_the_check_lengths(tmp_path, capsys):
    # the Gibbs, positive-mass and probe lengths come from the file's depth
    # (8), not from the default --measure-depth (12)
    p5 = tmp_path / "p5.txt"
    p5.write_text("period=5\n21001\n")
    system = build_system(RunConfig(expansion_file=str(p5)))
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(parry_measure(system, 8).to_json_dict()))
    code = main(["verify", "--expansion-file", str(p5), "--measure-file", str(path)])
    assert code == EXIT_PASS
    checks = json.loads(capsys.readouterr().out)["payload"]["checks"]
    rows = {c["name"]: c for c in checks}
    assert rows["positive-mass-count"]["summary"] == "at n = 8"
    assert rows["correlation-floor"]["summary"].endswith("over gaps 1..6")


def test_two_window_gap_past_measure_depth_is_not_run(tmp_path, capsys):
    # level 2 of p5 glues at gap 3, so the two-window pattern is 1 + 6 + 1
    # symbols long, past a depth-4 measure: inconclusive, not an input error
    p5 = tmp_path / "p5.txt"
    p5.write_text("period=5\n21001\n")
    code = main(["verify", "--expansion-file", str(p5), "--measure-depth", "4"])
    assert code == EXIT_INCONCLUSIVE
    checks = json.loads(capsys.readouterr().out)["payload"]["checks"]
    rows = {c["name"]: c for c in checks}
    mixing = rows["two-window-mass-floor"]
    assert not mixing["passed"]
    assert mixing["summary"] == (
        "not run: pattern length 8 exceeds measure depth 4"
    )
    assert rows["correlation-floor"]["alpha_constant"] is None
    assert all(c["passed"] for c in checks if c is not mixing)


@pytest.mark.parametrize("argv", [
    ["verify", "--beta", "2", "--measure-depth", "1"],
    ["verify", "--beta", "1.5", "--horizon", "60", "--measure-depth", "1"],
    ["verify", "--beta", "2", "--measure-file", "depth-1 table"],
])
def test_correlation_probe_past_a_depth_1_measure_is_not_run(argv, tmp_path, capsys):
    # the probe's first gap needs a two-symbol pattern: inconclusive, not an
    # input error
    if argv[-1] == "depth-1 table":
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(
            parry_measure(build_system(RunConfig(beta="2")), 1).to_json_dict()
        ))
        argv = argv[:-1] + [str(path)]
    assert main(argv) == EXIT_INCONCLUSIVE
    rows = {c["name"]: c for c in json.loads(capsys.readouterr().out)["payload"]["checks"]}
    probe = rows["correlation-floor"]
    assert probe == {
        "name": "correlation-floor",
        "passed": False,
        "summary": "not run: pattern length 2 exceeds measure depth 1",
        "alpha_constant": None,
    }
    assert rows["two-window-mass-floor"]["summary"].startswith("not run: ")


def _tiny_correlation_rows(tmp_path, capsys):
    """verify --beta 2 on a depth-5 table where 00 and 11 have mass 10^-400:
    the exit code and the rows by name."""
    tiny = Fraction(1, 10 ** 400)
    mass = {"": Fraction(1), "0": Fraction(1, 2), "1": Fraction(1, 2),
            "00": tiny, "11": tiny, "01": Fraction(1, 2) - tiny, "10": Fraction(1, 2) - tiny}
    for n in range(3, 6):
        for w in itertools.product("01", repeat=n):
            mass["".join(w)] = mass["".join(w[:-1])] / 2
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({
        "depth": 5, "alphabet_size": 2, "provenance": "test",
        "entries": [{"word": w, "mass_num": str(m.numerator), "mass_den": str(m.denominator)}
                    for w, m in mass.items()],
    }))
    code = main(["verify", "--beta", "2", "--measure-file", str(path)])
    return code, {c["name"]: c for c in json.loads(capsys.readouterr().out)["payload"]["checks"]}


def test_correlation_floor_below_the_least_float_passes(tmp_path, capsys):
    # the running infimum 10^-400 is positive, though below the least float
    code, rows = _tiny_correlation_rows(tmp_path, capsys)
    assert code == EXIT_PASS
    assert rows["correlation-floor"]["passed"] is True


def test_sub_float_running_infimum_reads_its_exact_value(tmp_path, capsys):
    # a float would read 0 beside passed: true
    _, rows = _tiny_correlation_rows(tmp_path, capsys)
    probe = rows["correlation-floor"]
    assert probe["running_infimum"] == "1e-400"
    assert probe["summary"] == "running infimum 1e-400 over gaps 1..3"


@pytest.mark.parametrize("argv", [
    # the certificate's gap, 9, exceeds --tau-max 4
    ["verify", "--beta", "1.5", "--horizon", "60", "--depth", "3"],
    # the certificate's gap, 3, exceeds --tau-max 2
    ["verify", "--beta", "1.5", "--horizon", "60", "--depth", "1", "--tau-max", "2"],
])
def test_gluing_count_checks_need_a_core_gluing_time(argv, capsys):
    assert main(argv) == EXIT_INCONCLUSIVE
    payload = json.loads(capsys.readouterr().out)["payload"]
    rows = {c["name"]: c for c in payload["checks"]}
    assert not rows["gluing-cores"]["passed"]
    for name in ("counting:gluing-product-bound", "counting:core-count-ceiling"):
        assert rows[name] == {
            "name": name,
            "passed": False,
            "summary": "not run: gluing time not established",
        }
    assert payload["constants"]["tau"] is None
    # the checks that need no gluing time still run
    assert rows["counting:growth-floor"]["passed"]


def test_report_config_holds_every_field_a_run_reads(capsys):
    assert main(["expand", "--beta", "2"]) == EXIT_PASS
    assert sorted(json.loads(capsys.readouterr().out)["config"]) == [
        "beta", "degenerate", "depth", "emit_csv", "expansion_file", "horizon",
        "level", "measure_depth", "measure_file", "nmax", "out", "tau_max",
    ]


def _bench_workloads():
    """perfbench/workloads.py of this checkout, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_BENCH = _bench_workloads()


@pytest.mark.parametrize("op", [
    op for ops in _BENCH.WORKLOADS.values() for op in ops if op.startswith("verify ")
] + [
    # every level glues at gap 4 (exit 0)
    "verify --beta 2.5 --horizon 60 --depth 2",
    # every gluing check fails on these two (exit 3)
    "verify --beta 1.5 --horizon 60 --depth 3",
    "verify --expansion-file @p5 --depth 2",
])
def test_proof_constants_only_from_an_established_gluing_time(op, tmp_path, capsys):
    _BENCH.write_inputs(tmp_path)
    main(_BENCH.argv_for(op, tmp_path))
    report = json.loads(capsys.readouterr().out)
    rows = {c["name"]: c for c in report["payload"]["checks"]}
    glued = rows[f"gluing-level-{report['config']['level']}"]["passed"]
    floors = [rows[name] for name in ("mass-floor", "two-window-mass-floor")
              if "constant" in rows[name]]
    assert floors
    for row in floors:
        if glued:
            assert float(row["proof_constant"]) <= float(row["constant"])
        else:
            assert row["proof_constant"] is None
            assert row["proof_constant_reason"] == "gluing time not established"


@pytest.mark.parametrize("op", [
    # level 2's certificate gap, 5, exceeds --tau-max 4
    "verify --expansion-file @p5 --depth 2",
    # level 2's certificate gap, 9, exceeds --tau-max 4
    "verify --beta 1.5 --horizon 60 --depth 3",
])
def test_two_window_floor_needs_the_level_gluing_time(op, tmp_path, capsys):
    # no gap was established for the level, so the floor is not checked at
    # any stand-in gap, and the correlation constant built on it is null
    _BENCH.write_inputs(tmp_path)
    assert main(_BENCH.argv_for(op, tmp_path)) == EXIT_INCONCLUSIVE
    payload = json.loads(capsys.readouterr().out)["payload"]
    rows = {c["name"]: c for c in payload["checks"]}
    assert not rows["gluing-level-2"]["passed"]
    assert rows["two-window-mass-floor"] == {
        "name": "two-window-mass-floor",
        "passed": False,
        "summary": "not run: gluing time not established",
    }
    assert rows["correlation-floor"]["alpha_constant"] is None


@pytest.mark.parametrize("op, summary", [
    # the three levels' gaps, 5, exceed --tau-max: the row is not run
    ("verify --expansion-file @p5 --depth 2",
     "not run: gluing time not established at levels 0, 1, 2"),
    # every level glues: the exact rate 0 against log beta
    ("verify --expansion-file @p5 --depth 1 --tau-max 6",
     "obstruction rate 0 < log beta = 0.900523"),
])
def test_obstruction_summary_names_the_unglued_levels(op, summary, tmp_path, capsys):
    _BENCH.write_inputs(tmp_path)
    main(_BENCH.argv_for(op, tmp_path))
    rows = {c["name"]: c for c in json.loads(capsys.readouterr().out)["payload"]["checks"]}
    row = rows["obstruction-below-entropy"]
    assert row["summary"] == summary
    assert row["passed"] == all(rows[f"gluing-level-{M}"]["passed"] for M in range(3))
    assert row["obstruction_rate"] == "0" and row["evidence"].startswith("count <= 3^")


@pytest.mark.parametrize("op, evidence", [
    ("verify --beta 2.5 --horizon 60 --depth 2", "count <= 3^2 at every n"),
    # log beta = 0.039 is below any fixed margin: the exact rate 0 still
    # passes, on lo = 1.04 > 1
    ("verify --beta 1.04 --horizon 150 --tau-max 90", "count <= 2^0 at every n"),
])
def test_obstruction_rate_is_zero_by_structure(op, evidence, capsys):
    main(op.split())
    rows = {c["name"]: c for c in json.loads(capsys.readouterr().out)["payload"]["checks"]}
    row = rows["obstruction-below-entropy"]
    assert (row["passed"], row["obstruction_rate"], row["evidence"]) == (True, "0", evidence)


# -- fuzzing the command line in-process ----------------------------------------------


def _below_three_or_unparsable(text):
    try:
        return Fraction(text.strip()) < 3
    except (ValueError, ZeroDivisionError):
        return True


# cost bound: beta >= 3 means 3 or more symbols at every depth, and verify on
# the full 3-shift alone takes about 20 s
_FUZZ_BETAS = st.one_of(
    st.sampled_from(["2", "1.5", "1.8", "2.5", "1.01", "3/2", " 2.0 "]),
    st.fractions(
        min_value=Fraction(13, 12), max_value=Fraction(29, 10), max_denominator=12
    ).map(str),
)
_FUZZ_BAD_BETAS = st.one_of(
    st.sampled_from(
        ["1", "0.5", "-2", "1e400", "300", "abc", "", "nan", "inf", "1/0", "0"]
    ),
    st.text("0123456789./-e", max_size=4).filter(_below_three_or_unparsable),
)
_FUZZ_EXPANSIONS = st.sampled_from(
    ["period=2\n10\n", "period=5\n21001\n", "period=9\n110100100\n",
     "# note\nperiod=2\n2110\n", "2101\n", "period=1\n1\n", "110\n"]
)
_FUZZ_BAD_EXPANSIONS = st.builds(
    "{}{}\n{}".format,
    st.sampled_from(
        ["", "period=0\n", "period=-1\n", "period=9\n", "period=x\n",
         "period=\x80\n"]
    ),
    st.text("012 a-", max_size=6),
    st.sampled_from(["", "10\n", "\x80\n"]),
)
_FUZZ_BAD_CODES = st.lists(
    st.builds(
        "{} -> {}".format,
        st.text("012 ", max_size=3),
        st.sampled_from(["0", "1", "-1", "x", "", "9"]),
    ),
    max_size=4,
).map(lambda lines: "\n".join(lines) + "\n")
_FUZZ_MEASURES = st.sampled_from(
    ["", "{", "[]", "3", '{"depth": 1}',
     '{"depth": 1, "provenance": "p", "entries": [{"word": "", "mass_num": "1",'
     ' "mass_den": "1"}, {"word": "0", "mass_float": "0.5"}]}',
     '{"depth": "x", "provenance": 1, "entries": [{"word": "9"}]}',
     _ZERO_DENOMINATOR_MEASURE]
)


@st.composite
def _fuzz_code(draw):
    """A window-1 or window-2 binary code, total on binary blocks."""
    window = draw(st.integers(1, 2))
    return "".join(
        f"{''.join(block)} -> {draw(st.integers(0, 1))}\n"
        for block in itertools.product("01", repeat=window)
    )


@st.composite
def _fuzz_argv(draw, files):
    """A command line with bounded, cheap values.

    About seven in ten are well formed; the rest break one thing: a flag
    value, the choice of system source, the beta literal, or an input file.
    """
    command = draw(st.sampled_from(
        ["expand", "entropy", "decomp", "mme", "verify", "factor"]
    ))
    broken = draw(st.sampled_from(
        [None] * 12 + ["flag", "source", "beta", "expansion", "code"]
    ))
    argv = [command]
    if broken == "source":
        sources = draw(st.sampled_from([("beta", "file"), ()]))
    elif broken == "expansion":
        sources = ("file",)
    else:
        sources = draw(st.sampled_from([("beta",), ("file",)]))
    if "beta" in sources:
        argv += ["--beta", draw(_FUZZ_BAD_BETAS if broken == "beta" else _FUZZ_BETAS)]
    if "file" in sources:
        text = draw(
            _FUZZ_BAD_EXPANSIONS if broken == "expansion" else _FUZZ_EXPANSIONS
        )
        files["expansion"].write_text(text, encoding="latin-1")
        argv += ["--expansion-file", str(files["expansion"])]
    # cost bound: a gluing search over the budget is refused before any
    # segment is listed, so depth 2 stays cheap on every command.  --nmax
    # runs to the default 24 (verify needs at least 8), and now and then
    # past its cap
    flags = {
        "--horizon": draw(st.integers(1, 30)),
        "--depth": draw(st.integers(0, 2)),
        "--nmax": draw(st.sampled_from([*range(8, 25), MAX_NMAX + 1])),
        "--tau-max": draw(st.integers(0, 3)),
        "--M": draw(st.integers(0, 3)),
        "--measure-depth": draw(st.integers(1, 6)),
    }
    if command in ("decomp", "mme"):
        flags["--n"] = draw(st.integers(1, 50))
    if broken == "flag":
        flags[draw(st.sampled_from(sorted(flags)))] = draw(
            st.sampled_from([-1, 0, "x", ""])
        )
    for flag, value in flags.items():
        argv += [flag, str(value)]
    argv += draw(st.sampled_from([[], ["--emit-csv"]]))
    if draw(st.booleans()):
        argv += ["--out", str(files["out"])]
    if command == "decomp":
        argv += ["--op", draw(st.sampled_from(["split", "coverage", "spec"]))]
        if draw(st.booleans()):
            argv += ["--word", draw(st.text("012 a-", max_size=6))]
    elif command == "verify":
        if draw(st.booleans()):
            argv += ["--degenerate"]
        if draw(st.booleans()):
            files["measure"].write_text(draw(_FUZZ_MEASURES))
            argv += ["--measure-file", str(files["measure"])]
    elif command == "factor":
        code = draw(_FUZZ_BAD_CODES if broken == "code" else _fuzz_code())
        files["code"].write_text(code)
        argv += ["--code-file", str(files["code"])]
    return argv


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_fuzzed_command_lines_exit_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        files = {
            name: root / name for name in ("expansion", "code", "measure", "out")
        }
        argv = data.draw(_fuzz_argv(files), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (EXIT_PASS, EXIT_VIOLATION, EXIT_INPUT, EXIT_INCONCLUSIVE), code
    assert "Traceback" not in err.getvalue()
