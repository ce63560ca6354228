import contextlib
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
    MAX_NMAX,
    RunConfig,
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
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(InputError):
            RunConfig.from_dict({"nonsense": 1})

    def test_validation(self):
        with pytest.raises(InputError):
            RunConfig(beta="2", nmax=0).validate()
        with pytest.raises(InputError):
            RunConfig(beta="2", report_format="xml").validate()

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
    ],
    ids=["alphabet", "horizon", "empirical-n", "nmax"],
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


def test_cli_import_leaves_networkx_out():
    assert not _cli_imports("networkx")


def test_cli_import_leaves_sympy_out():
    assert not _cli_imports("sympy")


def test_measure_file_accepted_when_valid(golden_file, tmp_path):
    system = build_system(RunConfig(expansion_file=golden_file))
    measure = parry_measure(system, 12)
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure.to_json_dict()))
    cfg = RunConfig(expansion_file=golden_file, measure_file=str(path))
    code, report = cmd_verify(cfg)
    assert code == EXIT_PASS


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
     '{"depth": "x", "provenance": 1, "entries": [{"word": "9"}]}']
)
_GLUING_COMMANDS = ("verify", "decomp", "factor")


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
    # cost bound: at depth 2 over 3 symbols the gluing search samples
    # 100 000 tuples per gap, seconds per run.  --nmax runs to the default 24
    # (verify needs at least 8), and now and then past its cap
    flags = {
        "--horizon": draw(st.integers(1, 30)),
        "--depth": draw(st.integers(0, 1 if command in _GLUING_COMMANDS else 2)),
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
    argv += draw(st.sampled_from([[]] * 4 + [["--precision", "1"], ["--precision", "8"]]))
    argv += draw(st.sampled_from([[], ["--emit-csv"], ["--format", "csv"]]))
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
