import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "compare_reports", ROOT / "scripts" / "compare_reports.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differences_name_checks_and_skip_equal_leaves():
    old = {"payload": {"checks": [{"name": "a", "v": "1"}, {"name": "b", "v": "2"}],
                       "n": 3}}
    new = {"payload": {"checks": [{"name": "a", "v": "1"}, {"name": "b", "v": "9"}],
                       "n": 3, "extra": True}}
    assert list(_script().differences(old, new)) == [
        ("payload.checks[b].v", "2", "9"),
        ("payload.extra", None, True),
    ]


def test_a_tree_against_itself_is_identical(capsys):
    op = "verify --expansion-file @golden"
    assert _script().main([str(ROOT), str(ROOT), "--cmd", op]) == 0
    assert capsys.readouterr().out == f"{op}: identical (exit 0)\n"


def test_extended_runs_the_bench_commands_then_the_extra_list(monkeypatch, capsys):
    script = _script()
    seen = []

    def run(tree, op, inputs, workloads):
        assert all((inputs / name).is_file() for name in script.INPUTS)
        seen.append(op)
        return 2 if op == "mme --beta 1.5" else 0, None, "same"

    monkeypatch.setattr(script, "run", run)
    assert script.main([str(ROOT), str(ROOT), "--extended"]) == 0
    workloads = script.load_workloads()
    bench = [op for ops in workloads.WORKLOADS.values() for op in ops
             if op != workloads.SWEEP]
    # each command runs once per tree, bench commands first
    assert seen[::2] == seen[1::2] == bench + script.EXTENDED
    assert "mme --beta 1.5: identical (exit 2)" in capsys.readouterr().out
