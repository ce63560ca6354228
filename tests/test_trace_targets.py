"""Every entry point the benchmark's tracer patches exists in `obstruct`.

A renamed or moved function then fails here instead of in a traced bench
run.  Skipped when the benchmark directory is absent.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    if not TRACING.is_file():
        return []
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, *_ in module.TARGETS]


@pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/ is absent")
@pytest.mark.parametrize("module_name, attr", _targets())
def test_trace_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, member = attr.rpartition(".")
    # as the tracer does: a method must be defined on the class itself
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(vars(owner).get(member)), f"{module_name}.{attr}"
