"""Every function the benchmark's tracer wraps must exist in privkit.

``bench/tracing.py`` looks up each ``TARGETS`` entry by name: a module
function, or a method in its class's own ``__dict__``. This test resolves
the entries the same way, so a rename under ``src/`` fails here rather than
in a traced benchmark run, or as a per-layer metric that reads zero.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [target[:2] for target in module.TARGETS]


@pytest.mark.parametrize("module_name,attribute", _targets(), ids=str)
def test_trace_target_resolves(module_name, attribute):
    module = importlib.import_module(f"privkit.{module_name}")
    owner, _, name = attribute.rpartition(".")
    namespace = vars(getattr(module, owner)) if owner else vars(module)
    assert name in namespace, f"privkit.{module_name} has no {attribute}"
