"""Every function the benchmark's tracer wraps must exist in privkit.

``bench/tracing.py`` looks up each ``TARGETS`` entry by name: a module
function, or a method in its class's own ``__dict__``. This test resolves
the entries the same way, so a rename under ``src/`` fails here rather than
in a traced benchmark run, or as a per-layer metric that reads zero.
Two more tests run the tracer itself on CLI calls in a fresh interpreter.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_TRACING = _ROOT / "bench" / "tracing.py"


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


_TRACED_RUN = """\
import contextlib, io, json
import privkit.cli
import tracing
tracer = tracing.Tracer()
with tracer.patched(), contextlib.redirect_stdout(io.StringIO()):
    codes = [privkit.cli.main(["smc", "demo", "--votes", "1,1,0", "--seed", "7"]),
             privkit.cli.main(["rappor", "epsilon", "--params",
                               '{"k":16,"h":2,"f":0.5,"q":0.75,"p":0.5}'])]
print(json.dumps({"codes": codes, "calls": tracer.summarize()["calls"]}))
"""


def test_traced_cli_calls_in_a_fresh_interpreter(tmp_path):
    # This process has loaded every privkit module already, which would hide
    # a module that ``import privkit.cli`` no longer loads and the tracer reads.
    path = os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "bench")])
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["calls"]["smc.transcript"] == 1 and result["calls"]["cli.main"] == 2


# The table is exported inside the traced block: a table command run before
# it would put the partition module into sys.modules ahead of the tracer's
# snapshot of the privkit modules, which ``import privkit.cli`` must do.
_TRACED_METRICS = """\
import contextlib, io, json
import privkit.cli
import tracing
tracer = tracing.Tracer()
with tracer.patched(), contextlib.redirect_stdout(io.StringIO()):
    codes = [privkit.cli.main(["fixtures", "export", "--name", "table1", "--output", "t1.csv",
                               "--schema-output", "t1.schema.json"]),
             privkit.cli.main(["metrics", "--input", "t1.csv", "--schema", "t1.schema.json",
                               "--qi", "Age,Gender,ZIP", "--sensitive", "Diagnosis"])]
print(json.dumps({"codes": codes, "calls": tracer.summarize()["calls"]}))
"""


def test_traced_metrics_call_counts_its_partition_spans(tmp_path):
    # metrics runs the partition code without the transforms' module, which
    # re-exports it; the tracer must still find and wrap it
    path = os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "bench")])
    proc = subprocess.run([sys.executable, "-c", _TRACED_METRICS], capture_output=True,
                          text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    calls = result["calls"]
    assert result["codes"] == [0, 0]
    assert (calls.get("anonymize.equivalence_classes"), calls.get("anonymize.l_diversity"),
            calls.get("anonymize.k_anonymity")) == (1, 1, 1)
