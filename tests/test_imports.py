"""numpy is imported only by the calls that compute with it, and logging by
none of them.

Each case runs in a fresh interpreter, because the test process itself has
numpy loaded long before any of these run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import privkit
from privkit.cli import main

SRC = str(Path(privkit.__file__).resolve().parent.parent)
PAPER_PARAMS = '{"k":12,"h":2,"f":0.5,"p":0.5,"q":0.75}'

_PROBE = """\
import contextlib, io, json, sys
{setup}
print(json.dumps({{"result": result, "numpy": "numpy" in sys.modules}}))
"""

_RUN_MAIN = """\
from privkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    result = main({argv!r})
"""


def probe(setup, cwd):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(setup=setup)],
                          capture_output=True, text=True, cwd=cwd, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("setup", [
    "import privkit; result = None",
    "import privkit.cli; result = None",
    "from privkit import *; result = None",
], ids=["import privkit", "import privkit.cli", "star import"])
def test_imports_leave_numpy_unloaded(tmp_path, setup):
    assert probe(setup, tmp_path) == {"result": None, "numpy": False}


@pytest.fixture
def workdir(tmp_path, capsys):
    assert main(["fixtures", "export", "--name", "table1",
                 "--output", str(tmp_path / "t1.csv"),
                 "--schema-output", str(tmp_path / "t1.schema.json")]) == 0
    steps = [
        {"op": "suppress", "attributes": ["Name"]},
        {"op": "add_noise", "attribute": "Age", "deltas": {"-1": 0.5, "1": 0.5}, "seed": 3},
        {"op": "rank_swap", "attribute": "Age", "p": 2, "seed": 4},
        {"op": "swap_values", "attribute": "Diagnosis", "n_swaps": 2, "seed": 5},
        {"op": "microaggregate_univariate", "attribute": "Age", "k": 2},
        {"op": "generalize", "rules": [
            {"attribute": "Age", "strategy": "numeric_bins", "width": 10},
            {"attribute": "ZIP", "strategy": "text_prefix", "keep": 2}]},
    ]
    mdav = {"op": "microaggregate_multivariate", "attributes": ["Age", "Gender"], "k": 2}
    for name, config_steps in (("pipeline", steps), ("mdav", [mdav])):
        (tmp_path / f"{name}.json").write_text(json.dumps({
            "input": "t1.csv", "schema": "t1.schema.json", "output": f"{name}.csv",
            "steps": config_steps}))
    (tmp_path / "baskets.json").write_text(json.dumps([["a", "b"], ["a"], ["b", "c"]]))
    (tmp_path / "dist.json").write_text(json.dumps({"flu": 0.75, "cold": 0.25}))
    (tmp_path / "candidates.json").write_text(json.dumps(["flu", "cold", "mumps"]))
    assert main(["rappor", "simulate", "--params", PAPER_PARAMS, "--clients", "40",
                 "--dist", str(tmp_path / "dist.json"), "--seed", "3",
                 "--output", str(tmp_path / "reports.jsonl")]) == 0
    capsys.readouterr()
    return tmp_path


@pytest.mark.parametrize("argv,loads_numpy", [
    (["rappor", "epsilon", "--params", PAPER_PARAMS], False),
    (["rappor", "encode", "--params", PAPER_PARAMS, "--value", "flu"], False),
    (["rappor", "estimate", "--params", PAPER_PARAMS, "--reports", "reports.jsonl",
      "--candidates", "candidates.json"], False),
    (["metrics", "--input", "t1.csv", "--schema", "t1.schema.json",
      "--qi", "Age,Gender,ZIP", "--sensitive", "Diagnosis"], False),
    (["anonymize", "--config", "pipeline.json"], False),
    (["assoc", "mine", "--input", "baskets.json", "--min-support", "0.3",
      "--min-certainty", "0.5", "--max-itemset", "2"], False),
    (["smc", "demo", "--votes", "1,1,0", "--seed", "7",
      "--modulus", str(2**127 - 1)], False),
    (["dpcheck", "--mode=prr", "--params", PAPER_PARAMS,
      "--bits1", "0,1", "--bits2", "2,3"], False),
    (["dpcheck", "--mode=report", "--params", PAPER_PARAMS,
      "--bits1", "0,1", "--bits2", "2,3"], False),
    # the calls that compute with numpy do load it, so the probe can see it
    (["smc", "demo", "--votes", "1,1,0", "--seed", "7"], True),
    (["rappor", "simulate", "--params", PAPER_PARAMS, "--clients", "40", "--dist",
      "dist.json", "--seed", "3", "--output", "again.jsonl"], True),
    (["anonymize", "--config", "mdav.json"], True),
], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else str(v))
def test_cli_calls_load_numpy_only_when_used(workdir, argv, loads_numpy):
    setup = _RUN_MAIN.format(argv=argv)
    assert probe(setup, workdir) == {"result": 0, "numpy": loads_numpy}


@pytest.mark.parametrize("setup", [
    "import privkit.cli",
    _RUN_MAIN.format(argv=["rappor", "epsilon", "--params", PAPER_PARAMS]),
], ids=["import privkit.cli", "rappor epsilon"])
def test_cli_leaves_logging_unloaded(tmp_path, setup):
    setup += '\nresult = "logging" in sys.modules'
    assert probe(setup, tmp_path) == {"result": False, "numpy": False}


def test_report_lines_written_and_read_without_numpy(tmp_path):
    setup = """\
from privkit.rappor import RapporParams, count_report_lines, envelope_lines
params = RapporParams(k=12, h=2, f=0.5, q=0.75, p=0.5)
chunks = [bytes([0x02, 0x03, 0x04, 0x05]), b"", bytes([0x06, 0x07])]
text = b"".join(envelope_lines(chunks, params)).decode("ascii")
result = count_report_lines(text.splitlines(keepends=True), params)
"""
    reports = [b"\x02\x03", b"\x04\x05", b"\x06\x07"]
    counts = [sum((r[i // 8] >> (i % 8)) & 1 for r in reports) for i in range(12)]
    assert probe(setup, tmp_path) == {"result": [counts, 3], "numpy": False}
