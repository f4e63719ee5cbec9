"""numpy is imported only by the calls that compute with it (multivariate
microaggregation), and logging, dataclasses and fractions by none of them.
``import privkit`` loads no module, and a name taken from the package loads
only its own module.

Each case runs in a fresh interpreter, because the test process itself has
numpy and every privkit module loaded long before any of these run.
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


# Each CLI call of the import tests, and whether it loads numpy.
_CALLS = [
    (["rappor", "epsilon", "--params", PAPER_PARAMS], False),
    (["rappor", "encode", "--params", PAPER_PARAMS, "--value", "flu"], False),
    (["rappor", "estimate", "--params", PAPER_PARAMS, "--reports", "reports.jsonl",
      "--candidates", "candidates.json"], False),
    (["metrics", "--input", "t1.csv", "--schema", "t1.schema.json",
      "--qi", "Age,Gender,ZIP", "--sensitive", "Diagnosis"], False),
    (["anonymize", "--config", "pipeline.json"], False),
    (["assoc", "mine", "--input", "baskets.json", "--min-support", "0.3",
      "--min-certainty", "0.5", "--max-itemset", "2"], False),
    pytest.param(["smc", "demo", "--votes", "1,1,0", "--seed", "7"], False,
                 id="smc demo 3 parties-False"),
    pytest.param(["smc", "demo", "--votes", ",".join("01"[i % 2] for i in range(120)),
                  "--seed", "7"], False, id="smc demo 120 parties-False"),
    (["smc", "demo", "--votes", "1,1,0", "--seed", "7",
      "--modulus", str(2**127 - 1)], False),
    (["dpcheck", "--mode=prr", "--params", PAPER_PARAMS,
      "--bits1", "0,1", "--bits2", "2,3"], False),
    (["dpcheck", "--mode=report", "--params", PAPER_PARAMS,
      "--bits1", "0,1", "--bits2", "2,3"], False),
    (["rappor", "simulate", "--params", PAPER_PARAMS, "--clients", "40", "--dist",
      "dist.json", "--seed", "3", "--output", "again.jsonl"], False),
    # the call that computes with numpy does load it, so the probe can see it
    (["anonymize", "--config", "mdav.json"], True),
]


def _call_id(value):
    return " ".join(value[:2]) if isinstance(value, list) else str(value)


@pytest.mark.parametrize("argv,loads_numpy", _CALLS, ids=_call_id)
def test_cli_calls_load_numpy_only_when_used(workdir, argv, loads_numpy):
    setup = _RUN_MAIN.format(argv=argv)
    assert probe(setup, workdir) == {"result": 0, "numpy": loads_numpy}


# Standard modules that cost a call start-up time and that privkit avoids:
# dataclasses loads inspect (and ast, dis, tokenize), fractions loads decimal.
_STDLIB = """
result = [result, sorted(m for m in ("dataclasses", "inspect", "fractions", "decimal")
                         if m in sys.modules)]
"""


@pytest.mark.parametrize("argv,loads_numpy", _CALLS, ids=_call_id)
def test_cli_calls_load_no_dataclasses_or_fractions(workdir, argv, loads_numpy):
    setup = _RUN_MAIN.format(argv=argv) + _STDLIB
    expected = ["inspect"] if loads_numpy else []  # numpy imports inspect
    assert probe(setup, workdir)["result"] == [0, expected]


# The privkit modules whose code has run: cli.py puts every module into
# sys.modules, but one it has not used yet is still of the lazy loader's type.
# type() reads no attribute, so it does not trigger the load.
_EXECUTED = """
import types
result = [result, sorted(name for name, module in sys.modules.items()
                         if name.split(".")[0] == "privkit" and type(module) is types.ModuleType)]
"""
_CLI = ["privkit", "privkit.cli", "privkit.errors"]
# every module with a value class executes the base class's module
_VALUES = sorted([*_CLI, "privkit._value"])
_RAPPOR = sorted([*_VALUES, "privkit.rappor"])
_TABLE = sorted([*_VALUES, "privkit.dataset", "privkit.anonymize"])


@pytest.mark.parametrize("argv,executed", [
    (["rappor", "epsilon", "--params", PAPER_PARAMS], _RAPPOR),
    (["rappor", "encode", "--params", PAPER_PARAMS, "--value", "flu"], _RAPPOR),
    (["rappor", "report", "--params", PAPER_PARAMS, "--value", "flu", "--secret", "s",
      "--seed", "1"], _RAPPOR),
    (["rappor", "simulate", "--params", PAPER_PARAMS, "--clients", "40", "--dist",
      "dist.json", "--seed", "3", "--output", "again.jsonl"], _RAPPOR),
    (["rappor", "estimate", "--params", PAPER_PARAMS, "--reports", "reports.jsonl",
      "--candidates", "candidates.json"], _RAPPOR),
    (["dpcheck", "--mode=report", "--params", PAPER_PARAMS, "--bits1", "0,1",
      "--bits2", "2,3"], sorted([*_RAPPOR, "privkit.dpcheck"])),
    (["anonymize", "--config", "pipeline.json"], _TABLE),
    (["metrics", "--input", "t1.csv", "--schema", "t1.schema.json", "--qi", "Age,Gender,ZIP",
      "--sensitive", "Diagnosis"], _TABLE),
    (["fixtures", "export", "--name", "table2", "--output", "t2.csv"], _TABLE),
    (["fixtures", "export", "--name", "table1", "--output", "t1.again.csv"],
     sorted([*_VALUES, "privkit.dataset"])),
    (["assoc", "mine", "--input", "baskets.json", "--min-support", "0.3"],
     sorted([*_VALUES, "privkit.assoc"])),
    (["assoc", "mine", "--input-csv", "t1.csv", "--schema", "t1.schema.json",
      "--min-support", "0.3"], sorted([*_VALUES, "privkit.assoc", "privkit.dataset"])),
    (["smc", "demo", "--votes", "1,1,0", "--seed", "7"], sorted([*_VALUES, "privkit.smc"])),
], ids=["rappor epsilon", "rappor encode", "rappor report", "rappor simulate",
        "rappor estimate", "dpcheck", "anonymize", "metrics", "fixtures export table2",
        "fixtures export table1", "assoc mine", "assoc mine --input-csv", "smc demo"])
def test_cli_calls_execute_only_the_modules_they_use(workdir, argv, executed):
    setup = _RUN_MAIN.format(argv=argv) + _EXECUTED
    assert probe(setup, workdir)["result"] == [0, executed]


def test_assoc_mine_from_json_loads_no_table_or_fraction_modules(workdir):
    setup = _RUN_MAIN.format(argv=["assoc", "mine", "--input", "baskets.json"]) + """
result = [result, sorted(m for m in ("csv", "decimal", "fractions") if m in sys.modules)]
"""
    assert probe(setup, workdir)["result"] == [0, []]


def test_cli_import_executes_no_module_it_imports_lazily(tmp_path):
    setup = "import privkit.cli\nresult = 0" + _EXECUTED
    assert probe(setup, tmp_path)["result"] == [0, _CLI]


# ``python -m privkit.cli``, as the benchmark starts its children, runs the
# module as __main__ and resolves its siblings through __package__.
@pytest.mark.parametrize("argv", [
    ["rappor", "epsilon", "--params", PAPER_PARAMS],
    ["dpcheck", "--mode=prr", "--params", PAPER_PARAMS, "--bits1", "0,1", "--bits2", "2,3"],
    ["smc", "demo", "--votes", "1,1,0", "--seed", "7"],
    ["smc", "demo", "--votes", "1,1,0", "--seed", "7", "--modulus", str(2**127 - 1)],
], ids=["rappor epsilon", "dpcheck", "smc demo", "smc demo --modulus"])
def test_module_entry_point_prints_what_main_prints(tmp_path, capsys, argv):
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    proc = subprocess.run([sys.executable, "-m", "privkit.cli", *argv], capture_output=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")


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


def test_reports_simulated_without_numpy(tmp_path):
    setup = """\
from privkit.rappor import RapporParams, simulate_packed, simulate_reports
params = RapporParams(k=12, h=2, f=0.5, q=0.75, p=0.5)
counts = {"flu": 30, "cold": 10}
result = [b"".join(simulate_packed(counts, params, 3)).hex(),
          [report.to_hex() for report in simulate_reports(counts, params, 3)]]
"""
    here = {}
    exec(setup, here)  # this process has numpy loaded; the probe must not load it
    assert probe(setup, tmp_path) == {"result": here["result"], "numpy": False}


# The package's API, module by module: ``privkit.__all__`` is exactly these
# names, and each one is its module's own object.
EXPORTS = {
    "anonymize": [
        "EquivalenceClass", "GeneralizationRule", "NoiseSpec", "NumericBins", "Partition",
        "SuppressAll", "TextPrefix", "add_noise", "aggregate_groups", "equivalence_classes",
        "generalize", "k_anonymity", "l_diversity", "microaggregate_multivariate",
        "microaggregate_univariate", "rank_swap", "suppress", "swap_values",
    ],
    "assoc": ["Rule", "TransactionSet", "certainty", "solid_rules", "support"],
    "dataset": [
        "Attribute", "AttributeRole", "Dataset", "Interval", "Kind", "MaskedText",
        "SUPPRESSED", "Schema", "fixture_table1", "load_csv", "write_csv",
    ],
    "dpcheck": ["MechanismDistribution", "exact_epsilon", "prr_distribution",
                "report_distribution"],
    "errors": ["PrivkitError"],
    "rappor": [
        "BloomFilter", "PermanentResponse", "RapporParams", "Report", "bloom_check",
        "bloom_encode", "epsilon_infinity", "epsilon_one", "estimate_counts", "irr", "lemma1",
        "make_report", "prr", "simulate_reports",
    ],
    "smc": ["lagrange_at", "run_secret_sum", "secret_sum_transcript"],
}
ALL = sorted(name for names in EXPORTS.values() for name in names)
_LOADED = '\nresult = sorted(m for m in sys.modules if m.split(".")[0] == "privkit")'


def test_all_is_the_frozen_api():
    assert len(ALL) == 56
    assert privkit.__all__ == ALL


@pytest.mark.parametrize("setup,loaded", [
    ("import privkit", ["privkit"]),
    ("import privkit.rappor", ["privkit", "privkit._value", "privkit.errors", "privkit.rappor"]),
    ("from privkit import RapporParams",
     ["privkit", "privkit._value", "privkit.errors", "privkit.rappor"]),
    ("from privkit import PrivkitError", ["privkit", "privkit.errors"]),
], ids=["import privkit", "import privkit.rappor", "RapporParams", "PrivkitError"])
def test_package_loads_only_the_modules_asked_for(tmp_path, setup, loaded):
    assert probe(setup + _LOADED, tmp_path) == {"result": loaded, "numpy": False}


def test_star_import_binds_the_api_and_no_submodule(tmp_path):
    setup = """\
namespace = {}
exec("from privkit import *", namespace)
result = sorted(name for name in namespace if name != "__builtins__")
"""
    assert probe(setup, tmp_path) == {"result": ALL, "numpy": False}


def test_package_attributes_resolve_lazily(tmp_path):
    setup = f"""\
import importlib, privkit
first = privkit.rappor  # before anything has imported the submodule
try:
    privkit.nope
except AttributeError as exc:
    missing = str(exc)
result = {{
    "submodule": first is sys.modules["privkit.rappor"],
    "not the module's own": [name for module, names in {EXPORTS!r}.items() for name in names
                             if getattr(privkit, name) is not
                             getattr(importlib.import_module("privkit." + module), name)],
    "not in dir": sorted({{*privkit.__all__, *{sorted(EXPORTS)!r}}} - set(dir(privkit))),
    "missing": missing,
    "hasattr": hasattr(privkit, "nope"),
}}
"""
    assert probe(setup, tmp_path)["result"] == {
        "submodule": True,
        "not the module's own": [],
        "not in dir": [],
        "missing": "module 'privkit' has no attribute 'nope'",
        "hasattr": False,
    }


def test_cli_import_loads_every_module_the_tracer_patches(tmp_path):
    loaded = probe("import privkit.cli" + _LOADED, tmp_path)["result"]
    missing = sorted({f"privkit.{module}" for module in EXPORTS} - set(loaded))
    assert not missing, (
        f"import privkit.cli no longer loads {missing}. The benchmark's traced mode "
        "(bench/tracing.py, Tracer.patched()) reads every privkit module from sys.modules "
        "right after that import, so it would fail. Move CLI imports into handlers only "
        "after ROADMAP item 1 makes the tracer import each module itself."
    )
