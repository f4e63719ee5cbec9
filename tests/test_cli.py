import contextlib
import copy
import csv
import hashlib
import io
import json
import logging
import math
import os
import random
import stat
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from privkit import _partition, anonymize, cli, rappor
from privkit.cli import _write_atomic, main
from privkit.dataset import Schema, fixture_table1, load_csv, write_csv
from privkit.rappor import RapporParams

PAPER_PARAMS = '{"k":12,"h":2,"f":0.5,"p":0.5,"q":0.75}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out, parse_constant=reject_constant)


@pytest.fixture
def export_fixture(tmp_path, capsys):
    def _export(name):
        csv_path = tmp_path / f"{name}.csv"
        schema_path = tmp_path / f"{name}.schema.json"
        code = main(
            ["fixtures", "export", "--name", name, "--output", str(csv_path),
             "--schema-output", str(schema_path)]
        )
        capsys.readouterr()
        assert code == 0
        return csv_path, schema_path

    return _export


def test_version_field_present(capsys):
    out = run_json(capsys, "rappor", "epsilon", "--params", PAPER_PARAMS)
    assert out["version"] == 1


def test_usage_errors_exit_1(capsys):
    code, _, err = run(capsys, "rappor", "epsilon")  # missing --params
    assert code == 1 and "params" in err
    code, _, _ = run(capsys, "no-such-command")
    assert code == 1
    code, _, _ = run(capsys, "rappor", "report", "--params", PAPER_PARAMS,
                     "--value", "v", "--secret", "s")  # missing required --seed
    assert code == 1


# Every parser in the tree, the subparsers included, reports a usage error
# instead of exiting the process.
@pytest.mark.parametrize("argv", [
    [], ["nope"], ["metrics", "--nope"], ["anonymize", "--nope"], ["dpcheck", "--nope"],
    ["fixtures"], ["fixtures", "nope"], ["fixtures", "export", "--nope"],
    ["rappor"], ["rappor", "nope"], ["rappor", "encode", "--nope"],
    ["smc"], ["smc", "nope"], ["smc", "demo", "--nope"],
    ["assoc"], ["assoc", "nope"], ["assoc", "mine", "--nope"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_usage_errors_exit_1_at_every_parser_level(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("usage error: ")


def test_validation_errors_exit_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "metrics", "--input", str(tmp_path / "missing.csv"),
        "--schema", str(tmp_path / "missing.json"), "--qi", "Age",
    )
    assert code == 2
    code, _, err = run(capsys, "rappor", "epsilon", "--params", '{"k":0,"h":1,"f":0.5,"p":0.5,"q":0.75}')
    assert code == 2
    code, _, err = run(capsys, "smc", "demo", "--votes", "1", "--seed", "3")
    assert code == 2 and "parties" in err


def test_metrics_on_generalized_fixture(capsys, export_fixture):
    csv_path, schema_path = export_fixture("table2")
    out = run_json(
        capsys, "metrics", "--input", str(csv_path), "--schema", str(schema_path),
        "--qi", "Age,Gender,ZIP", "--sensitive", "Diagnosis",
    )
    assert out["k"] == 2
    assert out["l"] == 1
    assert sorted(c["size"] for c in out["classes"]) == [2, 2, 3, 3]


def test_metrics_partitions_once(capsys, monkeypatch, export_fixture):
    # metrics runs the partition module, not anonymize, which re-exports it
    calls = []
    equivalence_classes = _partition.equivalence_classes

    def counted(*args):
        calls.append(args)
        return equivalence_classes(*args)

    monkeypatch.setattr(_partition, "equivalence_classes", counted)
    csv_path, schema_path = export_fixture("table2")
    out = run_json(
        capsys, "metrics", "--input", str(csv_path), "--schema", str(schema_path),
        "--qi", "Age,Gender,ZIP", "--sensitive", "Diagnosis",
    )
    assert (out["k"], out["l"], len(calls)) == (2, 1, 1)


def test_metrics_deterministic_output(capsys, export_fixture):
    csv_path, schema_path = export_fixture("table1")
    args = ("metrics", "--input", str(csv_path), "--schema", str(schema_path), "--qi", "Age")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_fixtures_export_table1_round_trip(capsys, export_fixture):
    csv_path, schema_path = export_fixture("table1")
    assert csv_path.read_bytes() == write_csv(fixture_table1())


def test_anonymize_pipeline(capsys, tmp_path, export_fixture):
    csv_path, schema_path = export_fixture("table1")
    out_path = tmp_path / "anon.csv"
    config = {
        "input": str(csv_path),
        "schema": str(schema_path),
        "output": str(out_path),
        "steps": [
            {"op": "suppress", "attributes": ["Name"]},
            {
                "op": "generalize",
                "rules": [
                    {"attribute": "Age", "strategy": "numeric_bins", "width": 10},
                    {"attribute": "ZIP", "strategy": "text_prefix", "keep": 2},
                ],
            },
        ],
    }
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps(config))
    out = run_json(capsys, "anonymize", "--config", str(cfg))
    assert out["records"] == 10
    first_line = out_path.read_text().splitlines()[1]
    assert first_line == "*,40-49,Female,12*,Cancer"


@pytest.mark.parametrize("bad_step,message", [
    ({"op": "add_noise", "attribute": "Age", "deltas": {"-1": 0.5, "1": 0.5}},
     "randomized op 'add_noise' requires a seed"),
    ({"op": "add_noise", "attribute": "Gender", "deltas": {"-1": 0.5, "1": 0.5}, "seed": 3},
     "'Gender' is not an integer attribute"),
    ({"op": "rank_swap", "attribute": "Diagnosis", "p": 2, "seed": 4},
     "'Diagnosis' is not an integer attribute"),
    ({"op": "microaggregate_univariate", "attribute": "ZIP", "k": 2},
     "'ZIP' is not an integer attribute"),
    ({"op": "generalize", "rules": [
        {"attribute": "Age", "strategy": "numeric_bins", "width": 10},
        {"attribute": "ZIP", "strategy": "numeric_bins", "width": 10}]},
     "NumericBins on text attribute 'ZIP'"),
    ({"op": "generalize", "rules": [{"attribute": "Age", "strategy": "text_prefix", "keep": 1}]},
     "TextPrefix on integer attribute 'Age'"),
    ({"op": "add_noise", "attribute": "Age", "deltas": {"1": 1.0}, "seed": 3},
     "expected delta is 1.0, must be 0"),
    ({"op": "swap_values", "attribute": "Weight", "n_swaps": 1, "seed": 5},
     "no attribute named 'Weight'"),
    ({"op": "generalize", "rules": [{"attribute": "Age", "strategy": "round"}]},
     "unknown generalization strategy 'round'"),
    ({"op": "swap_values", "attribute": "Diagnosis", "n_swaps": -1, "seed": 5},
     "n_swaps must be >= 0"),
    ({"op": "rank_swap", "attribute": "Age", "p": 0, "seed": 4}, "p must be >= 1"),
    ({"op": "microaggregate_univariate", "attribute": "Age", "k": 1}, "k must be >= 2"),
    ({"op": "microaggregate_multivariate", "attributes": ["Age"], "k": 1}, "k must be >= 2"),
], ids=["no-seed", "add_noise-text", "rank_swap-text", "univariate-text",
        "numeric_bins-text", "text_prefix-integer", "invalid-spec", "unknown-attribute",
        "unknown-strategy", "negative-swaps", "rank_swap-p-0", "univariate-k-1",
        "multivariate-k-1"])
def test_anonymize_fail_fast_before_any_step(capsys, monkeypatch, tmp_path, export_fixture,
                                             bad_step, message):
    monkeypatch.setenv("PRIVKIT_LOG", "info")  # a step that ran would print its line
    csv_path, schema_path = export_fixture("table1")
    out_path = tmp_path / "never.csv"
    config = {
        "input": str(csv_path),
        "schema": str(schema_path),
        "output": str(out_path),
        "steps": [
            {"op": "suppress", "attributes": ["Name"]},
            {"op": "swap_values", "attribute": "Diagnosis", "n_swaps": 2, "seed": 5},
            bad_step,
        ],  # the last step is rejected before the first runs
    }
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, "anonymize", "--config", str(cfg))
    assert code == 2 and err == f"error: step 2 ({bad_step['op']}): {message}\n"
    assert not out_path.exists()


def test_anonymize_reads_the_schema_once(capsys, monkeypatch, tmp_path, export_fixture):
    calls = []
    from_json = Schema.from_json.__func__
    monkeypatch.setattr(Schema, "from_json",
                        classmethod(lambda cls, text: calls.append(text) or from_json(cls, text)))
    code, _, err, written = run_pipeline(capsys, tmp_path, export_fixture,
                                         [{"op": "suppress", "attributes": ["Name"]}])
    assert (code, written, len(calls)) == (0, True, 1), err


def test_anonymize_no_partial_output_on_runtime_failure(capsys, tmp_path, export_fixture):
    csv_path, schema_path = export_fixture("table1")
    out_path = tmp_path / "never.csv"
    config = {
        "input": str(csv_path),
        "schema": str(schema_path),
        "output": str(out_path),
        # keep=5 does not shorten any ZIP: passes static checks, fails on data
        "steps": [
            {
                "op": "generalize",
                "rules": [{"attribute": "ZIP", "strategy": "text_prefix", "keep": 5}],
            }
        ],
    }
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps(config))
    code, _, _ = run(capsys, "anonymize", "--config", str(cfg))
    assert code == 2
    assert not out_path.exists()
    assert not any(f.startswith(".privkit-") for f in os.listdir(tmp_path))


def test_anonymize_seeded_steps_deterministic(capsys, tmp_path, export_fixture):
    csv_path, schema_path = export_fixture("table1")
    outputs = []
    for run_idx in range(2):
        out_path = tmp_path / f"out{run_idx}.csv"
        config = {
            "input": str(csv_path),
            "schema": str(schema_path),
            "output": str(out_path),
            "steps": [
                {"op": "add_noise", "attribute": "Age",
                 "deltas": {"-2": 0.25, "-1": 0.25, "1": 0.25, "2": 0.25}, "seed": 11},
                {"op": "swap_values", "attribute": "Diagnosis", "n_swaps": 2, "seed": 12},
                {"op": "rank_swap", "attribute": "Age", "p": 2, "seed": 13},
            ],
        }
        cfg = tmp_path / f"pipeline{run_idx}.json"
        cfg.write_text(json.dumps(config))
        assert main(["anonymize", "--config", str(cfg)]) == 0
        outputs.append(out_path.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


VALID_STEPS = {
    "suppress": {"op": "suppress", "attributes": ["Name"]},
    "numeric_bins": {"op": "generalize", "rules": [
        {"attribute": "Age", "strategy": "numeric_bins", "width": 10, "origin": 0}]},
    "text_prefix": {"op": "generalize", "rules": [
        {"attribute": "ZIP", "strategy": "text_prefix", "keep": 2}]},
    "suppress_strategy": {"op": "generalize", "rules": [
        {"attribute": "Diagnosis", "strategy": "suppress"}]},
    "add_noise": {"op": "add_noise", "attribute": "Age",
                  "deltas": {"-1": 0.5, "1": 0.5}, "seed": 11},
    "swap_values": {"op": "swap_values", "attribute": "Diagnosis", "n_swaps": 2, "seed": 12},
    "rank_swap": {"op": "rank_swap", "attribute": "Age", "p": 2, "seed": 13},
    "microaggregate_univariate": {"op": "microaggregate_univariate", "attribute": "Age", "k": 2},
    "microaggregate_multivariate": {"op": "microaggregate_multivariate",
                                    "attributes": ["Age", "Gender"], "k": 2},
}
INTEGER_FIELDS = [
    ("numeric_bins", "width"), ("numeric_bins", "origin"), ("text_prefix", "keep"),
    ("add_noise", "seed"), ("swap_values", "n_swaps"), ("swap_values", "seed"),
    ("rank_swap", "p"), ("rank_swap", "seed"), ("microaggregate_univariate", "k"),
    ("microaggregate_multivariate", "k"),
]


def with_field(name, field, value):
    """A copy of VALID_STEPS[name] with one field (of its rule, if any) replaced."""
    step = copy.deepcopy(VALID_STEPS[name])
    (step["rules"][0] if "rules" in step else step)[field] = value
    return step


def run_pipeline(capsys, tmp_path, export_fixture, steps):
    csv_path, schema_path = export_fixture("table1")
    out_path = tmp_path / "anon.csv"
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps({"input": str(csv_path), "schema": str(schema_path),
                               "output": str(out_path), "steps": steps}))
    code, out, err = run(capsys, "anonymize", "--config", str(cfg))
    return code, out, err, out_path.exists()


@pytest.mark.parametrize("name", sorted(VALID_STEPS))
def test_anonymize_config_valid_steps(capsys, tmp_path, export_fixture, name):
    code, _, err, written = run_pipeline(capsys, tmp_path, export_fixture, [VALID_STEPS[name]])
    assert code == 0 and written, err


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"], ids=repr)
@pytest.mark.parametrize("name,field", INTEGER_FIELDS)
def test_anonymize_config_integer_fields_strict(capsys, tmp_path, export_fixture,
                                                name, field, value):
    # each of these fields is a JSON integer; int() would accept every value here
    steps = [with_field(name, field, value)]
    code, out, err, written = run_pipeline(capsys, tmp_path, export_fixture, steps)
    assert (code, out, written) == (2, "", False)
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("name,field", [
    ("swap_values", "n_swaps"), ("rank_swap", "p"), ("microaggregate_univariate", "k"),
    ("microaggregate_multivariate", "k")])
def test_anonymize_config_integer_argument_message(capsys, tmp_path, export_fixture,
                                                   name, field):
    # the config reader rejects the field before the transform's own check runs
    steps = [with_field(name, field, True)]
    code, out, err, written = run_pipeline(capsys, tmp_path, export_fixture, steps)
    assert (code, out, err, written) == (
        2, "", f"error: step 0 ({name}): {field} must be an integer, got True\n", False)


@pytest.mark.parametrize("steps", [
    {"0": VALID_STEPS["suppress"]},
    [3],
    ["suppress"],
    [[VALID_STEPS["suppress"]]],
    [{"op": "generalize", "rules": [3]}],
    [{"op": "generalize", "rules": {"attribute": "Age", "strategy": "suppress"}}],
    [with_field("add_noise", "deltas", [1])],
    [with_field("add_noise", "deltas", {"-1": "0.5", "1": "0.5"})],
    [with_field("add_noise", "deltas", {"0": True})],
    [with_field("add_noise", "deltas", {"0": 10**400})],
    [with_field("add_noise", "deltas", {"-1": 0.5, "1": 0.5, "01": 0.5})],
    [with_field("add_noise", "deltas", {"-1": 0.5, "+1": 0.5})],
    [with_field("add_noise", "deltas", {"-1": 0.5, " 1": 0.5})],
    [with_field("add_noise", "deltas", {"-10": 0.5, "1_0": 0.5})],
    [with_field("suppress", "attributes", {"Name": 0})],
    [with_field("microaggregate_multivariate", "attributes", "Age")],
], ids=["steps-object", "step-int", "step-str", "step-array", "rule-int", "rules-object",
        "deltas-array", "deltas-str", "deltas-bool", "deltas-beyond-float",
        "deltas-key-01", "deltas-key-plus", "deltas-key-space", "deltas-key-underscore",
        "attributes-object", "attributes-str"])
def test_anonymize_config_shapes_strict(capsys, tmp_path, export_fixture, steps):
    # steps and rules are arrays of objects, deltas an object of numbers and
    # attributes an array of strings
    code, out, err, written = run_pipeline(capsys, tmp_path, export_fixture, steps)
    assert (code, out, written) == (2, "", False)
    assert err.startswith("error: ")


@pytest.mark.parametrize("steps,message", [
    ([with_field("numeric_bins", "width", 2.5)],
     "step 0 (generalize): width must be an integer, got 2.5"),
    ([with_field("numeric_bins", "origin", None)],
     "step 0 (generalize): origin must be an integer, got None"),
    ([with_field("text_prefix", "keep", "2")],
     "step 0 (generalize): keep must be an integer, got '2'"),
    ([with_field("add_noise", "deltas", {"-1": 0.5, "1": "0.5"})],
     "step 0 (add_noise): probability of delta 1 must be a number, got '0.5'"),
    ([with_field("add_noise", "deltas", {"0": 10**400})],
     "step 0 (add_noise): int too large to convert to float"),
    ([with_field("add_noise", "deltas", [1])], "step 0 (add_noise): deltas must be an object, got [1]"),
], ids=["width", "origin", "keep", "deltas-str", "deltas-beyond-float", "deltas-array"])
def test_anonymize_field_errors_are_the_constructors(capsys, tmp_path, export_fixture,
                                                     steps, message):
    # the strategies and NoiseSpec check their own fields; the reader adds the step
    code, out, err, written = run_pipeline(capsys, tmp_path, export_fixture, steps)
    assert (code, out, err, written) == (2, "", f"error: {message}\n", False)


@pytest.mark.parametrize("key", ["01", "+1", " 1", "1_0", "-0", "x", "1" * 5000],
                         ids=["01", "plus", "space", "underscore", "minus-zero", "x", "5000-digits"])
def test_anonymize_deltas_key_named(capsys, tmp_path, export_fixture, key):
    # int() reads the first four as 1, 1, 1 and 10
    steps = [with_field("add_noise", "deltas", {"-1": 0.5, key: 0.5})]
    code, out, err, written = run_pipeline(capsys, tmp_path, export_fixture, steps)
    assert (code, out, written) == (2, "", False)
    assert err.startswith("error: step 0 (add_noise): deltas key ") and repr(key)[:20] in err


@pytest.mark.parametrize("field", ["input", "schema", "output"])
@pytest.mark.parametrize("value", [3, None, ["t1.csv"]], ids=repr)
def test_anonymize_config_paths_must_be_strings(capsys, tmp_path, export_fixture,
                                                field, value):
    csv_path, schema_path = export_fixture("table1")
    config = {"input": str(csv_path), "schema": str(schema_path),
              "output": str(tmp_path / "anon.csv"), "steps": [], field: value}
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "anonymize", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert f"'{field}' must be a string" in err and "missing" not in err


def test_anonymize_multivariate_rejects_integers_beyond_float_range(capsys, tmp_path,
                                                                     export_fixture):
    csv_path, schema_path = export_fixture("table1")
    csv_path.write_bytes(csv_path.read_bytes().replace(b",44,", b"," + b"9" * 400 + b",", 1))
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps({"input": str(csv_path), "schema": str(schema_path),
                               "output": str(tmp_path / "anon.csv"),
                               "steps": [VALID_STEPS["microaggregate_multivariate"]]}))
    code, out, err = run(capsys, "anonymize", "--config", str(cfg))
    assert code == 2 and out == "" and "'Age'" in err and "Traceback" not in err
    assert not (tmp_path / "anon.csv").exists()


@pytest.mark.parametrize("name", [["Age"], 3, None], ids=repr)
def test_metrics_schema_names_must_be_strings(capsys, tmp_path, export_fixture, name):
    csv_path, _ = export_fixture("table1")
    schema = tmp_path / "bad.schema.json"
    schema.write_text(json.dumps([{"name": name, "role": "sensitive", "kind": "text"}]))
    code, out, err = run(capsys, "metrics", "--input", str(csv_path),
                         "--schema", str(schema), "--qi", "Age")
    assert (code, out) == (2, "")
    assert "not a string" in err and "Traceback" not in err


def test_rappor_encode_golden(capsys):
    out = run_json(capsys, "rappor", "encode", "--params", PAPER_PARAMS, "--value", "chlamydia")
    assert out["indices"] == [4, 11]


def test_rappor_report_deterministic(capsys):
    args = ("rappor", "report", "--params", PAPER_PARAMS, "--value", "chlamydia",
            "--secret", "secret-1", "--seed", "99")
    out1 = run_json(capsys, *args)
    out2 = run_json(capsys, *args)
    assert out1 == out2
    assert out1["report_hex"] == "ef0c"


def test_rappor_epsilon_worked_example(capsys):
    out = run_json(capsys, "rappor", "epsilon", "--params", PAPER_PARAMS)
    assert out["epsilon_infinity"] == pytest.approx(4.3945, abs=1e-3)
    assert out["epsilon_one"] == pytest.approx(1.0743, abs=1e-3)
    assert out["q_star"] == 0.6875 and out["p_star"] == 0.5625


# Params at which a bound's ratio is 0/0, x/0 or overflows in floating point,
# and the bounds that print null for each.
EDGE_PARAMS = [
    ('{"k":16,"h":2,"f":5e-324,"q":0.75,"p":0.5}', {"epsilon_infinity"}),  # f/2 is 0
    ('{"k":16,"h":2,"f":1e-320,"q":0.75,"p":0.5}', {"epsilon_infinity"}),  # ratio overflows
    ('{"k":16,"h":2,"f":0,"q":0.9999999999999999,"p":5e-324}',
     {"epsilon_infinity", "epsilon_one"}),  # p*(1-q*) is 0
    ('{"k":4,"h":1,"f":0,"q":0.75,"p":0}', {"epsilon_infinity", "epsilon_one"}),  # p* is 0
]


@pytest.mark.parametrize("params,nulls", EDGE_PARAMS,
                         ids=["f-half-0", "f-ratio-inf", "one-denominator-0", "p-star-0"])
def test_bounds_outside_float_range_print_null(capsys, params, nulls):
    out = run_json(capsys, "rappor", "epsilon", "--params", params)
    assert {name for name in ("epsilon_infinity", "epsilon_one") if out[name] is None} == nulls
    for mode, bound in (("prr", "epsilon_infinity"), ("report", "epsilon_one")):
        out = run_json(capsys, "dpcheck", "--mode", mode, "--params", params,
                       "--bits1", "0,1", "--bits2", "2,3")
        assert (out["closed_form"] is None) == (bound in nulls), mode


def test_non_finite_result_exits_2(capsys, monkeypatch):
    # no valid params reach an infinite bound any more, so one is forced;
    # stdout never carries the non-JSON token Infinity
    monkeypatch.setattr(rappor, "epsilon_infinity", lambda params: math.inf)
    code, out, err = run(capsys, "rappor", "epsilon", "--params", PAPER_PARAMS)
    assert (code, out) == (2, "")
    assert err.startswith("error: Out of range float values are not JSON compliant")


def test_rappor_epsilon_at_the_size_limits(capsys):
    # h ln(ratio) stays finite up to h = 2^32 - 1, whatever f
    for f in ("1e-300", "0.5"):
        params = f'{{"k":{2**35},"h":{2**32 - 1},"f":{f},"q":0.9,"p":0.1}}'
        out = run_json(capsys, "rappor", "epsilon", "--params", params)
        assert math.isfinite(out["epsilon_infinity"]) and math.isfinite(out["epsilon_one"])


# encode, report and simulate allocate k list slots, so they run only at a k
# that is rejected before any allocation
@pytest.mark.parametrize("argv", [
    ["rappor", "epsilon", "--params", f'{{"k":{10**400},"h":{10**400},"f":0.5,"q":0.75,"p":0.5}}'],
    ["rappor", "epsilon", "--params", f'{{"k":{2**35},"h":{2**32},"f":0.5,"q":0.75,"p":0.5}}'],
    ["rappor", "encode", "--params", f'{{"k":{10**400},"h":2,"f":0.5,"q":0.75,"p":0.5}}',
     "--value", "flu"],
], ids=["epsilon k=h=10^400", "epsilon h=2^32", "encode k=10^400"])
def test_params_beyond_the_hash_input_limits_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_rappor_epsilon_boundary_is_null(capsys):
    out = run_json(capsys, "rappor", "epsilon", "--params", '{"k":4,"h":1,"f":0.0,"p":0.25,"q":0.75}')
    assert out["epsilon_infinity"] is None
    assert out["epsilon_one"] == pytest.approx(2.1972, abs=1e-3)


def test_rappor_simulate_then_estimate(capsys, tmp_path):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"A": 0.5, "B": 0.3, "C": 0.2}))
    candidates = tmp_path / "candidates.json"
    candidates.write_text(json.dumps(["A", "B", "C"]))
    reports = tmp_path / "reports.jsonl"
    params = '{"k":16,"h":2,"f":0.5,"p":0.5,"q":0.75,"hash_seed":0}'
    out = run_json(
        capsys, "rappor", "simulate", "--params", params, "--clients", "4000",
        "--dist", str(dist), "--seed", "31337", "--output", str(reports),
    )
    assert out["true_counts"] == {"A": 2000, "B": 1200, "C": 800}
    assert len(reports.read_text().splitlines()) == 4000
    est = run_json(
        capsys, "rappor", "estimate", "--params", params,
        "--reports", str(reports), "--candidates", str(candidates),
    )
    assert est["reports"] == 4000
    # 3 sigma of the per-bit inversion at this size is ~700
    assert abs(est["estimates"]["A"] - 2000) < 700
    assert abs(est["estimates"]["B"] - 1200) < 700
    assert abs(est["estimates"]["C"] - 800) < 700


# SHA-256 of the simulate JSONL and of the estimate stdout, produced by the
# per-report implementation that preceded the batch path. k=12 leaves four
# padding bits in every report's last byte.
GOLDENS = {
    16: ("3288fb73281892e6b702c0642223ee00623097f16880cfc55938f57c8c2d4cae",
         "5a3140b7d8c08a190f33c37ab1c324014c465060018f042cd41092cdaa90b8f6"),
    12: ("b0290da62e04272fd1822e4b5a6972a0a9e35f190b8c3b3588d18c07ae4d9894",
         "3958d9bdea04aa8da4db17222ed4f0c4ffcbd832b8f46b7df6eec51478ffbf6a"),
}


@pytest.fixture
def rappor_inputs(tmp_path):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"A": 0.5, "B": 0.3, "C": 0.2}))
    candidates = tmp_path / "candidates.json"
    candidates.write_text(json.dumps(["A", "B", "C", "D"]))
    return dist, candidates


@pytest.mark.parametrize("k", sorted(GOLDENS))
def test_rappor_simulate_estimate_byte_identical(capsys, tmp_path, rappor_inputs, k):
    dist, candidates = rappor_inputs
    params = f'{{"k":{k},"h":2,"f":0.5,"p":0.5,"q":0.75,"hash_seed":7}}'
    reports = tmp_path / "reports.jsonl"
    run_json(capsys, "rappor", "simulate", "--params", params, "--clients", "6000",
             "--dist", str(dist), "--seed", "2024", "--output", str(reports))
    code, out, _ = run(capsys, "rappor", "estimate", "--params", params,
                       "--reports", str(reports), "--candidates", str(candidates))
    assert code == 0
    assert (hashlib.sha256(reports.read_bytes()).hexdigest(),
            hashlib.sha256(out.encode("utf-8")).hexdigest()) == GOLDENS[k]


TABLE_SCHEMA = [
    {"name": "Name", "role": "explicit_identifier", "kind": "text"},
    {"name": "Age", "role": "quasi_identifier", "kind": "integer"},
    {"name": "Gender", "role": "quasi_identifier", "kind": "text"},
    {"name": "ZIP", "role": "quasi_identifier", "kind": "text"},
    {"name": "Income", "role": "non_sensitive", "kind": "integer"},
    {"name": "Weight", "role": "non_sensitive", "kind": "integer"},
    {"name": "Diagnosis", "role": "sensitive", "kind": "text"},
]
TABLE_STEPS = [
    {"op": "suppress", "attributes": ["Name"]},
    {"op": "generalize", "rules": [
        {"attribute": "Age", "strategy": "numeric_bins", "width": 10},
        {"attribute": "ZIP", "strategy": "text_prefix", "keep": 3}]},
    {"op": "add_noise", "attribute": "Income",
     "deltas": {"-2": 0.25, "-1": 0.25, "1": 0.25, "2": 0.25}, "seed": 21},
    {"op": "swap_values", "attribute": "Diagnosis", "n_swaps": 40, "seed": 22},
    {"op": "rank_swap", "attribute": "Income", "p": 3, "seed": 23},
    {"op": "microaggregate_univariate", "attribute": "Weight", "k": 4},
]
# SHA-256 of stdout (with the temp directory cut out) and of each output file.
TABLE_GOLDENS = {
    "anonymize": (
        "f3c424e506b8325d08b06fc3a50bf4131124d8e25af33d18348d8fabe875d504",
        "aa2d28d85b93cb8e084114b84a1747580d775621c2f869aae02f56ee44c5ee77",
    ),
    "metrics": (
        "5e4c1e062754e9eb8b9fcef41cab6e7f93659d095ece087f2be4e42573f87d1e",
    ),
    "mdav": (
        "4e640e19c3ab8f14b5b7edf2878858a611e67923fea6b4f47ee9db05606278f9",
        "20c1a3da0cc7185cea568040851b4db4b7fa9930b40540086308372c945ca7eb",
    ),
}

# The same for the plain table: taken before the split path was added, when
# every file went through csv.reader.
PLAIN_TABLE_GOLDENS = {
    "anonymize": (
        "f3c424e506b8325d08b06fc3a50bf4131124d8e25af33d18348d8fabe875d504",
        "fee06c037a497465e1eab75afd84b63cfa0aacb040bad20f4fa77fcea0bd59fd",
    ),
    "metrics": (
        "5e4c1e062754e9eb8b9fcef41cab6e7f93659d095ece087f2be4e42573f87d1e",
    ),
    "mdav": (
        "4e640e19c3ab8f14b5b7edf2878858a611e67923fea6b4f47ee9db05606278f9",
        "2235a87ad6c393da9a71eeb4dba94db5dfe02cce94c8cfe89b4dab29ce402bdd",
    ),
}


def write_generated_table(tmp_path, rows=300, seed=2025, plain=False):
    """A medical table drawn from ``random.Random(seed)``; its names hold a
    comma, a quote and non-ASCII letters, so the writer quotes some cells.
    With ``plain``, no cell holds a comma or a quote, so none is quoted."""
    rng = random.Random(seed)
    first = ["Ana", "Bo", "Chloé", "Dara", "Émile", 'Jo "JJ"', "Kai", "Lena"]
    last = ["Smith", "Müller", "O'Neil, Jr.", "Nguyễn", "Okafor", "Søren"]
    diagnoses = ["Cancer", "Diabetes", "Flu", "Migraine", "No illness", "Asthma, mild"]
    if plain:
        first[5], last[2], diagnoses[5] = "Jo JJ", "O'Neil Jr.", "Asthma mild"
    zips = [f"{n:03d}" for n in rng.sample(range(100, 1000), 8)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([a["name"] for a in TABLE_SCHEMA])
    for _ in range(rows):
        writer.writerow([
            f"{rng.choice(first)} {rng.choice(last)}", rng.randint(18, 90),
            rng.choice(["Female", "Male"]), rng.choice(zips) + f"{rng.randrange(100):02d}",
            int(rng.lognormvariate(10.5, 0.5)), rng.randint(40_000, 120_000),
            rng.choice(diagnoses),
        ])
    (tmp_path / "table.csv").write_text(buf.getvalue(), encoding="utf-8")
    (tmp_path / "schema.json").write_text(json.dumps(TABLE_SCHEMA))


def run_hashed(capsys, tmp_path, argv, outputs=()):
    """SHA-256 of a command's stdout, the temp directory cut out, then of each output."""
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return tuple(hashlib.sha256(data).hexdigest() for data in
                 [out.replace(str(tmp_path), "").encode("utf-8")]
                 + [(tmp_path / name).read_bytes() for name in outputs])


def run_table_path(capsys, tmp_path):
    """SHA-256 of each call of the table path over ``table.csv``: the
    release, its metrics and MDAV."""
    (tmp_path / "release.json").write_text(json.dumps({
        "input": "table.csv", "schema": "schema.json", "output": "release.csv",
        "steps": TABLE_STEPS}))
    (tmp_path / "mdav.json").write_text(json.dumps({
        "input": "table.csv", "schema": "schema.json", "output": "mdav.csv",
        "steps": [{"op": "microaggregate_multivariate",
                   "attributes": ["Age", "Gender", "Income", "Weight"], "k": 3}]}))
    return {
        "anonymize": run_hashed(capsys, tmp_path, ["anonymize", "--config",
                                str(tmp_path / "release.json")], ["release.csv"]),
        "metrics": run_hashed(capsys, tmp_path, [
            "metrics", "--input", str(tmp_path / "release.csv"), "--schema",
            str(tmp_path / "schema.json"), "--qi", "Age,Gender,ZIP", "--sensitive",
            "Diagnosis"]),
        "mdav": run_hashed(capsys, tmp_path, ["anonymize", "--config",
                           str(tmp_path / "mdav.json")], ["mdav.csv"]),
    }


def test_table_path_byte_identical(capsys, tmp_path):
    write_generated_table(tmp_path)
    assert run_table_path(capsys, tmp_path) == TABLE_GOLDENS


def test_plain_table_path_byte_identical(capsys, tmp_path, monkeypatch):
    """The same calls on a table that no cell needs quoting in: every file
    they read, the release included, is split at its commas, so none of
    them constructs a csv.reader."""
    write_generated_table(tmp_path, plain=True)
    monkeypatch.setattr(csv, "reader", None)  # calling it raises TypeError
    assert run_table_path(capsys, tmp_path) == PLAIN_TABLE_GOLDENS


def test_anonymize_release_with_a_lone_cr_reads_back(capsys, tmp_path):
    (tmp_path / "in.csv").write_bytes(b'Name,Age,Diagnosis\nJane,44,"Flu\rX"\nJoe,39,Cancer\n')
    (tmp_path / "schema.json").write_text(json.dumps([
        {"name": "Name", "role": "explicit_identifier", "kind": "text"},
        {"name": "Age", "role": "quasi_identifier", "kind": "integer"},
        {"name": "Diagnosis", "role": "sensitive", "kind": "text"}]))
    (tmp_path / "cfg.json").write_text(json.dumps({
        "input": "in.csv", "schema": "schema.json", "output": "out.csv",
        "steps": [{"op": "suppress", "attributes": ["Name"]}]}))
    run_json(capsys, "anonymize", "--config", str(tmp_path / "cfg.json"))
    assert (tmp_path / "out.csv").read_bytes() == (
        b'"Name","Age","Diagnosis"\n"*","44","Flu\rX"\n"*","39","Cancer"\n')
    out = run_json(capsys, "metrics", "--input", str(tmp_path / "out.csv"), "--schema",
                   str(tmp_path / "schema.json"), "--qi", "Age", "--sensitive", "Diagnosis")
    assert (out["records"], out["k"], out["l"]) == (2, 1, 1)


def test_rappor_estimate_rejects_bad_lines(capsys, tmp_path, rappor_inputs):
    _, candidates = rappor_inputs
    reports = tmp_path / "reports.jsonl"
    digest = run_json(capsys, "rappor", "epsilon", "--params", PAPER_PARAMS)["params_digest"]
    good = json.dumps({"params_digest": digest, "report_hex": "ef0c"})
    reports.write_text(f"\n{good}\n   \n{good}\n\n")
    est = run_json(capsys, "rappor", "estimate", "--params", PAPER_PARAMS,
                   "--reports", str(reports), "--candidates", str(candidates))
    assert est["reports"] == 2  # blank lines are skipped
    bad_lines = [
        json.dumps({"params_digest": "0" * 16, "report_hex": "ef0c"}),  # digest
        json.dumps({"params_digest": digest, "report_hex": "zz0c"}),  # hex
        json.dumps({"params_digest": digest, "report_hex": 61196}),  # not a string
        json.dumps({"params_digest": digest, "report_hex": "ef0c00"}),  # length
        json.dumps({"params_digest": digest, "report_hex": "ef1c"}),  # padding bits
        json.dumps({"params_digest": digest}),  # missing field
        json.dumps(["ef0c"]),  # not an object
        '{"params_digest": ',  # bad JSON
    ]
    for bad in bad_lines:
        reports.write_text(f"{good}\n{bad}\n{good}\n")
        code, out, err = run(capsys, "rappor", "estimate", "--params", PAPER_PARAMS,
                             "--reports", str(reports), "--candidates", str(candidates))
        assert (code, out) == (2, ""), bad
        assert "Traceback" not in err and err.startswith("error: "), bad


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=repr)
def test_rappor_estimate_names_line_of_undecodable_byte(capsys, tmp_path, rappor_inputs,
                                                         ending):
    dist, candidates = rappor_inputs
    params = '{"k":16,"h":2,"f":0.5,"p":0.5,"q":0.75}'
    reports = tmp_path / "reports.jsonl"
    run_json(capsys, "rappor", "simulate", "--params", params, "--clients", "2000",
             "--dist", str(dist), "--seed", "3", "--output", str(reports))
    data = reports.read_bytes().replace(b"\n", ending.encode("ascii"))
    estimate = ("rappor", "estimate", "--params", params, "--reports", str(reports),
                "--candidates", str(candidates))
    reports.write_bytes(data)
    assert run_json(capsys, *estimate)["reports"] == 2000  # every line end is read
    offset, width = 100_000, len(data.splitlines(keepends=True)[0])
    assert offset % width  # inside a line, not at its start
    reports.write_bytes(data[:offset] + b"\xff" + data[offset + 1:])
    code, out, err = run(capsys, *estimate)
    assert (code, out) == (2, "")
    assert err == f"error: reports line {offset // width + 1}: byte 0xff is not valid UTF-8\n"


def test_rappor_estimate_rejects_non_string_candidate(capsys, tmp_path):
    digest = run_json(capsys, "rappor", "epsilon", "--params", PAPER_PARAMS)["params_digest"]
    reports = tmp_path / "reports.jsonl"
    reports.write_text(json.dumps({"params_digest": digest, "report_hex": "ef0c"}) + "\n")
    candidates = tmp_path / "candidates.json"
    candidates.write_text(json.dumps(["A", 7]))
    code, _, err = run(capsys, "rappor", "estimate", "--params", PAPER_PARAMS,
                       "--reports", str(reports), "--candidates", str(candidates))
    assert code == 2 and "Traceback" not in err


def test_rappor_simulate_rejects_negative_clients(capsys, tmp_path, rappor_inputs):
    dist, _ = rappor_inputs
    output = tmp_path / "reports.jsonl"
    for clients in ("-5", "five"):
        code, out, err = run(capsys, "rappor", "simulate", "--params", PAPER_PARAMS,
                             "--clients", clients, "--dist", str(dist), "--seed", "1",
                             "--output", str(output))
        assert (code, out) == (1, "") and "--clients" in err
    code, out, err = run(capsys, "rappor", "simulate", "--params", PAPER_PARAMS,
                         "--clients", str(2**64), "--dist", str(dist), "--seed", "1",
                         "--output", str(output))  # past what the client index can hold
    assert (code, out, err) == (2, "", f"error: clients must be an integer in [0, 2^63), "
                                       f"got {2**64}\n")
    assert not output.exists()
    run_json(capsys, "rappor", "simulate", "--params", PAPER_PARAMS, "--clients", "0",
             "--dist", str(dist), "--seed", "1", "--output", str(output))
    assert output.read_bytes() == b""


def test_json_argument_that_does_not_parse_exits_2(capsys):
    code, out, err = run(capsys, "rappor", "epsilon", "--params", '{"k":12')
    assert (code, out) == (2, "") and err.startswith("error: not valid JSON: Expecting")


DEEP = "[" * 100_000


@pytest.mark.parametrize("target", ["params", "params-file", "dist", "candidates", "config",
                                    "transactions", "schema", "reports-line"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, rappor_inputs, export_fixture, target):
    dist, candidates = rappor_inputs
    csv_path, schema_path = export_fixture("table1")
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    reports = tmp_path / "reports.jsonl"
    digest = RapporParams.from_json(PAPER_PARAMS).digest()
    reports.write_text(json.dumps({"params_digest": digest, "report_hex": "ef0c"}) + f"\n{DEEP}\n")
    estimate = ("rappor", "estimate", "--params", PAPER_PARAMS, "--reports", str(reports))
    argv = {
        "params": ("rappor", "epsilon", "--params", DEEP),
        "params-file": ("rappor", "epsilon", "--params", "@" + str(deep)),
        "dist": ("rappor", "simulate", "--params", PAPER_PARAMS, "--clients", "10",
                 "--dist", str(deep), "--seed", "1", "--output", str(tmp_path / "out.jsonl")),
        "candidates": (*estimate, "--candidates", str(deep)),
        "config": ("anonymize", "--config", str(deep)),
        "transactions": ("assoc", "mine", "--input", str(deep)),
        "schema": ("metrics", "--input", str(csv_path), "--schema", str(deep), "--qi", "Age"),
        "reports-line": (*estimate, "--candidates", str(candidates)),
    }[target]
    prefix = {"schema": "schema is not valid JSON", "reports-line": "reports line 2"}
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, ""), err
    assert err.startswith(f"error: {prefix.get(target, 'not valid JSON')}: "
                          "maximum recursion depth exceeded"), err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("names,twice", [("Age,Age", "Age"), ("Age,ZIP,Gender,ZIP", "ZIP")])
def test_name_lists_reject_a_repeated_name(capsys, export_fixture, names, twice):
    # at the parent metrics exited 0 with the column twice in every class key
    csv_path, schema_path = export_fixture("table1")
    table = ("--input-csv", str(csv_path), "--schema", str(schema_path))
    for argv in (("metrics", "--input", str(csv_path), "--schema", str(schema_path),
                  "--qi", names),
                 ("assoc", "mine", *table, "--include-qi", names)):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"usage error: name {twice!r} is given twice "
                                           f"in {names!r}\n")


def test_list_arguments_that_do_not_parse_exit_1(capsys, export_fixture):
    csv_path, schema_path = export_fixture("table1")
    code, out, err = run(capsys, "metrics", "--input", str(csv_path), "--schema",
                         str(schema_path), "--qi", ",")
    assert (code, out, err) == (1, "", "usage error: expected a comma-separated name list, "
                                       "got ','\n")
    code, out, err = run(capsys, "smc", "demo", "--votes", "1,x", "--seed", "1")
    assert (code, out, err) == (1, "", "usage error: expected comma-separated integers, "
                                       "got '1,x'\n")


def test_write_atomic_leaves_target_when_chunks_raise(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old")

    def chunks():
        yield b"partial"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="^chunk failed$"):
        _write_atomic(str(target), chunks())
    assert target.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.csv"]  # no .privkit-* temp file left


def test_output_in_missing_directory_names_the_output(capsys, tmp_path, rappor_inputs):
    dist, _ = rappor_inputs
    output = tmp_path / "missing" / "x.jsonl"
    code, out, err = run(capsys, "rappor", "simulate", "--params", PAPER_PARAMS,
                         "--clients", "10", "--dist", str(dist), "--seed", "1",
                         "--output", str(output))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(output)!r}\n"
    assert sorted(os.listdir(tmp_path)) == ["candidates.json", "dist.json"]


def test_rappor_params_bool_rejected(capsys):
    code, _, err = run(capsys, "rappor", "epsilon", "--params",
                       '{"k":true,"h":1,"f":0.5,"p":0.5,"q":0.75}')
    assert code == 2 and "Traceback" not in err


def test_rappor_params_must_be_object(capsys, tmp_path):
    # a JSON string holding the params object is a string, not an object
    path = tmp_path / "params.json"
    path.write_text(json.dumps(PAPER_PARAMS))
    for params in (json.dumps(PAPER_PARAMS), "@" + str(path), "[1]", "12"):
        code, out, err = run(capsys, "rappor", "epsilon", "--params", params)
        assert (code, out) == (2, "") and err.startswith("error: "), params


@pytest.mark.parametrize("dist", [{"A": "x"}, {"A": True}, {"A": "0.5", "B": 0.5}, {"A": None}],
                         ids=repr)
def test_rappor_simulate_rejects_non_number_shares(capsys, tmp_path, dist):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(dist))
    output = tmp_path / "reports.jsonl"
    code, out, err = run(capsys, "rappor", "simulate", "--params", PAPER_PARAMS,
                         "--clients", "10", "--dist", str(path), "--seed", "1",
                         "--output", str(output))
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert not output.exists()


def test_dpcheck_modes(capsys):
    params = '{"k":8,"h":2,"f":0.5,"p":0.5,"q":0.75}'
    out = run_json(capsys, "dpcheck", "--params", params, "--mode", "prr",
                   "--bits1", "0,1", "--bits2", "2,3")
    assert out["exact_epsilon"] == pytest.approx(out["closed_form"], abs=1e-9)
    rep = run_json(capsys, "dpcheck", "--params", params, "--mode", "report",
                   "--bits1", "0,1", "--bits2", "2,3")
    assert rep["exact_epsilon"] == pytest.approx(rep["closed_form"], abs=1e-9)
    assert rep["closed_form"] < out["closed_form"]


def test_dpcheck_infinite_epsilon(capsys):
    params = '{"k":4,"h":1,"f":0.0,"p":0.5,"q":0.75}'
    out = run_json(capsys, "dpcheck", "--params", params, "--mode", "prr",
                   "--bits1", "0", "--bits2", "1")
    assert out["exact_epsilon"] == "infinity"
    assert out["closed_form"] is None  # formula undefined at f=0


@pytest.mark.parametrize("k", [21, 2**35], ids=["k=21", "k=2^35"])
def test_dpcheck_rejects_k_over_the_cap_before_allocating(capsys, monkeypatch, k):
    from_indices = rappor.BloomFilter.from_indices.__func__

    def guarded(cls, size, indices):
        assert size <= 20, f"a filter of {size} bits was allocated"
        return from_indices(cls, size, indices)

    monkeypatch.setattr(rappor.BloomFilter, "from_indices", classmethod(guarded))
    params = json.dumps({"k": k, "h": 2, "f": 0.5, "q": 0.75, "p": 0.5})
    code, out, err = run(capsys, "dpcheck", "--params", params, "--mode", "prr",
                         "--bits1", "0", "--bits2", "1")
    assert (code, out) == (2, "")
    assert err == f"error: k={k} exceeds the exact enumeration cap of 20\n"


def test_smc_demo(capsys):
    out = run_json(capsys, "smc", "demo", "--votes", "1,1,0", "--seed", "7")
    assert out["sum"] == 2
    assert len(out["shares"]) == 3
    again = run_json(capsys, "smc", "demo", "--votes", "1,1,0", "--seed", "7")
    assert out == again


def test_smc_demo_rejects_modulus_not_above_party_count(capsys):
    # modulus 3 with 3 parties: every share sent to party 3 would be a vote
    code, out, err = run(capsys, "smc", "demo", "--votes", "1,0,1", "--modulus", "3",
                         "--seed", "4")
    assert (code, out) == (2, "") and "number of parties" in err


def test_assoc_mine(capsys, tmp_path):
    txs = tmp_path / "transactions.json"
    txs.write_text(json.dumps([["a", "b"], ["a", "b"], ["a"], ["c"]]))
    out = run_json(capsys, "assoc", "mine", "--input", str(txs),
                   "--min-support", "0.35", "--min-certainty", "0.60",
                   "--max-itemset", "3")
    assert {"antecedent": ["b"], "consequent": ["a"], "support": 0.5, "certainty": 1.0} in out["rules"]


def seeded_baskets(seed, n=3000, n_items=30, n_types=5):
    """Correlated baskets: each keeps most of one of n_types six-item cores
    and picks up every other item with probability 0.05."""
    rng = random.Random(seed)
    items = [f"item{j:02d}" for j in range(n_items)]
    cores = [rng.sample(items, 6) for _ in range(n_types)]
    baskets = []
    for _ in range(n):
        basket = {i for i in rng.choice(cores) if rng.random() < 0.8}
        basket.update(i for i in items if rng.random() < 0.05)
        baskets.append(sorted(basket))
    return baskets


def test_assoc_mine_byte_identical(capsys, tmp_path):
    # golden stdout of the per-transaction subset scan that support counting replaced
    txs = tmp_path / "baskets.json"
    txs.write_text(json.dumps(seeded_baskets(20261018)))
    code, out, err = run(capsys, "assoc", "mine", "--input", str(txs),
                         "--min-support", "0.1", "--min-certainty", "0.6",
                         "--max-itemset", "3")
    assert code == 0, err
    assert len(json.loads(out)["rules"]) == 327
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "21b7827e7bfcd98279b61b51fd69f8446a10d9facbb343f1d397037c636e816f"
    )


@pytest.mark.parametrize("raw", [
    [["a", 1], ["a"]],
    [[None], ["a"]],
    [[["x"]], ["a"]],
    ["abc", ["b"]],
    [1],
    {"items": "ab"},
    {"transactions": "ab"},
    {"transactions": [["a"]], "items": ["a", 2]},
    "abc",
], ids=repr)
def test_assoc_mine_rejects_non_string_transactions(capsys, tmp_path, raw):
    txs = tmp_path / "transactions.json"
    txs.write_text(json.dumps(raw))
    code, out, err = run(capsys, "assoc", "mine", "--input", str(txs))
    assert (code, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize("raw,message", [
    ([["a", 1], ["a"]], "item 1 is not a string"),
    ({"transactions": [["a"]], "items": ["a", None]}, "item None is not a string"),
    (["abc", ["b"]], "transactions must be a JSON array of arrays"),
    ({"items": "ab"}, "items must be a JSON array"),
], ids=["int-item", "null-in-items", "string-transaction", "string-items"])
def test_assoc_mine_transaction_errors(capsys, tmp_path, raw, message):
    txs = tmp_path / "transactions.json"
    txs.write_text(json.dumps(raw))
    assert run(capsys, "assoc", "mine", "--input", str(txs)) == (2, "", f"error: {message}\n")


_OPS = sorted({step["op"] for step in VALID_STEPS.values()})
_FIELDS = ["transactions", "items", "k", "h", "f", "q", "p", "hash_seed", "input", "schema",
           "output", "steps", "op", "attribute", "attributes", "rules", "strategy", "deltas",
           "seed", "n_swaps", "width", "origin", "keep", "name", "role", "kind",
           "params_digest", "report_hex"]
_WORDS = ["a", "b", "c", "Age", "ZIP", "Name", "numeric_bins", "text_prefix", "suppress", *_OPS,
          "text", "integer", "sensitive", "quasi_identifier", "ef0c"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(_WORDS) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=3), inner, max_size=6),
    max_leaves=20,
)
_PARAMS = st.fixed_dictionaries(
    {name: st.integers(-1, 20) | st.floats() | _JSON for name in ("k", "h", "f", "q", "p")},
    optional={"hash_seed": st.integers(-1, 2**64) | _JSON},
)
_SMALL = st.integers(-1, 12) | st.floats(-1, 12) | st.sampled_from([True, "2", 0.5]) | _JSON
_RULE = st.fixed_dictionaries(
    {"attribute": st.sampled_from(["Age", "ZIP", "Gender"]),
     "strategy": st.sampled_from(["numeric_bins", "text_prefix", "suppress"])},
    optional={field: _SMALL for field in ("width", "origin", "keep")},
)
_STEP = st.fixed_dictionaries({"op": st.sampled_from(_OPS)}, optional={
    "attribute": st.sampled_from(["Age", "Diagnosis", "Name"]) | _JSON,
    "attributes": st.lists(st.sampled_from(["Age", "Gender", "Name"]), max_size=3) | _JSON,
    "rules": st.lists(_RULE | _JSON, max_size=3) | _JSON,
    "deltas": st.dictionaries(st.sampled_from(["-1", "0", "1", "x"]), _SMALL, max_size=3),
    **{field: _SMALL for field in ("seed", "k", "p", "n_swaps")},
})
# paths are resolved against the directory of the config file
_CONFIG = st.fixed_dictionaries({
    "input": st.just("t1.csv"), "schema": st.just("t1.schema.json"),
    "output": st.just("out.csv"), "steps": st.lists(_STEP | _JSON, max_size=4) | _JSON,
})
_DIST = st.dictionaries(st.sampled_from(["a", "b", "c"]),
                        st.sampled_from([0.5, 1, 1.0, 0.25]) | _JSON, max_size=3)
_DIGEST = RapporParams.from_json(PAPER_PARAMS).digest()
_REPORT = json.dumps({"params_digest": _DIGEST, "report_hex": "ef0c"})
_SCHEMA = st.lists(st.fixed_dictionaries({
    "name": st.sampled_from(["Name", "Age", "Gender", "ZIP", "Diagnosis"]) | _JSON,
    "role": st.sampled_from(["explicit_identifier", "quasi_identifier", "sensitive"]) | _JSON,
    "kind": st.sampled_from(["text", "integer"]) | _JSON,
}), max_size=6)
_ENVELOPE = st.fixed_dictionaries({
    "params_digest": st.just(_DIGEST) | _JSON,
    "report_hex": st.sampled_from(["ef0c", "ef1c", "ef", "ef0c00", "zz0c"]) | _JSON,
})


@given(value=_JSON | _PARAMS | _CONFIG | _DIST | _SCHEMA | _ENVELOPE)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_json_inputs_fuzz(capsys, tmp_path, value):
    # json.dumps writes NaN and Infinity, which Python's JSON reader accepts
    path = tmp_path / "input.json"
    path.write_text(json.dumps(value))
    (tmp_path / "t1.csv").write_bytes(write_csv(fixture_table1()))
    (tmp_path / "t1.schema.json").write_text(fixture_table1().schema.to_json())
    reports = tmp_path / "reports.jsonl"
    reports.write_text(_REPORT + "\n")
    # the value as one line of a reports file, between two valid reports
    fuzzed_reports = tmp_path / "fuzzed.jsonl"
    fuzzed_reports.write_text("\n".join([_REPORT, json.dumps(value), _REPORT]) + "\n")
    candidates = tmp_path / "candidates.json"
    candidates.write_text('["a", "b"]')
    for argv in (["assoc", "mine", "--input", str(path), "--max-itemset", "2"],
                 ["metrics", "--input", str(tmp_path / "t1.csv"), "--schema", str(path),
                  "--qi", "Age,ZIP", "--sensitive", "Diagnosis"],
                 ["rappor", "estimate", "--params", PAPER_PARAMS, "--reports",
                  str(fuzzed_reports), "--candidates", str(candidates)],
                 ["rappor", "epsilon", "--params", "@" + str(path)],
                 ["anonymize", "--config", str(path)],
                 ["rappor", "simulate", "--params", PAPER_PARAMS, "--clients", "20",
                  "--dist", str(path), "--seed", "1", "--output", str(tmp_path / "sim.jsonl")],
                 ["rappor", "estimate", "--params", PAPER_PARAMS, "--reports", str(reports),
                  "--candidates", str(path)]):
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2) and "Traceback" not in err


_TABLE1_CSV = write_csv(fixture_table1())
# byte runs that the csv module or a transform may choke on: a bare \r in an
# unquoted field, NUL, an unbalanced quote, invalid UTF-8, a generalized
# cell, an integer too large for a float, a field over the csv field limit
_CSV_HAZARDS = [b"\r", b"\0", b'"', b",", b"\n", b"\xff", b"*", b"-", b"9" * 400,
                b"x" * 131073]


@st.composite
def _mutated_table1(draw):
    data = bytearray(_TABLE1_CSV)
    for _ in range(draw(st.integers(1, 3))):
        at, cut = draw(st.integers(0, len(data))), draw(st.integers(0, 3))
        data[at:at + cut] = draw(st.binary(max_size=3) | st.sampled_from(_CSV_HAZARDS))
    return bytes(data)


@given(data=st.binary(max_size=200) | _mutated_table1())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_csv_inputs_fuzz(capsys, tmp_path, data):
    (tmp_path / "in.csv").write_bytes(data)
    (tmp_path / "t1.schema.json").write_text(fixture_table1().schema.to_json())
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({
        "input": "in.csv", "schema": "t1.schema.json", "output": "out.csv",
        "steps": [VALID_STEPS["suppress"], VALID_STEPS["microaggregate_multivariate"]],
    }))
    for argv in (["metrics", "--input", str(tmp_path / "in.csv"),
                  "--schema", str(tmp_path / "t1.schema.json"),
                  "--qi", "Age,ZIP", "--sensitive", "Diagnosis"],
                 ["anonymize", "--config", str(config)]):
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2) and "Traceback" not in err


# A bare \r in an unquoted field ends the row, which then fails as a short
# row or as a header that does not match.
@pytest.mark.parametrize("cut,insert,message", [
    pytest.param(b"Jane", b"Ja\rne", "row 1 has 1 cells, schema has 5\n",
                 id="Jane-Ja\rne-row 1"),
    pytest.param(b"Migraine", b"M" * 131073, "row 2: field larger than field limit",
                 id="Migraine-" + "M" * 131073 + "-row 2"),
    pytest.param(b"Name", b"Na\rme", "header ('Na',) does not match schema",
                 id="Name-Na\rme-header row"),
])
def test_metrics_rejects_rows_the_csv_module_cannot_split(capsys, export_fixture,
                                                          cut, insert, message):
    csv_path, schema_path = export_fixture("table1")
    csv_path.write_bytes(csv_path.read_bytes().replace(cut, insert, 1))
    code, out, err = run(capsys, "metrics", "--input", str(csv_path),
                         "--schema", str(schema_path), "--qi", "Age")
    assert code == 2 and out == "" and err.startswith(f"error: {message}")


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=repr)
def test_metrics_reads_every_line_end(capsys, export_fixture, ending):
    csv_path, schema_path = export_fixture("table1")
    plain = csv_path.read_bytes()
    other = csv_path.with_name("ends.csv")
    other.write_bytes(plain.replace(b"\n", ending))
    schema = Schema.from_json(schema_path.read_text())
    assert load_csv(other.read_bytes(), schema) == load_csv(plain, schema) == fixture_table1()
    argv = ["--schema", str(schema_path), "--qi", "Age,Gender,ZIP", "--sensitive", "Diagnosis"]
    expected = run(capsys, "metrics", "--input", str(csv_path), *argv)
    assert expected[0] == 0
    assert run(capsys, "metrics", "--input", str(other), *argv) == expected


def test_metrics_names_the_cell_of_an_oversized_integer(capsys, export_fixture):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integer strings of any length")
    csv_path, schema_path = export_fixture("table1")
    csv_path.write_bytes(csv_path.read_bytes().replace(b",44,", b"," + b"9" * (limit + 700) + b",", 1))
    code, out, err = run(capsys, "metrics", "--input", str(csv_path),
                         "--schema", str(schema_path), "--qi", "Age")
    assert code == 2 and out == "" and "Traceback" not in err
    assert "row 1, column 'Age'" in err


def test_anonymize_names_the_cell_too_long_to_write(capsys, tmp_path):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integer strings of any length")
    nines = "9" * limit  # read back fine; one more digit cannot be written
    (tmp_path / "in.csv").write_text("Name,Age\n" + "".join(f"P{i},{nines}\n" for i in range(4)))
    (tmp_path / "schema.json").write_text(json.dumps([
        {"name": "Name", "role": "explicit_identifier", "kind": "text"},
        {"name": "Age", "role": "quasi_identifier", "kind": "integer"}]))
    step = {"op": "add_noise", "attribute": "Age", "deltas": {"-1": 0.5, "1": 0.5}, "seed": 1}
    (tmp_path / "cfg.json").write_text(json.dumps({
        "input": "in.csv", "schema": "schema.json", "output": "out.csv", "steps": [step]}))
    code, out, err = run(capsys, "anonymize", "--config", str(tmp_path / "cfg.json"))
    # the first record the noise pushed past the limit, by the library's own draw
    schema = Schema.from_json((tmp_path / "schema.json").read_text())
    noised = anonymize.add_noise(load_csv((tmp_path / "in.csv").read_bytes(), schema), "Age",
                                 anonymize.NoiseSpec({-1: 0.5, 1: 0.5}), random.Random(1))
    first = noised.column("Age").index(10**limit)
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err == f"error: record {first} of 'Age' has more than {limit} digits\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "in.csv", "schema.json"]


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=repr)
def test_metrics_names_line_of_undecodable_byte(capsys, export_fixture, ending):
    csv_path, schema_path = export_fixture("table1")
    data = csv_path.read_bytes().replace(b"\n", ending)
    csv_path.write_bytes(data.replace(b"Smith", b"Sm\xffth"))  # John Smith: line 3
    code, out, err = run(capsys, "metrics", "--input", str(csv_path),
                         "--schema", str(schema_path), "--qi", "Age")
    assert (code, out) == (2, "")
    assert err == "error: line 3: byte 0xff is not valid UTF-8\n"


@pytest.mark.parametrize("cell", [b'"44\n"', b'"40-49\n"'])
def test_metrics_rejects_integer_cell_with_final_newline(capsys, export_fixture, cell):
    csv_path, schema_path = export_fixture("table1")
    csv_path.write_bytes(csv_path.read_bytes().replace(b",44,", b"," + cell + b",", 1))
    code, out, err = run(capsys, "metrics", "--input", str(csv_path),
                         "--schema", str(schema_path), "--qi", "Age")
    assert code == 2 and out == "" and "Traceback" not in err
    assert "row 1, column 'Age'" in err


def test_assoc_mine_from_dataset_csv(capsys, export_fixture):
    csv_path, schema_path = export_fixture("table1")
    out = run_json(
        capsys, "assoc", "mine", "--input-csv", str(csv_path),
        "--schema", str(schema_path), "--include-qi", "Gender",
        "--min-support", "0.2", "--min-certainty", "0.6", "--max-itemset", "2",
    )
    # every cancer patient in the fixture is female
    assert {
        "antecedent": ["Diagnosis=Cancer"], "consequent": ["Gender=Female"],
        "support": 0.3, "certainty": 1.0,
    } in out["rules"]
    code, _, _ = run(capsys, "assoc", "mine", "--input-csv", str(csv_path))
    assert code == 1  # --schema is mandatory with --input-csv


def test_output_through_symlink_replaces_its_target(capsys, tmp_path):
    target = tmp_path / "data" / "table1.csv"
    target.parent.mkdir()
    target.write_bytes(b"stale")
    link = tmp_path / "link.csv"
    link.symlink_to(os.path.join("data", "table1.csv"))
    run_json(capsys, "fixtures", "export", "--name", "table1", "--output", str(link))
    assert os.readlink(link) == os.path.join("data", "table1.csv")
    assert target.read_bytes() == write_csv(fixture_table1())
    assert sorted(os.listdir(target.parent)) == ["table1.csv"]


def test_output_to_fifo_is_written_in_place(capsys, tmp_path, rappor_inputs):
    dist, _ = rappor_inputs
    simulate = ("rappor", "simulate", "--params", PAPER_PARAMS, "--clients", "3000",
                "--dist", str(dist), "--seed", "5", "--output")
    run_json(capsys, *simulate, str(tmp_path / "reports.jsonl"))
    expected = (tmp_path / "reports.jsonl").read_bytes()
    assert len(expected) > 1 << 16  # more than a pipe holds: the reader must drain it
    fifo = tmp_path / "reports.fifo"
    os.mkfifo(fifo)
    received = []

    def drain():  # open blocks until the writer opens; read ends when it closes
        with open(fifo, "rb") as fh:
            received.append(fh.read())

    # a daemon, so a writer that never opens the FIFO fails the test, not the run
    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    run_json(capsys, *simulate, str(fifo))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert received == [expected]


def test_log_level_env(capsys, monkeypatch, tmp_path, export_fixture):
    # An empty root logger, as in a fresh process, where logging.basicConfig
    # would add a handler. The list is emptied and refilled in place, because
    # pytest removes its own capture handlers from that same list.
    root = logging.getLogger()
    saved = root.handlers[:]
    root.handlers.clear()
    try:
        monkeypatch.setenv("PRIVKIT_LOG", "info")
        code, out, err = run(capsys, "rappor", "epsilon", "--params", PAPER_PARAMS)
        assert code == 0
        assert json.loads(out)["version"] == 1  # logs never pollute stdout
        steps = [VALID_STEPS["suppress"], VALID_STEPS["swap_values"]]
        lines = "INFO step 0: suppress\nINFO step 1: swap_values\n"
        for level, expected in [(None, ""), ("info", lines), ("debug", lines), ("error", ""),
                                ("warning", ""), ("INFO", "")]:
            if level is None:
                monkeypatch.delenv("PRIVKIT_LOG")
            else:
                monkeypatch.setenv("PRIVKIT_LOG", level)
            code, out, err, written = run_pipeline(capsys, tmp_path, export_fixture, steps)
            assert (code, written, err) == (0, True, expected), level
            assert json.loads(out)["steps"] == ["suppress", "swap_values"]
        assert root.handlers == []  # main() adds no handler to the caller's root logger
    finally:
        root.handlers[:] = saved


def test_step_lines_go_to_the_stderr_of_their_own_call(monkeypatch, tmp_path, export_fixture):
    monkeypatch.setenv("PRIVKIT_LOG", "info")
    csv_path, schema_path = export_fixture("table1")
    errs = []
    for n, steps in enumerate([[VALID_STEPS["add_noise"]],
                               [VALID_STEPS["suppress"], VALID_STEPS["rank_swap"]]]):
        cfg = tmp_path / f"pipeline{n}.json"
        cfg.write_text(json.dumps({"input": str(csv_path), "schema": str(schema_path),
                                   "output": str(tmp_path / f"out{n}.csv"), "steps": steps}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["anonymize", "--config", str(cfg)]) == 0
        errs.append(err.getvalue())
    assert errs == ["INFO step 0: add_noise\n",
                    "INFO step 0: suppress\nINFO step 1: rank_swap\n"]


# --- the parser, against goldens of the whole-tree parser ----------------------

# Exit code, stdout and stderr of main(argv) for each of these, pinned in
# cli_goldens.json from the parser that built every command for every call:
# help and usage errors must read as they did. argparse words them per
# Python version, so on another version the whole tree's parser, built for
# every call as it was, is the oracle instead.
_P = PAPER_PARAMS
_BITS = ["--bits1", "0,1", "--bits2", "2,3"]
_LEAVES = {  # each command path, and arguments that run it from the golden directory
    ("fixtures", "export"): ["--name", "table1", "--output", "t1.csv",
                             "--schema-output", "t1.schema.json"],
    ("anonymize",): ["--config", "pipeline.json"],
    ("metrics",): ["--input", "t1.csv", "--schema", "t1.schema.json", "--qi", "Age,Gender,ZIP",
                   "--sensitive", "Diagnosis"],
    ("rappor", "encode"): ["--params", _P, "--value", "flu"],
    ("rappor", "report"): ["--params", _P, "--value", "flu", "--secret", "s", "--seed", "1"],
    ("rappor", "epsilon"): ["--params", _P],
    ("rappor", "simulate"): ["--params", _P, "--clients", "40", "--dist", "dist.json",
                             "--seed", "3", "--output", "sim.jsonl"],
    ("rappor", "estimate"): ["--params", _P, "--reports", "reports.jsonl",
                             "--candidates", "candidates.json"],
    ("dpcheck",): ["--mode", "prr", "--params", _P, *_BITS],
    ("smc", "demo"): ["--votes", "1,1,0", "--seed", "7"],
    ("assoc", "mine"): ["--input", "baskets.json", "--min-support", "0.3"],
}
PARSER_CASES = [
    [], ["-h"], ["--help"], ["nope"], ["--nope"], ["-h", "rappor"], ["--help", "nope"],
    ["--", "rappor", "epsilon", "--params", _P],
    *([command, *tail] for command in ("fixtures", "rappor", "smc", "assoc")
      for tail in ([], ["-h"], ["--help"], ["nope"], ["-h", "epsilon"], ["--nope"])),
    *([*path, *tail] for path, args in _LEAVES.items()
      for tail in (["-h"], ["--help"], [], args, [*args, "--nope"], [*args, "extra"])),
    ["fixtures", "export", "--name", "table2", "--output", "t2.csv"],
    ["fixtures", "export", "--name", "table3", "--output", "t3.csv"],
    ["rappor", "epsilon", "--par", _P],
    ["rappor", "epsilon", "-h", "--params", _P],
    ["rappor", "--help", "epsilon"],
    ["rappor", "estimate", "--params", _P, "--reports", "missing.jsonl",
     "--candidates", "candidates.json"],
    ["rappor", "simulate", "--params", _P, "--clients", "-1", "--dist", "dist.json",
     "--seed", "3", "--output", "sim.jsonl"],
    ["dpcheck", "--mode", "bad", "--params", _P, *_BITS],
    ["dpcheck", "--mode=bad", "--params", _P, *_BITS],
    ["dpcheck", "--mode=report", "--params", _P, *_BITS],
    ["smc", "demo", "--votes", "1,0", "--seed", "x"],
    ["smc", "demo", "--votes", "1,1,0", "--seed", "7", "--modulus", "101"],
    ["assoc", "mine", "--min-support", "0.3"],
    ["assoc", "mine", "--input", "baskets.json", "--input-csv", "t1.csv"],
    ["assoc", "mine", "--input-csv", "t1.csv", "--schema", "t1.schema.json",
     "--min-support", "0.3"],
]
PARSER_GOLDENS = os.path.join(os.path.dirname(__file__), "cli_goldens.json")


def make_golden_dir(path):
    """The inputs that the ``_LEAVES`` arguments read, written into ``path``."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "export", "--name", "table1", "--output", str(path / "t1.csv"),
                     "--schema-output", str(path / "t1.schema.json")]) == 0
        (path / "pipeline.json").write_text(json.dumps({
            "input": "t1.csv", "schema": "t1.schema.json", "output": "anon.csv",
            "steps": [{"op": "suppress", "attributes": ["Name"]},
                      {"op": "rank_swap", "attribute": "Age", "p": 2, "seed": 4}]}))
        (path / "dist.json").write_text(json.dumps({"flu": 0.75, "cold": 0.25}))
        (path / "candidates.json").write_text(json.dumps(["flu", "cold", "mumps"]))
        (path / "baskets.json").write_text(json.dumps([["a", "b"], ["a"], ["b", "c"]]))
        assert main(["rappor", "simulate", "--params", _P, "--clients", "40",
                     "--dist", str(path / "dist.json"), "--seed", "3",
                     "--output", str(path / "reports.jsonl")]) == 0


def run_case(argv, path):
    """(exit code, stdout, stderr) of ``main(argv)`` run in ``path``, with
    ``path`` written as ``<dir>`` and help wrapped at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # help exits the process, as argparse does
            code = exc.code
    return [code, *(s.getvalue().replace(str(path), "<dir>") for s in (out, err))]


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    make_golden_dir(path)
    return path


def _goldens():
    with open(PARSER_GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def test_parser_goldens_cover_the_cases():
    goldens = _goldens()
    assert [case["argv"] for case in goldens["cases"]] == PARSER_CASES
    assert len({" ".join(argv) for argv in PARSER_CASES}) == len(PARSER_CASES)


@pytest.mark.parametrize("index", range(len(PARSER_CASES)),
                         ids=lambda i: " ".join(PARSER_CASES[i]) or "no arguments")
def test_parser_reads_as_the_goldens(golden_dir, monkeypatch, index):
    goldens = _goldens()
    case = goldens["cases"][index]
    monkeypatch.chdir(golden_dir)
    monkeypatch.setenv("COLUMNS", "80")
    expected = [case["code"], case["stdout"], case["stderr"]]
    if sys.version_info[:2] != tuple(goldens["python"]):
        with monkeypatch.context() as whole_tree:
            build = cli._build_parser
            whole_tree.setattr(cli, "_build_parser", lambda argv: build([]))
            expected = run_case(case["argv"], golden_dir)
    assert run_case(case["argv"], golden_dir) == expected
