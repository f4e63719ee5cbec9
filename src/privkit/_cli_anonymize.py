"""The ``anonymize`` command of the CLI: a pipeline of transforms, read
from a JSON config, each step checked against the schema before any runs.
``privkit.cli`` imports this module only to run it."""

from __future__ import annotations

import os
import random
import sys
from typing import Callable, Mapping

from ._cli_common import _is_string_list, _lazy, _load_json_arg, _write_atomic
from .errors import ConfigError, PrivkitError

anon = _lazy("anonymize")
dset = _lazy("dataset")

_RANDOMIZED_OPS = {"add_noise", "swap_values", "rank_swap"}


def _int_field(obj: Mapping, name: str) -> int:
    """A field that must be a JSON integer: int() would truncate 2.9 and parse "7".
    Checked here, before any input is read, by the transforms' own check."""
    value = obj[name]
    anon._check_int(name, value)
    return value


def _names_field(step: Mapping) -> list[str]:
    names = step["attributes"]
    if not _is_string_list(names):  # list() would take a dict's keys or a string's letters
        raise TypeError(f"attributes must be an array of strings, got {names!r}")
    return names


def _delta_key(key: str) -> int:
    """A deltas key as its integer. Only the form str() writes is taken:
    int() also reads "01", "+1", " 1" and "1_0", so two keys could name one
    delta and their probabilities would not sum as written."""
    try:
        if str(delta := int(key)) == key:
            return delta
    except ValueError:
        pass
    raise ValueError(f"deltas key {key!r} is not an integer written like \"-1\"")


def _parse_rule(obj) -> anon.GeneralizationRule:
    if not isinstance(obj, dict):
        raise TypeError(f"each rule must be an object, got {obj!r}")
    strategy_name = obj.get("strategy")
    if strategy_name == "numeric_bins":
        strategy = anon.NumericBins(obj["width"], obj.get("origin", 0))
    elif strategy_name == "text_prefix":
        strategy = anon.TextPrefix(obj["keep"])
    elif strategy_name == "suppress":
        strategy = anon.SuppressAll()
    else:
        raise ConfigError(f"unknown generalization strategy {strategy_name!r}")
    return anon.GeneralizationRule(obj["attribute"], strategy)


def _compile_step(step, schema: dset.Schema,
                  stepno: int) -> Callable[[dset.Dataset], dset.Dataset]:
    """Validate one pipeline step against the schema and return its action."""
    if not isinstance(step, dict):
        raise ConfigError(f"step {stepno} must be an object, got {step!r}")
    op = step.get("op")
    try:
        if op in _RANDOMIZED_OPS and "seed" not in step:
            raise ConfigError(f"randomized op {op!r} requires a seed")
        if op == "suppress":
            names = _names_field(step)
            for n in names:
                schema.index(n)
            return lambda d: anon.suppress(d, names)
        if op == "generalize":
            if not isinstance(step["rules"], list):
                raise TypeError("rules must be an array")
            rules = [_parse_rule(r) for r in step["rules"]]
            for r in rules:
                anon.check_rule_kind(schema, r)
            return lambda d: anon.generalize(d, rules)
        if op == "add_noise":
            deltas = step["deltas"]
            if not isinstance(deltas, dict):
                raise TypeError(f"deltas must be an object, got {deltas!r}")
            spec = anon.NoiseSpec({_delta_key(k): v for k, v in deltas.items()})
            name, seed = step["attribute"], _int_field(step, "seed")
            anon.check_integer_attribute(schema, name)
            return lambda d: anon.add_noise(d, name, spec, random.Random(seed))
        if op == "swap_values":
            name, seed = step["attribute"], _int_field(step, "seed")
            n_swaps = _int_field(step, "n_swaps")
            schema.index(name)
            if n_swaps < 0:
                raise ConfigError("n_swaps must be >= 0")
            return lambda d: anon.swap_values(d, name, n_swaps, random.Random(seed))
        if op == "rank_swap":
            name, p, seed = step["attribute"], _int_field(step, "p"), _int_field(step, "seed")
            anon.check_integer_attribute(schema, name)
            if p < 1:
                raise ConfigError("p must be >= 1")
            return lambda d: anon.rank_swap(d, name, p, random.Random(seed))
        if op == "microaggregate_univariate":
            name, k = step["attribute"], _int_field(step, "k")
            anon.check_integer_attribute(schema, name)
            if k < 2:
                raise ConfigError("k must be >= 2")
            return lambda d: anon.microaggregate_univariate(d, name, k)
        if op == "microaggregate_multivariate":
            names, k = _names_field(step), _int_field(step, "k")
            for n in names:
                schema.index(n)
            if k < 2:
                raise ConfigError("k must be >= 2")
            return lambda d: anon.microaggregate_multivariate(d, names, k)
        raise ConfigError(f"unknown op {op!r}")
    except KeyError as exc:
        raise ConfigError(f"step {stepno} ({op}): missing field {exc}") from exc
    except (PrivkitError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"step {stepno} ({op}): {exc}") from exc


def _cmd_anonymize(args) -> dict:
    config = _load_json_arg("@" + args.config)
    if not isinstance(config, dict):
        raise ConfigError("pipeline config must be a JSON object")
    base = os.path.dirname(os.path.abspath(args.config))

    def resolve(field):
        path = config[field]
        if not isinstance(path, str):
            raise ConfigError(f"pipeline config field {field!r} must be a string, got {path!r}")
        return path if os.path.isabs(path) else os.path.join(base, path)

    try:
        input_path, schema_path, output_path = map(resolve, ("input", "schema", "output"))
        steps = config["steps"]
    except KeyError as exc:
        raise ConfigError(f"pipeline config missing field {exc}") from exc
    if not isinstance(steps, list):
        raise ConfigError("pipeline config steps must be an array")
    with open(schema_path, "r", encoding="utf-8") as fh:
        schema = dset.Schema.from_json(fh.read())
    actions = [
        _compile_step(step, schema, i) for i, step in enumerate(steps)
    ]  # fail fast: every step validated before any runs
    with open(input_path, "rb") as fh:
        dataset = dset.load_csv(fh, schema)
    verbose = os.environ.get("PRIVKIT_LOG") in ("info", "debug")
    for i, action in enumerate(actions):
        if verbose:
            print(f"INFO step {i}: {steps[i].get('op')}", file=sys.stderr)
        dataset = action(dataset)
    _write_atomic(output_path, [dset.write_csv(dataset)])
    return {
        "output": output_path,
        "records": len(dataset),
        "steps": [s.get("op") for s in steps],
    }
