"""Command-line entry point.

Structured JSON goes to stdout, human-readable logs to stderr. Exit codes:
0 success, 1 usage error, 2 data/validation error. Every randomized
subcommand takes an explicit ``--seed``, so identical invocations produce
byte-identical output. Output files are written to a temp file and renamed,
never left half-written; an output that is not a regular file, such as a
FIFO, is written in place.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import random
import sys
import tempfile
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import ConfigError, DomainError, InvalidParams, PrivkitError, UsageError

OUTPUT_VERSION = 1


def _lazy(name: str):
    """The sibling module ``name``, in ``sys.modules`` at once but executed
    only when one of its attributes is first used, so a call runs only the
    modules it needs. A module imported already is returned as it is.
    Not an import inside each handler: ``bench/tracing.py`` patches every
    module it finds in ``sys.modules`` right after importing this one."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


anon = _lazy("anonymize")
assoc = _lazy("assoc")
dset = _lazy("dataset")
dpcheck = _lazy("dpcheck")
rappor = _lazy("rappor")
smc = _lazy("smc")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting the process."""

    def error(self, message):
        raise UsageError(message)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        result = {"version": OUTPUT_VERSION, **args.handler(args)}
        # a NaN or infinity raises ValueError rather than print a token that is not JSON
        print(json.dumps(result, sort_keys=True, allow_nan=False))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PrivkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _write_atomic(path: str, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to a temp file and rename it over ``path``. A symlink
    is followed, so the link stays and its target is replaced; an existing
    output that is not a regular file (a FIFO, a device) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    target = os.path.realpath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".privkit-")
    except OSError as exc:  # its message names the temp file, a name the user never gave
        raise type(exc)(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_json_arg(text: str):
    """Inline JSON, or @path to read it from a file."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ConfigError(f"not valid JSON: {exc}") from exc


def _load_dataset(input_path: str, schema_path: str) -> dset.Dataset:
    with open(schema_path, "r", encoding="utf-8") as fh:
        schema = dset.Schema.from_json(fh.read())
    with open(input_path, "rb") as fh:
        return dset.load_csv(fh, schema)


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _comma_names(text: str) -> list[str]:
    names = [n for n in text.split(",") if n]
    if not names:
        raise UsageError(f"expected a comma-separated name list, got {text!r}")
    return names


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _comma_ints(text: str) -> list[int]:
    try:
        return [int(n) for n in text.split(",") if n != ""]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


# --- fixtures ---------------------------------------------------------------

def table2_fixture() -> dset.Dataset:
    """The medical-record fixture after suppression and generalization."""
    rules = [
        anon.GeneralizationRule("Age", anon.NumericBins(width=10, origin=0)),
        anon.GeneralizationRule("ZIP", anon.TextPrefix(keep=2)),
    ]
    return anon.generalize(anon.suppress(dset.fixture_table1(), ["Name"]), rules)


def _cmd_fixtures_export(args) -> dict:
    dataset = {"table1": dset.fixture_table1, "table2": table2_fixture}[args.name]()
    _write_atomic(args.output, [dset.write_csv(dataset)])
    written = [args.output]
    if args.schema_output:
        _write_atomic(args.schema_output, [dataset.schema.to_json().encode("utf-8")])
        written.append(args.schema_output)
    return {"fixture": args.name, "records": len(dataset), "written": written}


# --- anonymize pipeline -----------------------------------------------------

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


def _cmd_metrics(args) -> dict:
    dataset = _load_dataset(args.input, args.schema)
    qi = _comma_names(args.qi)
    partition = anon.equivalence_classes(dataset, qi)
    out = {
        "records": len(dataset),
        "qi": qi,
        "k": anon.k_anonymity(dataset, qi, partition),
        "classes": [
            {"key": [str(c) for c in cls.key], "size": cls.size}
            for cls in partition.classes
        ],
    }
    if args.sensitive:
        out["l"] = anon.l_diversity(dataset, qi, args.sensitive, partition)
        out["sensitive"] = args.sensitive
    return out


# --- rappor -----------------------------------------------------------------

def _params_from_arg(text: str) -> rappor.RapporParams:
    obj = _load_json_arg(text)
    if not isinstance(obj, dict):  # from_json would decode a JSON string again
        raise InvalidParams("params JSON must be an object")
    return rappor.RapporParams.from_json(obj)


def _cmd_rappor_encode(args) -> dict:
    params = _params_from_arg(args.params)
    filter = rappor.bloom_encode(args.value, params)
    return {
        "value": args.value,
        "indices": sorted(rappor.bloom_indices(args.value, params)),
        "filter_hex": rappor.Report(filter.bits).to_hex(),
        "params_digest": params.digest(),
    }


def _cmd_rappor_report(args) -> dict:
    params = _params_from_arg(args.params)
    report = rappor.make_report(
        args.value, args.secret.encode("utf-8"), params, random.Random(args.seed)
    )
    return report.envelope(params)


def _cmd_rappor_epsilon(args) -> dict:
    params = _params_from_arg(args.params)
    q_star, p_star = rappor.lemma1(params)
    return {"q_star": q_star, "p_star": p_star, "params_digest": params.digest(),
            "epsilon_infinity": _bound_or_none(rappor.epsilon_infinity, params),
            "epsilon_one": _bound_or_none(rappor.epsilon_one, params)}


def _bound_or_none(bound: Callable, params: rappor.RapporParams) -> Optional[float]:
    """``bound(params)``, or None (JSON null) where its formula is undefined."""
    try:
        return bound(params)
    except DomainError:
        return None


def _cmd_rappor_simulate(args) -> dict:
    params = _params_from_arg(args.params)
    dist = _load_json_arg("@" + args.dist)
    if not isinstance(dist, dict):
        raise ConfigError("distribution file must map value -> share")
    counts = rappor.allocate_counts(dist, args.clients)
    packed = rappor.simulate_packed(counts, params, args.seed)
    _write_atomic(args.output, rappor.envelope_lines(packed, params))
    return {
        "clients": args.clients,
        "true_counts": counts,
        "output": args.output,
        "params_digest": params.digest(),
    }


def _cmd_rappor_estimate(args) -> dict:
    params = _params_from_arg(args.params)
    candidates = _load_json_arg("@" + args.candidates)
    if not _is_string_list(candidates):
        raise ConfigError("candidates file must be a JSON array of strings")
    with open(args.reports, "rb") as fh:
        counts, n = rappor.count_report_file(fh, params)
    estimates = rappor.estimate_from_counts(counts, n, candidates, params)
    return {"reports": n, "estimates": estimates}


# --- dpcheck ----------------------------------------------------------------

def _cmd_dpcheck(args) -> dict:
    params = _params_from_arg(args.params)
    dpcheck.check_enumerable(params.k)  # before any k-sized allocation
    b1 = rappor.BloomFilter.from_indices(params.k, _comma_ints(args.bits1))
    b2 = rappor.BloomFilter.from_indices(params.k, _comma_ints(args.bits2))
    # Built per call, not at module level, so patched module attributes are used.
    distribution, closed_form = {
        "prr": (dpcheck.prr_distribution, rappor.epsilon_infinity),
        "report": (dpcheck.report_distribution, rappor.epsilon_one),
    }[args.mode]
    d1, d2 = distribution(b1, params), distribution(b2, params)
    exact = dpcheck.exact_epsilon(d1, d2)
    return {
        "mode": args.mode,
        "bits1": sorted(b1.set_indices),
        "bits2": sorted(b2.set_indices),
        "exact_epsilon": "infinity" if math.isinf(exact) else exact,
        "closed_form": _bound_or_none(closed_form, params),
    }


# --- smc --------------------------------------------------------------------

def _cmd_smc_demo(args) -> dict:
    votes = _comma_ints(args.votes)
    modulus = smc.DEFAULT_MODULUS if args.modulus is None else args.modulus
    transcript = smc.secret_sum_transcript(votes, modulus, random.Random(args.seed))
    return {
        "modulus": transcript.modulus,
        "votes": list(transcript.votes),
        "shares": [list(row) for row in transcript.shares],
        "aggregated": list(transcript.aggregated),
        "sum": transcript.total,
    }


# --- assoc ------------------------------------------------------------------

def _cmd_assoc_mine(args) -> dict:
    if args.input_csv:
        if not args.schema:
            raise UsageError("--input-csv requires --schema")
        dataset = _load_dataset(args.input_csv, args.schema)
        include_qi = _comma_names(args.include_qi) if args.include_qi else ()
        transactions = assoc.transactions_from_dataset(dataset, include_qi)
    else:
        raw = _load_json_arg("@" + args.input)
        if isinstance(raw, list):
            raw = {"transactions": raw}
        if not isinstance(raw, dict):
            raise ConfigError("transactions file must be a list or an object")
        txs, items = raw.get("transactions", []), raw.get("items")
        if not isinstance(txs, list) or not all(isinstance(t, list) for t in txs):
            raise ConfigError("transactions must be a JSON array of arrays")
        if items is not None and not isinstance(items, list):
            raise ConfigError("items must be a JSON array")
        transactions = assoc.TransactionSet.from_iterables(txs, items)
    rules = assoc.solid_rules(
        transactions,
        min_support=args.min_support,
        min_certainty=args.min_certainty,
        max_itemset=args.max_itemset,
    )
    return {
        "transactions": len(transactions),
        "rules": [
            {
                "antecedent": sorted(r.antecedent),
                "consequent": sorted(r.consequent),
                "support": r.support,
                "certainty": r.certainty,
            }
            for r in rules
        ],
    }


# --- parser -----------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="privkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    fixtures = sub.add_parser("fixtures", help="bundled example data")
    fix_sub = fixtures.add_subparsers(dest="subcommand", required=True)
    export = fix_sub.add_parser("export", help="write a fixture as CSV")
    export.add_argument("--name", choices=["table1", "table2"], required=True)
    export.add_argument("--output", required=True)
    export.add_argument("--schema-output")
    export.set_defaults(handler=_cmd_fixtures_export)

    anonymize = sub.add_parser("anonymize", help="run a transform pipeline from JSON config")
    anonymize.add_argument("--config", required=True)
    anonymize.set_defaults(handler=_cmd_anonymize)

    metrics = sub.add_parser("metrics", help="k-anonymity / l-diversity of a CSV")
    metrics.add_argument("--input", required=True)
    metrics.add_argument("--schema", required=True)
    metrics.add_argument("--qi", required=True, help="comma-separated quasi-identifiers")
    metrics.add_argument("--sensitive")
    metrics.set_defaults(handler=_cmd_metrics)

    rap = sub.add_parser("rappor", help="randomized-response reporting pipeline")
    rap_sub = rap.add_subparsers(dest="subcommand", required=True)
    enc = rap_sub.add_parser("encode")
    enc.add_argument("--params", required=True, help='JSON {k,h,f,p,q,hash_seed} or @file')
    enc.add_argument("--value", required=True)
    enc.set_defaults(handler=_cmd_rappor_encode)
    rep = rap_sub.add_parser("report")
    rep.add_argument("--params", required=True)
    rep.add_argument("--value", required=True)
    rep.add_argument("--secret", required=True)
    rep.add_argument("--seed", type=int, required=True)
    rep.set_defaults(handler=_cmd_rappor_report)
    eps = rap_sub.add_parser("epsilon")
    eps.add_argument("--params", required=True)
    eps.set_defaults(handler=_cmd_rappor_epsilon)
    sim = rap_sub.add_parser("simulate")
    sim.add_argument("--params", required=True)
    sim.add_argument("--clients", type=_non_negative_int, required=True)
    sim.add_argument("--dist", required=True, help="JSON file: value -> share")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--output", required=True)
    sim.set_defaults(handler=_cmd_rappor_simulate)
    est = rap_sub.add_parser("estimate")
    est.add_argument("--params", required=True)
    est.add_argument("--reports", required=True)
    est.add_argument("--candidates", required=True)
    est.set_defaults(handler=_cmd_rappor_estimate)

    dp = sub.add_parser("dpcheck", help="exact epsilon vs closed form")
    dp.add_argument("--params", required=True)
    dp.add_argument("--mode", choices=["prr", "report"], required=True)
    dp.add_argument("--bits1", required=True, help="set bit indices of the first filter")
    dp.add_argument("--bits2", required=True, help="set bit indices of the second filter")
    dp.set_defaults(handler=_cmd_dpcheck)

    smc_cmd = sub.add_parser("smc", help="secret-sum protocol")
    smc_sub = smc_cmd.add_subparsers(dest="subcommand", required=True)
    demo = smc_sub.add_parser("demo")
    demo.add_argument("--votes", required=True, help="comma-separated votes")
    demo.add_argument("--modulus", type=int)
    demo.add_argument("--seed", type=int, required=True)
    demo.set_defaults(handler=_cmd_smc_demo)

    mine = sub.add_parser("assoc", help="association rule mining")
    mine_sub = mine.add_subparsers(dest="subcommand", required=True)
    m = mine_sub.add_parser("mine")
    source = m.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="JSON transactions file")
    source.add_argument("--input-csv", help="derive transactions from a dataset CSV")
    m.add_argument("--schema", help="schema JSON, required with --input-csv")
    m.add_argument("--include-qi",
                   help="quasi-identifiers to add as items alongside sensitive values")
    m.add_argument("--min-support", type=float, default=0.35)
    m.add_argument("--min-certainty", type=float, default=0.60)
    m.add_argument("--max-itemset", type=int, default=3)
    m.set_defaults(handler=_cmd_assoc_mine)

    return parser


if __name__ == "__main__":
    sys.exit(main())
