"""The ``assoc mine`` command of the CLI. ``privkit.cli`` imports this
module only to run it."""

from __future__ import annotations

from ._cli_common import _comma_names, _lazy, _load_dataset, _load_json_arg
from .errors import ConfigError, UsageError

assoc = _lazy("assoc")


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
