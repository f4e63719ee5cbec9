"""The table commands of the CLI: ``fixtures export`` and ``metrics``.
``privkit.cli`` imports this module only to run one of them. ``metrics``
runs the partition module alone, not the transforms (see ``_partition``);
``anonymize`` has a module of its own, ``_cli_anonymize``."""

from __future__ import annotations

from ._cli_common import _comma_names, _lazy, _load_dataset, _write_atomic

anon = _lazy("anonymize")
dset = _lazy("dataset")
part = _lazy("_partition")


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


def _cmd_metrics(args) -> dict:
    dataset = _load_dataset(args.input, args.schema)
    qi = _comma_names(args.qi)
    partition = part.equivalence_classes(dataset, qi)
    out = {
        "records": len(dataset),
        "qi": qi,
        "k": part.k_anonymity(dataset, qi, partition),
        "classes": [
            {"key": [str(c) for c in cls.key], "size": cls.size}
            for cls in partition.classes
        ],
    }
    if args.sensitive:
        out["l"] = part.l_diversity(dataset, qi, args.sensitive, partition)
        out["sensitive"] = args.sensitive
    return out
