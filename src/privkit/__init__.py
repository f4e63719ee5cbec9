"""Privacy-preserving data toolkit.

Anonymization transforms with k-anonymity / l-diversity metrics, a
randomized-response reporting pipeline with exact differential-privacy
verification, a secret-sum multiparty protocol, and support/certainty rule
mining. See the README for the CLI.

``import privkit`` loads no module: each exported name is loaded from its
module on first use (PEP 562), so ``from privkit import X`` imports only X's.
"""

import importlib

# The package's API: each module and the names it exports.
_EXPORTS = {
    "anonymize": (
        "EquivalenceClass", "GeneralizationRule", "NoiseSpec", "NumericBins", "Partition",
        "SuppressAll", "TextPrefix", "add_noise", "aggregate_groups", "equivalence_classes",
        "generalize", "k_anonymity", "l_diversity", "microaggregate_multivariate",
        "microaggregate_univariate", "rank_swap", "suppress", "swap_values",
    ),
    "assoc": ("Rule", "TransactionSet", "certainty", "solid_rules", "support"),
    "dataset": (
        "SUPPRESSED", "Attribute", "AttributeRole", "Dataset", "Interval", "Kind",
        "MaskedText", "Schema", "fixture_table1", "load_csv", "write_csv",
    ),
    "dpcheck": (
        "MechanismDistribution", "exact_epsilon", "prr_distribution", "report_distribution",
    ),
    "errors": ("PrivkitError",),
    "rappor": (
        "BloomFilter", "PermanentResponse", "RapporParams", "Report", "bloom_check",
        "bloom_encode", "epsilon_infinity", "epsilon_one", "estimate_counts", "irr",
        "lemma1", "make_report", "prr", "simulate_reports",
    ),
    "smc": ("lagrange_at", "run_secret_sum", "secret_sum_transcript"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # Nothing is cached: after the first import, import_module is a sys.modules
    # lookup, and the package holds no second reference for a tracer to patch.
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*__all__, *_EXPORTS, *globals()})
