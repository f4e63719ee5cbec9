"""One boundary contract for the library's scalar arguments.

Each row below is one parameter of an export: where it sits, a call that
puts a value there (every other argument valid), the values its documented
type and range exclude, and the words that name it. The word is the
parameter's own name, or the name its docstring gives it ("k: Bloom filter
size in bits"). Every excluded value must raise a ``PrivkitError``, or the
``ValueError`` or ``TypeError`` that ``errors.py`` allows, and the message
must name the parameter: a bare ``'<' not supported`` or ``object is not
iterable`` names nothing.

Arguments that are privkit objects (``RapporParams``, ``Dataset``,
``BloomFilter``, a distribution) are duck-typed and not listed.
"""

import io
import math
import random
import re
from typing import Callable, NamedTuple

import pytest

import privkit
from privkit import PrivkitError
from privkit.anonymize import (
    GeneralizationRule,
    NoiseSpec,
    NumericBins,
    SuppressAll,
    TextPrefix,
    add_noise,
    aggregate_groups,
    equivalence_classes,
    generalize,
    k_anonymity,
    l_diversity,
    microaggregate_multivariate,
    microaggregate_univariate,
    rank_swap,
    suppress,
    swap_values,
)
from privkit.assoc import TransactionSet, certainty, solid_rules, support
from privkit.dataset import (
    Attribute,
    AttributeRole,
    Interval,
    Kind,
    MaskedText,
    Schema,
    fixture_table1,
    load_csv,
)
from privkit.dpcheck import MechanismDistribution
from privkit.rappor import (
    BloomFilter,
    PermanentResponse,
    RapporParams,
    Report,
    bloom_check,
    bloom_encode,
    estimate_counts,
    make_report,
    prr,
    simulate_reports,
)
from privkit.smc import lagrange_at, run_secret_sum, secret_sum_transcript

HUGE = 10**400

# The values each documented type excludes, whatever its range.
INT = (None, 1.5, math.nan, "x", b"x", [], True)
NUMBER = (None, "x", b"x", [], True)
STR = (None, 5, 1.5, b"x", [], True)
BYTES = (None, 5, "x", [], True)
COLLECTION = (None, 5, "x", b"x", True)  # of names, items, votes or factors


class Param(NamedTuple):
    position: str
    call: Callable[[object], object]
    bad: tuple
    names: tuple[str, ...]


def params(**fields):
    return RapporParams(**{"k": 8, "h": 2, "f": 0.5, "q": 0.75, "p": 0.5, **fields})


P = params()
FILTER = BloomFilter.from_indices(8, [0, 1])
TABLE = fixture_table1()
BASKETS = TransactionSet.from_iterables([["a", "b"], ["a", "c"], ["b", "c"]])
GROUPS = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
QI = AttributeRole.QUASI_IDENTIFIER
REPORTS = simulate_reports({"a": 3}, P, 1)
DISTRIBUTION = MechanismDistribution.product_of_bits([0.25, 0.5])


def rng():
    return random.Random(0)


PARAMS = [
    # rappor
    Param("RapporParams.k", lambda v: params(k=v), INT + (0, -1, 2**35 + 1, HUGE),
          ("k", "filter size")),
    Param("RapporParams.h", lambda v: params(h=v), INT + (0, -1, 9, HUGE), ("h",)),
    *(Param(f"RapporParams.{name}", lambda v, name=name: params(**{name: v}),
            NUMBER + (-1, 1.5, math.nan, math.inf, HUGE), (name,))
      for name in ("f", "q", "p")),
    Param("RapporParams.hash_seed", lambda v: params(hash_seed=v), INT + (-1, 2**64),
          ("hash_seed",)),
    Param("BloomFilter.from_indices.k", lambda v: BloomFilter.from_indices(v, [0]),
          INT + (-1,), ("k",)),
    Param("BloomFilter.from_indices.indices", lambda v: BloomFilter.from_indices(8, v),
          COLLECTION + ([1.5], ["x"], [8], [-1]), ("indices", "bit index")),
    Param("bloom_encode.values", lambda v: bloom_encode(v, P), (None, 5, b"x", [5], [b"x"]),
          ("value",)),
    Param("bloom_check.value", lambda v: bloom_check(FILTER, v, P), STR, ("value",)),
    Param("prr.client_secret", lambda v: prr(FILTER, v, "a", P), BYTES, ("client_secret",)),
    Param("prr.value", lambda v: prr(FILTER, b"s", v, P), STR, ("value",)),
    Param("make_report.value", lambda v: make_report(v, b"s", P, rng()), STR, ("value",)),
    Param("make_report.client_secret", lambda v: make_report("a", v, P, rng()), BYTES,
          ("client_secret",)),
    Param("simulate_reports.key", lambda v: simulate_reports({v: 1}, P, 1),
          (None, 5, 1.5, b"x", True), ("value",)),
    Param("simulate_reports.count", lambda v: simulate_reports({"a": v}, P, 1),
          INT + (-1, 2**63, HUGE), ("count",)),
    Param("simulate_reports.seed", lambda v: simulate_reports({"a": 1}, P, v), INT,
          ("seed",)),
    Param("estimate_counts.candidates", lambda v: estimate_counts(REPORTS, v, P),
          COLLECTION + ([5], [b"x"]), ("candidates", "candidate", "value")),
    Param("Report.from_hex.k", lambda v: Report.from_hex("00", v), INT + (-1,), ("k",)),
    Param("PermanentResponse.value", lambda v: PermanentResponse(v, FILTER.bits), STR,
          ("value",)),
    # dpcheck
    Param("MechanismDistribution.k", lambda v: MechanismDistribution(v, [0.0]), INT + (-1,),
          ("k",)),
    Param("MechanismDistribution.log_probs", lambda v: MechanismDistribution(0, v),
          (None, 5, "0", b"0", True, [0.0, 0.0], [math.nan], [math.inf], [-1.0], {0.0},
           {0: 0.0}),
          ("log_probs", "log-probabilities", "probabilities")),
    Param("MechanismDistribution.product_of_bits.p_one", MechanismDistribution.product_of_bits,
          COLLECTION + ("1", b"\x01", {0.5}, {0: 0.5}), ("p_one",)),
    Param("MechanismDistribution.prob.outcome", lambda v: DISTRIBUTION.prob(v),
          INT + (-1, -4, 4, HUGE), ("outcome",)),
    Param("MechanismDistribution.product_of_bits.p",
          lambda v: MechanismDistribution.product_of_bits([v]),
          NUMBER + (-1, 1.5, math.nan, math.inf, HUGE), ("probability of bit 0",)),
    # dataset
    Param("Interval.lo", lambda v: Interval(v, 5), INT + (6,), ("interval lo",)),
    Param("Interval.hi", lambda v: Interval(0, v), INT + (-1,), ("interval hi", "interval lo")),
    Param("MaskedText.prefix", MaskedText, STR, ("prefix",)),
    Param("Attribute.name", lambda v: Attribute(v, QI, Kind.INTEGER), STR, ("name",)),
    Param("Schema.attributes", Schema, COLLECTION + ([5],), ("attributes",)),
    Param("load_csv.source", lambda v: load_csv(v, TABLE.schema),
          (None, 5, "table.csv", [], True, io.StringIO("Name\n")), ("source",)),
    # anonymize
    Param("NumericBins.width", NumericBins, INT + (0, -1), ("width", "bin width")),
    Param("NumericBins.origin", lambda v: NumericBins(5, v), INT, ("origin",)),
    Param("TextPrefix.keep", TextPrefix, INT + (-1,), ("keep", "prefix length")),
    Param("NoiseSpec.symmetric.max_delta", NoiseSpec.symmetric, INT + (0, -1, HUGE),
          ("max_delta",)),
    Param("GeneralizationRule.attribute",
          lambda v: generalize(TABLE, [GeneralizationRule(v, SuppressAll())]), STR + ("x",),
          ("attribute",)),
    Param("suppress.attributes", lambda v: suppress(TABLE, v), COLLECTION, ("attributes",)),
    Param("add_noise.attribute", lambda v: add_noise(TABLE, v, NoiseSpec.symmetric(1), rng()),
          STR + ("x",), ("attribute",)),
    Param("microaggregate_univariate.attribute",
          lambda v: microaggregate_univariate(TABLE, v, 2), STR + ("x",), ("attribute",)),
    *(Param(f"{f.__name__}.k", lambda v, f=f, a=a: f(TABLE, a, v), INT + (0, 1, -1, HUGE),
            ("k", "group size", "group"))
      for f, a in ((microaggregate_univariate, "Age"), (microaggregate_multivariate, ["Age"]))),
    Param("microaggregate_multivariate.attributes",
          lambda v: microaggregate_multivariate(TABLE, v, 2), COLLECTION, ("attributes",)),
    Param("aggregate_groups.attributes", lambda v: aggregate_groups(TABLE, v, GROUPS),
          COLLECTION, ("attributes",)),
    Param("aggregate_groups.groups", lambda v: aggregate_groups(TABLE, ["Age"], v),
          (None, 5, True, "x", b"x", [[0]], [[]]), ("groups", "group")),
    Param("rank_swap.attribute", lambda v: rank_swap(TABLE, v, 2, rng()), STR + ("x",),
          ("attribute",)),
    Param("rank_swap.p", lambda v: rank_swap(TABLE, "Age", v, rng()), INT + (0, -1),
          ("p", "rank-swap window")),
    Param("swap_values.attribute", lambda v: swap_values(TABLE, v, 2, rng()), STR + ("x",),
          ("attribute",)),
    Param("swap_values.n_swaps", lambda v: swap_values(TABLE, "Age", v, rng()),
          INT + (-1, HUGE), ("n_swaps", "swaps")),
    *(Param(f"{f.__name__}.qi", lambda v, f=f: f(TABLE, v), COLLECTION + ([],),
            ("qi", "quasi-identifier"))
      for f in (equivalence_classes, k_anonymity)),
    Param("l_diversity.qi", lambda v: l_diversity(TABLE, v, "Diagnosis"), COLLECTION + ([],),
          ("qi", "quasi-identifier")),
    Param("l_diversity.sensitive", lambda v: l_diversity(TABLE, ["Age"], v), STR + ("x",),
          ("sensitive", "attribute")),
    # assoc
    Param("TransactionSet.from_iterables.transactions", TransactionSet.from_iterables,
          COLLECTION, ("transactions",)),
    Param("support.itemset", lambda v: support(BASKETS, v), COLLECTION + ([5],),
          ("itemset",)),
    Param("certainty.antecedent", lambda v: certainty(BASKETS, v, ["b"]), COLLECTION + ([5],),
          ("antecedent",)),
    Param("certainty.consequent", lambda v: certainty(BASKETS, ["a"], v), COLLECTION + ([5],),
          ("consequent",)),
    Param("solid_rules.min_support", lambda v: solid_rules(BASKETS, v, 0.5),
          NUMBER + (0, -1, 1.5, math.nan, HUGE), ("min_support", "support")),
    Param("solid_rules.min_certainty", lambda v: solid_rules(BASKETS, 0.3, v),
          NUMBER + (0, -1, 1.5, math.nan, HUGE), ("min_certainty", "certainty")),
    Param("solid_rules.max_itemset", lambda v: solid_rules(BASKETS, 0.3, 0.5, v),
          INT + (1, -1), ("max_itemset",)),
    # smc
    Param("lagrange_at.points", lambda v: lagrange_at(v, 0, 7), COLLECTION + ([], [(1,)]),
          ("points", "interpolation point")),
    Param("lagrange_at.x", lambda v: lagrange_at([(v, 1)], 0, 7), INT, ("x",)),
    Param("lagrange_at.y", lambda v: lagrange_at([(1, v)], 0, 7), INT, ("y",)),
    Param("lagrange_at.target", lambda v: lagrange_at([(1, 1)], v, 7), INT, ("target",)),
    Param("lagrange_at.modulus", lambda v: lagrange_at([(1, 1)], 0, v),
          INT + (-1, 0, 1, 15, HUGE), ("modulus",)),
    *(Param(f"{f.__name__}.modulus", lambda v, f=f: f([1, 1], v), INT + (-1, 0, 1, 2, 15, HUGE),
            ("modulus",))
      for f in (secret_sum_transcript, run_secret_sum)),
    *(Param(f"{f.__name__}.votes", lambda v, f=f: f(v), COLLECTION + (b"\x01\x02", iter([1, 2])),
            ("votes",))
      for f in (secret_sum_transcript, run_secret_sum)),
    Param("secret_sum_transcript.vote", lambda v: secret_sum_transcript([v, 1]),
          INT + (-1, 2**31 - 1), ("votes",)),
]

CASES = [pytest.param(param, value, id=f"{param.position}-{value!r:.12}")
         for param in PARAMS for value in param.bad]


@pytest.mark.parametrize("param,value", CASES)
def test_bad_scalar_is_rejected_naming_its_parameter(param, value):
    with pytest.raises((PrivkitError, ValueError, TypeError)) as info:
        param.call(value)
    message = str(info.value)
    assert any(re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", message)
               for name in param.names), message


def test_every_export_with_a_scalar_parameter_has_a_row():
    # exports whose only arguments are privkit objects are not rows; every
    # other callable export is
    covered = {p.position.split(".")[0] for p in PARAMS}
    exempt = {"AttributeRole", "Dataset", "EquivalenceClass", "Kind", "Partition",
              "PrivkitError", "Rule", "SUPPRESSED", "SuppressAll",
              "epsilon_infinity", "epsilon_one", "exact_epsilon",
              "fixture_table1", "generalize", "irr", "lemma1", "prr_distribution",
              "report_distribution", "write_csv"}
    assert set(privkit.__all__) - exempt == covered
