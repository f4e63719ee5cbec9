"""The four benchmark workloads: seeded inputs, CLI calls and their checks.

Each workload writes every input file into its work directory from
``random.Random(seed)`` alone, so privkit sees only generated files and the
same seed gives the same bytes. The sizes below keep one pass over a
workload's calls at a few seconds, so a run of the benchmark's length takes
the median of several passes. Shapes are fixed and only the seeded details
move, so cost does not depend on the seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle

PAPER_PARAMS = {"k": 16, "h": 2, "f": 0.5, "q": 0.75, "p": 0.5}

FLEET_CLIENTS = 30_000
FLEET_SHARES = (0.5, 0.3, 0.2)

WIDE_PARAMS = {"k": 256, "h": 4, "f": 0.5, "q": 0.75, "p": 0.5}
WIDE_CLIENTS = 4_000
WIDE_VALUES = 200
WIDE_CANDIDATES = 1_000
ZIPF_EXPONENT = 1.0

TABLE_ROWS = 20_000
AGE_BIN_WIDTH = 10
ZIP_KEEP = 3
NOISE_DELTAS = {"-2": 0.25, "-1": 0.25, "1": 0.25, "2": 0.25}
NOISE_VAR = 2.5  # mean squared delta of NOISE_DELTAS
MAX_DELTA = 2
RANK_SWAP_P = 10
WEIGHT_GRAMS = (40_000, 130_000)  # distinct weights, so univariate runs are unique
UNIVARIATE_K = 5
# 2007 mod 2k = 7 is in [k, 2k), so MDAV's leftover group runs and has >= k rows.
MDAV_ROWS = 2_007
MDAV_K = 5
MDAV_ATTRIBUTES = ["Age", "Income"]
QI = ["Age", "Gender", "ZIP"]

# Every item and every pair clears MIN_SUPPORT by a wide margin, so all
# C(30, 3) triples are counted whatever the seed; the basket types make the
# triples inside one core frequent and emit the rules.
BASKETS = 3_000
ITEMS = 30
BASKET_TYPES = 5
CORE_ITEMS = 6  # per basket type, disjoint
CORE_P = 0.9
BACKGROUND_P = 0.4
MIN_SUPPORT = "0.1"
MIN_CERTAINTY = "0.6"
MAX_ITEMSET = 3
SMC_PARTIES = 120
SMC_MODULUS = 2**31 - 1


@dataclass
class Call:
    """One CLI invocation: its label, arguments after ``privkit``, a check of
    its parsed stdout, and the files it writes (fingerprinted)."""

    label: str
    argv: list[str]
    check: Callable[[dict], list[str]]
    outputs: tuple[str, ...] = ()


@dataclass
class CallResult:
    label: str
    wall_s: float
    rss_mb: float
    norm_s: float = 0.0  # wall_s rescaled to the reference host speed


def _write_json(workdir: str, name: str, obj) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return name


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    names: set[str] = set()
    while len(names) < n:
        names.add(f"{prefix}-{rng.getrandbits(40):010x}")
    return sorted(names)


def _largest_remainder(weights: list[float], total: int) -> list[int]:
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


class RapporWorkload:
    """Simulate then estimate, with seeded value names and hash family."""

    def __init__(self, seed: int, workdir: str, params: dict, counts: dict,
                 candidates: list[str]):
        self.seed, self.workdir = seed, workdir
        self.params, self.counts, self.candidates = params, counts, candidates
        self.clients = sum(counts.values())
        self.params_arg = "@" + _write_json(workdir, "params.json", params)
        self.dist = _write_json(
            workdir, "dist.json", {v: c / self.clients for v, c in counts.items()}
        )
        self.cands = _write_json(workdir, "candidates.json", candidates)
        self.bit_counts = None
        self.err_pct = None

    def _check_simulate(self, out):
        problems, self.bit_counts = oracle.check_simulate(
            out, self.params, self.counts, os.path.join(self.workdir, "reports.jsonl")
        )
        return problems

    def _check_estimate(self, out):
        problems, self.err_pct = oracle.check_estimate(
            out, self.params, self.counts, self.candidates, self.bit_counts
        )
        return problems

    def calls(self) -> list[Call]:
        return [
            Call("simulate",
                 ["rappor", "simulate", "--params", self.params_arg,
                  "--clients", str(self.clients), "--dist", self.dist,
                  "--seed", str(self.seed), "--output", "reports.jsonl"],
                 self._check_simulate, ("reports.jsonl",)),
            Call("estimate",
                 ["rappor", "estimate", "--params", self.params_arg,
                  "--reports", "reports.jsonl", "--candidates", self.cands],
                 self._check_estimate),
        ]

    def metrics(self, by_label: dict[str, CallResult]) -> dict:
        return {
            "simulate_reports_per_s": (self.clients / by_label["simulate"].wall_s, "1/s"),
            "estimate_reports_per_s": (self.clients / by_label["estimate"].wall_s, "1/s"),
            "estimate_rss_mb": (by_label["estimate"].rss_mb, "MiB"),
            "estimate_err_pct": (self.err_pct, "%"),
        }


class RapporFleet(RapporWorkload):
    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        params = dict(PAPER_PARAMS, hash_seed=rng.getrandbits(32))
        values = _names(rng, "url", len(FLEET_SHARES) + 1)
        rng.shuffle(values)
        never = values.pop()
        counts = dict(zip(values, _largest_remainder(list(FLEET_SHARES), FLEET_CLIENTS)))
        candidates = sorted(values + [never])
        super().__init__(seed, workdir, params, counts, candidates)
        positions = rng.sample(range(params["k"]), 2 * params["h"])
        self.bits1 = positions[: params["h"]]
        self.bits2 = positions[params["h"]:]
        self.sizes = {"clients": self.clients, "values": len(counts),
                      "candidates": len(candidates), "k": params["k"], "h": params["h"]}

    def calls(self) -> list[Call]:
        p = self.params

        def dp(mode):
            return Call(
                f"dpcheck_{mode}",
                ["dpcheck", "--params", self.params_arg, "--mode", mode,
                 "--bits1", ",".join(map(str, self.bits1)),
                 "--bits2", ",".join(map(str, self.bits2))],
                lambda out: oracle.check_dpcheck(out, p, mode, self.bits1, self.bits2),
            )

        return [
            Call("epsilon", ["rappor", "epsilon", "--params", self.params_arg],
                 lambda out: oracle.check_epsilon(out, p)),
            dp("prr"),
            dp("report"),
        ] + super().calls()


class RapporWide(RapporWorkload):
    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        params = dict(WIDE_PARAMS, hash_seed=rng.getrandbits(32))
        names = _names(rng, "word", WIDE_CANDIDATES)
        rng.shuffle(names)
        reported = names[:WIDE_VALUES]
        weights = [1.0 / r**ZIPF_EXPONENT for r in range(1, WIDE_VALUES + 1)]
        counts = dict(zip(reported, _largest_remainder(weights, WIDE_CLIENTS)))
        super().__init__(seed, workdir, params, counts, sorted(names))
        self.sizes = {"clients": self.clients, "values": WIDE_VALUES,
                      "candidates": WIDE_CANDIDATES, "k": params["k"], "h": params["h"]}


_FIRST = ["Ada", "Ben", "Cleo", "Dan", "Eva", "Finn", "Gus", "Hana", "Ivo", "Jun",
          "Kai", "Lea", "Mo", "Nia", "Otto", "Pia"]
_LAST = ["Abel", "Berg", "Cruz", "Dietz", "Egan", "Falk", "Gray", "Holm", "Ito",
         "Jung", "Kurz", "Lund", "Moss", "Nagy", "Ortiz", "Pohl"]
_DIAGNOSES = ["Asthma", "Cancer", "Diabetes", "Flu", "Gastritis", "Incontinence",
              "Migraine", "No illness"]
_DIAGNOSIS_WEIGHTS = [8, 4, 9, 12, 5, 3, 7, 30]
_SCHEMA = [
    {"name": "Name", "role": "explicit_identifier", "kind": "text"},
    {"name": "Age", "role": "quasi_identifier", "kind": "integer"},
    {"name": "Gender", "role": "quasi_identifier", "kind": "text"},
    {"name": "ZIP", "role": "quasi_identifier", "kind": "text"},
    {"name": "Income", "role": "non_sensitive", "kind": "integer"},
    {"name": "Weight", "role": "non_sensitive", "kind": "integer"},
    {"name": "Diagnosis", "role": "sensitive", "kind": "text"},
]
_RELEASE_STEPS = ["suppress", "generalize", "add_noise", "swap_values", "rank_swap",
                  "microaggregate_univariate"]


def _write_csv(path: str, rows: list[list]) -> None:
    # Generated cells hold no commas, quotes or newlines.
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


class TableRelease:
    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir
        rng = random.Random(seed)
        zip3 = [f"{n:03d}" for n in rng.sample(range(100, 1000), 40)]
        header = [a["name"] for a in _SCHEMA]
        rows = [header]
        weights = rng.sample(range(*WEIGHT_GRAMS), TABLE_ROWS)
        for weight in weights:
            rows.append([
                f"{rng.choice(_FIRST)} {rng.choice(_LAST)}",
                rng.randint(18, 90),
                rng.choice(["Female", "Male"]),
                rng.choice(zip3) + f"{rng.randrange(100):02d}",
                int(rng.lognormvariate(10.5, 0.5)),
                weight,
                rng.choices(_DIAGNOSES, _DIAGNOSIS_WEIGHTS)[0],
            ])
        _write_csv(os.path.join(workdir, "table.csv"), rows)
        keep = sorted(rng.sample(range(1, TABLE_ROWS + 1), MDAV_ROWS))
        _write_csv(os.path.join(workdir, "sample.csv"), [header] + [rows[i] for i in keep])
        _write_json(workdir, "schema.json", _SCHEMA)
        _write_json(workdir, "release.json", {
            "input": "table.csv", "schema": "schema.json", "output": "release.csv",
            "steps": [
                {"op": "suppress", "attributes": ["Name"]},
                {"op": "generalize", "rules": [
                    {"attribute": "Age", "strategy": "numeric_bins", "width": AGE_BIN_WIDTH},
                    {"attribute": "ZIP", "strategy": "text_prefix", "keep": ZIP_KEEP}]},
                {"op": "add_noise", "attribute": "Income", "deltas": NOISE_DELTAS,
                 "seed": seed},
                {"op": "swap_values", "attribute": "Diagnosis",
                 "n_swaps": TABLE_ROWS // 10, "seed": seed + 1},
                {"op": "rank_swap", "attribute": "Income", "p": RANK_SWAP_P,
                 "seed": seed + 2},
                {"op": "microaggregate_univariate", "attribute": "Weight",
                 "k": UNIVARIATE_K},
            ],
        })
        _write_json(workdir, "mdav.json", {
            "input": "sample.csv", "schema": "schema.json", "output": "mdav.csv",
            "steps": [{"op": "microaggregate_multivariate",
                       "attributes": MDAV_ATTRIBUTES, "k": MDAV_K}],
        })
        self.raw = [[str(c) for c in row] for row in rows]
        self.sample = oracle.read_csv(os.path.join(workdir, "sample.csv"))
        self.released = None
        self.info_loss = None
        self.sizes = {"rows": TABLE_ROWS, "mdav_rows": MDAV_ROWS, "mdav_k": MDAV_K}

    def _path(self, name):
        return os.path.join(os.path.abspath(self.workdir), name)

    def _check_release(self, out):
        problems = oracle.check_anonymize_stdout(
            out, TABLE_ROWS, _RELEASE_STEPS, self._path("release.csv"))
        self.released = oracle.read_csv(self._path("release.csv"))
        return problems + oracle.check_release(
            self.raw, self.released, bin_width=AGE_BIN_WIDTH, zip_keep=ZIP_KEEP,
            swap_col="Diagnosis", noise_col="Income", max_delta=MAX_DELTA,
            noise_var=NOISE_VAR, agg_col="Weight", k=UNIVARIATE_K)

    def _check_mdav(self, out):
        problems = oracle.check_anonymize_stdout(
            out, MDAV_ROWS, ["microaggregate_multivariate"], self._path("mdav.csv"))
        more, self.info_loss = oracle.check_mdav(
            self.sample, oracle.read_csv(self._path("mdav.csv")), MDAV_ATTRIBUTES, MDAV_K)
        return problems + more

    def _check_metrics(self, out):
        if self.released is None:
            return ["no checked release to recount"]
        return oracle.check_metrics(out, self.released, QI, "Diagnosis")

    def calls(self) -> list[Call]:
        return [
            Call("anonymize", ["anonymize", "--config", "release.json"],
                 self._check_release, ("release.csv",)),
            Call("metrics",
                 ["metrics", "--input", "release.csv", "--schema", "schema.json",
                  "--qi", ",".join(QI), "--sensitive", "Diagnosis"],
                 self._check_metrics),
            Call("mdav", ["anonymize", "--config", "mdav.json"],
                 self._check_mdav, ("mdav.csv",)),
        ]

    def metrics(self, by_label: dict[str, CallResult]) -> dict:
        return {
            "anonymize_rows_per_s": (TABLE_ROWS / by_label["anonymize"].wall_s, "1/s"),
            "metrics_s": (by_label["metrics"].wall_s, "s"),
            "mdav_s": (by_label["mdav"].wall_s, "s"),
            "mdav_info_loss": (self.info_loss, "ratio"),
        }


class BasketMine:
    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = random.Random(seed)
        items = [f"item{n:02d}" for n in range(ITEMS)]
        rng.shuffle(items)
        cores = [items[t * CORE_ITEMS:(t + 1) * CORE_ITEMS] for t in range(BASKET_TYPES)]
        self.baskets = []
        for _ in range(BASKETS):
            core = set(cores[rng.randrange(BASKET_TYPES)])
            self.baskets.append(sorted(
                i for i in items
                if rng.random() < (CORE_P if i in core else BACKGROUND_P)))
        self.input = _write_json(workdir, "baskets.json", self.baskets)
        self.votes = [rng.randrange(2) for _ in range(SMC_PARTIES)]
        self.sizes = {"baskets": BASKETS, "items": ITEMS, "basket_types": BASKET_TYPES,
                      "parties": SMC_PARTIES}

    def calls(self) -> list[Call]:
        return [
            Call("mine",
                 ["assoc", "mine", "--input", self.input, "--min-support", MIN_SUPPORT,
                  "--min-certainty", MIN_CERTAINTY, "--max-itemset", str(MAX_ITEMSET)],
                 lambda out: oracle.check_rules(out, self.baskets, MIN_SUPPORT,
                                                MIN_CERTAINTY, MAX_ITEMSET)),
            Call("smc",
                 ["smc", "demo", "--votes", ",".join(map(str, self.votes)),
                  "--seed", str(self.seed)],
                 lambda out: oracle.check_smc(out, self.votes, SMC_MODULUS)),
        ]

    def metrics(self, by_label: dict[str, CallResult]) -> dict:
        return {
            "mine_s": (by_label["mine"].wall_s, "s"),
            "smc_s": (by_label["smc"].wall_s, "s"),
        }


WORKLOADS = {
    "rappor_fleet": RapporFleet,
    "rappor_wide": RapporWide,
    "table_release": TableRelease,
    "basket_mine": BasketMine,
}
