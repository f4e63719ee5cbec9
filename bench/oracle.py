"""Output checks that do not import privkit.

Every check recomputes the expected result from the benchmark's own inputs
and the documented formats: the params digest and keyed BLAKE2b Bloom hashes,
the closed-form privacy bounds, the CSV text of each transform, and support
counts recounted with per-item bitsets. Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from collections import Counter
from fractions import Fraction
from itertools import combinations

_MASK64 = (1 << 64) - 1

# Allowed distance of a RAPPOR count or estimate from its expectation, in
# standard errors. Six keeps the chance that any check of a run strays below
# 1e-5.
ESTIMATE_Z = 6.0


# --- rappor -----------------------------------------------------------------

def params_digest(params: dict) -> str:
    canonical = json.dumps(
        {k: params[k] for k in ("k", "h", "f", "q", "p", "hash_seed")},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:16]


def bloom_indices(value: str, params: dict) -> set[int]:
    out = set()
    for j in range(1, params["h"] + 1):
        key = struct.pack("<QI", params["hash_seed"] & _MASK64, j)
        digest = hashlib.blake2b(
            value.encode("utf-8"), key=key, digest_size=8, person=b"privkit.bloom"
        ).digest()
        out.add(int.from_bytes(digest, "little") % params["k"])
    return out


def marginals(params: dict) -> tuple[float, float]:
    f, p, q = params["f"], params["p"], params["q"]
    base = 0.5 * f * (p + q)
    return base + (1.0 - f) * q, base + (1.0 - f) * p


def epsilon_infinity(params: dict) -> float:
    half_f = params["f"] / 2.0
    return 2.0 * params["h"] * math.log((1.0 - half_f) / half_f)


def epsilon_one(params: dict) -> float:
    q_star, p_star = marginals(params)
    return params["h"] * math.log(q_star * (1.0 - p_star) / (p_star * (1.0 - q_star)))


def _close(a, b, tol=1e-9) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol


def check_epsilon(out: dict, params: dict) -> list[str]:
    q_star, p_star = marginals(params)
    want = {
        "q_star": q_star,
        "p_star": p_star,
        "epsilon_infinity": epsilon_infinity(params),
        "epsilon_one": epsilon_one(params),
    }
    problems = [f"{k}={out.get(k)!r}, expected {v}" for k, v in want.items()
                if not _close(out.get(k), v)]
    if out.get("params_digest") != params_digest(params):
        problems.append("params_digest differs from the canonical digest")
    return problems


def check_dpcheck(out: dict, params: dict, mode: str, bits1, bits2) -> list[str]:
    closed = epsilon_infinity(params) if mode == "prr" else epsilon_one(params)
    problems = []
    if out.get("mode") != mode:
        problems.append(f"mode {out.get('mode')!r}, expected {mode!r}")
    if out.get("bits1") != sorted(bits1) or out.get("bits2") != sorted(bits2):
        problems.append("echoed filters differ from the input")
    for key in ("exact_epsilon", "closed_form"):
        if not _close(out.get(key), closed):
            problems.append(f"{key}={out.get(key)!r}, expected {closed}")
    return problems


def count_report_bits(path: str, params: dict, digest: str, line_masks: list[int]):
    """Parse a JSONL report file. Return (reports, per-bit set counts, set
    bits that fall on the true Bloom bits of each line, problems); line i's
    true Bloom bits are the bits of line_masks[i]."""
    k = params["k"]
    nbytes = (k + 7) // 8
    hex_len = 2 * nbytes
    pad_mask = 0 if k % 8 == 0 else (0xFF << (k % 8)) & 0xFF
    byte_counts = [[0] * 256 for _ in range(nbytes)]
    problems: list[str] = []
    n = 0
    on_hits = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                obj = json.loads(line)
                text = obj["report_hex"]
                raw = bytes.fromhex(text)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"line {lineno}: {exc}")
                continue
            if set(obj) != {"params_digest", "report_hex"}:
                problems.append(f"line {lineno}: envelope keys {sorted(obj)}")
            if obj.get("params_digest") != digest:
                problems.append(f"line {lineno}: digest {obj.get('params_digest')!r}")
            if len(text) != hex_len or text != text.lower():
                problems.append(f"line {lineno}: hex {text!r} is not {hex_len} lowercase digits")
                continue
            if raw[-1] & pad_mask:
                problems.append(f"line {lineno}: padding bits set")
            for b, value in enumerate(raw):
                byte_counts[b][value] += 1
            if n < len(line_masks):
                on_hits += (int.from_bytes(raw, "little") & line_masks[n]).bit_count()
            n += 1
            if len(problems) > 20:
                break
    counts = [0] * k
    for b, table in enumerate(byte_counts):
        for value, c in enumerate(table):
            if c:
                for j in range(8):
                    if value >> j & 1 and 8 * b + j < k:
                        counts[8 * b + j] += c
    return n, counts, on_hits, problems


def _bloom_mask(value: str, params: dict) -> int:
    return sum(1 << i for i in bloom_indices(value, params))


def check_simulate(out: dict, params: dict, counts: dict, report_path: str):
    """Check the envelopes, and that report bits follow the RAPPOR marginals.

    Client i reports the i-th value when ``counts`` is iterated in sorted
    order, so the true Bloom bits of every line are known. Each report bit
    is set with probability q* where its true bit is set and p* elsewhere,
    independently, so both totals of set bits must lie within ESTIMATE_Z
    binomial standard errors of their expectation. Returns (problems,
    per-bit set counts of the written reports).
    """
    clients = sum(counts.values())
    digest = params_digest(params)
    problems = []
    if out.get("clients") != clients:
        problems.append(f"clients {out.get('clients')!r}, expected {clients}")
    if out.get("true_counts") != counts:
        problems.append("true_counts differ from the generated allocation")
    if out.get("params_digest") != digest:
        problems.append("params_digest differs from the canonical digest")
    masks = {v: _bloom_mask(v, params) for v in counts}
    line_masks = [masks[v] for v in sorted(counts) for _ in range(counts[v])]
    n, bit_counts, on_hits, file_problems = count_report_bits(
        report_path, params, digest, line_masks)
    problems += file_problems
    if n != clients:
        return problems + [f"{n} valid report lines, expected {clients}"], bit_counts
    q_star, p_star = marginals(params)
    on_trials = sum(c * masks[v].bit_count() for v, c in counts.items())
    for where, hits, trials, prob in (
        ("true Bloom bits", on_hits, on_trials, q_star),
        ("other bits", sum(bit_counts) - on_hits, clients * params["k"] - on_trials, p_star),
    ):
        tol = ESTIMATE_Z * math.sqrt(trials * prob * (1.0 - prob))
        if abs(hits - prob * trials) > tol:
            problems.append(f"{hits} of {trials} {where} set, expected "
                            f"{prob * trials:.0f} +- {tol:.0f}")
    return problems, bit_counts


def check_estimate(out: dict, params: dict, counts: dict, candidates, bit_counts):
    """Check every candidate's estimate, exactly and statistically.

    Exactly: with c_i the set count of bit i over the N written reports,
    t_i = (c_i - p* N) / (q* - p*) clamped to [0, N], and a candidate's
    estimate is the minimum of t_i over its Bloom indices.

    Statistically: bit i is expected to be set by n_i = sum of counts of the
    values that hash onto it, so t_i has expectation n_i and standard error
    sqrt(c_i(1 - c_i/N)) / (q* - p*). The estimate must lie within
    ESTIMATE_Z of those errors of the minimum n_i. Returns (problems, max
    |error| over reported values as % of N).
    """
    n = sum(counts.values())
    problems = []
    if out.get("reports") != n:
        problems.append(f"reports {out.get('reports')!r}, expected {n}")
    estimates = out.get("estimates")
    if not isinstance(estimates, dict) or set(estimates) != set(candidates):
        return problems + ["estimates do not cover exactly the candidates"], None
    if bit_counts is None:
        return problems + ["no bit counts from the simulate check"], None
    q_star, p_star = marginals(params)
    denom = q_star - p_star
    t = [min(max((c - p_star * n) / denom, 0.0), float(n)) for c in bit_counts]
    expected_set = [0] * params["k"]
    for value, c in counts.items():
        for i in bloom_indices(value, params):
            expected_set[i] += c
    worst = 0.0
    for value in candidates:
        idx = bloom_indices(value, params)
        est = estimates[value]
        if not isinstance(est, (int, float)) or not 0.0 <= est <= n:
            problems.append(f"estimate of {value!r} is {est!r}, outside [0, {n}]")
            continue
        exact = min(t[i] for i in idx)
        if abs(est - exact) > 1e-9 * max(1.0, exact):
            problems.append(f"estimate of {value!r} is {est!r}, recomputed {exact!r}")
        expect = min(expected_set[i] for i in idx)
        tol = ESTIMATE_Z * max(
            math.sqrt(bit_counts[i] * (1.0 - bit_counts[i] / n)) for i in idx
        ) / denom + 1e-6
        if abs(est - expect) > tol:
            problems.append(
                f"estimate of {value!r} is {est:.1f}, expected {expect} +- {tol:.1f}"
            )
        if value in counts:
            worst = max(worst, abs(est - counts[value]))
    return problems, 100.0 * worst / n


# --- tables -----------------------------------------------------------------

def read_csv(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def check_anonymize_stdout(out: dict, rows: int, steps: list[str], output: str) -> list[str]:
    problems = []
    if out.get("records") != rows:
        problems.append(f"records {out.get('records')!r}, expected {rows}")
    if out.get("steps") != steps:
        problems.append(f"steps {out.get('steps')!r}, expected {steps}")
    if out.get("output") != output:
        problems.append(f"output {out.get('output')!r}, expected {output}")
    return problems


def round_half_away(x: Fraction) -> int:
    whole = (2 * abs(x.numerator) + x.denominator) // (2 * x.denominator)
    return whole if x >= 0 else -whole


def univariate_microaggregate(values: list[int], k: int) -> list[int]:
    """Sort by value, cut the ranks into runs of k (the last run absorbs the
    remainder), and give each member its run's rounded mean. The values must
    be distinct, so the runs do not depend on how ties are broken."""
    n = len(values)
    order = sorted(range(n), key=values.__getitem__)
    out = [0] * n
    full = n // k
    for g in range(full):
        run = order[g * k:(g + 1) * k if g < full - 1 else n]
        mean = round_half_away(Fraction(sum(values[i] for i in run), len(run)))
        for i in run:
            out[i] = mean
    return out


def check_release(raw, released, *, bin_width, zip_keep, swap_col, noise_col,
                  max_delta, noise_var, agg_col, k):
    """The six-step release: identifiers suppressed; Age and ZIP generalized
    as recomputed from the raw rows; the swapped column's multiset kept; the
    noised and rank-swapped column within max_delta of the raw one rank by
    rank, with its mean kept; and the microaggregated column equal to a
    recomputation from its raw values."""
    header = raw[0]
    if released[0] != header:
        return [f"header {released[0]}, expected {header}"]
    if len(released) != len(raw):
        return [f"{len(released) - 1} rows, expected {len(raw) - 1}"]
    col = {name: i for i, name in enumerate(header)}
    problems = []
    for rowno, (a, b) in enumerate(zip(raw[1:], released[1:]), start=1):
        age = int(a[col["Age"]])
        lo = bin_width * (age // bin_width)
        want = {
            "Name": "*",
            "Age": f"{lo}-{lo + bin_width - 1}",
            "Gender": a[col["Gender"]],
            "ZIP": a[col["ZIP"]][:zip_keep] + "*",
        }
        for name, value in want.items():
            if b[col[name]] != value:
                problems.append(f"row {rowno} {name}: {b[col[name]]!r}, expected {value!r}")
        if len(problems) > 20:
            return problems
    swapped = col[swap_col]
    if Counter(r[swapped] for r in raw[1:]) != Counter(r[swapped] for r in released[1:]):
        problems.append(f"{swap_col} multiset changed")
    noised = col[noise_col]
    before = [int(r[noised]) for r in raw[1:]]
    after = [int(r[noised]) for r in released[1:]]
    # Adding deltas of at most max_delta moves no rank's value further; the
    # rank swap permutes values, so it keeps the sorted sequence.
    if any(abs(u - v) > max_delta for u, v in zip(sorted(before), sorted(after))):
        problems.append(f"{noise_col} moved by more than {max_delta} at some rank")
    n = len(before)
    drift = abs(sum(after) - sum(before)) / n
    tol = 6.0 * math.sqrt(noise_var / n)
    if drift > tol:
        problems.append(f"{noise_col} mean moved by {drift:.3f} > {tol:.3f}")
    agg = col[agg_col]
    want_agg = univariate_microaggregate([int(r[agg]) for r in raw[1:]], k)
    bad = sum(int(r[agg]) != w for r, w in zip(released[1:], want_agg))
    if bad:
        problems.append(f"{bad} {agg_col} values differ from the recomputed run means")
    return problems


def check_metrics(out: dict, released, qi: list[str], sensitive: str) -> list[str]:
    header = released[0]
    qi_idx = [header.index(n) for n in qi]
    sens = header.index(sensitive)
    classes: dict[tuple, list] = {}
    for row in released[1:]:
        classes.setdefault(tuple(row[i] for i in qi_idx), []).append(row[sens])
    want = {
        "records": len(released) - 1,
        "qi": qi,
        "k": min(len(v) for v in classes.values()),
        "l": min(len(set(v)) for v in classes.values()),
        "sensitive": sensitive,
        "classes": [{"key": list(key), "size": len(v)} for key, v in classes.items()],
    }
    return [f"{key} differs from the recount" for key, value in want.items()
            if out.get(key) != value]


def check_mdav(raw, released, attributes: list[str], k: int):
    """MDAV output: rows kept and other columns untouched. Rows that share
    their aggregated values form a class; each class holds at least k rows,
    each value is the rounded mean of its members' raw values, and a class
    of 2k or more rows (more than one MDAV group) holds a single raw tuple.
    Returns (problems, SSE/SST of the aggregated attributes, each scaled to
    unit variance)."""
    header = raw[0]
    if released[0] != header or len(released) != len(raw):
        return ["header or row count changed"], None
    idx = [header.index(a) for a in attributes]
    problems = []
    for rowno, (a, b) in enumerate(zip(raw[1:], released[1:]), start=1):
        if any(a[i] != b[i] for i in range(len(header)) if i not in idx):
            problems.append(f"row {rowno}: a column outside {attributes} changed")
            break
    classes: dict[tuple, list[int]] = {}
    for rowno, row in enumerate(released[1:], start=1):
        classes.setdefault(tuple(row[i] for i in idx), []).append(rowno)
    for key, members in classes.items():
        if len(members) < k:
            problems.append(f"MDAV class {key} has {len(members)} < k={k} rows")
        elif len(members) >= 2 * k and len({tuple(raw[r][i] for i in idx)
                                            for r in members}) > 1:
            problems.append(f"MDAV class {key} has {len(members)} >= 2k rows of distinct tuples")
        for value, i in zip(key, idx):
            mean = round_half_away(Fraction(sum(int(raw[r][i]) for r in members),
                                            len(members)))
            if int(value) != mean:
                problems.append(f"MDAV class {key}: {header[i]} is not its members' mean {mean}")
        if len(problems) > 20:
            break
    loss = 0.0
    for i in idx:
        x = [int(r[i]) for r in raw[1:]]
        y = [int(r[i]) for r in released[1:]]
        mean = sum(x) / len(x)
        sst = sum((v - mean) ** 2 for v in x)
        loss += sum((u - v) ** 2 for u, v in zip(x, y)) / sst
    return problems, loss / len(idx)


# --- rule mining and secret sum ---------------------------------------------

def check_rules(out: dict, baskets, min_support: str, min_certainty: str,
                max_itemset: int) -> list[str]:
    """Derive the full rule set from the raw baskets and compare it with the
    output. Every itemset of 2 to max_itemset items is counted with per-item
    bitsets; each split A -> B of one whose support meets the decimal
    threshold is a rule when its certainty does too."""
    n = len(baskets)
    bitsets: dict[str, int] = {}
    for t, basket in enumerate(baskets):
        for item in basket:
            bitsets[item] = bitsets.get(item, 0) | (1 << t)
    everyone = (1 << n) - 1
    cache: dict[tuple, int] = {}

    def count(items: tuple) -> int:
        if items not in cache:
            acc = everyone
            for item in items:
                acc &= bitsets[item]
            cache[items] = acc.bit_count()
        return cache[items]

    sup_thr, cert_thr = Fraction(min_support), Fraction(min_certainty)
    want = set()
    for size in range(2, max_itemset + 1):
        for itemset in combinations(sorted(bitsets), size):
            whole = count(itemset)
            if Fraction(whole, n) < sup_thr:
                continue
            for r in range(1, size):
                for a in combinations(itemset, r):
                    if Fraction(whole, count(a)) >= cert_thr:
                        want.add((a, tuple(i for i in itemset if i not in a)))
    problems = []
    if out.get("transactions") != n:
        problems.append(f"transactions {out.get('transactions')!r}, expected {n}")
    rules = out.get("rules")
    if not isinstance(rules, list) or not rules:
        return problems + ["no rules emitted"]
    got = set()
    for rule in rules:
        a, b = tuple(rule["antecedent"]), tuple(rule["consequent"])
        got.add((a, b))
        if (a, b) not in want:
            continue
        whole, ante = count(tuple(sorted(a + b))), count(a)
        if not _close(rule["support"], whole / n, 1e-12) or not _close(
                rule["certainty"], whole / ante, 1e-12):
            problems.append(f"{a} -> {b}: support or certainty differs from the recount")
    if len(got) != len(rules):
        problems.append(f"{len(rules) - len(got)} rules emitted twice")
    for label, diff in (("missing", want - got), ("not a rule", got - want)):
        if diff:
            problems.append(f"{len(diff)} rules {label}, e.g. {sorted(diff)[0]}")
    return problems


def check_smc(out: dict, votes: list[int], modulus: int) -> list[str]:
    problems = []
    if out.get("sum") != sum(votes):
        problems.append(f"sum {out.get('sum')!r}, expected {sum(votes)}")
    if out.get("votes") != votes or out.get("modulus") != modulus:
        problems.append("votes or modulus not echoed")
    shares, aggregated = out.get("shares"), out.get("aggregated")
    n = len(votes)
    if not isinstance(shares, list) or len(shares) != n or any(len(r) != n for r in shares):
        return problems + ["share table is not n x n"]
    if aggregated != [sum(row[j] for row in shares) % modulus for j in range(n)]:
        problems.append("aggregated shares are not the column sums")
    return problems
