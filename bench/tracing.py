"""In-process tracing of privkit's public functions, one span per call.

``Tracer.patched()`` replaces each function in ``TARGETS`` with a wrapper
that records a span (name, start, end, parent span) and returns exactly what
the wrapped call returned. A function is replaced wherever a privkit module
holds it, so names bound by ``from ... import`` are traced too; methods are
replaced on their class. Spans stay in memory until ``summarize``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

MODULES = ("cli", "dataset", "anonymize", "rappor", "dpcheck", "smc", "assoc")


def _len(key):
    return lambda result: ((key, len(result)),)


# (module, attribute or Class.attribute, span name, counter of the result)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("dataset", "load_csv", "dataset.load_csv", _len("dataset.load_csv_rows")),
    ("dataset", "write_csv", "dataset.write_csv", None),
    ("dataset", "Dataset.replace_column", "dataset.replace_column", None),
    ("anonymize", "suppress", "anonymize.suppress", None),
    ("anonymize", "generalize", "anonymize.generalize", None),
    ("anonymize", "add_noise", "anonymize.add_noise", None),
    ("anonymize", "swap_values", "anonymize.swap_values", None),
    ("anonymize", "rank_swap", "anonymize.rank_swap", None),
    ("anonymize", "microaggregate_univariate", "anonymize.microaggregate_univariate", None),
    ("anonymize", "microaggregate_multivariate", "anonymize.microaggregate_multivariate",
     None),
    ("anonymize", "mdav_groups", "anonymize.mdav_groups", _len("anonymize.mdav_groups")),
    ("anonymize", "aggregate_groups", "anonymize.aggregate_groups", None),
    ("anonymize", "equivalence_classes", "anonymize.equivalence_classes",
     lambda r: (("anonymize.classes", len(r.classes)),)),
    ("anonymize", "k_anonymity", "anonymize.k_anonymity", None),
    ("anonymize", "l_diversity", "anonymize.l_diversity", None),
    ("rappor", "RapporParams.digest", "rappor.digest", None),
    ("rappor", "simulate_reports", "rappor.simulate_reports", None),
    ("rappor", "bloom_encode", "rappor.bloom_encode", None),
    ("rappor", "prr", "rappor.prr", None),
    ("rappor", "irr", "rappor.irr", lambda r: (("rappor.bits", len(r.bits)),)),
    ("rappor", "Report.envelope", "rappor.envelope", None),
    ("rappor", "Report.from_envelope", "rappor.from_envelope", None),
    ("rappor", "estimate_counts", "rappor.estimate_counts", None),
    ("dpcheck", "prr_distribution", "dpcheck.prr_distribution",
     lambda r: (("dpcheck.outcomes", 1 << r.k),)),
    ("dpcheck", "report_distribution", "dpcheck.report_distribution",
     lambda r: (("dpcheck.outcomes", 1 << r.k),)),
    ("dpcheck", "exact_epsilon", "dpcheck.exact_epsilon", None),
    ("assoc", "TransactionSet.from_iterables", "assoc.from_iterables", None),
    ("assoc", "solid_rules", "assoc.solid_rules", _len("assoc.rules")),
    ("assoc", "support_count", "assoc.support_count", None),
    # Private, but its result is the only place a candidate is judged frequent.
    ("assoc", "_count_and_keep", "assoc.count_and_keep",
     lambda r: (("assoc.frequent", int(r)),)),
    ("smc", "secret_sum_transcript", "smc.transcript", None),
    ("smc", "evaluate", "smc.evaluate", None),
    ("smc", "lagrange_at", "smc.lagrange_at", None),
]


# Spans whose own time is not a metric: cli.main is the whole call, and
# count_and_keep only feeds assoc.frequent_ratio.
_NO_TIME_METRIC = {"cli.main", "assoc.count_and_keep"}


class Tracer:
    """Spans and counts of one traced pass; make a new one for each pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.roots: list[tuple[str, int]] = []  # (call label, root span index)

    def _wrap(self, name, fn, counter):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts = self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                for key, inc in counter(result):
                    counts[key] += inc
            return result

        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers, and restore the originals on exit."""
        restore = []
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "privkit" or n.startswith("privkit."))]
        try:
            for module_name, attr, span, counter in TARGETS:
                module = sys.modules["privkit." + module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    if isinstance(original, classmethod):
                        wrapper = classmethod(self._wrap(span, original.__func__, counter))
                    else:
                        wrapper = self._wrap(span, original, counter)
                    restore.append((cls, meth, original))
                    setattr(cls, meth, wrapper)
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(span, original, counter)
                for holder in modules:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            restore.append((holder, name, original))
                            setattr(holder, name, wrapper)
            yield
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)

    def summarize(self) -> dict:
        """Per span name: total inclusive time and calls. Per module: busy
        time (spans with no ancestor of the same module), self time (span
        time not covered by child spans) and calls. Per root call label:
        the self time of its cli span."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        n = len(names)
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += ends[i] - starts[i]
        dur = defaultdict(float)
        calls = Counter()
        busy = dict.fromkeys(MODULES, 0.0)
        self_s = dict.fromkeys(MODULES, 0.0)
        mod_calls = dict.fromkeys(MODULES, 0)
        module_of = [name.split(".", 1)[0] for name in names]
        for i in range(n):
            d = ends[i] - starts[i]
            name, module = names[i], module_of[i]
            dur[name] += d
            calls[name] += 1
            self_s[module] += d - child[i]
            mod_calls[module] += 1
            p = parents[i]
            while p >= 0 and module_of[p] != module:
                p = parents[p]
            if p < 0:
                busy[module] += d
        root_self = defaultdict(float)
        for label, i in self.roots:
            root_self[label] += ends[i] - starts[i] - child[i]
        return {"dur": dur, "calls": calls, "busy": busy, "self": self_s,
                "module_calls": mod_calls, "root_self": root_self,
                "counts": Counter(self.counts)}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.starts[i], self.ends[i], self.parents[i]]))
                fh.write("\n")


def layer_metrics(s: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass, from ``summarize``."""
    dur, calls, counts = s["dur"], s["calls"], s["counts"]
    out: dict[str, float] = {}
    for m in MODULES:
        out[f"{m}.busy_s"] = s["busy"][m]
        out[f"{m}.self_s"] = s["self"][m]
        out[f"{m}.calls"] = s["module_calls"][m]
    out["cli.simulate.self_s"] = s["root_self"].get("simulate", 0.0)
    out["cli.estimate.self_s"] = s["root_self"].get("estimate", 0.0)
    out["cli.stdout_bytes"] = counts["cli.stdout_bytes"]
    for _, _, span, _ in TARGETS:
        if span not in _NO_TIME_METRIC:
            out[span + "_s"] = dur[span]
    for span in ("rappor.bloom_encode", "rappor.prr", "rappor.irr", "rappor.digest",
                 "dataset.replace_column", "assoc.support_count", "smc.evaluate"):
        out[span + "_calls"] = calls[span]
    out["rappor.bits"] = counts["rappor.bits"]
    out["rappor.ns_per_bit"] = (1e9 * dur["rappor.simulate_reports"] / counts["rappor.bits"]
                                if counts["rappor.bits"] else 0.0)
    out["rappor.from_envelope_rejected"] = counts["rappor.from_envelope.raised"]
    out["dpcheck.distribution_s"] = (dur["dpcheck.prr_distribution"]
                                     + dur["dpcheck.report_distribution"])
    out["dpcheck.outcomes"] = counts["dpcheck.outcomes"]
    out["dataset.load_csv_rows"] = counts["dataset.load_csv_rows"]
    out["anonymize.mdav_groups"] = counts["anonymize.mdav_groups"]
    out["anonymize.classes"] = counts["anonymize.classes"]
    out["assoc.rules"] = counts["assoc.rules"]
    out["assoc.frequent_ratio"] = (counts["assoc.frequent"] / calls["assoc.count_and_keep"]
                                   if calls["assoc.count_and_keep"] else 0.0)
    return out
