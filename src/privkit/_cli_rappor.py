"""The RAPPOR commands of the CLI: ``rappor encode``, ``report``,
``epsilon``, ``simulate`` and ``estimate``, and ``dpcheck``. ``privkit.cli``
imports this module only to run one of them."""

from __future__ import annotations

import math
import random
from typing import Callable, Optional

from ._cli_common import _comma_ints, _is_string_list, _lazy, _load_json_arg, _write_atomic
from .errors import ConfigError, DomainError, InvalidParams

dpcheck = _lazy("dpcheck")
rappor = _lazy("rappor")


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
