"""The ``smc demo`` command of the CLI. ``privkit.cli`` imports this
module only to run it."""

from __future__ import annotations

import random

from ._cli_common import _comma_ints, _lazy

smc = _lazy("smc")


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
