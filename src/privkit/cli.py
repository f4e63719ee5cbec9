"""Command-line entry point.

Structured JSON goes to stdout, human-readable logs to stderr. Exit codes:
0 success, 1 usage error, 2 data/validation error. Every randomized
subcommand takes an explicit ``--seed``, so identical invocations produce
byte-identical output. Output files are written to a temp file and renamed,
never left half-written; an output that is not a regular file, such as a
FIFO, is written in place.

``main()`` returns the exit code and never ends the process, so a caller
can run it in process. ``python -m privkit.cli`` and the installed
``privkit`` script end the process after it through ``_exit``: as when the
interpreter finalizes, the exit handlers registered with ``atexit`` run and
then stdout and stderr are flushed, but no module is torn down. Where that
cannot be done as the interpreter would do it, the interpreter finalizes
as usual.
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import json
import os
import sys
from typing import NoReturn, Optional, Sequence

# _write_atomic is the CLI's writer of output files, tested as this module's.
from ._cli_common import _lazy, _write_atomic  # noqa: F401
from .errors import PrivkitError, UsageError

OUTPUT_VERSION = 1

# Every library module is in sys.modules from this import on, and executed
# only when a handler first uses it (see _lazy). So is _partition, whose
# functions metrics calls directly and bench/tracing.py wraps.
for _module in ("_partition", "anonymize", "assoc", "dataset", "dpcheck", "rappor", "smc"):
    _lazy(_module)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting the process."""

    def error(self, message):
        raise UsageError(message)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        family, name = args.handler
        handler = getattr(importlib.import_module(f"{__package__}._cli_{family}"), name)
        result = {"version": OUTPUT_VERSION, **handler(args)}
        # a NaN or infinity raises ValueError rather than print a token that is not JSON
        print(json.dumps(result, sort_keys=True, allow_nan=False))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PrivkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


# --- the commands -----------------------------------------------------------

# Each command, declared once: its help (None for none), then either a table
# of its subcommands in this form, or the family whose module,
# privkit._cli_<family>, holds its handler, _cmd_<command>[_<subcommand>],
# and the arguments of its parser. An argument is (flag, keywords); a list
# of them is a group of which exactly one must be given.
_REQUIRED = {"required": True}
_PARAMS = ("--params", _REQUIRED)
_SEED = ("--seed", {"type": int, "required": True})

_COMMANDS = {
    "fixtures": ("bundled example data", {
        "export": ("write a fixture as CSV", "table", [
            ("--name", {"choices": ["table1", "table2"], "required": True}),
            ("--output", _REQUIRED),
            ("--schema-output", {}),
        ]),
    }),
    "anonymize": ("run a transform pipeline from JSON config", "anonymize", [
        ("--config", _REQUIRED),
    ]),
    "metrics": ("k-anonymity / l-diversity of a CSV", "table", [
        ("--input", _REQUIRED),
        ("--schema", _REQUIRED),
        ("--qi", {"required": True, "help": "comma-separated quasi-identifiers"}),
        ("--sensitive", {}),
    ]),
    "rappor": ("randomized-response reporting pipeline", {
        "encode": (None, "rappor", [
            ("--params", {"required": True, "help": "JSON {k,h,f,p,q,hash_seed} or @file"}),
            ("--value", _REQUIRED),
        ]),
        "report": (None, "rappor", [
            _PARAMS, ("--value", _REQUIRED), ("--secret", _REQUIRED), _SEED,
        ]),
        "epsilon": (None, "rappor", [_PARAMS]),
        "simulate": (None, "rappor", [
            _PARAMS,
            ("--clients", {"type": _non_negative_int, "required": True}),
            ("--dist", {"required": True, "help": "JSON file: value -> share"}),
            _SEED,
            ("--output", _REQUIRED),
        ]),
        "estimate": (None, "rappor", [
            _PARAMS, ("--reports", _REQUIRED), ("--candidates", _REQUIRED),
        ]),
    }),
    "dpcheck": ("exact epsilon vs closed form", "rappor", [
        _PARAMS,
        ("--mode", {"choices": ["prr", "report"], "required": True}),
        ("--bits1", {"required": True, "help": "set bit indices of the first filter"}),
        ("--bits2", {"required": True, "help": "set bit indices of the second filter"}),
    ]),
    "smc": ("secret-sum protocol", {
        "demo": (None, "smc", [
            ("--votes", {"required": True, "help": "comma-separated votes"}),
            ("--modulus", {"type": int}),
            _SEED,
        ]),
    }),
    "assoc": ("association rule mining", {
        "mine": (None, "assoc", [
            [("--input", {"help": "JSON transactions file"}),
             ("--input-csv", {"help": "derive transactions from a dataset CSV"})],
            ("--schema", {"help": "schema JSON, required with --input-csv"}),
            ("--include-qi",
             {"help": "quasi-identifiers to add as items alongside sensitive values"}),
            ("--min-support", {"type": float, "default": 0.35}),
            ("--min-certainty", {"type": float, "default": 0.60}),
            ("--max-itemset", {"type": int, "default": 3}),
        ]),
    }),
}


def _build_parser(argv: Sequence[str]) -> _Parser:
    """The parser of the command and subcommand that ``argv`` starts with.
    A level that argv names nothing of (no argument, an option such as
    ``-h``, or an unknown name) gets all of its commands, so that help and
    every usage error read as the whole tree's."""
    # --help shows the first two paragraphs of the module docstring, the
    # ones about using the command
    parser = _Parser(prog="privkit", description="\n\n".join(__doc__.split("\n\n")[:2]))
    _add_commands(parser, "command", _COMMANDS, argv, "_cmd")
    return parser


def _add_commands(parser: _Parser, dest: str, commands: dict, argv: Sequence[str],
                  handler: str) -> None:
    """Add ``commands`` to ``parser`` as the choices of ``dest``; a command
    is run by the function ``<handler>_<name>`` of its family's module."""
    sub = parser.add_subparsers(dest=dest, required=True)
    named = argv[:1] if argv and argv[0] in commands else ()
    for name in named or commands:
        help_text, *rest = commands[name]
        # a help of None would still list the command in its parent's help
        command = sub.add_parser(name, **({} if help_text is None else {"help": help_text}))
        if isinstance(rest[0], dict):
            _add_commands(command, "subcommand", rest[0], argv[1:] if named else (),
                          f"{handler}_{name}")
            continue
        family, arguments = rest
        for argument in arguments:
            group = isinstance(argument, list)
            target = command.add_mutually_exclusive_group(required=True) if group else command
            for flag, keywords in argument if group else [argument]:
                target.add_argument(flag, **keywords)
        command.set_defaults(handler=(family, f"{handler}_{name}"))


def run() -> NoReturn:
    """The installed ``privkit`` script: ``main()``, then ``_exit``, also
    after the ``SystemExit`` that argparse raises once it has printed help."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's parser.exit, an int status
        code = exc.code
    _exit(code)


def _exit(code: int) -> NoReturn:
    """End the process with ``code`` as finalizing the interpreter would end
    it, without tearing its modules down: run the ``atexit`` handlers (which
    also clears them), flush stdout and stderr, then ``os._exit``. A flush
    that fails, or ``python -i``, falls back to ``sys.exit``, and the
    interpreter reports and exits as it always has."""
    if not sys.flags.inspect:
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                # the interpreter skips a stream that is None (its fd was
                # closed at start-up) or closed
                if stream is not None and not stream.closed:
                    stream.flush()
        except Exception:
            pass  # finalizing flushes again and reports the error as it always has
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    # runpy.run_module runs this block in a namespace of its own, in a
    # process that belongs to its host: end only a process this module runs
    if vars(sys.modules["__main__"]) is globals():
        run()
    sys.exit(main())
