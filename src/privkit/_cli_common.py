"""Helpers shared by the command families of the CLI: library modules
executed on first use, JSON arguments, name lists, and output files
written whole."""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import tempfile
from typing import Iterable

from .errors import ConfigError, UsageError


def _lazy(name: str):
    """The sibling module ``name``, in ``sys.modules`` at once but executed
    only when one of its attributes is first used, so a call runs only the
    modules it needs. A module imported already is returned as it is.
    ``privkit.cli`` registers every library module so, because
    ``bench/tracing.py`` patches each one it finds in ``sys.modules`` right
    after importing the CLI; the command families take theirs from here."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


dset = _lazy("dataset")


def _write_atomic(path: str, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to a temp file and rename it over ``path``. A symlink
    is followed, so the link stays and its target is replaced; an existing
    output that is not a regular file (a FIFO, a device) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    target = os.path.realpath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".privkit-")
    except OSError as exc:  # its message names the temp file, a name the user never gave
        raise type(exc)(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_json_arg(text: str):
    """Inline JSON, or @path to read it from a file."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ConfigError(f"not valid JSON: {exc}") from exc


def _load_dataset(input_path: str, schema_path: str) -> dset.Dataset:
    with open(schema_path, "r", encoding="utf-8") as fh:
        schema = dset.Schema.from_json(fh.read())
    with open(input_path, "rb") as fh:
        return dset.load_csv(fh, schema)


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _comma_names(text: str) -> list[str]:
    names = [n for n in text.split(",") if n]
    if not names:
        raise UsageError(f"expected a comma-separated name list, got {text!r}")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise UsageError(f"name {name!r} is given twice in {text!r}")
    return names


def _comma_ints(text: str) -> list[int]:
    try:
        return [int(n) for n in text.split(",") if n != ""]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc
