"""Every annotation in privkit names something its module can resolve.

Modules use ``from __future__ import annotations``, so an annotation naming
a module imported only inside a function (say, ``np``) fails only when a
tool such as ``typing.get_type_hints`` evaluates it.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import privkit


def _annotated(module):
    """The functions, classes and methods defined in ``module``."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj.__qualname__, obj
        elif inspect.isclass(obj):
            yield obj.__qualname__, obj
            for name, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{obj.__qualname__}.{name}", member


@pytest.mark.parametrize("module_name", sorted(
    f"privkit.{m.name}" for m in pkgutil.iter_modules(privkit.__path__)))
def test_type_hints_resolve(module_name):
    module = importlib.import_module(module_name)
    unresolved = {}
    for qualname, obj in _annotated(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved[qualname] = str(exc)
    assert unresolved == {}
