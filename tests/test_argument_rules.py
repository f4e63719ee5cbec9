"""The argument rules that many modules share are written once, in
``privkit/_value.py``: an int that is not a bool, a number that is not a
bool, and a collection that is not a bare str or bytes.

The AST checks below keep them there. A module other than ``_value.py``
that tests, in one boolean expression, ``isinstance(..., bool)`` together
with an ``isinstance`` naming ``int``, or an ``isinstance`` naming ``str``
or ``bytes`` together with ``isinstance(..., Iterable)``, spells a rule
again. Rules that differ on purpose are not these pairs: a probability
that need only compare with floats, a threshold with ``__float__``, and a
sized collection (``Collection``) of votes.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import privkit
from privkit._value import _check_int, _index, _is_collection, _is_int, _is_number
from privkit.errors import InvalidParams

SRC = Path(privkit.__file__).resolve().parent
HELPERS = {"_is_int", "_is_number", "_is_collection", "_check_int", "_index"}


def _names(node) -> set[str]:
    """The names a class argument of ``isinstance`` mentions."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def rule_spellings(directory: Path) -> list[str]:
    """``module.py:line`` of each boolean expression, outside ``_value.py``,
    that spells the int or the collection rule."""
    found = set()
    for path in sorted(directory.glob("*.py")):
        if path.name == "_value.py":
            continue
        for expr in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(expr, ast.BoolOp):
                continue
            classes = [_names(call.args[1]) for call in ast.walk(expr)
                       if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                       and call.func.id == "isinstance" and len(call.args) == 2]
            named = set().union(*classes)
            int_rule = {"bool"} in classes and "int" in set().union(
                *(c for c in classes if c != {"bool"}))
            collection_rule = "Iterable" in named and named & {"str", "bytes"}
            if int_rule or collection_rule:
                found.add(f"{path.name}:{expr.lineno}")
    return sorted(found)


def test_no_module_but_value_spells_an_argument_rule():
    assert rule_spellings(SRC) == []


def test_the_rule_finder_sees_each_spelling(tmp_path):
    (tmp_path / "spelled.py").write_text(
        "a = isinstance(x, bool) or not isinstance(x, int)\n"
        "b = isinstance(x, int) and not isinstance(x, bool)\n"
        "c = isinstance(x, bool) or not isinstance(x, int if y else (int, float))\n"
        "d = isinstance(x, (str, bytes)) or not isinstance(x, Iterable)\n"
        "e = isinstance(x, bytes) or not isinstance(x, abc.Iterable)\n"
        # each a different rule, kept where it is
        "f = 0.0 <= x <= 1.0 and not isinstance(x, bool)\n"
        "g = isinstance(x, bool) or not hasattr(x, '__float__')\n"
        "h = isinstance(x, (str, bytes)) or not isinstance(x, Collection)\n")
    assert rule_spellings(tmp_path) == [f"spelled.py:{line}" for line in range(1, 6)]


def test_the_rule_helpers_are_defined_only_in_value():
    defined = {
        f"{path.name}:{node.name}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in HELPERS
    }
    assert defined == {f"_value.py:{name}" for name in HELPERS}


@pytest.mark.parametrize("value,is_int,is_number,is_collection", [
    (3, True, True, False),
    (2**100, True, True, False),
    (True, False, False, False),
    (1.5, False, True, False),
    (float("nan"), False, True, False),
    (None, False, False, False),
    ("ab", False, False, False),
    (b"ab", False, False, False),
    ([1], False, False, True),
    ((), False, False, True),
    (iter("ab"), False, False, True),
    ({"a": 1}, False, False, True),
    (np.int64(3), False, False, False),
])
def test_each_rule(value, is_int, is_number, is_collection):
    assert (_is_int(value), _is_number(value), _is_collection(value)) == (
        is_int, is_number, is_collection)


def test_check_int_raises_the_given_class_naming_the_argument():
    _check_int("seed", 7)
    with pytest.raises(TypeError, match=r"^width must be an integer, got 2\.5$"):
        _check_int("width", 2.5)
    with pytest.raises(InvalidParams, match=r"^seed must be an integer, got True$"):
        _check_int("seed", True, InvalidParams)


def test_index_takes_what_operator_index_takes_but_a_bool():
    assert _index(3) == 3 and type(_index(np.int64(3))) is int
    for value in (True, False, 1.0, "1", None):
        with pytest.raises(TypeError):
            _index(value)
