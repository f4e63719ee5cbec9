"""The argument rules that many modules share are written once, in
``privkit/_value.py``: an int that is not a bool, a number that is not a
bool, a collection that is not a bare str or bytes, an ordered vector (a
collection that is not a set or a mapping either), and JSON that is
malformed or nested too deep (``_loads``). The rule that a bit vector holds
``params.k`` bits is written once too, in ``rappor._check_length``.

The AST checks below keep them there. A module other than ``_value.py``
that tests, in one boolean expression, ``isinstance(..., bool)`` together
with an ``isinstance`` naming ``int``, or an ``isinstance`` naming ``str``
or ``bytes`` together with ``isinstance(..., Iterable)`` or ``hasattr(...,
"__iter__")``, spells a rule again; so does an ``isinstance`` that names a
set class (``Set``, ``AbstractSet``, ``set`` or ``frozenset``), one that
calls ``json.loads`` or catches ``RecursionError``, and an f-string outside
``_check_length`` that says ``bits, params say``. Rules that differ on
purpose are not these: a probability that need only compare with floats, a
threshold with ``__float__``, a sized collection (``Collection`` or
``__len__``) of votes or factors, and a JSON object that must be a
``Mapping`` or a ``dict``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import privkit
from privkit._value import _check_int, _index, _is_collection, _is_int, _is_number, _is_vector
from privkit.anonymize import suppress
from privkit.assoc import TransactionSet
from privkit.dataset import fixture_table1
from privkit.errors import InvalidParams
from privkit.smc import lagrange_at

SRC = Path(privkit.__file__).resolve().parent
HELPERS = {"_is_int", "_is_number", "_is_collection", "_is_vector", "_check_int", "_index",
           "_loads"}
WIDTH_HELPER = "_check_length"
SET_CLASSES = {"Set", "AbstractSet", "set", "frozenset"}


def _names(node) -> set[str]:
    """The names a class argument of ``isinstance`` mentions."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def spells_a_rule(node) -> bool:
    """Whether ``node`` spells the int, collection, vector, JSON or width
    rule."""
    if isinstance(node, ast.Call):
        return _names(node.func) == {"json", "loads"} or (
            isinstance(node.func, ast.Name) and node.func.id == "isinstance"
            and len(node.args) == 2 and bool(_names(node.args[1]) & SET_CLASSES))
    if isinstance(node, ast.ExceptHandler):
        return node.type is not None and "RecursionError" in _names(node.type)
    if isinstance(node, ast.JoinedStr):
        return any(isinstance(part, ast.Constant) and "bits, params say" in part.value
                   for part in node.values)
    if not isinstance(node, ast.BoolOp):
        return False
    calls = [call for call in ast.walk(node) if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Name) and len(call.args) == 2]
    classes = [_names(call.args[1]) for call in calls if call.func.id == "isinstance"]
    named = set().union(*classes)
    int_rule = {"bool"} in classes and "int" in set().union(
        *(c for c in classes if c != {"bool"}))
    iterable = "Iterable" in named or any(
        call.func.id == "hasattr" and isinstance(call.args[1], ast.Constant)
        and call.args[1].value == "__iter__" for call in calls)
    return int_rule or bool(iterable and named & {"str", "bytes"})


def rule_spellings(directory: Path) -> list[str]:
    """``module.py:line`` of each node, outside ``_value.py`` and the width
    helper, that spells a shared rule."""
    found = set()
    for path in sorted(directory.glob("*.py")):
        if path.name == "_value.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        helper = {node for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == WIDTH_HELPER
                  for node in ast.walk(fn)}
        found.update((path.name, node.lineno) for node in ast.walk(tree)
                     if node not in helper and spells_a_rule(node))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_no_module_but_value_spells_an_argument_rule():
    assert rule_spellings(SRC) == []


def test_the_rule_finder_sees_each_spelling(tmp_path):
    (tmp_path / "spelled.py").write_text(
        "a = isinstance(x, bool) or not isinstance(x, int)\n"
        "b = isinstance(x, int) and not isinstance(x, bool)\n"
        "c = isinstance(x, bool) or not isinstance(x, int if y else (int, float))\n"
        "d = isinstance(x, (str, bytes)) or not isinstance(x, Iterable)\n"
        "e = isinstance(x, bytes) or not isinstance(x, abc.Iterable)\n"
        "i = isinstance(x, (str, bytes)) or not hasattr(x, '__iter__')\n"
        "j = json.loads(text)\n"
        "try: k = 1\n"
        "except (ValueError, RecursionError): pass\n"
        "m = f'{n} bits, params say {k}'\n"
        "q = isinstance(x, (Set, Mapping))\n"
        "r = isinstance(x, abc.Mapping) or isinstance(x, abc.Set)\n"
        "s = _is_collection(x) and not isinstance(x, (dict, set, frozenset))\n"
        # each a different rule, kept where it is
        "f = 0.0 <= x <= 1.0 and not isinstance(x, bool)\n"
        "g = isinstance(x, bool) or not hasattr(x, '__float__')\n"
        "h = isinstance(x, (str, bytes)) or not isinstance(x, Collection)\n"
        "n = isinstance(x, (str, bytes)) or not hasattr(x, '__len__')\n"
        "o = json.dumps(x)\n"
        "p = f'{n} bit counts, params say {k}'\n"
        "t = isinstance(x, Mapping)\n"
        "u = not isinstance(x, dict)\n"
        "def _check_length(what, bits, k):\n"
        "    raise E(f'{what} has {len(bits)} bits, params say {k}')\n")
    assert rule_spellings(tmp_path) == [
        f"spelled.py:{line}" for line in (*range(1, 8), 9, 10, 11, 12, 13)]


def test_the_rule_helpers_are_defined_only_in_value():
    defined = {
        f"{path.name}:{node.name}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in HELPERS | {WIDTH_HELPER}
    }
    assert defined == {f"_value.py:{name}" for name in HELPERS} | {f"rappor.py:{WIDTH_HELPER}"}


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


@pytest.mark.parametrize("value,is_vector", [
    ([1], True),
    ((), True),
    (iter("ab"), True),
    (np.array([0.5]), True),
    ({"a": 1}.values(), True),
    ({0.5}, False),
    (frozenset(), False),
    ({"a": 1}, False),
    ({"a": 1}.keys(), False),
    ("ab", False),
    (5, False),
])
def test_is_vector(value, is_vector):
    assert _is_vector(value) is is_vector


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


def failing_iterable():
    """A collection whose iteration raises the caller's own TypeError."""
    yield len(5)


@pytest.mark.parametrize("call", [
    lambda: TransactionSet.from_iterables([failing_iterable()]),
    lambda: suppress(fixture_table1(), failing_iterable()),
    lambda: lagrange_at(failing_iterable(), 0, 7),
], ids=["from_iterables-basket", "suppress-attributes", "lagrange_at-points"])
def test_a_collection_reader_passes_on_the_callers_own_error(call):
    # once reported as "... must be a collection of ...", which it is
    with pytest.raises(TypeError) as info:
        call()
    assert type(info.value) is TypeError
    assert str(info.value) == "object of type 'int' has no len()"
