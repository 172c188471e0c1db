"""Checks on the library's source text itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "finq").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """python -O strips assert, so an invariant must raise
    InvariantViolated instead."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert on lines {lines}"


def _coercions(tree):
    """(line, name) of each np.asarray / np.array call with dtype=np.int64
    or dtype=bool whose first argument is a parameter of the enclosing
    function, or a self field in __init__ / __post_init__."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        params = {a.arg for a in ast.walk(func.args)
                  if isinstance(a, ast.arg)}
        init = func.name in ("__init__", "__post_init__")
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and call.args
                    and ast.unparse(call.func) in ("np.asarray", "np.array")
                    and any(k.arg == "dtype" and ast.unparse(k.value)
                            in ("np.int64", "bool") for k in call.keywords)):
                continue
            arg = call.args[0]
            if (isinstance(arg, ast.Name) and arg.id in params) or (
                    init and isinstance(arg, ast.Attribute)
                    and ast.unparse(arg.value) == "self"):
                found.append((call.lineno, ast.unparse(arg)))
    return sorted(set(found))


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "lattice.py"],
                         ids=lambda p: p.name)
def test_caller_input_goes_through_the_boundary(path):
    """Index tables, map images and relations a caller hands finq are
    checked by lattice._index_array and lattice._bool_table; a bare
    np.asarray(..., dtype=np.int64 or bool) on such input would truncate
    a float or read a string as true instead."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = _coercions(tree)
    assert found == [], f"{path.name} coerces caller input at {found}"


def _json_conversions(tree):
    """Lines of .tolist() calls and of comprehensions that call int()."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
                ".tolist"):
            found.append(node.lineno)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)) \
                and any(isinstance(call, ast.Call)
                        and ast.unparse(call.func) == "int"
                        for call in ast.walk(node.elt)):
            found.append(node.lineno)
    return sorted(set(found))


def test_cli_leaves_json_to_formats():
    """The verbs put the library's arrays into their reports as they are;
    finq.formats alone turns numpy values into JSON."""
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = _json_conversions(tree)
    assert found == [], f"cli.py converts numpy values on lines {found}"
