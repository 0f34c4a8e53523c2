"""Derived state is kept one way: ``core._kept`` is the only code in
``src/multialg`` that names ``__dict__`` (as an attribute or a string) or
calls ``vars``, so no value or report is kept under a hand-named key.  The
multigroups keep the tables they are given as tuples and frozensets, so
that a kept value can not go stale."""

import ast
import os

from multialg.core import (
    Carrier,
    FiniteMultigroup,
    RelationalMultigroup,
    to_relational,
)
from multialg.enumeration import _canonical_key, multigroup_canonical_key

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "multialg")


def _touches_dict(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__"
            or isinstance(node, ast.Constant) and node.value == "__dict__"
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "vars")


def _dict_sites(path: str) -> list:
    """(top-level definition or None, line) of each use of ``__dict__``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        out += [(owner, node.lineno) for node in ast.walk(top) if _touches_dict(node)]
    return out


def test_only_kept_touches_a_structures_dict():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "core.py" in modules
    sites = [(name, owner, line) for name in modules
             for owner, line in _dict_sites(os.path.join(SRC, name))]
    assert {(name, owner) for name, owner, _ in sites} == {("core.py", "_kept")}, sites


def test_multigroups_keep_their_fields_frozen():
    """A multigroup given lists, or a relational one given a set of triples,
    keeps them as tuples and a frozenset: it hashes as the tuple one does,
    and a key kept on it can not go stale when the caller's list changes."""
    carrier = Carrier(("0", "1"))
    op, inv = [[1, 2], [2, 3]], [0, 1]
    m = FiniteMultigroup(carrier, op, inv, 0)
    given = FiniteMultigroup(carrier, ((1, 2), (2, 3)), (0, 1), 0)
    assert m == given and hash(m) == hash(given)
    kept = multigroup_canonical_key(m)
    op[1][1], inv[1] = 1, 0
    assert kept == _canonical_key(m) == _canonical_key(given)
    rel = to_relational(given)
    listed = RelationalMultigroup(carrier, set(rel.pi), list(rel.inv), 0)
    assert listed == rel and hash(listed) == hash(rel)
    assert type(listed.pi) is frozenset and type(listed.inv) is tuple
