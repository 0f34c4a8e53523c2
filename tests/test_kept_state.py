"""Derived state is kept one way: ``core._kept`` is the only code in
``src/multialg`` that names ``__dict__`` (as an attribute or a string) or
calls ``vars``, so no value or report is kept under a hand-named key."""

import ast
import os

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
