"""The structures on a labelled carrier share one base, and ``cli`` names a
structure's kind only by ``io.kind_of``: it makes no ``isinstance`` test
against a structure class."""

import ast
import dataclasses
import os

import pytest

from multialg import core
from multialg import io as mio
from multialg.real_semigroups import RealSemigroup
from multialg.special_groups import SpecialGroup

CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "multialg", "cli.py")

FIELDS = {
    core.FiniteMultigroup: ("carrier", "op", "inv", "identity"),
    core.RelationalMultigroup: ("carrier", "pi", "inv", "identity"),
    core.FiniteMultiring: ("carrier", "add", "mul", "neg", "zero", "one"),
    SpecialGroup: ("carrier", "mul", "one", "minus_one", "iso", "closure_added"),
    RealSemigroup: ("carrier", "mul", "one", "zero", "minus_one", "d"),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_one_carrier_base_and_the_fields_in_their_order(cls):
    assert issubclass(cls, core._OnCarrier)
    assert "size" not in vars(cls) and "names" not in vars(cls)
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]


def test_the_base_gives_size_and_names():
    g = core.ring_multiring(5).additive_multigroup()
    rel = core.to_relational(g)
    for obj in (g, rel):
        assert (obj.size, obj.names) == (5, ("0", "1", "2", "3", "4"))


def _class_names(node: ast.AST) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_cli_tests_no_structure_class():
    structures = {entry.cls.__name__ for entry in mio._KINDS.values()}
    structures |= {cls.__name__ for cls in core._OnCarrier.__subclasses__()}
    assert {"FiniteMultiring", "RelationalMultigroup", "SignSpace"} <= structures
    with open(CLI, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), CLI)
    tests = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id in ("isinstance", "issubclass")]
    assert tests, "the scan found no isinstance call at all"
    found = [(node.lineno, sorted(_class_names(node.args[1]) & structures))
             for node in tests if _class_names(node.args[1]) & structures]
    assert found == []
