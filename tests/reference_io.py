"""The structure-file writer and label readers as they were before the
canonical writer.

``to_document`` and ``serialize`` are the writer that built a document per
kind and handed it to ``json.dumps(indent=2, ensure_ascii=False)``, whose
pure-Python encoder yielded the text a few characters at a time.
``tests/test_io_kernel.py`` pins the library's ``serialize`` to its bytes,
and the library's ``to_document`` to its documents.

``multigroup_from_labels`` and ``multiring_from_labels`` are the readers
that looked each label up in a Python loop, and ``validate_cell_table`` and
``validate_value_table`` the validators that tested each entry in one.
``make_special_group`` and ``make_real_semigroup`` are the readers that
looked up each value-table label, and each isometry label, through
``Carrier.index``, and ``nested`` the field shape test that checked each
tuple's arity in a Python loop.  The ``LoopChecked`` classes are the
multigroup, multiring and real semigroup with the validation they had then;
the special group's is ``reference_audits.LoopCheckedSpecialGroup``.
``_freeze_tables`` is the step that froze their tables then, a scan of its
own after the validation; it is kept verbatim for them.
``parse`` is the library's reader with these in place of the library's
builders and shape test, so its structures, and the messages they raise, are
the old reader's.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Any, Iterable, Optional, Sequence
from unittest import mock

from multialg import io as mio
from multialg.special_groups import _close_iso
from multialg.core import (
    Carrier,
    FiniteMultigroup,
    FiniteMultiring,
    InputError,
    _validate_unary,
    bits,
    full_mask,
    mask_of,
)
from multialg.io import Structure, kind_of
from multialg.real_semigroups import RealSemigroup
from multialg.special_groups import SpecialGroup

from reference_audits import LoopCheckedSpecialGroup


def to_document(obj: Structure, name: Optional[str] = None) -> dict[str, Any]:
    doc: dict[str, Any] = {"kind": kind_of(obj)}
    if name:
        doc["name"] = name
    if isinstance(obj, FiniteMultiring):
        names = obj.names
        doc["elements"] = list(names)
        doc["zero"] = names[obj.zero]
        doc["one"] = names[obj.one]
        doc["neg"] = {names[i]: names[v] for i, v in enumerate(obj.neg)}
        doc["mul"] = [[names[v] for v in row] for row in obj.mul]
        doc["add"] = [[[names[c] for c in bits(cell)] for cell in row]
                      for row in obj.add]
    elif isinstance(obj, FiniteMultigroup):
        names = obj.carrier.names
        doc["elements"] = list(names)
        doc["identity"] = names[obj.identity]
        doc["inv"] = {names[i]: names[v] for i, v in enumerate(obj.inv)}
        doc["op"] = [[[names[c] for c in bits(cell)] for cell in row]
                     for row in obj.op]
    elif isinstance(obj, SpecialGroup):
        names = obj.names
        doc["elements"] = list(names)
        doc["one"] = names[obj.one]
        doc["minus_one"] = names[obj.minus_one]
        doc["mul"] = [[names[v] for v in row] for row in obj.mul]
        doc["iso"] = sorted([names[a], names[b], names[c], names[d]]
                            for (a, b, c, d) in obj.iso)
    elif isinstance(obj, RealSemigroup):
        names = obj.names
        doc["elements"] = list(names)
        doc["one"] = names[obj.one]
        doc["zero"] = names[obj.zero]
        doc["minus_one"] = names[obj.minus_one]
        doc["mul"] = [[names[v] for v in row] for row in obj.mul]
        doc["d"] = sorted([names[a], names[b], names[c]]
                          for b in range(obj.size) for c in range(obj.size)
                          for a in bits(obj.d[b][c]))
    else:
        doc["mode"] = obj.mode
        doc["points"] = list(obj.points)
        doc["functions"] = [list(f) for f in obj.functions]
    return doc


def serialize(obj: Structure, name: Optional[str] = None) -> str:
    return json.dumps(to_document(obj, name), indent=2,
                      ensure_ascii=False) + "\n"


def validate_cell_table(what: str, table: Sequence[Sequence[int]], n: int) -> None:
    if len(table) != n:
        raise InputError(f"{what} table has {len(table)} rows, carrier has {n}")
    top = full_mask(n)
    for i, row in enumerate(table):
        if len(row) != n:
            raise InputError(f"{what} row {i} has {len(row)} cells, expected {n}")
        for j, cell in enumerate(row):
            if cell == 0:
                raise InputError(f"empty {what} cell at ({i},{j})")
            if cell & ~top:
                raise InputError(f"{what} cell at ({i},{j}) indexes outside carrier")


def validate_value_table(what: str, table: Sequence[Sequence[int]], n: int) -> None:
    if len(table) != n:
        raise InputError(f"{what} table has {len(table)} rows, carrier has {n}")
    for i, row in enumerate(table):
        if len(row) != n:
            raise InputError(f"{what} row {i} has {len(row)} cells, expected {n}")
        for j, v in enumerate(row):
            if not 0 <= v < n:
                raise InputError(f"{what} cell at ({i},{j}) out of range")


def _freeze_tables(obj, *names: str) -> None:
    """Keep the named tables of a frozen structure as tuples of tuples, so
    that the values kept on it (``_kept``, the audit reports) can not go
    stale through a row given as a list and changed later.  Tables that
    are tuples already stay shared with their source."""
    for name in names:
        table = getattr(obj, name)
        if type(table) is not tuple or any(type(row) is not tuple for row in table):
            object.__setattr__(obj, name, tuple(map(tuple, table)))


class LoopCheckedMultigroup(FiniteMultigroup):
    def __post_init__(self) -> None:
        n = self.carrier.size
        validate_cell_table("hyperoperation", self.op, n)
        _validate_unary("inv", self.inv, n)
        if not 0 <= self.identity < n:
            raise InputError("identity index out of range")


class LoopCheckedMultiring(FiniteMultiring):
    def __post_init__(self) -> None:
        n = self.carrier.size
        validate_cell_table("addition", self.add, n)
        validate_value_table("multiplication", self.mul, n)
        _validate_unary("neg", self.neg, n)
        for idx, what in ((self.zero, "zero"), (self.one, "one")):
            if not 0 <= idx < n:
                raise InputError(f"{what} index out of range")
        _freeze_tables(self, "add", "mul")
        object.__setattr__(self, "neg", tuple(self.neg))


class LoopCheckedRealSemigroup(RealSemigroup):
    def __post_init__(self) -> None:
        n = self.carrier.size
        if len(self.mul) != n or any(len(r) != n for r in self.mul):
            raise InputError("ragged multiplication table")
        for row in self.mul:
            for v in row:
                if not 0 <= v < n:
                    raise InputError("multiplication entry out of range")
        for what, idx in (("one", self.one), ("zero", self.zero),
                          ("minus_one", self.minus_one)):
            if not 0 <= idx < n:
                raise InputError(f"{what} out of range")
        if len(self.d) != n or any(len(r) != n for r in self.d):
            raise InputError("ragged representation table")
        top = full_mask(n)
        for row in self.d:
            for cell in row:
                if cell & ~top:
                    raise InputError("representation set outside carrier")
        _freeze_tables(self, "mul", "d")


def multigroup_from_labels(names: Sequence[str],
                           op: Sequence[Sequence[Sequence[str]]],
                           inv: dict[str, str],
                           identity: str) -> FiniteMultigroup:
    carrier = Carrier(tuple(names))
    n = carrier.size
    if len(op) != n or any(len(r) != n for r in op):
        raise InputError("ragged hyperoperation table")
    table = tuple(tuple(mask_of(carrier.index(l) for l in cell) for cell in row)
                  for row in op)
    invt = tuple(carrier.index(inv[name]) for name in names)
    return LoopCheckedMultigroup(carrier, table, invt, carrier.index(identity))


def multiring_from_labels(names: Sequence[str],
                          add: Sequence[Sequence[Sequence[str]]],
                          mul: Sequence[Sequence[str]],
                          neg: dict[str, str],
                          zero: str,
                          one: str) -> FiniteMultiring:
    carrier = Carrier(tuple(names))
    n = carrier.size
    if len(add) != n or any(len(r) != n for r in add):
        raise InputError("ragged addition table")
    if len(mul) != n or any(len(r) != n for r in mul):
        raise InputError("ragged multiplication table")
    addt = tuple(tuple(mask_of(carrier.index(l) for l in cell) for cell in row)
                 for row in add)
    mult = tuple(tuple(carrier.index(v) for v in row) for row in mul)
    negt = tuple(carrier.index(neg[name]) for name in names)
    return LoopCheckedMultiring(carrier, addt, mult, negt,
                                carrier.index(zero), carrier.index(one))


def make_special_group(names: Sequence[str],
                       mul: Sequence[Sequence[str]],
                       minus_one: str,
                       iso: Iterable[tuple[str, str, str, str]],
                       one: Optional[str] = None) -> SpecialGroup:
    carrier = Carrier(tuple(names))
    n = carrier.size
    if len(mul) != n or any(len(r) != n for r in mul):
        raise InputError("ragged multiplication table")
    table = tuple(tuple(map(carrier.index, row)) for row in mul)
    if one is None:
        candidates = [e for e in range(n)
                      if all(table[e][a] == a for a in range(n))]
        if not candidates:
            raise InputError("no identity element in multiplication table")
        one_i = candidates[0]
    else:
        one_i = carrier.index(one)
    quads = [tuple(map(carrier.index, q)) for q in iso]
    closed, added = _close_iso(n, quads)
    return LoopCheckedSpecialGroup(carrier, table, one_i,
                                   carrier.index(minus_one), closed, added)


def make_real_semigroup(names: Sequence[str],
                        mul: Sequence[Sequence[str]],
                        one: str, zero: str, minus_one: str,
                        d_triples: Iterable[tuple[str, str, str]]
                        ) -> RealSemigroup:
    carrier = Carrier(tuple(names))
    n = carrier.size
    if len(mul) != n or any(len(r) != n for r in mul):
        raise InputError("ragged multiplication table")
    index = carrier.index
    table = tuple(tuple(index(v) for v in row) for row in mul)
    d = [[0] * n for _ in range(n)]
    for a, b, c in d_triples:
        ib, ic, ia = index(b), index(c), index(a)
        d[ib][ic] |= 1 << ia
    return LoopCheckedRealSemigroup(carrier, table, index(one), index(zero),
                                    index(minus_one), tuple(map(tuple, d)))


def nested(v: Any, depth: int, leaf: type = str,
           arity: Optional[int] = None) -> bool:
    level = [v]
    for d in range(depth):
        if not all(map(isinstance, level, repeat(list))) or (
                arity is not None and d == depth - 1
                and any(len(x) != arity for x in level)):
            return False
        level = list(chain.from_iterable(level))
    return set(map(type, level)) <= {leaf}


def parse(text: str) -> Structure:
    """``io.parse`` with the label readers above as the builders of the
    kinds table, and ``nested`` as the field shape test."""
    old = {"multigroup": multigroup_from_labels,
           "multiring": multiring_from_labels,
           "special_group": make_special_group,
           "real_semigroup": make_real_semigroup}
    kinds = {kind: entry._replace(build=old.get(kind, entry.build))
             for kind, entry in mio._KINDS.items()}
    with mock.patch.dict(mio._KINDS, kinds), \
            mock.patch.object(mio, "_nested", nested):
        return mio.parse(text)
