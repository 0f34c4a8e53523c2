"""One text format for every structure kind, with a kind discriminator.

Files are JSON with a fixed field order per kind; serialization is canonical
(the layout of ``json.dumps(indent=2, ensure_ascii=False)``, trailing
newline) so parse/serialize round-trips are byte stable.  ``serialize``
writes that text itself: each label is encoded once and each distinct cell
laid out once per call, and rows and tables are joined strings.
``to_document`` is the text parsed back, so the layout is written down in
one place; tests/reference_io.py keeps the document-building writer it is
pinned to.  Parse errors carry line/column positions.

Reading checks each field's JSON shape (``_nested``, with every level's
types and the tuple arities tested in C), then turns labels into indices
through one kernel, core's ``_label_values``: each row of a value table
and each ``iso`` quadruple is one ``map`` over the carrier's positions.
Tables of label lists go through core's ``_label_masks``, which reduces
each distinct cell once per call.  The real-semigroup ``d`` triples keep
one dict lookup per label.  An unknown label raises the carrier's message
for the first such label in file order; tests/reference_io.py keeps the
label-at-a-time readers and shape checks the readers are pinned to.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain, repeat
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from .core import (
    FiniteMultigroup,
    FiniteMultiring,
    InputError,
    bits,
    multigroup_from_labels,
    multiring_from_labels,
)
from .ordering_spaces import SignSpace, make_sign_space
from .real_semigroups import RealSemigroup, make_real_semigroup
from .special_groups import SpecialGroup, make_special_group

Structure = Union[FiniteMultigroup, FiniteMultiring, SpecialGroup,
                  RealSemigroup, SignSpace]

KINDS = ("multigroup", "multiring", "special_group", "real_semigroup",
         "sign_space")


def kind_of(obj: Structure) -> str:
    if isinstance(obj, FiniteMultiring):
        return "multiring"
    if isinstance(obj, FiniteMultigroup):
        return "multigroup"
    if isinstance(obj, SpecialGroup):
        return "special_group"
    if isinstance(obj, RealSemigroup):
        return "real_semigroup"
    if isinstance(obj, SignSpace):
        return "sign_space"
    raise InputError(f"unknown structure type {type(obj).__name__}")


def _array(entries: list[str], indent: int) -> str:
    """A JSON array of rendered entries, each on its own line ``indent``
    spaces in, the closing bracket two spaces less; ``[]`` when empty."""
    if not entries:
        return "[]"
    pad = "\n" + " " * indent
    return "[" + pad + ("," + pad).join(entries) + pad[:-2] + "]"


def _value_table(table: Sequence[Sequence[int]], label: list[str]) -> str:
    return _array([_array(list(map(label.__getitem__, row)), 6)
                   for row in table], 4)


def _cell_table(table: Sequence[Sequence[int]], label: list[str]) -> str:
    """The rows of label lists, each distinct cell rendered once."""
    cell = {m: _array([label[c] for c in bits(m)], 8)
            for m in set(chain.from_iterable(table))}
    return _array([_array(list(map(cell.__getitem__, row)), 6)
                   for row in table], 4)


def _unary_map(table: Sequence[int], label: list[str]) -> str:
    """The object mapping each element's label to its image's label."""
    return ("{\n    " + ",\n    ".join(map("{}: {}".format, label,
                                             map(label.__getitem__, table)))
            + "\n  }")


def _relation(tuples: Iterable[Sequence[int]], names: Sequence[str],
              label: list[str]) -> str:
    """The index tuples of a relation, in the order of their label lists."""
    rows = sorted(tuples, key=lambda t: [names[i] for i in t])
    return _array([_array([label[i] for i in t], 6) for t in rows], 4)


def serialize(obj: Structure, name: Optional[str] = None) -> str:
    """The canonical file text: the kind's fields in a fixed order, laid out
    as ``json.dumps(doc, indent=2, ensure_ascii=False)`` lays out that
    document (every list entry and object member on its own line), and a
    trailing newline.  Each label is encoded once."""
    dumps = partial(json.dumps, ensure_ascii=False)
    fields = [("kind", dumps(kind_of(obj)))]
    if name:
        fields.append(("name", dumps(name)))
    if isinstance(obj, SignSpace):
        fields += [("mode", dumps(obj.mode)),
                   ("points", _array(list(map(dumps, obj.points)), 4)),
                   ("functions", _array([_array(list(map(str, f)), 6)
                                         for f in obj.functions], 4))]
    else:
        names = obj.carrier.names
        label = list(map(dumps, names))
        fields.append(("elements", _array(label, 4)))
        if isinstance(obj, FiniteMultiring):
            fields += [("zero", label[obj.zero]), ("one", label[obj.one]),
                       ("neg", _unary_map(obj.neg, label)),
                       ("mul", _value_table(obj.mul, label)),
                       ("add", _cell_table(obj.add, label))]
        elif isinstance(obj, FiniteMultigroup):
            fields += [("identity", label[obj.identity]),
                       ("inv", _unary_map(obj.inv, label)),
                       ("op", _cell_table(obj.op, label))]
        elif isinstance(obj, SpecialGroup):
            fields += [("one", label[obj.one]),
                       ("minus_one", label[obj.minus_one]),
                       ("mul", _value_table(obj.mul, label)),
                       ("iso", _relation(obj.iso, names, label))]
        else:
            n = obj.size
            fields += [("one", label[obj.one]), ("zero", label[obj.zero]),
                       ("minus_one", label[obj.minus_one]),
                       ("mul", _value_table(obj.mul, label)),
                       ("d", _relation([(a, b, c)
                                        for b in range(n) for c in range(n)
                                        for a in bits(obj.d[b][c])],
                                       names, label))]
    return ("{\n  " + ",\n  ".join(f'"{key}": {text}' for key, text in fields)
            + "\n}\n")


def to_document(obj: Structure, name: Optional[str] = None) -> dict[str, Any]:
    """The parsed canonical text of ``obj``."""
    return json.loads(serialize(obj, name))


def _nested(v: Any, depth: int, leaf: type = str,
            arity: Optional[int] = None) -> bool:
    """v is a list of lists, depth levels deep, of values of type leaf
    exactly (so no bools for int); the innermost lists have arity entries
    when arity is given."""
    level = [v]
    for d in range(depth):
        if not all(map(isinstance, level, repeat(list))) or (
                arity is not None and d == depth - 1
                and not set(map(len, level)) <= {arity}):
            return False
        level = list(chain.from_iterable(level))
    return set(map(type, level)) <= {leaf}


def _label_map(elements: list) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, dict) and all(
        isinstance(v.get(e), str) for e in elements)


# JSON shapes of the fields, each with how a message names it.
_LABELS = partial(_nested, depth=1), "a list of labels"
_LABEL_TABLE = partial(_nested, depth=2), "a list of rows of labels"
_CELL_TABLE = partial(_nested, depth=3), "a list of rows of label lists"
_QUADRUPLES = partial(_nested, depth=2, arity=4), "a list of label quadruples"
_TRIPLES = partial(_nested, depth=2, arity=3), "a list of label triples"
_SIGNS = partial(_nested, depth=2, leaf=int), "a list of lists of integer values"


def _require(doc: dict, key: str, kind: str,
             shape: Optional[tuple[Callable[[Any], bool], str]] = None) -> Any:
    if key not in doc:
        raise InputError(f"{kind} file is missing field {key!r}")
    if shape is not None and not shape[0](doc[key]):
        raise InputError(f"{kind} field {key!r} must be {shape[1]}")
    return doc[key]


def from_document(doc: dict[str, Any]) -> Structure:
    if not isinstance(doc, dict):
        raise InputError("structure file must contain a JSON object")
    kind = _require(doc, "kind", "structure")
    if kind not in KINDS:
        raise InputError(f"unknown kind {kind!r}; expected one of "
                         + ", ".join(KINDS))
    elements = doc.get("elements")
    if kind != "sign_space":
        if not isinstance(elements, list) or not all(
                isinstance(e, str) for e in elements):
            raise InputError("elements must be a list of labels")
    label_map = (_label_map(elements),
                 "an object mapping every element to a label")
    if kind == "multiring":
        return multiring_from_labels(
            elements,
            _require(doc, "add", kind, _CELL_TABLE),
            _require(doc, "mul", kind, _LABEL_TABLE),
            _require(doc, "neg", kind, label_map),
            _require(doc, "zero", kind),
            _require(doc, "one", kind),
        )
    if kind == "multigroup":
        return multigroup_from_labels(
            elements,
            _require(doc, "op", kind, _CELL_TABLE),
            _require(doc, "inv", kind, label_map),
            _require(doc, "identity", kind),
        )
    if kind == "special_group":
        return make_special_group(
            elements,
            _require(doc, "mul", kind, _LABEL_TABLE),
            _require(doc, "minus_one", kind),
            _require(doc, "iso", kind, _QUADRUPLES),
            one=_require(doc, "one", kind),
        )
    if kind == "real_semigroup":
        return make_real_semigroup(
            elements,
            _require(doc, "mul", kind, _LABEL_TABLE),
            _require(doc, "one", kind),
            _require(doc, "zero", kind),
            _require(doc, "minus_one", kind),
            _require(doc, "d", kind, _TRIPLES),
        )
    return make_sign_space(
        _require(doc, "mode", kind),
        _require(doc, "points", kind, _LABELS),
        _require(doc, "functions", kind, _SIGNS),
    )


def parse(text: str) -> Structure:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed structure file at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise InputError("malformed structure file: nested too deeply") from None
    return from_document(doc)


def read_structure(path: str) -> Structure:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    return parse(text)


def write_structure(path: str, obj: Structure, name: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(obj, name))


def corpus_documents() -> dict[str, Structure]:
    """The named structures shipped as files under corpus/."""
    from . import corpus as c
    out: dict[str, Structure] = {}
    out.update(c.corpus_multirings())
    for name, g in c.corpus_special_groups().items():
        out[name] = g
    for name, s in c.corpus_real_semigroups().items():
        out[name] = s
    for name, s in c.corpus_sign_spaces().items():
        out[name] = s
    return out


def write_corpus(directory: str) -> list[str]:
    import os
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, obj in sorted(corpus_documents().items()):
        path = os.path.join(directory, f"{name}.mrs")
        write_structure(path, obj, name=name)
        written.append(path)
    return written
