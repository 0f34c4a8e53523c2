"""One text format for every structure kind, with a kind discriminator.

``_KINDS`` has one entry per kind: its class, the label builder the reader
calls and its fields after ``elements`` in file order, each with a
``_Shape``: the reader's JSON check, how a message names it and the writer
of the field's text.  ``serialize``, ``from_document``, ``kind_of`` and
``KINDS`` all read it.  The text is canonical (the layout of
``json.dumps(indent=2, ensure_ascii=False)``, trailing newline), so
parse/serialize round-trips are byte stable; each label is encoded once and
each distinct cell laid out once per call.

The reader checks the fields in file order, each for presence and then for
its JSON shape (``_nested`` tests every level's types and the tuple arities
in C), so a message names the first bad field in the file.  The builders
read labels through core's ``_label_values`` and ``_label_masks``; an
unknown label raises the carrier's message for the first one the builder
meets.  tests/reference_io.py keeps the writer and readers these are pinned
to.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain, repeat
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence, Union

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

_dumps = partial(json.dumps, ensure_ascii=False)


def _array(entries: list[str], indent: int) -> str:
    """A JSON array of rendered entries, each on its own line ``indent``
    spaces in, the closing bracket two spaces less; ``[]`` when empty."""
    if not entries:
        return "[]"
    pad = "\n" + " " * indent
    return "[" + pad + ("," + pad).join(entries) + pad[:-2] + "]"


def _value_table(table: Sequence[Sequence[int]], label, _) -> str:
    return _array([_array(list(map(label.__getitem__, row)), 6)
                   for row in table], 4)


def _cell_table(table: Sequence[Sequence[int]], label: list[str], _) -> str:
    """The rows of label lists, each distinct cell rendered once."""
    cell = {m: _array([label[c] for c in bits(m)], 8)
            for m in set(chain.from_iterable(table))}
    return _value_table(table, cell, None)


def _unary_map(table: Sequence[int], label: list[str], _) -> str:
    """The object mapping each element's label to its image's label."""
    return ("{\n    " + ",\n    ".join(map("{}: {}".format, label,
                                             map(label.__getitem__, table)))
            + "\n  }")


def _relation(tuples: Iterable[Sequence[int]], label: list[str],
              names: Sequence[str]) -> str:
    """The index tuples of a relation, in the order of their label lists."""
    rows = sorted(tuples, key=lambda t: [names[i] for i in t])
    return _array([_array([label[i] for i in t], 6) for t in rows], 4)


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


class _Shape(NamedTuple):
    """``check(value, elements)``, None where the builder checks the value;
    the shape in a message; ``write(attribute, encoded labels, labels)``."""
    check: Optional[Callable[[Any, Any], bool]]
    name: str
    write: Callable[[Any, Any, Any], str]


_LABEL = _Shape(None, "a label", lambda v, label, _: label[v])
_LABEL_MAP = _Shape(lambda v, elements: isinstance(v, dict) and all(
    isinstance(v.get(e), str) for e in elements),
    "an object mapping every element to a label", _unary_map)
_LABEL_TABLE = _Shape(lambda v, _: _nested(v, 2), "a list of rows of labels",
                      _value_table)
_CELL_TABLE = _Shape(lambda v, _: _nested(v, 3),
                     "a list of rows of label lists", _cell_table)
_QUADRUPLES = _Shape(lambda v, _: _nested(v, 2, arity=4),
                     "a list of label quadruples", _relation)
# written from the representation table: a is in D(b, c) for the triple (a, b, c)
_TRIPLES = _Shape(lambda v, _: _nested(v, 2, arity=3), "a list of label triples",
                  lambda d, label, names: _relation(
                      [(a, b, c) for b, row in enumerate(d)
                       for c, cell in enumerate(row) for a in bits(cell)],
                      label, names))
_MODE = _Shape(None, "a mode", lambda v, *_: _dumps(v))
_LABELS = _Shape(lambda v, _: _nested(v, 1), "a list of labels",
                 lambda v, *_: _array(list(map(_dumps, v)), 4))
_SIGNS = _Shape(lambda v, _: _nested(v, 2, leaf=int),
                "a list of lists of integer values",
                lambda v, *_: _array([_array(list(map(str, f)), 6) for f in v], 4))


class _Kind(NamedTuple):
    """The builder takes the fields by name (the elements as ``names``
    when ``labelled``); a field is ``(key, shape)``, or ``(key, shape,
    parameter)`` when the builder's parameter has another name."""
    cls: type
    build: Callable[..., Structure]
    fields: tuple[tuple, ...]
    labelled: bool = True


_KINDS = {
    "multigroup": _Kind(FiniteMultigroup, multigroup_from_labels, (
        ("identity", _LABEL), ("inv", _LABEL_MAP), ("op", _CELL_TABLE))),
    "multiring": _Kind(FiniteMultiring, multiring_from_labels, (
        ("zero", _LABEL), ("one", _LABEL), ("neg", _LABEL_MAP),
        ("mul", _LABEL_TABLE), ("add", _CELL_TABLE))),
    "special_group": _Kind(SpecialGroup, make_special_group, (
        ("one", _LABEL), ("minus_one", _LABEL), ("mul", _LABEL_TABLE),
        ("iso", _QUADRUPLES))),
    "real_semigroup": _Kind(RealSemigroup, make_real_semigroup, (
        ("one", _LABEL), ("zero", _LABEL), ("minus_one", _LABEL),
        ("mul", _LABEL_TABLE), ("d", _TRIPLES, "d_triples"))),
    "sign_space": _Kind(SignSpace, make_sign_space, (
        ("mode", _MODE), ("points", _LABELS), ("functions", _SIGNS)), False),
}

KINDS = tuple(_KINDS)


def kind_of(obj: Structure) -> str:
    for kind, entry in _KINDS.items():
        if isinstance(obj, entry.cls):
            return kind
    raise InputError(f"unknown structure type {type(obj).__name__}")


def serialize(obj: Structure, name: Optional[str] = None) -> str:
    """The canonical file text: the kind's fields in a fixed order, laid out
    as ``json.dumps(doc, indent=2, ensure_ascii=False)`` lays out that
    document (every list entry and object member on its own line), and a
    trailing newline.  Each label is encoded once."""
    kind = kind_of(obj)
    entry = _KINDS[kind]
    fields = [("kind", _dumps(kind))]
    if name:
        fields.append(("name", _dumps(name)))
    names = obj.carrier.names if entry.labelled else ()
    label = list(map(_dumps, names))
    if names:
        fields.append(("elements", _array(label, 4)))
    fields += [(key, shape.write(getattr(obj, key), label, names))
               for key, shape, *_ in entry.fields]
    return ("{\n  " + ",\n  ".join(f'"{key}": {text}' for key, text in fields)
            + "\n}\n")


def to_document(obj: Structure, name: Optional[str] = None) -> dict[str, Any]:
    """The parsed canonical text of ``obj``."""
    return json.loads(serialize(obj, name))


def from_document(doc: dict[str, Any]) -> Structure:
    if not isinstance(doc, dict):
        raise InputError("structure file must contain a JSON object")
    if "kind" not in doc:
        raise InputError("structure file is missing field 'kind'")
    kind = doc["kind"]
    if kind not in KINDS:
        raise InputError(f"unknown kind {kind!r}; expected one of "
                         + ", ".join(KINDS))
    entry, elements = _KINDS[kind], doc.get("elements")
    if entry.labelled and not (isinstance(elements, list)
                               and all(isinstance(e, str) for e in elements)):
        raise InputError("elements must be a list of labels")
    args = {"names": elements} if entry.labelled else {}
    for key, shape, *parameter in entry.fields:
        if key not in doc:
            raise InputError(f"{kind} file is missing field {key!r}")
        if shape.check is not None and not shape.check(doc[key], elements):
            raise InputError(f"{kind} field {key!r} must be {shape.name}")
        args[parameter[0] if parameter else key] = doc[key]
    return entry.build(**args)


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
    return {**c.corpus_multirings(), **c.corpus_special_groups(),
            **c.corpus_real_semigroups(), **c.corpus_sign_spaces()}


def write_corpus(directory: str) -> list[str]:
    import os
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, obj in sorted(corpus_documents().items()):
        path = os.path.join(directory, f"{name}.mrs")
        write_structure(path, obj, name=name)
        written.append(path)
    return written
