"""The kinds table of ``io`` against the file format's documentation, and
the order in which the reader names a bad field.

``io._KINDS`` lists each kind's fields after ``elements`` in file order, the
order ``serialize`` writes them in; the grammar block of
docs/file-format.md must list the same fields in the same order.  The
reader checks the fields in file order too: of two missing or misshapen
fields, the message names the first in the file.
"""

import itertools
import json
import re
from pathlib import Path

import pytest

from multialg import io as mio
from multialg.core import InputError
from multialg.corpus import corpus_multigroups

ROOT = Path(__file__).resolve().parent.parent


def grammar_fields() -> dict:
    """Each ``name = { ... }`` rule of the grammar block, as its list of
    top-level member names."""
    text = (ROOT / "docs" / "file-format.md").read_text(encoding="utf-8")
    grammar = text.split("## Grammar", 1)[1].split("```")[1]
    rules = {}
    for match in re.finditer(r"^(\w+)\s*=\s*\{", grammar, re.M):
        parts, depth, start = [], 0, match.end()
        for j in range(match.end() - 1, len(grammar)):
            if grammar[j] in "{[":
                depth += 1
            elif grammar[j] in "}]":
                depth -= 1
            if depth == 0 or (depth == 1 and grammar[j] == ","):
                parts.append(grammar[start:j])
                start = j + 1
            if depth == 0:
                break
        rules[match.group(1)] = [p.split(":")[0].strip() for p in parts]
    return rules


def table_fields(kind: str) -> list:
    entry = mio._KINDS[kind]
    return (["kind"] + ["elements"] * entry.labelled
            + [field[0] for field in entry.fields])


def test_the_grammar_lists_each_kinds_fields_in_table_order():
    rules = grammar_fields()
    assert {k: rules.get(k) for k in mio.KINDS} == \
        {k: table_fields(k) for k in mio.KINDS}


def base_documents() -> dict:
    docs = mio.corpus_documents()
    return {mio.kind_of(obj): mio.to_document(obj) for obj in (
        docs["q2"], corpus_multigroups()["z4_group"], docs["sg_z2_reduced"],
        docs["rs3"], docs["aos_point"])}


def message(doc) -> str:
    with pytest.raises(InputError) as error:
        mio.parse(json.dumps(doc))
    return str(error.value)


@pytest.mark.parametrize("kind", mio.KINDS)
def test_of_two_bad_fields_the_first_in_file_order_is_named(kind):
    """Every pair of fields, each missing or of the wrong JSON type (a
    field the builder checks, a label, has no wrong type here): a multiring
    missing both ``zero`` and ``add`` is missing ``zero``."""
    base = base_documents()[kind]
    fields = mio._KINDS[kind].fields
    for (first, shape, *_), (second, other, *_) in itertools.combinations(fields, 2):
        faults = [(None, None)]
        if shape.check is not None:
            faults.append((5, None))
        if other.check is not None:
            faults.append((None, 5))
        for a, b in faults:
            doc = dict(base)
            for key, value in ((first, a), (second, b)):
                if value is None:
                    del doc[key]
                else:
                    doc[key] = value
            want = (f"{kind} file is missing field {first!r}" if a is None
                    else f"{kind} field {first!r} must be {shape.name}")
            assert message(doc) == want
