"""The canonical writer and the row-at-a-time label readers agree with the
versions they replaced.

``reference_io.serialize`` is the writer as it was when it handed a
document per kind to ``json.dumps(indent=2, ensure_ascii=False)``.
``io.serialize`` must give the same bytes, and ``io.to_document`` an equal
document with its keys in the same order: on the corpus, on every
multigroup and multiring of order <= 3, on every special group, real
semigroup and sign space the corpus and the functors build, on Z/64, K^6,
q2^3, rs3^3 and the fan-4 sign space, on seeded single-cell mutants of
each kind, and with names and labels holding quotes, backslashes, control
characters, non-ASCII and U+2028.

``reference_io.parse`` is the reader with the label-at-a-time lookups and
entry-at-a-time validation.  On seeded malformed documents (unknown labels
in each field, empty cells, ragged rows) ``io.parse`` must raise the same
message, and each constructor given an out-of-range index must raise the
message of its moved validation.
"""

import dataclasses
import json
import random
import time
from itertools import chain

import pytest

from multialg import io as mio
from multialg.constructions import product
from multialg.core import (
    Carrier,
    FiniteMultigroup,
    FiniteMultiring,
    InputError,
    RelationalMultigroup,
    krasner,
    q2,
    ring_multiring,
    to_relational,
)
from multialg.corpus import (
    corpus_multifields,
    corpus_multigroups,
    corpus_real_reduced_multifields,
    corpus_real_reduced_multirings,
    corpus_real_semigroups,
    corpus_special_groups,
)
from multialg.enumeration import generate_multigroups, generate_multirings
from multialg.ordering_spaces import (
    aos_to_mfred,
    fan_aos,
    make_sign_space,
    mfred_to_aos,
    mrred_to_ars,
)
from multialg.real_semigroups import (
    RealSemigroup,
    canonical_3,
    mrred_to_rs,
    rs_product,
    rs_to_mrred,
)
from multialg.special_groups import (
    SpecialGroup,
    make_special_group,
    mf_to_sg,
    sg_to_mf,
)

import reference_io as reference
from test_finite_fields import finite_fields
from reference_audits import LoopCheckedSpecialGroup

NAMES = (None, "", "q2", 'a "quoted" name', "back\\slash", "tab\tnew\nline",
         "bell\x07\x1f", "café ∃x \U0001d53d", "line\u2028sep")


def assert_same_text(got: str, want: str) -> None:
    """got == want, naming the first differing line rather than diffing
    files of up to half a megabyte."""
    if got != want:
        pairs = zip(got.splitlines(True), want.splitlines(True))
        line = next((i for i, (a, b) in enumerate(pairs) if a != b), None)
        if line is None:
            pytest.fail(f"{len(got)} characters written, {len(want)} expected")
        pytest.fail(f"line {line + 1}: {got.splitlines(True)[line]!r} "
                    f"!= {want.splitlines(True)[line]!r}")


def assert_written_alike(obj, names=NAMES):
    for name in names:
        assert_same_text(mio.serialize(obj, name), reference.serialize(obj, name))
        doc, old = mio.to_document(obj, name), reference.to_document(obj, name)
        assert doc == old and list(doc) == list(old)
    assert '"name"' not in mio.serialize(obj, "")


def _attempt(build, *args):
    try:
        return build(*args)
    except InputError:
        return None


def functor_images():
    """Every structure the functors build from the corpus, and back."""
    out = []
    for f in corpus_multifields().values():
        out.append(_attempt(mf_to_sg, f))
    for g in corpus_special_groups().values():
        out.append(_attempt(sg_to_mf, g))
    for a in corpus_real_reduced_multirings().values():
        out.append(_attempt(mrred_to_rs, a))
        out.append(_attempt(lambda x: mrred_to_ars(x)[0], a))
    for f in corpus_real_reduced_multifields().values():
        out.append(_attempt(lambda x: mfred_to_aos(x)[0], f))
        out.append(_attempt(mf_to_sg, f))
    for s in corpus_real_semigroups().values():
        out.append(_attempt(rs_to_mrred, s))
    images = [s for s in out if s is not None]
    kinds = {mio.kind_of(s) for s in images}
    assert kinds == set(mio.KINDS) - {"multigroup"}
    return images


def test_corpus_and_functor_images():
    for name, obj in mio.corpus_documents().items():
        assert_written_alike(obj, (None, name))
    for obj in list(corpus_multigroups().values()) + functor_images():
        assert_written_alike(obj, (None, "x"))


def test_every_structure_of_order_at_most_3():
    count = 0
    for n in (1, 2, 3):
        for obj in list(generate_multigroups(n)) + list(generate_multirings(n)):
            assert_written_alike(obj, (None,))
            count += 1
    assert count == 139


def test_the_largest_structures():
    k = krasner()
    for obj in (ring_multiring(64), product([k] * 6), product([q2()] * 3),
                rs_product([canonical_3()] * 3), fan_aos(4),
                mf_to_sg(aos_to_mfred(fan_aos(4)))):
        assert_written_alike(obj, (None, "big"))


def test_names_and_labels_that_need_escapes():
    """Each name, and the structures relabelled with the names as labels,
    one label per element."""
    for obj in list(mio.corpus_documents().values()):
        assert_written_alike(obj)
    labels = [n for n in NAMES if n] + ["\\", '"', "  ", "\x00", "\u2029", "ß"]
    for obj in mio.corpus_documents().values():
        if getattr(obj, "size", 0) > len(labels):
            continue
        if isinstance(obj, (FiniteMultiring, SpecialGroup, RealSemigroup)):
            carrier = Carrier(tuple(labels[:obj.size]))
            assert_written_alike(dataclasses.replace(obj, carrier=carrier),
                                 (None, '"'))
        elif obj.npoints <= len(labels):
            assert_written_alike(dataclasses.replace(
                obj, points=tuple(labels[:obj.npoints])), (None, '"'))
    m = corpus_multigroups()["z4_group"]
    assert_written_alike(dataclasses.replace(m, carrier=Carrier(tuple(labels[:4]))))


def _flip(table, i, j, v):
    return tuple(tuple(cell ^ (1 << v) if (x, y) == (i, j) else cell
                       for y, cell in enumerate(row))
                 for x, row in enumerate(table))


def _set(table, i, j, v):
    return tuple(tuple(v if (x, y) == (i, j) else cell
                       for y, cell in enumerate(row))
                 for x, row in enumerate(table))


def mutants(rng: random.Random, count: int):
    """Seeded single-cell changes: a flipped element of an addition, a
    hyperoperation or a representation cell, a changed product, a dropped
    isometry and a changed sign value."""
    k = krasner()
    rings = [ring_multiring(8), product([q2(), k, k]), aos_to_mfred(fan_aos(3))]
    for r in rings:
        n = r.size
        for _ in range(count):
            i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if r.add[i][j] ^ (1 << v):
                yield dataclasses.replace(r, add=_flip(r.add, i, j, v))
                m = r.additive_multigroup()
                yield dataclasses.replace(m, op=_flip(m.op, i, j, v))
            yield dataclasses.replace(r, mul=_set(r.mul, i, j, v))
    for s in (rs_product([canonical_3()] * 2), corpus_real_semigroups()["rs_q2xq2"]):
        n = s.size
        for _ in range(count):
            i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            yield dataclasses.replace(s, d=_flip(s.d, i, j, v))
            yield dataclasses.replace(s, mul=_set(s.mul, i, j, v))
    for g in (corpus_special_groups()["sg_z23_trivial"],
              mf_to_sg(aos_to_mfred(fan_aos(3)))):
        quads = sorted(g.iso)
        for _ in range(count):
            yield dataclasses.replace(g, iso=g.iso - {rng.choice(quads)})
    for space in (fan_aos(3), mio.corpus_documents()["ars_q2xq2"]):
        allowed = (-1, 1) if space.mode == "aos" else (-1, 0, 1)
        for _ in range(count):
            functions = [list(f) for f in space.functions]
            f = rng.choice(functions)
            f[rng.randrange(len(f))] = rng.choice(allowed)
            mutant = _attempt(make_sign_space, space.mode, space.points, functions)
            if mutant is not None:
                yield mutant


def test_single_cell_mutants():
    seen = set()
    for obj in mutants(random.Random(24), 12):
        assert_written_alike(obj, (None, "m"))
        seen.add(mio.kind_of(obj))
    assert seen == set(mio.KINDS)


def test_write_and_read_the_largest_files_within_budget(tmp_path):
    for obj in (ring_multiring(64), product([krasner()] * 6)):
        path = str(tmp_path / "big.mrs")
        start = time.perf_counter()
        mio.write_structure(path, obj)
        again = mio.read_structure(path)
        assert time.perf_counter() - start < 2.0
        assert again == obj


# ---------------------------------------------------------------------------
# reader error messages

def _outcome(read, *args):
    """The fields of the structure read, or the message of its InputError."""
    try:
        built = read(*args)
    except InputError as error:
        return str(error)
    return [getattr(built, f.name) for f in dataclasses.fields(built)]


# The fields of each kind that hold labels, and how deep the labels sit.
_LABEL_FIELDS = {
    "multiring": {"zero": 0, "one": 0, "neg": 1, "mul": 2, "add": 3},
    "multigroup": {"identity": 0, "inv": 1, "op": 3},
    "special_group": {"one": 0, "minus_one": 0, "mul": 2, "iso": 2},
    "real_semigroup": {"one": 0, "zero": 0, "minus_one": 0, "mul": 2, "d": 2},
}


def _bases():
    docs = mio.corpus_documents()
    return [mio.to_document(obj) for obj in (
        docs["q2xz2"], docs["z6"], corpus_multigroups()["z4_group"],
        docs["sg_z23_trivial"], docs["rs_q2xq2"], docs["rs3x3"])]


def _put(doc, key, depth, rng, label):
    """Write ``label`` at a seeded place of field ``key`` of doc."""
    if depth == 0:
        doc[key] = label
    elif depth == 1:
        doc[key][rng.choice(sorted(doc[key]))] = label
    elif depth == 2:
        row = rng.choice(doc[key])
        row[rng.randrange(len(row))] = label
    else:
        cell = rng.choice(rng.choice(doc[key]))
        cell[rng.randrange(len(cell))] = label


def malformed_documents(rng: random.Random, count: int):
    for base in _bases():
        kind = base["kind"]
        for key, depth in _LABEL_FIELDS[kind].items():
            for _ in range(count):
                doc = json.loads(json.dumps(base))
                for label in rng.sample(["?", "", "x y", "-1"], rng.choice((1, 2))):
                    _put(doc, key, depth, rng, label)
                yield doc
        tables = [k for k, d in _LABEL_FIELDS[kind].items() if d >= 2]
        for _ in range(count):
            doc = json.loads(json.dumps(base))
            key = rng.choice(tables)
            row = rng.choice(doc[key])
            if _LABEL_FIELDS[kind][key] == 3 and rng.random() < 0.5:
                row[rng.randrange(len(row))] = []
            elif key in ("iso", "d"):
                del row[rng.randrange(len(row))]
            elif rng.random() < 0.5:
                row.append(row[0])
            else:
                row.pop()
            yield doc
        yield from type_faults(base, rng, count)


def type_faults(base, rng: random.Random, count: int):
    """Seeded copies of ``base`` with a value of the wrong JSON type or
    shape: an integer, null, true or a list for a label, a string or a dict
    for a row or an iso or d tuple, a string for a cell, a tuple one label
    too long, and a cell that repeats a label (which is well formed)."""
    fields = _LABEL_FIELDS[base["kind"]]
    tables = sorted(k for k, d in fields.items() if d >= 2)
    for _ in range(count):
        for label in (1, None, True, [base["elements"][0]]):
            doc = json.loads(json.dumps(base))
            key = rng.choice(sorted(fields))
            _put(doc, key, fields[key], rng, label)
            yield doc
        for fault in ("string row", "dict row", "string cell", "long tuple",
                      "repeated label"):
            doc = json.loads(json.dumps(base))
            key = rng.choice(tables)
            rows = doc[key]
            i = rng.randrange(len(rows))
            if fault == "string row":
                rows[i] = "".join(map(str, chain.from_iterable(rows[i])))
            elif fault == "dict row":
                rows[i] = dict.fromkeys(base["elements"][:2], base["elements"][0])
            elif fault == "long tuple" and key in ("iso", "d"):
                rows[i].append(rows[i][0])
            elif fault in ("string cell", "repeated label") and fields[key] == 3:
                j = rng.randrange(len(rows[i]))
                if fault == "string cell":
                    rows[i][j] = "".join(rows[i][j])
                else:
                    rows[i][j].append(rows[i][j][0])
            else:
                continue
            yield doc


def test_parse_messages_on_malformed_documents():
    messages, full, built = set(), set(), 0
    for doc in malformed_documents(random.Random(24), 6):
        text = json.dumps(doc, indent=2)
        got = _outcome(mio.parse, text)
        assert got == _outcome(reference.parse, text)
        if isinstance(got, str):
            messages.add(got.split(" at ")[0].split(" '")[0])
            full.add(got)
        else:
            built += 1
    assert {"unknown element label", "ragged addition table",
            "empty addition cell", "ragged hyperoperation table",
            "ragged multiplication table", "empty hyperoperation cell",
            } <= messages
    assert {"multiring field 'add' must be a list of rows of label lists",
            "multigroup field 'op' must be a list of rows of label lists",
            "multiring field 'mul' must be a list of rows of labels",
            "special_group field 'iso' must be a list of label quadruples",
            "real_semigroup field 'd' must be a list of label triples",
            "unknown element label 1", "unknown element label None",
            "unknown element label True",
            } <= full
    assert built > 0


def test_parse_the_largest_files():
    """Full parses of the largest files of each reading path agree with the
    label-at-a-time reader: singleton and multivalued cells, a value table
    with the triples of D and with the isometry quadruples.  The fan-5
    multifield's cells are built from sign functions, not read from labels."""
    k = krasner()
    for obj in (ring_multiring(64), product([k] * 6),
                finite_fields.finite_field(64), aos_to_mfred(fan_aos(5)),
                rs_product([canonical_3()] * 3),
                mf_to_sg(aos_to_mfred(fan_aos(5)))):
        text = mio.serialize(obj)
        assert mio.parse(text) == obj
        assert _outcome(mio.parse, text) == _outcome(reference.parse, text)


def test_special_group_isometries_read_from_an_iterator():
    """An unknown label in isometry quadruples given as a one-pass iterator
    raises the message it raises in a list."""
    g = corpus_special_groups()["sg_z23_trivial"]
    names = g.names
    mul = [[names[v] for v in row] for row in g.mul]
    quads = [[names[v] for v in q] for q in sorted(g.iso)]
    quads[len(quads) // 2][2] = "?"
    args = (names, mul, names[g.minus_one])
    with pytest.raises(InputError) as listed:
        make_special_group(*args, quads)
    with pytest.raises(InputError) as iterated:
        make_special_group(*args, iter(quads))
    assert str(iterated.value) == str(listed.value) == "unknown element label '?'"
    assert (make_special_group(*args, (q for q in quads if "?" not in q))
            == make_special_group(*args, [q for q in quads if "?" not in q]))


def _bad_tables(table, rng, values):
    """Seeded copies of a table with one or two entries replaced."""
    n = len(table)
    for _ in range(8):
        rows = [list(row) for row in table]
        for _ in range(rng.choice((1, 2))):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(values)
        yield tuple(map(tuple, rows))


def test_constructor_messages_on_out_of_range_indices():
    rng = random.Random(24)
    docs = mio.corpus_documents()
    for r in (docs["q2xz2"], docs["z6"], product([krasner()] * 3)):
        n, top = r.size, (1 << r.size) - 1
        m = r.additive_multigroup()
        for add in _bad_tables(r.add, rng, [0, -1, top + 1, 1 << n, top | 1 << n]):
            args = (r.carrier, add, r.mul, r.neg, r.zero, r.one)
            assert (_outcome(FiniteMultiring, *args)
                    == _outcome(reference.LoopCheckedMultiring, *args))
            args = (m.carrier, add, m.inv, m.identity)
            assert (_outcome(FiniteMultigroup, *args)
                    == _outcome(reference.LoopCheckedMultigroup, *args))
        for mul in _bad_tables(r.mul, rng, [-1, n, n + 5]):
            args = (r.carrier, r.add, mul, r.neg, r.zero, r.one)
            assert (_outcome(FiniteMultiring, *args)
                    == _outcome(reference.LoopCheckedMultiring, *args))
        rel = to_relational(m)
        triples = sorted(rel.pi)
        for bad in ((0, 0, n), (-1, 0, 0), (0, 0), (0, 1, 2, 3)):
            pi = frozenset(triples[:3] + [bad, (n, n, n)] + triples[3:])
            first = next(t for t in pi
                         if len(t) != 3 or any(not 0 <= v < n for v in t))
            with pytest.raises(InputError) as error:
                RelationalMultigroup(rel.carrier, pi, rel.inv, rel.identity)
            assert str(error.value) == f"triple {first} outside carrier"
    for s in corpus_real_semigroups().values():
        n = s.size
        for mul in _bad_tables(s.mul, rng, [-1, n]):
            args = (s.carrier, mul, s.one, s.zero, s.minus_one, s.d)
            assert (_outcome(RealSemigroup, *args)
                    == _outcome(reference.LoopCheckedRealSemigroup, *args))
        for d in _bad_tables(s.d, rng, [-1, 1 << n, (1 << n) - 1]):
            args = (s.carrier, s.mul, s.one, s.zero, s.minus_one, d)
            assert (_outcome(RealSemigroup, *args)
                    == _outcome(reference.LoopCheckedRealSemigroup, *args))
    for g in corpus_special_groups().values():
        n = g.size
        for mul in _bad_tables(g.mul, rng, [-1, n]):
            args = (g.carrier, mul, g.one, g.minus_one, g.iso)
            assert (_outcome(SpecialGroup, *args)
                    == _outcome(LoopCheckedSpecialGroup, *args))
        for bad in ((0, 0, 0, n), (-1, 0, 0, 0), (0, 0, 0)):
            iso = list(g.iso)
            iso.insert(rng.randrange(len(iso) + 1), bad)
            args = (g.carrier, g.mul, g.one, g.minus_one, iso)
            assert (_outcome(SpecialGroup, *args)
                    == _outcome(LoopCheckedSpecialGroup, *args))
