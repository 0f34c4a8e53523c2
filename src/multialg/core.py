"""Finite multigroups and multirings as explicit tables.

Set-valued cells are stored as bitmasks over carrier indices; carriers are
capped at 64 elements.  Structures are immutable after construction; the
tables derived from one and its audit reports are kept on the object
(``_kept``).  Every check returns a CheckReport with one verdict per axiom.
The first violation in lexicographic index order is reported as the witness.

The table audits (multigroup, multiring, and the relational axioms and
lemmas) cost O(n^3) mask operations on an n-element carrier, compared
inside C a block at a time (``_reassociation_defects``).  Each entry is
packed as w native 64-bit words, w = 1 up to the cap; only the tables of
sign spaces of more functions than the cap need more.  For each cell the
OR of the table's columns over it is one packed line, x -> x(cell), built
once per distinct cell (``_PackedUnion``: a singleton cell reads its column
as packed, a larger cell ORs as ints the columns its bit flags select).
Joined over the cells (y, z) in row-major order, these lines form a tensor
of n^3 entries whose entry (yn + z)n + x is x(yz), so x(yz) over all
(y, z) is the stride-n ``array`` slice from x, one per word.  (xy)z over
all (y, z) is block x: row x's cells mapped to the ORs of the table's rows
and joined.  A symmetric table's row ORs are its column ORs, so its block x
is the tensor's own x-th block of n^2 entries; on any other table block x
is built when the scan reaches it, so a failing table stops as early.  Only
an x whose two sides differ is walked, so defects still come in
lexicographic order of (x, y, z).
The multiring audit reads its addition through the multigroup audit's
verdicts, named ``add-``, without building the additive multigroup.
Reversibility and the reassociation scan of a table run once for its
multigroup axioms i and iii and its relational axioms I and III and lemma
(e) alike (``_additive_scans``): ``check`` at ``derived`` and ``all`` gets
both reports from one audit (``_axioms_and_lemmas``), the lemmas resuming
the scan from its first defect.
A table whose every cell is a singleton {v}, such as the addition of a
ring, is read as byte rows of v + 1 instead (``_byte_rows``),
decided once per table per audit and given up at the first row with an
empty or larger cell.  Rows are then compared inside C by translation:
the reassociation scan compares, for each x, the rows xy joined over y
with the whole table translated through row x; reversibility translates
column y through column r(y) and row x through row r(x), against 1..n;
the distributivity scan translates row a through column d of mul against
column d through row ad, where the weak and full witnesses coincide.
Only a row that differs is walked, so defects and witnesses are those of
the masks.
Associativity of a value table (multiring multiplication, ternary
semigroups, special groups, the enumerated monoids) is one audit,
``_associativity_defect``: the first defect of the reassociation scan on
the table's byte rows.  ``_monoid_defects`` adds commutativity, the unit
and the absorbing zero, for multirings and ternary semigroups alike, and
``_cube_defect`` is a^3 = a for ternary semigroups and the real reduced
audits.  Reversibility, the identity and commutativity are one helper each
(``_reversibility_defect``, ``_identity_defect``,
``_commutativity_defect``), shared by the multigroup, relational and monoid
audits.  Above 16 elements reversibility of a table
with a larger cell is first tested on all rows and columns at once, as bit
matrices transposed in one batch by the block swaps behind ``_transposed``,
which real semigroups read.
Real semigroups' RS0, the special-group validation and SG1 on the pair
classes read the commutativity helper, which compares each row with its
column.
Weak distributivity (a+b)d <= ad+bd, and real semigroups' RS2 on D and
iii on D^t, are one scaling condition T(b, c)e <= T(be, ce) on a mask
table T.  ``_scaling_rows`` builds its rows: for each b and column e,
(T(b, c)e)_c is a step of the lazily transposed unions of the lines
(1 << xe)_e, and (T(be, ce))_c one ``itemgetter`` call on row be of T.
``_distributivity_defects``, read by the multiring audit and enumeration,
compares them on the addition; each witness is the least (b, d) at the
first a where it fails.  With mul associative, both distributivity
verdicts hold once they hold at a set generating (R, .), since (a+b)de
lies in (ad+bd)e, inside ade+bde (docs/axioms.md); the same holds for any
mask table T.  So above 16 elements, with mul associative, one gate,
``_holds_at_generators``, first runs that scan over the columns of the
``_generators`` of mul only: on a multivalued addition for the multiring
audit, on D for RS2 and on D^t for iii.  A pass there is the verdict; a
failure falls to the scan over every column, which names the witness.  On
byte rows the full distributivity scan costs no more than finding the
generators, and runs alone.  The other
axioms are per-pair mask tests.  The associativity
audits of real semigroups and sign spaces read the reassociation scan,
strong associativity through ``_reassociation_failures``.  Witnesses stay
the first violations in lexicographic order; tests/reference_audits.py
keeps the naive audits, the cell-at-a-time, row-through-a-getter and
lazily transposed scans, the tuple unions and the distributivity rows over
d and at the generators that they are pinned to.
``classify`` is kept and audits a structure once however often it runs.

Fibres, unions of per-element values and closures each have one kernel,
read by every module.  ``_fibres`` gives the preimage mask of each value
under each line (a map on the n elements, whose values may run past n),
one pass over the line.  ``_Unions`` maps a mask to the OR of per-element
values; over a line's fibres it gives the preimage of each set of values.
The reflection scans of ``embedding_kind`` and ``check_sg_morphism``, the
point maps and cones of sign spaces and the roots of squares in real
semigroups read their preimages this way.  ``_closure(tables,
lines, base)`` gives ``close(members, closed=0)``: the least mask holding
the members, ``base``, the already closed mask ``closed``, every cell xy
of each mask table for x, y in it, and lines[x] for x in it.  Each round
ORs in, for the elements reached but not expanded, their lines and their
entries in the ``_CellUnion`` over the reached set of one table holding,
at (y, x), the cells xy and yx of every table, until a round adds nothing.
Ideals, sums of squares, SG8's components and the isometry closure of
special groups all read it, the least special group through one isometry
closure; no module keeps a closure of its own.

Tables determined pointwise by the three-element sign structures come from
one kernel, ``_pointwise_cells``: a sign space's value and transversal
tables (a map per point), the evaluation table of ``sper_embedding_check``
(a map per ordering) and the separation audit's D and D^t (a map per
morphism into the three-element real semigroup).  Given maps m from n
elements to k values and k x k tables ``allowed`` of value masks, cell
(x, y) masks the c with m(c) in allowed[m(x)][m(y)] for every m.  Each
map's preimages of value sets are the ``_Unions`` of its ``_fibres``, one
per call for all its tables, each set ORed on first use; row x is one AND
per map, in C, of the line of preimages of allowed[m(x)][m(y)] over y.

The searches for maps (morphisms, isomorphisms, and the other modules'
morphisms and spectrum vectors) run on one kernel, ``_table_maps``.  Each
variable's domain is a bitmask of target values; assigning f(x) narrows the
domains it reaches through neg, products, addition cells and injectivity,
and a branch with an empty domain is cut.  Variables go in index order and
values in ascending order, and only subtrees without a solution are cut, so
results come in lexicographic order of their mappings and find_isomorphism
returns the first isomorphism in that order.  Each pair of value or cell
tables is applied when the later of its two variables is assigned and
narrows every variable it names, assigned or not; a unary pair narrows
f(u(x)) when x is assigned, which cuts it when the later of x and u(x) is,
so every map yielded meets every condition; with
bijectivity, equal cell sizes plus injectivity give f(cell) = cell'.  A
value tried is cut as soon as the cheap narrowing empties a domain: first
injectivity, neg and products, then the cells forward (c in cell(x, y)
narrows f(c) to cell'(f(x), f(y))).  Only a value that survives both pays
for the bijective reverse pass, which bans each later c outside a cell from
its image per image element and applies the bans with one ``_transposed``.
The conditions are the structures' ``tables``, which ``_map_defects`` audits
a given map against; tests/reference_searches.py keeps the replaced searches
and the kernel as it was before the reverse pass went through a transpose.

Multigroups (tabled and relational), multirings, special groups and real
semigroups derive from ``_OnCarrier``: its ``carrier`` is their first field
and it alone defines ``size`` and ``names``.
Each structure declares its tables once, as ``tables``: (constants, unary
tables, value tables, cell tables) and, for special groups, the isometry
relation.  ``_relabel`` moves them along a bijection, a whole table at a
time through ``_Moved``'s row picker in C; it is the one relabel behind
``same_tables`` and enumeration's placed copies, and the canonical keys
image their tables with the same picker.  A key is kept on its structure
(``_kept``), and a placed copy inherits the key of the slice structure it
was moved from, the same least image: enumeration computes each slice
structure's key once and no copy's.
"""

from __future__ import annotations

import itertools
import struct
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce, wraps
from itertools import chain, compress, count, repeat, starmap
from operator import and_, invert, itemgetter, lshift, ne, or_
from typing import Callable, Iterable, Iterator, Optional, Sequence

CARRIER_CAP = 64


class InputError(ValueError):
    """Malformed input: bad table shape, empty cell, unknown label, size cap."""


class StructuralAnomaly(RuntimeError):
    """A property the constructions assume failed on this concrete instance."""


# ---------------------------------------------------------------------------
# bitmask helpers

def bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def full_mask(n: int) -> int:
    return (1 << n) - 1


# Maps the digits of bin() to the bytes 0 and 1, for ``_bit_flags``.
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _bit_flags(mask: int) -> bytes:
    """Byte i is 1 when bit i of ``mask`` is set and 0 when not, up to its
    highest bit: the selector of ``mask``'s entries for ``compress``."""
    return bin(mask)[:1:-1].encode().translate(_FLAGS)


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class _Elements(dict):
    """Cell mask -> ascending tuple of its elements, expanded on first use."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        out = self[mask] = tuple(bits(mask))
        return out


# The singleton cell masks; zipped with the lines, they prefill a _CellUnion
# so that singleton cells cost no call.
_SINGLETONS = tuple(1 << i for i in range(CARRIER_CAP))


# One codec per table size that packs: a line of n masks, each below 2^64,
# packs into n native 64-bit words, as ``array("Q")`` reads them.
_CODECS = {n: struct.Struct(f"={n}Q") for n in range(CARRIER_CAP + 1)}
_WORD = (1 << 64) - 1


class _PackedLines(dict):
    """Line index -> the line packed into one int by ``codec``, on first use."""

    __slots__ = ("lines", "codec")

    def __init__(self, lines: Sequence[Sequence[int]], codec: struct.Struct) -> None:
        super().__init__()
        self.lines, self.codec = lines, codec

    def __missing__(self, i: int) -> int:
        out = self[i] = int.from_bytes(self.codec.pack(*self.lines[i]), "little")
        return out


class _CellUnion(dict):
    """Cell mask -> elementwise OR of ``lines`` over the cell's elements, as
    a tuple, on first use; an empty cell gives a line of zeros, and the
    singleton cells are prefilled with their lines.

    Lines have at most 64 entries, each below 2^64.  Each line that a cell
    of two or more elements needs is packed into one int, so that the union
    is one OR of ints, unpacked once."""

    __slots__ = ("elements", "packed")

    @classmethod
    def over(cls, lines: Sequence[Sequence[int]], elements: _Elements) -> _CellUnion:
        """The unions of ``lines``, with ``elements`` expanding the cells.
        Not ``__init__``: a Python ``__init__`` on a dict subclass slows each
        construction, and the n <= 4 audits build two per scan."""
        out = cls(zip(_SINGLETONS, map(tuple, lines)))
        width = len(lines[0]) if lines else 0
        out[0] = (0,) * width
        out.elements = elements
        out.packed = _PackedLines(lines, _CODECS[width])
        return out

    def __missing__(self, mask: int) -> tuple[int, ...]:
        packed = self.packed
        union = reduce(or_, map(packed.__getitem__, self.elements[mask]))
        out = packed.codec.unpack(union.to_bytes(packed.codec.size, "little"))
        self[mask] = out
        return out


class _PackedUnion(dict):
    """Cell mask -> elementwise OR of ``lines`` over the cell's elements, on
    first use, where the lines are bytes of equal length.  The singleton
    cells are prefilled with their lines as they are; the first larger or
    empty cell reads every line as one int, and each ORs the ints its
    ``_bit_flags`` select."""

    __slots__ = ("lines", "ints")

    @classmethod
    def over(cls, lines: Sequence[bytes]) -> _PackedUnion:
        out = cls(zip(_SINGLETONS, lines))
        out.lines, out.ints = lines, None
        return out

    def __missing__(self, mask: int) -> bytes:
        if self.ints is None:
            self.ints = [int.from_bytes(line, "little") for line in self.lines]
        union = reduce(or_, compress(self.ints, _bit_flags(mask)), 0)
        out = self[mask] = union.to_bytes(len(self.lines[0]), "little")
        return out


# ---------------------------------------------------------------------------
# bit-matrix transposition

def _block_swaps(w: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) for each block size j = w/2, ..., 1 of a w x w bit
    matrix packed row by row into one int, entry (x, t) at bit x w + t.
    The mask marks the entries with bit j clear in x and set in t; each
    trades places with (x + j, t - j), ``shift`` bits higher.  Swapping them
    for every j moves (x, t) to (t, x)."""
    swaps = []
    j = w // 2
    while j:
        row = mask_of(t for t in range(w) if t & j)
        swaps.append((j * (w - 1),
                      sum(row << x * w for x in range(w) if not x & j)))
        j //= 2
    return tuple(swaps)


# One codec and one swap list per width w: a matrix of n rows is padded to
# w rows of w bits, w the least of 8, 16, 32 and 64 not below n.
_TRANSPOSERS = {w: (struct.Struct(f"<{w}{field}"), _block_swaps(w))
                for w, field in ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))}


def _transpose_packed(m: int, w: int, count: int = 1) -> int:
    """The ``count`` w x w bit matrices packed in ``m``, row by row, each
    transposed by the block swaps of one, each mask repeated per matrix."""
    for shift, mask in _TRANSPOSERS[w][1]:
        if count > 1:
            mask = int.from_bytes(mask.to_bytes(w * w // 8, "little") * count,
                                  "little")
        flip = ((m >> shift) ^ m) & mask
        m ^= flip ^ (flip << shift)
    return m


def _transposed(rows: Sequence[int]) -> tuple[int, ...]:
    """The n x n bit matrix ``rows`` transposed: entry t holds x iff rows[x]
    holds t.  Each row is a mask below 2^n."""
    n = len(rows)
    w = max(8, 1 << (n - 1).bit_length())
    codec = _TRANSPOSERS[w][0]
    m = int.from_bytes(codec.pack(*rows, *repeat(0, w - n)), "little")
    return codec.unpack(_transpose_packed(m, w).to_bytes(codec.size, "little"))[:n]


# ---------------------------------------------------------------------------
# the mask kernels: fibres, unions and closures

def _fibres(lines: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """For each line of n entries, its fibres: entry v is the mask of the j
    with line[j] = v, for v below n or up to the largest value if that is
    larger.  A line whose values are all below n has exactly n fibres; the
    unary tables that the reference kernel in tests/reference_searches.py
    reads are such lines."""
    out = []
    for line in lines:
        fibres = [0] * max(len(line), max(line, default=-1) + 1)
        for j, v in enumerate(line):
            fibres[v] |= 1 << j
        out.append(tuple(fibres))
    return out


class _Unions(dict):
    """Mask -> the OR of ``values`` over its elements (0 if none), on first use."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[int]) -> None:
        super().__init__()
        self.values = values

    def __missing__(self, mask: int) -> int:
        out = self[mask] = reduce(or_, compress(self.values, _bit_flags(mask)), 0)
        return out


def _closure(tables: Sequence[Sequence[Sequence[int]]], lines: Sequence[int] = (),
             base: int = 0) -> Callable[..., int]:
    """``close(members, closed=0)``, the least closed superset; see the
    module docstring."""
    elements = _Elements()
    # both[y][x]: the cells xy and yx of every table
    both = [tuple(reduce(partial(map, or_), group)) for group in zip(
        *(t for table in tables for t in (table, tuple(zip(*table)))))]
    unions = _CellUnion.over(both, elements)

    def close(members: int, closed: int = 0) -> int:
        out = closed | members | base
        new = out & ~closed
        while new:
            picked = elements[new]
            grown = reduce(or_, map(lines.__getitem__, picked), 0) if lines else 0
            if both:
                grown = reduce(or_, map(unions[out].__getitem__, picked), grown)
            out, new = out | grown, grown & ~out
        return out

    return close


def _first_difference(left: Sequence[int], right: Sequence[int]) -> int:
    """The first index at which two rows that differ differ."""
    return next(compress(count(), map(ne, left, right)))


# Sends byte v to v + 1: a line of values becomes a line of byte-row entries.
_SUCCESSOR = bytes(range(1, 256)) + b"\0"


def _byte_rows(table: Sequence[Sequence[int]]) -> Optional[list[bytes]]:
    """The rows of a mask table whose every cell is a singleton {v}, as
    bytes of v + 1, or None, found at the first row with an empty or a
    larger cell.  No entry is byte 0, which the translation tables of
    ``_through`` leave unused."""
    ones = b"\1" * len(table)
    rows = []
    for row in table:
        if bytes(map(int.bit_count, row)) != ones:
            return None
        rows.append(bytes(map(int.bit_length, row)))
    return rows


def _through(lines: Iterable[bytes], n: int) -> list[bytes]:
    """For each line of n byte-row entries, the translation table that
    sends byte v + 1 to entry v of the line."""
    pad = bytes(255 - n)
    return [b"\0" + line + pad for line in lines]


def _pack_wide(w: int, *masks: int) -> bytes:
    """The masks as w native 64-bit words each, the low word first."""
    return struct.pack(f"={len(masks) * w}Q", *[
        mask >> shift & _WORD for mask in masks for shift in range(0, 64 * w, 64)])


def _entries(planes: Sequence[Sequence[int]]) -> Sequence[int]:
    """Entry i is the int whose 64-bit word k is planes[k][i]."""
    out = planes[0]
    for k in range(1, len(planes)):
        out = list(map(or_, out, map(lshift, planes[k], repeat(64 * k))))
    return out


def _reassociation_defects(table: Sequence[Sequence[int]],
                           rows: Optional[list[bytes]] = None
                           ) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield (x, y, z, (xy)z, x(yz)) for each triple, in lexicographic order,
    whose two bracketings differ.  Cells of the n x n mask table may be
    empty; they are read through their bit flags.

    Each x compares all (y, z) at once.  The right side is the stride-n
    slice from x of the tensor of column ORs, entry (yn + z)n + x = x(yz),
    one slice per 64-bit word of an entry; the left side is block x, the
    ORs of the rows over row x's cells joined, which on a symmetric table
    is the tensor's block x.  Each OR is built once per distinct cell.

    Given the table's ``_byte_rows``, each x compares the rows xy, joined
    over y, against the joined rows translated through row x.  Either way
    only an x whose two sides differ is walked."""
    n = len(table)
    if rows:
        by_byte = [b""] + rows  # row v at byte v + 1
        whole = b"".join(rows)
        for x, row_x in enumerate(rows):
            lefts = b"".join([by_byte[v] for v in row_x])
            rights = whole.translate((b"\0" + row_x).ljust(256, b"\0"))  # row x's _through
            if lefts != rights:
                for i in compress(count(), map(ne, lefts, rights)):
                    yield (x, *divmod(i, n), _SINGLETONS[lefts[i] - 1],
                           _SINGLETONS[rights[i] - 1])
        return
    w = (n + 63) // 64  # 64-bit words an entry
    pack = _CODECS[n].pack if w == 1 else partial(_pack_wide, w)
    columns = list(map(pack, *table))
    over_columns = _PackedUnion.over(columns)
    # Entry (yn + z)n + x of the tensor is x(yz).  It grows a row of cells
    # at a time, so that no second copy of its n^3 entries is made.
    words = array("Q")
    for row in table:
        words.frombytes(b"".join(map(over_columns.__getitem__, row)))
    # A symmetric table's row unions are its column unions.
    lines = list(starmap(pack, table))
    symmetric = lines == columns
    over_rows = over_columns if symmetric else _PackedUnion.over(lines)
    planes, block, stride = range(w), n * n * w, n * w
    for x, row_x in enumerate(table):
        if symmetric:
            left, at = words, x * block
        else:
            left, at = array("Q", b"".join(map(over_rows.__getitem__, row_x))), 0
        # Word k of every entry of block x against the stride-n slice from x.
        for k in planes:
            if left[at + k:at + block:w] != words[x * w + k::stride]:
                break
        else:
            continue
        lefts = _entries([left[at + k:at + block:w] for k in planes])
        rights = _entries([words[x * w + k::stride] for k in planes])
        # Only a row over z that differs is walked.
        for y in range(n):
            left_y, right_y = lefts[y * n:(y + 1) * n], rights[y * n:(y + 1) * n]
            if left_y != right_y:
                for z in compress(count(), map(ne, left_y, right_y)):
                    yield x, y, z, left_y[z], right_y[z]


def _associativity_defect(table: Sequence[Sequence[int]]
                          ) -> Optional[tuple[int, int, int]]:
    """The least (a, b, c) with (ab)c != a(bc) in the value table, or None:
    the first defect of ``_reassociation_defects`` on its byte rows.
    Entries are carrier indices, below 64, so each fits in a byte."""
    rows = [bytes(row).translate(_SUCCESSOR) for row in table]
    found = next(_reassociation_defects(table, rows), None)
    return found and found[:3]


def _commutativity_defect(table: Sequence[Sequence[int]], names: Sequence[str]
                          ) -> Optional[tuple[str, str]]:
    """The least (x, y), x < y, with xy != yx in a value or mask table, in
    ``names``, or None.  Row x is compared with column x: at the first row
    that differs the rows before it agree with their columns, so the first
    difference lies past the diagonal."""
    for x, (row, column) in enumerate(zip(map(tuple, table), zip(*table))):
        if row != column:
            return names[x], names[_first_difference(row, column)]
    return None


def _identity_defect(line: Iterable[int], names: Sequence[str]
                     ) -> Optional[tuple[str, str]]:
    """(x, y) for the least x whose cell in ``line`` (the cells ex, or xe,
    over x) is not {x}, y the least stray element of that cell, or None."""
    for x, cell in enumerate(line):
        stray = cell ^ (1 << x)
        if stray:
            return names[x], names[_lowest_bit(stray)]
    return None


def _cube_defect(mul: Sequence[Sequence[int]], names: Sequence[str]
                 ) -> Optional[tuple[str]]:
    """(a,) for the least a with (aa)a != a in the value table, in
    ``names``, or None."""
    return next(((names[a],) for a, row in enumerate(mul) if mul[row[a]][a] != a), None)


def _reversibility_defect(op: Sequence[Sequence[int]], r: Sequence[int],
                          names: Sequence[str], rows: Optional[list[bytes]] = None
                          ) -> Optional[tuple[str, str, str]]:
    """The least (x, y, z) with z in xy but x outside z r(y) or y outside
    r(x) z, in ``names``, or None.

    Given the table's ``_byte_rows``, z = xy is one value: column y
    translated through column r(y) must read x + 1 at x, and row x through
    row r(x) read y + 1 at y.  The least failure of each column and row
    gives the least (x, y).  Otherwise, above 16 elements every (x, y) is
    tested at once first: column y, the bit matrix (x, z) of z in xy, must
    lie inside the transpose of column r(y), and row x, over (y, z), inside
    that of row r(x); the 2n transposes are one batch.  Only a failure is
    walked, to name it; up to 16 elements the walk alone costs less, as a
    failing table stops it."""
    n = len(op)
    if rows:
        ident = bytes(range(1, n + 1))
        columns = list(map(bytes, zip(*rows)))
        failed = [(_first_difference(moved, ident), y) for y, moved in enumerate(
            map(bytes.translate, columns, _through(map(columns.__getitem__, r), n)))
            if moved != ident]
        failed += [(x, _first_difference(moved, ident)) for x, moved in enumerate(
            map(bytes.translate, rows, _through(map(rows.__getitem__, r), n)))
            if moved != ident]
        if not failed:
            return None
        x, y = min(failed)
        return names[x], names[y], names[rows[x][y] - 1]
    if n > 16:
        w = 1 << (n - 1).bit_length()
        codec = struct.Struct(f"<{2 * n * w}{_TRANSPOSERS[w][0].format[-1]}")
        pad, size = (0,) * (w - n), w * w // 8
        data = codec.pack(*chain.from_iterable(
            chain(line, pad) for line in chain(zip(*op), op)))
        moved = b"".join(data[i * size:(i + 1) * size]
                         for i in chain(r, (n + x for x in r)))
        if not int.from_bytes(data, "little") & ~_transpose_packed(
                int.from_bytes(moved, "little"), w, 2 * n):
            return None
    for x, row in enumerate(op):
        back = op[r[x]]
        for y, cell in enumerate(row):
            ry = r[y]
            for z in bits(cell):
                if not (op[z][ry] >> x) & 1 or not (back[z] >> y) & 1:
                    return names[x], names[y], names[z]
    return None


def _reassociation_failures(table: Sequence[Sequence[int]]
                            ) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield (a, x, c, y, z) for each c in table[y][z] and a in table[x][c]
    with a outside (xy)z, taking only the least such a per c: the failures
    of strong associativity x(yz) inside (xy)z.  (x, y, z) go in
    lexicographic order, and c ascending."""
    for x, y, z, left, _ in _reassociation_defects(table):
        row_x = table[x]
        for c in bits(table[y][z]):
            missing = row_x[c] & ~left
            if missing:
                yield _lowest_bit(missing), x, c, y, z


def _pointwise_cells(n: int, maps: Sequence[Sequence[int]],
                     *tables: Sequence[Sequence[int]]
                     ) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each k x k table ``allowed`` of masks over the k values of the
    maps, the n x n table whose cell (x, y) masks the c with m[c] in
    allowed[m[x]][m[y]] for every map m in ``maps``; with no maps every
    cell is full.  See the module docstring."""
    full = (full_mask(n),) * n
    pres = list(map(_Unions, _fibres(maps)))
    out = []
    for allowed in tables:
        # lines[i][u]: over y, the c that map i sends into allowed[u][m_i(y)]
        lines = [[tuple(map(pre.__getitem__, map(row.__getitem__, m)))
                  for row in allowed] for m, pre in zip(maps, pres)]
        rows = []
        for x in range(n):
            row = full
            for m, line in zip(maps, lines):
                row = tuple(map(and_, row, line[m[x]]))
            rows.append(row)
        out.append(tuple(rows))
    return tuple(out)


# ---------------------------------------------------------------------------
# carriers and reports

@dataclass(frozen=True)
class Carrier:
    """Ordered list of distinct element labels; index order is canonical."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (1 <= len(self.names) <= CARRIER_CAP):
            raise InputError(
                f"carrier size {len(self.names)} outside 1..{CARRIER_CAP}")
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate element labels")

    @property
    def size(self) -> int:
        return len(self.names)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except (KeyError, TypeError):
            raise InputError(f"unknown element label {name!r}") from None

    def labels(self, mask: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in bits(mask))


@dataclass(frozen=True)
class Verdict:
    axiom: str
    passed: bool
    witness: Optional[tuple] = None
    note: str = ""
    informational: bool = False

    def render(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        parts = [f"{mark}  {self.axiom}"]
        if self.witness is not None:
            parts.append(f"witness={self.witness}")
        if self.note:
            parts.append(f"[{self.note}]")
        return "  ".join(parts)


@dataclass(frozen=True)
class CheckReport:
    """Result of an axiom/property audit: per-axiom verdicts plus witnesses."""

    subject: str
    verdicts: tuple[Verdict, ...]

    @property
    def overall(self) -> bool:
        return all(v.passed for v in self.verdicts if not v.informational)

    def verdict(self, axiom: str) -> Verdict:
        for v in self.verdicts:
            if v.axiom == axiom:
                return v
        raise KeyError(axiom)

    def failures(self) -> tuple[Verdict, ...]:
        return tuple(v for v in self.verdicts if not v.passed)

    def render(self) -> str:
        head = f"{self.subject}: {'PASS' if self.overall else 'FAIL'}"
        return "\n".join([head] + ["  " + v.render() for v in self.verdicts])


@dataclass(frozen=True)
class _OnCarrier:
    """A structure's labelled carrier, its first field, which ``size`` and
    ``names`` read."""

    carrier: Carrier

    @property
    def size(self) -> int:
        return self.carrier.size

    @property
    def names(self) -> tuple[str, ...]:
        return self.carrier.names


def _verdict_all(axiom: str, found: Optional[tuple], note: str = "",
                 informational: bool = False) -> Verdict:
    return Verdict(axiom, found is None, found, note, informational)


# ---------------------------------------------------------------------------
# multigroups

@dataclass(frozen=True)
class FiniteMultigroup(_OnCarrier):
    """(G, *, r, e) with a set-valued operation given as an n x n mask table."""

    op: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    identity: int

    def __post_init__(self) -> None:
        n = self.carrier.size
        object.__setattr__(self, "op", _validate_cell_table("hyperoperation", self.op, n))
        _validate_unary("inv", self.inv, n)
        if not 0 <= self.identity < n:
            raise InputError("identity index out of range")
        if type(self.inv) is not tuple:
            object.__setattr__(self, "inv", tuple(self.inv))

    @property
    def tables(self) -> tuple:
        return (self.identity,), (self.inv,), (), (self.op,)

    def op_masks(self, xmask: int, ymask: int) -> int:
        """Union-extended operation on subsets."""
        out = 0
        for x in bits(xmask):
            row = self.op[x]
            for y in bits(ymask):
                out |= row[y]
        return out


def _validate_cell_table(what: str, table: Sequence[Sequence[int]], n: int) -> tuple:
    """The n x n mask table, frozen as ``_square_table`` freezes, once every
    cell is a nonempty subset of the carrier."""
    if len(table) != n:
        raise InputError(f"{what} table has {len(table)} rows, carrier has {n}")
    top = full_mask(n)
    tuples = type(table) is tuple
    for i, row in enumerate(table):
        if len(row) != n:
            raise InputError(f"{what} row {i} has {len(row)} cells, expected {n}")
        tuples = tuples and type(row) is tuple
        if min(row) > 0 and max(row) <= top:  # the loop names the first bad cell
            continue
        for j, cell in enumerate(row):
            if cell == 0:
                raise InputError(f"empty {what} cell at ({i},{j})")
            if cell & ~top:
                raise InputError(f"{what} cell at ({i},{j}) indexes outside carrier")
    return table if tuples else tuple(map(tuple, table))


def _square_table(table: Sequence[Sequence[int]], n: int, ragged: str) -> tuple:
    """The table, InputError(ragged) unless it has n rows of n entries, as a
    tuple of tuples, so that the values kept on its structure (``_kept``,
    the audit reports) can not go stale through a row given as a list and
    changed later.  The row loop finds whether the table and its rows are
    tuples already; such a table stays shared with its source."""
    if len(table) != n:
        raise InputError(ragged)
    tuples = type(table) is tuple
    for row in table:
        if len(row) != n:
            raise InputError(ragged)
        tuples = tuples and type(row) is tuple
    return table if tuples else tuple(map(tuple, table))


def _kept(build: Callable) -> Callable:
    """``build(s)``, kept in the ``__dict__`` of the structure object ``s``
    as ``cached_property`` keeps a value: an equal copy builds its own, and
    ``==``, ``hash`` and ``repr`` read the fields only.  ``kept(s, v)`` keeps
    and returns v, made elsewhere (an audit's report).  The key is fixed here;
    its dots make it no field name, and nothing else touches ``__dict__``."""
    key = f"{build.__module__}.{build.__name__}"

    @wraps(build)
    def kept(s, *value):
        if value or key not in s.__dict__:
            s.__dict__[key] = value[0] if value else build(s)
        return s.__dict__[key]
    return kept


def _validate_unary(what: str, table: Sequence[int], n: int) -> None:
    if len(table) != n:
        raise InputError(f"{what} table has {len(table)} entries, expected {n}")
    for i, v in enumerate(table):
        if not 0 <= v < n:
            raise InputError(f"{what}({i}) out of range")


def _validate_value_table(what: str, table: Sequence[Sequence[int]], n: int) -> tuple:
    """The n x n table, frozen as ``_square_table`` freezes, once every
    entry is in range."""
    if len(table) != n:
        raise InputError(f"{what} table has {len(table)} rows, carrier has {n}")
    tuples = type(table) is tuple
    for i, row in enumerate(table):
        if len(row) != n:
            raise InputError(f"{what} row {i} has {len(row)} cells, expected {n}")
        tuples = tuples and type(row) is tuple
        if min(row) >= 0 and max(row) < n:  # the loop names the first bad cell
            continue
        for j, v in enumerate(row):
            if not 0 <= v < n:
                raise InputError(f"{what} cell at ({i},{j}) out of range")
    return table if tuples else tuple(map(tuple, table))


def _label_values(carrier: Carrier, rows: Sequence[Sequence[str]]
                  ) -> tuple[tuple[int, ...], ...]:
    """Rows of labels as rows of indices, each row one ``map`` in C.  On a
    label the carrier lacks, the labels are read again one at a time, in
    order, only to raise the carrier's message for the first; so ``rows``
    must be a sequence, not a one-pass iterator."""
    position = carrier._positions.__getitem__
    try:
        return tuple(tuple(map(position, row)) for row in rows)
    except (KeyError, TypeError):
        for row in rows:
            for label in row:
                carrier.index(label)
        raise


class _LabelCells(dict):
    """Label tuple -> the mask of its labels, reduced on first use, so a
    table is reduced once per distinct cell."""

    __slots__ = ("bit",)

    def __init__(self, bit: Callable[[str], int]) -> None:
        super().__init__()
        self.bit = bit

    def __missing__(self, cell: tuple) -> int:
        out = self[cell] = reduce(or_, map(self.bit, cell), 0)
        return out


def _label_masks(carrier: Carrier, table: Sequence[Sequence[Sequence[str]]]
                 ) -> tuple[tuple[int, ...], ...]:
    """The cells of a table of label lists as masks, a row at a time in C.
    Each cell's labels, as a tuple, go through a per-call ``_LabelCells``,
    which reduces each distinct cell once (Z/64 has 64 distinct cells of
    4,096).  On a label the carrier lacks, ``_label_values`` reads the
    cells again, in order, only to raise the carrier's message for the
    first."""
    cells = _LabelCells(
        {name: 1 << i for i, name in enumerate(carrier.names)}.__getitem__)
    try:
        return tuple(tuple(map(cells.__getitem__, map(tuple, row)))
                     for row in table)
    except (KeyError, TypeError):
        _label_values(carrier, [cell for row in table for cell in row])
        raise


def multigroup_from_labels(names: Sequence[str],
                           op: Sequence[Sequence[Sequence[str]]],
                           inv: dict[str, str],
                           identity: str) -> FiniteMultigroup:
    carrier = Carrier(tuple(names))
    n = carrier.size
    if len(op) != n or any(len(r) != n for r in op):
        raise InputError("ragged hyperoperation table")
    table = _label_masks(carrier, op)
    invt = tuple(carrier.index(inv[name]) for name in names)
    return FiniteMultigroup(carrier, table, invt, carrier.index(identity))


def group_as_multigroup(names: Sequence[str],
                        mul: Callable[[int, int], int],
                        inv: Callable[[int], int],
                        identity: int) -> FiniteMultigroup:
    """Wrap an ordinary group law as a singleton-valued multigroup."""
    carrier = Carrier(tuple(names))
    n = carrier.size
    table = tuple(tuple(1 << mul(x, y) for y in range(n)) for x in range(n))
    return FiniteMultigroup(carrier, table, tuple(inv(x) for x in range(n)), identity)


def check_multigroup(m: FiniteMultigroup) -> CheckReport:
    """Audit the four multigroup axioms; commutativity is reported separately."""
    op, names = m.op, m.carrier.names
    return CheckReport(subject="multigroup", verdicts=_multigroup_verdicts(
        op, m.identity, names, "", _additive_scans(op, m.inv, names)))


def _additive_scans(op: Sequence[Sequence[int]], r: Sequence[int],
                    names: Sequence[str]) -> tuple:
    """(rows, w_rev, first, defects): the ``_byte_rows`` of the mask table
    ``op`` or None, the ``_reversibility_defect`` of ``op`` under ``r``, and
    its ``_reassociation_defects`` scan as its first defect (None if there
    is none) and the iterator that yields the rest.  Axioms i and I read
    w_rev; iii reads the first defect, and III and lemma (e) the first and
    then the rest, so one scan serves both presentations of one table."""
    rows = _byte_rows(op)
    defects = _reassociation_defects(op, rows)
    return rows, _reversibility_defect(op, r, names, rows), next(defects, None), defects


def _multigroup_verdicts(op: Sequence[Sequence[int]], identity: int,
                         names: Sequence[str], prefix: str, scans: tuple
                         ) -> tuple[Verdict, ...]:
    """The verdicts of ``check_multigroup`` on a validated table, each axiom
    named with ``prefix``, from the table's ``_additive_scans``: the
    multiring audit reads its addition here without building the additive
    multigroup."""
    _, w_rev, first, _ = scans
    return (
        _verdict_all(prefix + "i-reversibility", w_rev),
        _verdict_all(prefix + "ii-identity", _identity_defect(op[identity], names)),
        _verdict_all(prefix + "iii-associativity",
                     first and (names[first[0]], names[first[1]], names[first[2]])),
        _verdict_all(prefix + "iv-commutativity", _commutativity_defect(op, names)),
    )


def _stray_tuple(tuples: Iterable[Sequence[int]], arity: int, n: int
                 ) -> Optional[Sequence[int]]:
    """The first of ``tuples`` that is not ``arity`` indices below n, or
    None.  All are tested at once; only a failure is walked, to name it."""
    try:
        if set(map(len, tuples)) <= {arity} and set(
                itertools.chain.from_iterable(tuples)) <= set(range(n)):
            return None
    except TypeError:
        pass
    return next((t for t in tuples
                 if len(t) != arity or any(not 0 <= v < n for v in t)), None)


# ---------------------------------------------------------------------------
# relational presentation

@dataclass(frozen=True)
class RelationalMultigroup(_OnCarrier):
    """(G, Pi, r, i) with the operation presented as a set of triples."""

    pi: frozenset[tuple[int, int, int]]
    inv: tuple[int, ...]
    identity: int

    def __post_init__(self) -> None:
        n = self.carrier.size
        _validate_unary("inv", self.inv, n)
        if not 0 <= self.identity < n:
            raise InputError("identity index out of range")
        stray = _stray_tuple(self.pi, 3, n)
        if stray is not None:
            raise InputError(f"triple {stray} outside carrier")
        # A set or list pi and a list inv are frozen, so kept values stay true.
        if type(self.pi) is not frozenset:
            object.__setattr__(self, "pi", frozenset(map(tuple, self.pi)))
        if type(self.inv) is not tuple:
            object.__setattr__(self, "inv", tuple(self.inv))


def to_relational(m: FiniteMultigroup) -> RelationalMultigroup:
    triples = frozenset((x, y, z)
                        for x in range(m.size) for y in range(m.size)
                        for z in bits(m.op[x][y]))
    return RelationalMultigroup(m.carrier, triples, m.inv, m.identity)


def _relational_table(rel: RelationalMultigroup) -> list[list[int]]:
    """The n x n cell masks of the triples; a cell with no triple is 0."""
    n = rel.size
    table = [[0] * n for _ in range(n)]
    for (x, y, z) in rel.pi:
        table[x][y] |= 1 << z
    return table


def from_relational(rel: RelationalMultigroup) -> FiniteMultigroup:
    n = rel.size
    table = _relational_table(rel)
    for x, y in itertools.product(range(n), repeat=2):
        if table[x][y] == 0:
            raise InputError(
                f"non-total hyperoperation: no triple for "
                f"({rel.carrier.names[x]},{rel.carrier.names[y]})")
    return FiniteMultigroup(rel.carrier, table, rel.inv, rel.identity)


def _relational_audit(cell: Sequence[Sequence[int]], e: int, names: Sequence[str],
                      scans: tuple) -> tuple[tuple[Verdict, ...], Optional[tuple]]:
    """Verdicts of axioms I-IV on the mask table ``cell`` with identity e,
    from its ``_additive_scans``, and the first (u, v, w, x) met by the III
    scan with x in u(vw) but not in (uv)w: lemma (e)'s witness whenever III
    passes, as the scan then runs to the end."""
    _, w1, first, defects = scans
    w2 = _identity_defect(map(itemgetter(e), cell), names)

    w3 = we = None
    # The scan from its start: the first defect, then the rest.
    for u, v, w, left, right in chain((first,) if first else (), defects):
        if we is None and right & ~left:
            we = (names[u], names[v], names[w], names[_lowest_bit(right & ~left)])
        if left & ~right:
            w3 = (names[u], names[v], names[w], names[_lowest_bit(left & ~right)])
            break

    w4 = None
    for x, y in itertools.product(range(len(cell)), repeat=2):
        missing = cell[x][y] & ~cell[y][x]
        if missing:
            w4 = (names[x], names[y], names[_lowest_bit(missing)])
            break

    verdicts = (
        _verdict_all("I-reversibility", w1),
        _verdict_all("II-identity", w2),
        _verdict_all("III-reassociation", w3),
        _verdict_all("IV-commutativity", w4),
    )
    return verdicts, we


def check_relational_axioms(rel: RelationalMultigroup) -> CheckReport:
    """Audit axioms I-IV of the triple presentation."""
    cell, names = _relational_table(rel), rel.carrier.names
    verdicts, _ = _relational_audit(cell, rel.identity, names,
                                    _additive_scans(cell, rel.inv, names))
    return CheckReport(subject="relational multigroup", verdicts=verdicts)


def check_relational_lemmas(rel: RelationalMultigroup | FiniteMultigroup
                            ) -> CheckReport:
    """Audit the six consequences (a)-(f) of axioms I-III.

    Axioms I-III are audited first, on the table's ``_additive_scans``,
    which ``check`` shares with the multigroup or multiring audit of the
    same table; on a precondition failure the lemma scan is skipped and the
    axiom verdicts carry the report.  Lemma (e) comes from the same
    reassociation scan as axiom III.  A FiniteMultigroup,
    whose fields carry the same names, is audited on its own ``op`` table,
    the mask table of ``to_relational(rel)``.
    """
    cell = rel.op if isinstance(rel, FiniteMultigroup) else _relational_table(rel)
    r, names = rel.inv, rel.carrier.names
    return _lemmas_report(cell, r, rel.identity, names,
                          _additive_scans(cell, r, names))


def _lemmas_report(cell: Sequence[Sequence[int]], r: Sequence[int], e: int,
                   names: Sequence[str], scans: tuple) -> CheckReport:
    """``check_relational_lemmas`` on the mask table ``cell`` with inverse r
    and identity e, from its ``_additive_scans``."""
    axioms, we = _relational_audit(cell, e, names, scans)
    pre = [v for v in axioms if v.axiom != "IV-commutativity"]
    if not all(v.passed for v in pre):
        note = Verdict("lemmas", False, None,
                       "skipped: axioms I-III failed", informational=True)
        return CheckReport("relational lemmas", tuple(pre) + (note,))

    n = len(cell)

    wa = None if r[e] == e else (names[e],)

    wb = None
    for x in range(n):
        if r[r[x]] != x:
            wb = (names[x],)
            break

    # (x, y, z) in pi iff (r(y), r(x), r(z)) in pi: compare cell (x, y) with
    # the preimage under r of cell (r(y), r(x)); r need not be an involution.
    preimages = _Unions(_fibres([r])[0])
    wc = None
    for x, y in itertools.product(range(n), repeat=2):
        differ = cell[x][y] ^ preimages[cell[r[y]][r[x]]]
        if differ:
            wc = (names[x], names[y], names[_lowest_bit(differ)])
            break

    wd = _identity_defect(cell[e], names)

    wf = None
    for a, b in itertools.product(range(n), repeat=2):
        if not cell[a][b]:
            wf = (names[a], names[b])
            break

    return CheckReport(
        subject="relational lemmas",
        verdicts=(
            _verdict_all("a-inverse-fixes-identity", wa),
            _verdict_all("b-inverse-involutive", wb),
            _verdict_all("c-triple-inversion", wc),
            _verdict_all("d-left-identity", wd),
            _verdict_all("e-reverse-reassociation", we),
            _verdict_all("f-totality", wf),
        ),
    )


# ---------------------------------------------------------------------------
# multirings

@dataclass(frozen=True)
class FiniteMultiring(_OnCarrier):
    """(R, +, ., -, 0, 1): set-valued addition, single-valued multiplication."""

    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    zero: int
    one: int

    def __post_init__(self) -> None:
        n = self.carrier.size
        object.__setattr__(self, "add", _validate_cell_table("addition", self.add, n))
        object.__setattr__(self, "mul", _validate_value_table("multiplication", self.mul, n))
        _validate_unary("neg", self.neg, n)
        for idx, what in ((self.zero, "zero"), (self.one, "one")):
            if not 0 <= idx < n:
                raise InputError(f"{what} index out of range")
        object.__setattr__(self, "neg", tuple(self.neg))

    @property
    def tables(self) -> tuple:
        return (self.zero, self.one), (self.neg,), (self.mul,), (self.add,)

    def add_masks(self, xmask: int, ymask: int) -> int:
        out = 0
        for x in bits(xmask):
            row = self.add[x]
            for y in bits(ymask):
                out |= row[y]
        return out

    def mul_masks(self, xmask: int, ymask: int) -> int:
        out = 0
        for x in bits(xmask):
            row = self.mul[x]
            for y in bits(ymask):
                out |= 1 << row[y]
        return out

    def neg_mask(self, xmask: int) -> int:
        return mask_of(self.neg[x] for x in bits(xmask))

    def nonzero_mask(self) -> int:
        return full_mask(self.size) & ~(1 << self.zero)

    def additive_multigroup(self) -> FiniteMultigroup:
        return FiniteMultigroup(self.carrier, self.add, self.neg, self.zero)


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
    addt = _label_masks(carrier, add)
    mult = _label_values(carrier, mul)
    negt = tuple(carrier.index(neg[name]) for name in names)
    return FiniteMultiring(carrier, addt, mult, negt,
                           carrier.index(zero), carrier.index(one))


def ring_multiring(n: int) -> FiniteMultiring:
    """Z/n wrapped as a singleton-valued multiring."""
    if n < 1 or n > CARRIER_CAP:
        raise InputError(f"modulus {n} outside 1..{CARRIER_CAP}")
    names = tuple(str(i) for i in range(n))
    add = tuple(tuple(1 << ((i + j) % n) for j in range(n)) for i in range(n))
    mul = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
    neg = tuple((-i) % n for i in range(n))
    return FiniteMultiring(Carrier(names), add, mul, neg, 0, 1 % n)


@lru_cache(maxsize=None)
def q2() -> FiniteMultiring:
    """The three-element sign multifield {-1,0,1}; built once, as every
    sign map, morphism search into it and evaluation embedding reads it."""
    return multiring_from_labels(
        names=("-1", "0", "1"),
        add=[
            [["-1"], ["-1"], ["-1", "0", "1"]],
            [["-1"], ["0"], ["1"]],
            [["-1", "0", "1"], ["1"], ["1"]],
        ],
        mul=[["1", "0", "-1"], ["0", "0", "0"], ["-1", "0", "1"]],
        neg={"-1": "1", "0": "0", "1": "-1"},
        zero="0",
        one="1",
    )


def krasner() -> FiniteMultiring:
    """The two-element multifield {0,1} with 1+1={0,1}."""
    return multiring_from_labels(
        names=("0", "1"),
        add=[[["0"], ["1"]], [["1"], ["0", "1"]]],
        mul=[["0", "0"], ["0", "1"]],
        neg={"0": "0", "1": "1"},
        zero="0",
        one="1",
    )


def _monoid_defects(table: Sequence[Sequence[int]], one: int, zero: int,
                    names: Sequence[str]) -> tuple[Optional[tuple], ...]:
    """The first failures, as label tuples or None, of a commutative monoid
    with an absorbing zero on the value table: the least (a, b, c) with
    (ab)c != a(bc), the least a < b with ab != ba, the least a with
    one·a != a and the least a with a·zero != zero."""
    n = len(table)
    w = _associativity_defect(table)
    return (
        w and tuple(names[i] for i in w),
        _commutativity_defect(table, names),
        next(((names[a],) for a in range(n) if table[one][a] != a), None),
        next(((names[a],) for a in range(n) if table[a][zero] != zero), None),
    )


def _picker(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """itemgetter(*indices), which gives a tuple for one index too."""
    return itemgetter(*indices) if len(indices) != 1 else lambda seq: (seq[indices[0]],)


def _scaling_rows(table: Sequence[Sequence[int]], mul: Sequence[Sequence[int]],
                  columns: Optional[Sequence[int]] = None,
                  elements: Optional[_Elements] = None) -> Iterator[tuple]:
    """For each row b of the mask table T, the rows ((T(b, c)e)_c)_e and
    ((T(be, ce))_c)_e over the columns e of mul (all by default): T(b, c)e
    ORs the lines (1 << xe)_e over the x in T(b, c), transposed lazily, and
    (T(be, ce))_c gathers column e of mul from row be of T in one call."""
    mul = mul if columns is None else [[row[e] for e in columns] for row in mul]
    images = _CellUnion.over([_picker(row)(_SINGLETONS) for row in mul],
                             _Elements() if elements is None else elements)
    gathers = list(map(_picker, zip(*mul)))
    for row, products in zip(table, mul):
        yield (zip(*map(images.__getitem__, row)),
               [gather(table[p]) for gather, p in zip(gathers, products)])


def _distributivity_defects(add: Sequence, mul: Sequence,
                            columns: Optional[Sequence[int]] = None,
                            elements: Optional[_Elements] = None,
                            rows: Optional[list[bytes]] = None) -> tuple:
    """(weak, full): the least index triple (a, b, d), or None, with (a+b)d
    not in ad+bd and with (a+b)d != ad+bd, the least (b, d) at the first a,
    d among ``columns`` (all by default), on the scaling rows of add.

    Given add's ``_byte_rows``, over all columns, both sides are single
    values, so the two witnesses coincide: for each a and d, (a+b)d over b
    is row a translated through column d of mul, and ad+bd is column d
    translated through row ad of add."""
    if rows:
        n = len(rows)
        lines = [bytes(column).translate(_SUCCESSOR) for column in zip(*mul)]
        by_line, by_row = _through(lines, n), _through(rows, n)
        for a, (row_a, products) in enumerate(zip(rows, mul)):
            lefts = list(map(row_a.translate, by_line))
            rights = list(map(bytes.translate, lines, map(by_row.__getitem__, products)))
            if lefts != rights:
                b, i = min((_first_difference(left, right), i) for i, (left, right)
                           in enumerate(zip(lefts, rights)) if left != right)
                return (a, b, i), (a, b, i)
        return None, None
    w_weak = None
    w_full = None
    for a, (lefts, rights) in enumerate(_scaling_rows(add, mul, columns, elements)):
        full = weak = None  # the least (b, d) of each, for this a
        for d, left, right in zip(columns or range(len(mul)), lefts, rights):
            if left == right:
                continue
            if w_full is None:
                b = _first_difference(left, right)
                if full is None or b < full[0]:
                    full = b, d
            if w_weak is None:
                joined = tuple(map(or_, left, right))
                if joined != right:
                    b = _first_difference(joined, right)
                    if weak is None or b < weak[0]:
                        weak = b, d
        if full:
            w_full = (a,) + full
        if weak:
            w_weak = (a,) + weak
        if w_weak and w_full:
            break
    return w_weak, w_full


def _generators(mul: Sequence[Sequence[int]]) -> list[int]:
    """Elements whose products give every element of the value table: in
    order of decreasing |dR|, then by index, each d not yet a product of
    those taken, until the products reach the whole carrier."""
    n, whole = len(mul), full_mask(len(mul))
    close = _closure([[list(map(_SINGLETONS.__getitem__, row)) for row in mul]])
    taken, reached = [], 0
    for d in sorted(range(n), key=lambda d: -len(set(mul[d]))):
        if not reached >> d & 1:
            taken.append(d)
            reached = close(1 << d, reached)
            if reached == whole:
                break
    return taken


def _holds_at_generators(table: Sequence[Sequence[int]], mul: Sequence[Sequence[int]],
                         associative: Optional[bool] = None, full: bool = False) -> bool:
    """Whether the scaling condition T(b, c)e <= T(be, ce) on the mask
    table T (with ``full``, also its equality form) is decided to hold by
    ``_distributivity_defects`` over the columns of mul's ``_generators``:
    with mul associative it then holds at every e, their products.  The
    test is made only above 16 elements, as it costs more than it saves on
    enumerate's and check-mutants' tables, and only when mul is
    associative: ``associative`` when the caller has audited it, else
    tested here.  False means undecided: the scan over every column
    decides, and names the witness."""
    if len(mul) <= 16:
        return False
    if associative is None:
        associative = _associativity_defect(mul) is None
    if not associative:
        return False
    weak, equal = _distributivity_defects(table, mul, _generators(mul))
    return weak is None and (equal is None or not full)


def check_multiring(r: FiniteMultiring) -> CheckReport:
    """Audit the multiring axioms; the report is kept on ``r`` for ``classify``.

    Weak distributivity (a+b)d <= ad+bd is the axiom; equality is reported
    as an extra informational verdict so multifields can be recognised.
    Above 16 elements, with mul associative and an addition that is not
    read as byte rows, both pass at once when they hold at the generators
    of mul (``_holds_at_generators``); otherwise every (a, b, d) is scanned.
    """
    return _multiring_report(r, _additive_scans(r.add, r.neg, r.names))


_audit = _kept(check_multiring)  # the report kept by its last run, or a new one


def _multiring_report(r: FiniteMultiring, scans: tuple) -> CheckReport:
    """``check_multiring(r)``, its addition read from ``_additive_scans``;
    the report is kept on ``r``."""
    names, rows = r.names, scans[0]
    verdicts = list(_multigroup_verdicts(r.add, r.zero, names, "add-", scans))
    monoid = _monoid_defects(r.mul, r.one, r.zero, names)
    verdicts += map(_verdict_all, ("mul-associativity", "mul-commutativity",
                                   "mul-identity", "zero-absorbing"), monoid)
    if not rows and _holds_at_generators(r.add, r.mul, monoid[0] is None, full=True):
        weak = full = None
    else:
        weak, full = (w and tuple(map(names.__getitem__, w))
                      for w in _distributivity_defects(r.add, r.mul, None, None, rows))
    verdicts.append(_verdict_all("distributivity-weak", weak))
    verdicts.append(_verdict_all("distributivity-full", full,
                                 note="informational", informational=True))
    return _audit(r, CheckReport("multiring", tuple(verdicts)))


def _axioms_and_lemmas(s: FiniteMultiring | FiniteMultigroup
                       ) -> tuple[CheckReport, CheckReport]:
    """(``check_multiring(s)``, ``check_relational_lemmas`` of its additive
    multigroup) for a multiring, (``check_multigroup(s)``,
    ``check_relational_lemmas(s)``) for a multigroup: both reports read one
    ``_additive_scans`` of the (additive) table, so its byte rows are
    decided, its reversibility walked and its reassociation scan run once."""
    ring = isinstance(s, FiniteMultiring)
    op, r, e = (s.add, s.neg, s.zero) if ring else (s.op, s.inv, s.identity)
    names = s.carrier.names
    scans = _additive_scans(op, r, names)
    axioms = _multiring_report(s, scans) if ring else CheckReport(
        "multigroup", _multigroup_verdicts(op, e, names, "", scans))
    return axioms, _lemmas_report(op, r, e, names, scans)


@dataclass(frozen=True)
class MultiringKind:
    multiring: bool
    multidomain: bool
    multifield: bool


def _classify_unchecked(r: FiniteMultiring) -> MultiringKind:
    """``classify(r)`` for an audited ``r``, or a relabelled copy of one."""
    nonzero = [x for x in range(r.size) if x != r.zero]
    domain = all(r.mul[a][b] != r.zero for a in nonzero for b in nonzero)
    return MultiringKind(True, domain, all(r.one in r.mul[a] for a in nonzero))


@_kept
def classify(r: FiniteMultiring) -> MultiringKind:
    """Flag multidomain / multifield status, kept on ``r``.  Requires the
    axioms to hold: reads the multiring audit kept on ``r``, and audits
    ``r`` only when none is kept."""
    if not _audit(r).overall:
        raise InputError("classify: structure fails the multiring audit")
    return _classify_unchecked(r)


# ---------------------------------------------------------------------------
# morphisms

@dataclass(frozen=True)
class StructureMap:
    """Total map between two structures, stored on carrier indices."""

    source: object
    target: object
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.source.carrier.size
        m = self.target.carrier.size
        if len(self.mapping) != n:
            raise InputError("map not total on source carrier")
        if any(not 0 <= v < m for v in self.mapping):
            raise InputError("map image outside target carrier")

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.carrier.size


def identity_map(a: FiniteMultiring) -> StructureMap:
    return StructureMap(a, a, tuple(range(a.size)))


def compose_maps(f: StructureMap, g: StructureMap) -> StructureMap:
    """g after f."""
    if f.target is not g.source and f.target != g.source:
        raise InputError("compose: middle structures differ")
    return StructureMap(f.source, g.target, tuple(g.mapping[v] for v in f.mapping))


def check_morphism(f: StructureMap) -> CheckReport:
    """Audit the five multiring morphism conditions."""
    a: FiniteMultiring = f.source  # type: ignore[assignment]
    missed, (w2,), (w4,), (w1,) = _map_defects(f.mapping, a, f.target)
    return CheckReport(
        subject="morphism",
        verdicts=(
            _verdict_all("i-add-membership", w1),
            _verdict_all("ii-neg", w2),
            _verdict_all("iii-zero", (a.names[a.zero],) if 0 in missed else None),
            _verdict_all("iv-mul", w4),
            _verdict_all("v-one", (a.names[a.one],) if 1 in missed else None),
        ),
    )


def kernel_mask(f: StructureMap) -> int:
    b: FiniteMultiring = f.target  # type: ignore[assignment]
    return mask_of(i for i, v in enumerate(f.mapping) if v == b.zero)


def embedding_kind(f: StructureMap) -> str:
    """Classify a morphism along the substructure chain.

    Returns the maximal label among not_injective, embedded,
    strongly_embedded, submultiring.
    """
    if not check_morphism(f).overall:
        raise InputError("embedding_kind: map is not a morphism")
    a: FiniteMultiring = f.source  # type: ignore[assignment]
    b: FiniteMultiring = f.target  # type: ignore[assignment]
    fm = f.mapping
    if not f.is_injective():
        return "not_injective"
    pre = _Unions(_fibres([fm])[0])  # mask of b -> the c that f sends into it
    if any(pre[b.add[fm[x]][fm[y]]] & ~a.add[x][y]
           for x, y in itertools.product(range(a.size), repeat=2)):
        return "embedded"
    image = mask_of(fm)
    for x, y in itertools.product(range(a.size), repeat=2):
        if b.add[fm[x]][fm[y]] & ~image:
            return "strongly_embedded"
    return "submultiring"


_Table = Sequence[Sequence[int]]


class _Moved(dict):
    """Mask -> its image under the bijection f that sends order[i] to i,
    computed on first use; ``pick`` puts a row's entries, or a table's
    rows, in that order."""

    def __init__(self, order: Sequence[int]) -> None:
        self.f = sorted(range(len(order)), key=order.__getitem__)
        self.pick = itemgetter(*order) if len(order) > 1 else tuple

    def __missing__(self, mask: int) -> int:
        out = self[mask] = mask_of(self.f[c] for c in bits(mask))
        return out

    def flat(self, t: _Table, image: Callable[[int], int]) -> list:
        """Table t moved along f, its entries through ``image``, row after row."""
        pick = self.pick
        return list(map(image, itertools.chain.from_iterable(map(pick, pick(t)))))


def _rows(flat: list, n: int) -> tuple:
    """A flat n x n table cut back into its n rows."""
    return tuple(zip(*[iter(flat)] * n))


def _relabel(moved: _Moved, tables: tuple) -> tuple:
    """``tables`` moved along the bijection f = ``moved.f``, element x
    becoming f[x], with rows in the new index order: the constants, the
    unary, value and cell (mask) tables, and any relations given as sets of
    tuples after them."""
    constants, unary, values, cells, *relations = tables
    f = moved.f
    return (tuple(map(f.__getitem__, constants)),
            tuple(tuple(map(f.__getitem__, moved.pick(u))) for u in unary),
            tuple(_rows(moved.flat(t, f.__getitem__), len(f)) for t in values),
            tuple(_rows(moved.flat(t, moved.__getitem__), len(f)) for t in cells),
            *(frozenset(tuple(f[v] for v in q) for q in rel) for rel in relations))


def same_tables(a, b) -> bool:
    """True when a and b have the same tables once the elements with equal
    labels are identified."""
    if set(a.carrier.names) != set(b.carrier.names):
        return False
    return _relabel(_Moved([a.carrier.index(x) for x in b.carrier.names]),
                    a.tables) == b.tables


def _table_pairs(a, b) -> list[tuple]:
    """The constants, unary, value and cell tables of a and b, zipped into
    (source, target) pairs group by group."""
    return [tuple(zip(s, t)) for s, t in zip(a.tables[:4], b.tables[:4])]


def _map_defects(f: Sequence[int], a, b) -> tuple:
    """The defects of the map f from a to b, one group per group of their
    ``tables``: the positions of the constants f misses, then the first
    defect of each unary, value and cell table in lexicographic order, in
    a's labels, or None: the least (x,) with f(u(x)) != u'(f(x)), the least
    (x, y) with f(xy) != f(x)f(y), and the least (x, y, c) with c in
    cell(x, y) and f(c) outside cell'(f(x), f(y))."""
    constants, unary, values, cells = _table_pairs(a, b)
    names = a.carrier.names
    return (tuple(k for k, (x, v) in enumerate(constants) if f[x] != v),
            [next(((names[x],) for x, y in enumerate(u) if f[y] != u2[f[x]]), None)
             for u, u2 in unary],
            [next(((names[x], names[y]) for x, row in enumerate(t)
                   for y, z in enumerate(row) if f[z] != t2[f[x]][f[y]]), None)
             for t, t2 in values],
            [next(((names[x], names[y], names[c]) for x, row in enumerate(t)
                   for y, cell in enumerate(row) for c in bits(cell)
                   if not t2[f[x]][f[y]] >> f[c] & 1), None) for t, t2 in cells])


def _table_maps(n: int, m: int, fixed: Sequence[tuple[int, int]],
                unary: Sequence[tuple[Sequence[int], Sequence[int]]] = (),
                ops: Sequence[tuple[_Table, _Table]] = (),
                cells: Sequence[tuple[_Table, _Table]] = (),
                bijective: bool = False) -> Iterator[tuple[int, ...]]:
    """Candidate maps {0..n-1} -> {0..m-1} in lexicographic order, as tuples.

    Each (source, target) pair of tables is a condition every wanted map
    meets: ``fixed`` pins f(i) = v, ``unary`` asks f(u(x)) = u'(f(x)),
    ``ops`` asks f(xy) = f(x)f(y) on value tables and ``cells`` asks
    f(cell(x, y)) <= cell'(f(x), f(y)) on mask tables; ``bijective`` adds
    injectivity and f(c) in cell'(f(x), f(y)) only if c in cell(x, y).
    The maps yielded are exactly those meeting every condition: each pair
    of value or cell tables is applied when the later of its two variables
    is assigned and narrows every variable it names, assigned or not; a
    unary pair narrows forward only, f(x) = v narrowing f(u(x)) to u'(v);
    an empty domain cuts the branch.  Each value tried applies injectivity,
    the unary and the value-table pairs, and cuts on an empty domain; then
    the cell pairs forward (c in cell(x, y) narrows f(c) to cell'(f(x),
    f(y))), each order of (x, y) once if the two differ, and cuts again;
    with ``bijective``, unequal popcounts cut too (equal popcounts plus
    injectivity give f(cell) = cell').  Only then, with ``bijective``, does
    each later c outside a cell leave its image: each image element t
    gathers those c in ban[t], and one ``_transposed`` of ban, max(n, m)
    rows square, gives every c the mask it leaves.
    """
    start = [(1 << m) - 1] * n
    for i, v in fixed:
        start[i] &= 1 << v
    if bijective:
        for i, v in fixed:
            for j in range(n):
                if j != i:
                    start[j] &= ~(1 << v)
    elements = _Elements()
    outside = full_mask(n)
    width = max(n, m)  # ban's rows, as many as its columns
    vals = [0] * n

    def cell_narrowed(i: int, v: int, d: list[int]) -> Optional[list[int]]:
        """d narrowed by the cell pairs of f(i) = v, or None on a cut."""
        pairs = []
        for src, tgt in cells:
            src_i, tgt_v = src[i], tgt[v]
            for j in range(i + 1):
                w = vals[j]
                first, second = (src_i[j], tgt_v[w]), (src[j][i], tgt[w][v])
                pairs.append(first)
                if second != first:
                    pairs.append(second)
        for cell, image in pairs:
            for c in elements[cell]:
                d[c] &= image
        if 0 in d:
            return None
        if bijective:
            if any(cell.bit_count() != image.bit_count() for cell, image in pairs):
                return None  # no bijection matches the two cells
            later = outside >> (i + 1) << (i + 1)
            ban = [0] * width
            for cell, image in pairs:
                rest = later & ~cell
                if rest:
                    for t in elements[image]:
                        ban[t] |= rest
            if any(ban):
                d = list(map(and_, d, map(invert, _transposed(ban))))
                if 0 in d:
                    return None
        return d

    def extend(i: int, dom: list[int]) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(vals)
            return
        choices = dom[i]
        while choices:
            low = choices & -choices
            choices ^= low
            v = low.bit_length() - 1
            vals[i] = v
            d = dom.copy()
            d[i] = low
            if bijective:
                for j in range(i + 1, n):
                    d[j] &= ~low
            for src, tgt in unary:
                d[src[i]] &= 1 << tgt[v]
            for src, tgt in ops:
                src_i, tgt_v = src[i], tgt[v]
                for j in range(i + 1):
                    w = vals[j]
                    d[src_i[j]] &= 1 << tgt_v[w]
                    d[src[j][i]] &= 1 << tgt[w][v]
            if 0 in d:
                continue
            if cells:
                d = cell_narrowed(i, v, d)
                if d is None:
                    continue
            yield from extend(i + 1, d)

    return extend(0, start)


def _table_morphisms(a, b, bijective: bool = False) -> Iterator[tuple[int, ...]]:
    """The maps a -> b that keep all tables of ``_table_pairs``, in order."""
    return _table_maps(a.size, b.size, *_table_pairs(a, b), bijective=bijective)


def enumerate_multiring_morphisms(a: FiniteMultiring,
                                  b: FiniteMultiring) -> list[StructureMap]:
    """All morphisms a -> b, in lexicographic order of their mappings."""
    return [StructureMap(a, b, mp) for mp in _table_morphisms(a, b)]


def find_isomorphism(a: FiniteMultiring,
                     b: FiniteMultiring) -> Optional[StructureMap]:
    """First isomorphism in lexicographic order of the mappings, or None.
    Label-insensitive: only the tables must match."""
    if a.size != b.size:
        return None
    f = next(_table_morphisms(a, b, bijective=True), None)
    return None if f is None else StructureMap(a, b, f)


def is_isomorphic(a: FiniteMultiring, b: FiniteMultiring) -> bool:
    return find_isomorphism(a, b) is not None
