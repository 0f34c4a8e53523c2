"""Inputs and items of the four benchmark workloads.

An item is one task a user of multialg waits on: an in-process
``cli.main([...])`` call on a file written during set-up, or a direct call
into a public library function.  Items look every library function up on
its module at call time, so the tracer's patched names are the ones called.

The workloads (why each one exists is in NOTES.md):

- ``check-ladder``: ``check --format jsonl`` over passing structures of
  growing size, up to the 64-element cap.
- ``check-mutants``: the same command on seeded single-cell mutants of
  structures with at most 16 elements; most of them fail their audit.
- ``diagram-search``: ``diagram``, ``roundtrip`` and ``hom`` on real reduced
  structures, plus ``find_isomorphism`` against seeded shuffles of q2^3.
- ``enumerate``: ``enumerate --order 3 --up-to-iso`` for every kind, plus
  the labelled multigroups of order 4 and their canonical keys.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
from typing import Callable, Optional

# Mutants are drawn from a fixed pool so that every one of them has a pinned
# exit code and output digest; the run's --seed picks which ones are checked.
# A pool stratum is one base structure (or the corpus multigroups) and one
# kind of cell: set-valued cells (addition, hyperoperation, representation)
# or single-valued ones (multiplication).  Their audits cost 2-10x apart,
# so each run picks a third of every stratum.
POOL_SEED = "multialg-bench-mutants-v1"
POOL_SET_CELLS = 72
POOL_VALUE_CELLS = 24

# Items of shuffled q2^3 isomorphism searches.  One search costs 0.05-1.1 s
# depending on the shuffle, so each item searches an antithetic pair: a
# seeded shuffle p and its reversal n-1-p.  Their costs correlate at about
# -0.9, which leaves the pair's cost within about 14% of 0.85 s for any
# seed.  Shuffled q2^2 x K^2 (0.1-3.5 s each) is measured by state.py.
ISO_PAIRS = 2

# Published class counts (orders <= 3) and the labelled count at order 4.
ENUMERATION_CLASSES = {"multigroup": 13, "multiring": 17, "multifield": 8}
LABELLED_MULTIGROUPS_4 = 1560


@dataclasses.dataclass
class Item:
    """One timed task.

    ``run`` returns (exit code, output text).  ``check`` gets the same pair
    and returns an error message, or None when the output is right; it runs
    outside the timed region.  Items whose key is in the pin file must also
    reproduce the pinned exit code and output digest.
    """

    key: str
    run: Callable[[], tuple[int, str]]
    check: Optional[Callable[[int, str], Optional[str]]] = None


def cli_item(mods, key: str, argv: list[str],
             check: Optional[Callable[[int, str], Optional[str]]] = None) -> Item:
    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods.cli.main(argv)
        return code, out.getvalue()
    return Item(key, run, check)


# ---------------------------------------------------------------------------
# structures

def relabel(mods, r, perm: list[int]):
    """Copy of multiring r with element x moved to index perm[x]."""
    n = r.size
    old = [0] * n
    for x, new in enumerate(perm):
        old[new] = x

    def move(mask: int) -> int:
        return sum(1 << perm[c] for c in range(n) if (mask >> c) & 1)

    return mods.core.FiniteMultiring(
        mods.core.Carrier(tuple(r.names[old[i]] for i in range(n))),
        tuple(tuple(move(r.add[old[i]][old[j]]) for j in range(n)) for i in range(n)),
        tuple(tuple(perm[r.mul[old[i]][old[j]]] for j in range(n)) for i in range(n)),
        tuple(perm[r.neg[old[i]]] for i in range(n)),
        perm[r.zero], perm[r.one])


def isomorphism_error(a, b, mapping) -> Optional[str]:
    """Check a claimed isomorphism a -> b by relabelling a's tables."""
    n = a.size
    if mapping is None:
        return "no isomorphism found for a shuffled copy"
    if sorted(mapping) != list(range(n)) or b.size != n:
        return "map is not a bijection"
    f = mapping
    if f[a.zero] != b.zero or f[a.one] != b.one:
        return "constants not preserved"
    for x in range(n):
        if f[a.neg[x]] != b.neg[f[x]]:
            return f"neg differs at {x}"
        for y in range(n):
            if f[a.mul[x][y]] != b.mul[f[x]][f[y]]:
                return f"mul differs at ({x},{y})"
            moved = sum(1 << f[c] for c in range(n) if (a.add[x][y] >> c) & 1)
            if moved != b.add[f[x]][f[y]]:
                return f"add differs at ({x},{y})"
    return None


def fan_multifield(mods, k: int):
    return mods.ordering_spaces.aos_to_mfred(mods.ordering_spaces.fan_aos(k))


def power(mods, factors):
    return mods.constructions.product(factors)


def rs_cube(mods, k: int):
    rsg = mods.real_semigroups
    return rsg.rs_product([rsg.canonical_3()] * k)


# ---------------------------------------------------------------------------
# check-ladder

def ladder_rungs(mods) -> list[tuple[str, object, str]]:
    """(name, structure, level), smallest first."""
    core = mods.core
    q2, k = core.q2(), core.krasner()
    return [
        ("z8", core.ring_multiring(8), "all"),
        ("z16", core.ring_multiring(16), "all"),
        ("z32", core.ring_multiring(32), "all"),
        ("q2cube", power(mods, [q2, q2, q2]), "all"),
        ("fan4mf", fan_multifield(mods, 4), "all"),
        ("sg_fan3", mods.special_groups.mf_to_sg(fan_multifield(mods, 3)), "all"),
        ("aos_fan4", mods.ordering_spaces.fan_aos(4), "all"),
        ("z64", core.ring_multiring(64), "axioms"),
        ("k6", power(mods, [k] * 6), "axioms"),
    ]


def setup_ladder(mods, rng: random.Random, workdir: str) -> list[Item]:
    items = []
    for name, obj, level in ladder_rungs(mods):
        path = os.path.join(workdir, f"{name}.mrs")
        mods.io.write_structure(path, obj)
        items.append(cli_item(mods, f"ladder:{name}:{level}",
                              ["check", path, "--level", level, "--format", "jsonl"]))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# check-mutants

def mutant_strata(mods) -> list[tuple[str, list[tuple[str, object]]]]:
    core = mods.core
    q2, k = core.q2(), core.krasner()
    groups = sorted(mods.corpus.corpus_multigroups().items())
    return [
        ("z8", [("z8", core.ring_multiring(8))]),
        ("z12", [("z12", core.ring_multiring(12))]),
        ("z16", [("z16", core.ring_multiring(16))]),
        ("q2xq2", [("q2xq2", power(mods, [q2, q2]))]),
        ("q2xk2", [("q2xk2", power(mods, [q2, k, k]))]),
        ("fan3mf", [("fan3mf", fan_multifield(mods, 3))]),
        ("rs3x3", [("rs3x3", rs_cube(mods, 2))]),
        ("multigroups", groups),
    ]


def _flip(rng: random.Random, mask: int, n: int, allow_empty: bool) -> int:
    while True:
        out = mask ^ (1 << rng.randrange(n))
        if out or allow_empty:
            return out


def _set_cell(table, i: int, j: int, value: int):
    rows = [list(row) for row in table]
    rows[i][j] = value
    return tuple(tuple(row) for row in rows)


def mutate(mods, obj, rng: random.Random, cell: str) -> tuple[str, object]:
    """One single-cell mutant: flip one element of a set-valued cell, or
    move a single-valued (multiplication) cell to another value."""
    n = obj.carrier.size
    i, j = rng.randrange(n), rng.randrange(n)
    if cell == "value":
        value = rng.choice([v for v in range(n) if v != obj.mul[i][j]])
        return f"mul:{i}:{j}:{value}", dataclasses.replace(
            obj, mul=_set_cell(obj.mul, i, j, value))
    core, rsg = mods.core, mods.real_semigroups
    if isinstance(obj, core.FiniteMultiring):
        value = _flip(rng, obj.add[i][j], n, False)
        return f"add:{i}:{j}:{value}", dataclasses.replace(
            obj, add=_set_cell(obj.add, i, j, value))
    if isinstance(obj, core.FiniteMultigroup):
        value = _flip(rng, obj.op[i][j], n, False)
        return f"op:{i}:{j}:{value}", dataclasses.replace(
            obj, op=_set_cell(obj.op, i, j, value))
    if isinstance(obj, rsg.RealSemigroup):
        value = _flip(rng, obj.d[i][j], n, True)
        return f"d:{i}:{j}:{value}", dataclasses.replace(
            obj, d=_set_cell(obj.d, i, j, value))
    raise TypeError(f"no mutation for {type(obj).__name__}")


def mutant_pool(mods) -> list[list[tuple[str, object]]]:
    """Per pool stratum, its (key, mutant) pairs in a fixed order."""
    rng = random.Random(POOL_SEED)
    pool = []
    for stratum, bases in mutant_strata(mods):
        # Multigroups have no single-valued table.
        sizes = {"set": POOL_SET_CELLS + POOL_VALUE_CELLS} if stratum == "multigroups" \
            else {"set": POOL_SET_CELLS, "value": POOL_VALUE_CELLS}
        for cell, size in sizes.items():
            entries = []
            for _ in range(size):
                base_name, base = bases[rng.randrange(len(bases))]
                desc, mutant = mutate(mods, base, rng, cell)
                entries.append((f"mutant:{stratum}:{base_name}:{desc}", mutant))
            pool.append(entries)
    return pool


def mutant_item(mods, key: str, obj, workdir: str, index: int) -> Item:
    path = os.path.join(workdir, f"mutant{index:04d}.mrs")
    mods.io.write_structure(path, obj)
    return cli_item(mods, key, ["check", path, "--level", "all", "--format", "jsonl"])


def setup_mutants(mods, rng: random.Random, workdir: str) -> list[Item]:
    picked = []
    for entries in mutant_pool(mods):
        picked.extend(rng.sample(entries, len(entries) // 3))
    rng.shuffle(picked)
    return [mutant_item(mods, key, obj, workdir, i)
            for i, (key, obj) in enumerate(picked)]


# ---------------------------------------------------------------------------
# diagram-search

def diagram_structures(mods) -> dict[str, object]:
    core = mods.core
    q2 = core.q2()
    fan3 = fan_multifield(mods, 3)
    return {
        "q2": q2,
        "q2xq2": power(mods, [q2, q2]),
        "q2cube": power(mods, [q2, q2, q2]),
        "fan3mf": fan3,
        "sg_fan3": mods.special_groups.mf_to_sg(fan3),
        "rs3": mods.real_semigroups.canonical_3(),
        "rs3x3": rs_cube(mods, 2),
        "rs3cube": rs_cube(mods, 3),
        "ars_q2xq2": mods.corpus.ars_q2xq2(),
    }


def _count_line_check(prefix: str, expected: int) -> Callable[[int, str], Optional[str]]:
    def check(code: int, text: str) -> Optional[str]:
        first = text.split("\n", 1)[0]
        if not first.startswith(prefix):
            return f"unexpected first line {first!r}"
        got = int(first.rsplit(" ", 1)[1])
        if got != expected:
            return f"{prefix} {got}, expected {expected}"
        return None
    return check


def iso_pair(mods, key: str, x, rng: random.Random) -> Item:
    """find_isomorphism(x, shuffled x) for a seeded shuffle and its reversal."""
    n = x.size
    perm = list(range(n))
    rng.shuffle(perm)
    copies = [relabel(mods, x, perm), relabel(mods, x, [n - 1 - v for v in perm])]
    found: list = []

    def run() -> tuple[int, str]:
        found[:] = [mods.core.find_isomorphism(x, y) for y in copies]
        return 0, ""

    def check(code: int, text: str) -> Optional[str]:
        for y, f in zip(copies, found):
            err = isomorphism_error(x, y, None if f is None else f.mapping)
            if err:
                return err
        return None

    return Item(key, run, check)


def setup_diagram(mods, rng: random.Random, workdir: str) -> list[Item]:
    objs = diagram_structures(mods)
    paths = {}
    for name, obj in objs.items():
        paths[name] = os.path.join(workdir, f"{name}.mrs")
        mods.io.write_structure(paths[name], obj)
    items = [cli_item(mods, f"diagram:{name}", ["diagram", paths[name]])
             for name in ("q2cube", "q2xq2", "fan3mf")]
    for pair, name in (("sg-smf", "sg_fan3"), ("rs-mr", "rs3cube"),
                       ("ars-mr", "ars_q2xq2")):
        items.append(cli_item(mods, f"roundtrip:{pair}:{name}",
                              ["roundtrip", "--pair", pair, paths[name],
                               "--format", "jsonl"]))
    # hom X q2 lists hom_to_q2(X); its size must equal the ordering count.
    orderings = len(mods.spectra.enumerate_orderings(objs["q2cube"]))
    items.append(cli_item(mods, "hom:q2cube:q2", ["hom", paths["q2cube"], paths["q2"]],
                          _count_line_check("morphisms:", orderings)))
    items.append(cli_item(mods, "hom:rs3x3:rs3", ["hom", paths["rs3x3"], paths["rs3"]]))
    items += [iso_pair(mods, f"iso:q2cube:{i}", objs["q2cube"], rng)
              for i in range(ISO_PAIRS)]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# enumerate

def multigroups_of_order_4(mods) -> tuple[int, str]:
    en = mods.enumeration
    labelled = 0
    keys = set()
    for m in en.generate_multigroups(4):
        labelled += 1
        keys.add(en.multigroup_canonical_key(m))
    return 0, f"labelled {labelled}\nclasses {len(keys)}\n"


def setup_enumerate(mods, rng: random.Random, workdir: str) -> list[Item]:
    items = []
    for kind in mods.enumeration.ENUMERABLE_KINDS:
        check = None
        if kind in ENUMERATION_CLASSES:
            check = _count_line_check(
                f"{kind} structures of order <= 3 up to isomorphism:",
                ENUMERATION_CLASSES[kind])
        items.append(cli_item(mods, f"enumerate:{kind}",
                              ["enumerate", "--kind", kind, "--order", "3",
                               "--up-to-iso"], check))
    items.append(Item("generate:multigroup:4",
                      lambda: multigroups_of_order_4(mods),
                      _count_line_check("labelled", LABELLED_MULTIGROUPS_4)))
    rng.shuffle(items)
    return items


SETUPS = {
    "check-ladder": setup_ladder,
    "check-mutants": setup_mutants,
    "diagram-search": setup_diagram,
    "enumerate": setup_enumerate,
}
