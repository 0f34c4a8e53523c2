"""Command line surface: audits, constructions, functors, round-trips,
morphism and structure enumeration, and the whole-diagram consistency walk.

Exit codes: 0 success, 1 failed audit, 2 malformed input or a path that
cannot be read or written (missing, a directory, not UTF-8 text), 141
(128 + SIGPIPE) when the reader of standard output closed it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from . import constructions as cons
from . import core
from . import enumeration
from . import io as mio
from . import ordering_spaces as osp
from . import real_semigroups as rsg
from . import sampling
from . import special_groups as spg
from . import spectra
from .core import CheckReport, FiniteMultiring, InputError


# One encoder for every verdict line; ``json.dumps`` builds a new one per
# call when given arguments.
_ENCODE_VERDICT = json.JSONEncoder(ensure_ascii=False, default=str).encode


def _emit_report(report: CheckReport, fmt: str) -> None:
    if fmt == "jsonl":
        lines = [_ENCODE_VERDICT({
            "subject": report.subject,
            "axiom": v.axiom,
            "passed": v.passed,
            "witness": v.witness,
            "note": v.note,
            "informational": v.informational,
        }) for v in report.verdicts]
        lines.append(json.dumps({"subject": report.subject,
                                 "overall": report.overall}))
        print("\n".join(lines))
    else:
        print(report.render())


class _Classification:
    """Status flags; informational only, never affects the exit code."""

    def __init__(self, flags: dict[str, bool]) -> None:
        self.flags = flags
        self.overall = True

    def emit(self, fmt: str) -> None:
        if fmt == "jsonl":
            print(json.dumps({"subject": "classification", **self.flags}))
        else:
            print("classification:")
            for name, value in self.flags.items():
                print(f"  {name}: {value}")


def _reports_for_level(obj, level: str) -> list:
    reports: list[CheckReport] = []
    derived = level in ("derived", "all")
    kind = mio.kind_of(obj)
    if kind == "multiring":
        # The axioms and the lemmas read one audit of the addition table.
        reports += core._axioms_and_lemmas(obj) if derived else [core.check_multiring(obj)]
        axioms = reports[0]
        if derived and axioms.overall:
            flags = core.classify(obj)
            info = {
                "multidomain": flags.multidomain,
                "multifield": flags.multifield,
                "real": spectra.is_real(obj),
                "real-reduced-multiring":
                    spectra.is_real_reduced_mr(obj).overall,
            }
            if flags.multifield:
                info["real-reduced-multifield"] = \
                    spectra.is_real_reduced_mf(obj).overall
                info["special-multifield"] = spg.check_smf(obj).overall
            reports.append(_Classification(info))
            if level == "all":
                reports.append(spectra.check_quotient_characterizations(obj))
                reports.append(spectra.spec_topology(obj).report)
                reports.append(spectra.ordering_hom_bijection_check(obj))
                if flags.multifield:
                    reports.append(spectra.reduced_characterizations_check(obj))
                if info["real-reduced-multiring"]:
                    reports.append(spectra.sper_embedding_check(obj))
    elif kind == "multigroup":
        reports += core._axioms_and_lemmas(obj) if derived else [core.check_multigroup(obj)]
    elif kind == "special_group":
        reports.append(spg.check_sg(obj))
        if derived:
            reports.append(spg.check_sg789(obj))
            reports.append(_Classification(
                {"reduced": spg.check_reduced(obj).overall}))
    elif kind == "real_semigroup":
        reports.append(rsg.check_rs(obj))
        if derived:
            reports.append(rsg.check_rs_derived(obj))
        if level == "all":
            reports.append(rsg.separation_audit(obj))
    elif kind == "sign_space":
        reports.append(osp.check_aos(obj) if obj.mode == osp.AOS
                       else osp.check_ars(obj))
        if derived:
            reports.append(osp.value_set_reassociation_check(obj))
            if obj.mode == osp.ARS:
                reports.append(osp.ars_bridge_check(obj))
    return reports


def cmd_check(args) -> int:
    obj = mio.read_structure(args.file)
    reports = _reports_for_level(obj, args.level)
    ok = True
    for r in reports:
        if isinstance(r, _Classification):
            r.emit(args.format)
        else:
            _emit_report(r, args.format)
        ok = ok and r.overall
    return 0 if ok else 1


def _read_multiring(args) -> FiniteMultiring:
    obj = mio.read_structure(args.file)
    if mio.kind_of(obj) != "multiring":
        raise InputError(f"{args.command} expects a multiring file")
    return obj


def _print_orderings(obj: FiniteMultiring) -> None:
    orderings = spectra.enumerate_orderings(obj)
    print(f"orderings: {len(orderings)}")
    for i, o in enumerate(orderings):
        print(f"  P{i}: {{{', '.join(o.labels)}}}")


def cmd_classify(args) -> int:
    obj = _read_multiring(args)
    report = core.check_multiring(obj)
    if not report.overall:
        _emit_report(report, args.format)
        return 1
    flags = core.classify(obj)
    full = report.verdict("distributivity-full").passed
    info = {
        "multiring": flags.multiring,
        "multidomain": flags.multidomain,
        "multifield": flags.multifield,
        "full_distributivity": full,
        "real": spectra.is_real(obj),
        "real_reduced_multiring": spectra.is_real_reduced_mr(obj).overall,
    }
    if flags.multifield:
        info["real_reduced_multifield"] = spectra.is_real_reduced_mf(obj).overall
    if args.format == "jsonl":
        print(json.dumps(info))
    else:
        for k, v in info.items():
            print(f"{k}: {v}")
    return 0


def cmd_spec(args) -> int:
    obj = _read_multiring(args)
    report = spectra.spec_topology(obj)
    print(f"prime ideals: {len(report.primes)}")
    for i, p in enumerate(report.primes):
        print(f"  p{i}: {{{', '.join(p.labels)}}}")
    for name in obj.names:
        opens = ", ".join(f"p{i}" for i in report.basic_opens[name])
        print(f"  D({name}) = {{{opens}}}")
    _emit_report(report.report, args.format)
    return 0 if report.report.overall else 1


def cmd_sper(args) -> int:
    obj = _read_multiring(args)
    _print_orderings(obj)
    if not spectra.is_real_reduced_mr(obj).overall:
        print("not real reduced: evaluation embedding not attempted")
        return 0
    report = spectra.sper_embedding_check(obj)
    _emit_report(report, args.format)
    return 0 if report.overall else 1


def cmd_orderings(args) -> int:
    obj = _read_multiring(args)
    _print_orderings(obj)
    report = spectra.ordering_hom_bijection_check(obj)
    _emit_report(report, args.format)
    return 0 if report.overall else 1


def cmd_real_check(args) -> int:
    obj = _read_multiring(args)
    multifield = core.classify(obj).multifield
    print(f"real: {spectra.is_real(obj)}")
    report = spectra.is_real_reduced_mr(obj)
    _emit_report(report, args.format)
    ok = True
    if multifield:
        mf = spectra.is_real_reduced_mf(obj)
        _emit_report(mf, args.format)
        rc = spectra.reduced_characterizations_check(obj)
        _emit_report(rc, args.format)
        ok = rc.overall
    return 0 if ok else 1


def _parse_labels(raw: str) -> list[str]:
    """The comma separated labels; commas inside parentheses, as in (-1,1), stay."""
    parts, depth = [""], 0
    for ch in raw:
        if ch == "," and not depth:
            parts.append("")
        else:
            parts[-1] += ch
            depth = max(depth + (ch == "(") - (ch == ")"), 0)
    return [part.strip() for part in parts if part.strip()]


def _with_one(a: FiniteMultiring, labels: list[str]) -> cons.MultiplicativeSet:
    """The multiplicative set of ``labels`` and 1."""
    return cons.multiplicative_set(a, labels + [a.names[a.one]])


# ``construct``'s operations by name: each builds the result from the
# multiring read from its file (the list of them, for ``product``) and the
# ``--set`` labels.
_CONSTRUCTIONS = {
    "product": lambda rings, labels: cons.product(rings),
    "quotient": lambda a, labels: cons.quotient_by_ideal(
        a, cons.ideal_generated(a, labels))[0],
    "localize": lambda a, labels: cons.localization(a, _with_one(a, labels))[0],
    "marshall": lambda a, labels: cons.marshall_quotient(a, _with_one(a, labels))[0],
    "qred": lambda a, labels: cons.q_red(a)[0],
    "ff": lambda a, labels: cons.fraction_multifield(a)[0],
}


def cmd_construct(args) -> int:
    op, files = args.operation, args.files
    if op != "product" and len(files) > 1:
        raise InputError(f"{op} takes one multiring file, got {len(files)}")
    rings = [mio.read_structure(f) for f in files]
    if any(mio.kind_of(a) != "multiring" for a in rings):
        raise InputError("product expects multiring files" if op == "product"
                         else f"{op} expects a multiring file")
    for path, a in zip(files, rings):
        failed = next((v for v in core.check_multiring(a).verdicts
                       if not v.passed and not v.informational), None)
        if failed is not None:
            at = "" if failed.witness is None else \
                f" at ({','.join(map(str, failed.witness))})"
            raise InputError(f"{path}: fails the multiring audit: {failed.axiom}{at}")
    result = _CONSTRUCTIONS[op](rings if op == "product" else rings[0],
                                _parse_labels(args.set or ""))
    return _write_result(result, args.out, f" ({result.size} elements)")


def _write_result(result, out: Optional[str], note: str = "") -> int:
    """Write ``result``'s file text to ``out`` and confirm it, with ``note``
    after the path, or print the text when there is no ``out``."""
    text = mio.serialize(result)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}{note}")
    else:
        print(text, end="")
    return 0


class _Side(NamedTuple):
    """One side of an equivalence.  Its lambdas look the library function up
    on its module at each call, so a rebinding of that name is seen."""
    kind: str  # the kind of file this side takes
    functor: str  # the name of the functor that leaves it
    apply: Callable  # that functor on objects
    roundtrip: Callable  # this side's round-trip audit


# The four equivalences by ``--pair`` name, each with its two sides.
_PAIRS = {
    "sg-smf": (_Side("special_group", "sg-mf", lambda g: spg.sg_to_mf(g),
                     lambda g: spg.sg_smf_roundtrip(g)),
               _Side("multiring", "mf-sg", lambda f: spg.mf_to_sg(f),
                     lambda f: spg.smf_sg_roundtrip(f))),
    "rs-mr": (_Side("real_semigroup", "rs-mr", lambda s: rsg.rs_to_mrred(s),
                    lambda s: rsg.rs_mr_roundtrip(s)),
              _Side("multiring", "mr-rs", lambda a: rsg.mrred_to_rs(a),
                    lambda a: rsg.mr_rs_roundtrip(a))),
    "aos-mf": (_Side("sign_space", "aos-mf", lambda s: osp.aos_to_mfred(s),
                     lambda s: osp.aos_mf_roundtrip(s)),
               _Side("multiring", "mf-aos", lambda f: osp.mfred_to_aos(f)[0],
                     lambda f: osp.mf_aos_roundtrip(f))),
    "ars-mr": (_Side("sign_space", "ars-mr", lambda s: osp.ars_to_mrred(s),
                     lambda s: osp.ars_mr_roundtrip(s)),
               _Side("multiring", "mr-ars", lambda a: osp.mrred_to_ars(a)[0],
                     lambda a: osp.mr_ars_roundtrip(a))),
}
_SIDES = {side.functor: side for sides in _PAIRS.values() for side in sides}

# The morphism search that ``hom`` runs on two files of one kind.
_HOM_SEARCHES = {
    "multiring": lambda a, b: core.enumerate_multiring_morphisms(a, b),
    "special_group": lambda a, b: spg.enumerate_sg_morphisms(a, b),
    "real_semigroup": lambda a, b: rsg.enumerate_rs_morphisms(a, b),
}


def cmd_functor(args) -> int:
    name = args.name.replace("->", "-")
    if name not in _SIDES:
        raise InputError(f"unknown functor {args.name!r}; expected one of "
                         + ", ".join(sorted(_SIDES)))
    side = _SIDES[name]
    obj = mio.read_structure(args.file)
    if mio.kind_of(obj) != side.kind:
        raise InputError(f"functor {name} expects a {side.kind} file, "
                         f"got {mio.kind_of(obj)}")
    return _write_result(side.apply(obj), args.out)


def cmd_roundtrip(args) -> int:
    obj = mio.read_structure(args.file)
    kind = mio.kind_of(obj)
    side = next((s for s in _PAIRS[args.pair] if s.kind == kind), None)
    if side is None:
        raise InputError(f"round-trip {args.pair} does not take a {kind} file")
    report = side.roundtrip(obj)
    _emit_report(report, args.format)
    return 0 if report.overall else 1


def cmd_hom(args) -> int:
    a = mio.read_structure(args.file_a)
    b = mio.read_structure(args.file_b)
    ka, kb = mio.kind_of(a), mio.kind_of(b)
    if ka != kb:
        raise InputError(f"hom needs matching kinds, got {ka} and {kb}")
    if ka not in _HOM_SEARCHES:
        raise InputError(f"hom enumeration not supported for kind {ka}")
    homs = _HOM_SEARCHES[ka](a, b)
    print(f"morphisms: {len(homs)}")
    src_names = a.carrier.names
    dst_names = b.carrier.names
    for i, f in enumerate(homs):
        desc = ", ".join(f"{src_names[x]}->{dst_names[v]}"
                         for x, v in enumerate(f.mapping))
        print(f"  f{i}: {desc}")
    return 0


def cmd_enumerate(args) -> int:
    structures = enumeration.enumerate_structures(
        args.kind, args.order, up_to_iso=args.up_to_iso)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    print(f"{args.kind} structures of order <= {args.order}"
          f"{' up to isomorphism' if args.up_to_iso else ''}: "
          f"{len(structures)}")
    for i, s in enumerate(structures):
        if args.out_dir:
            path = os.path.join(args.out_dir, f"{args.kind}_{i:03d}.mrs")
            mio.write_structure(path, s)
        if mio.kind_of(s) == "multiring":
            print(f"  #{i}: order {s.size}, zero={s.names[s.zero]}, "
                  f"one={s.names[s.one]}, "
                  f"1+1={{{','.join(s.carrier.labels(s.add[s.one][s.one]))}}}")
        else:
            print(f"  #{i}: order {s.size}")
    return 0


def cmd_diagram(args) -> int:
    obj = _read_multiring(args)
    ok = True

    def edge(name: str, passed: bool) -> None:
        nonlocal ok
        print(f"{'pass' if passed else 'FAIL'}  {name}")
        ok = ok and passed

    reduced_mr = spectra.is_real_reduced_mr(obj).overall
    # The kept audit refuses a non-multiring before any edge is printed.
    multifield = reduced_mr and core.classify(obj).multifield
    edge("real reduced multiring", reduced_mr)
    if not reduced_mr:
        print("input is not a real reduced multiring; diagram stops here")
        return 1

    edge("mr -> rs -> mr table-exact", rsg.mr_rs_roundtrip(obj).overall)
    edge("mr -> ars -> mr up to isomorphism", osp.mr_ars_roundtrip(obj).overall)
    # mrred_to_ars has one point per ordering, so the count stands for it
    points = len(spectra.enumerate_orderings(obj))
    edge("rs/ars points agree with Sper",
         len(rsg.hom_to_3(rsg.mrred_to_rs(obj))) == points)

    if multifield:
        mf_red = spectra.is_real_reduced_mf(obj).overall
        edge("real reduced multifield", mf_red)
        if mf_red:
            edge("mf -> sg -> mf table-exact", spg.smf_sg_roundtrip(obj).overall)
            edge("sg reduced iff mf real reduced",
                 spg.check_reduced(spg.mf_to_sg(obj)).overall == mf_red)
            edge("mf -> aos -> mf up to isomorphism",
                 osp.mf_aos_roundtrip(obj).overall)
            aos_space, _ = osp.mfred_to_aos(obj)
            edge("aos points agree with Sper", aos_space.npoints == points)
    return 0 if ok else 1


def cmd_rs_unique3(args) -> int:
    count, survivor = rsg.unique_rs_search_on_3()
    canonical = rsg.canonical_3()
    match = survivor is not None and survivor.d == canonical.d
    print(f"real semigroup structures on the sign ternary semigroup: {count}")
    print(f"matches the canonical tables: {match}")
    return 0 if count == 1 and match else 1


def cmd_sample(args) -> int:
    oracle = sampling.BrokenTriangleOracle() if args.broken \
        else sampling.TriangleOracle()
    report = sampling.sampled_check(oracle, args.axiom, args.trials, args.seed)
    _emit_report(report, args.format)
    return 0 if report.overall else 1


def cmd_corpus(args) -> int:
    written = mio.write_corpus(args.out)
    for path in written:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multialg",
        description="Finite multivalued algebra: audits, constructions, "
                    "functors and round-trip checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p) -> None:
        p.add_argument("--format", choices=("text", "jsonl"), default="text")

    p = sub.add_parser("check", help="run the kind-appropriate audits")
    p.add_argument("file")
    p.add_argument("--level", choices=("axioms", "derived", "all"),
                   default="axioms")
    add_format(p)

    for name, text in (("classify", "multiring flags and realness"),
                       ("spec", "prime spectrum and patch relations"),
                       ("sper", "orderings and the evaluation embedding"),
                       ("orderings", "orderings and the hom bijection"),
                       ("real-check", "real and real reduced audits")):
        p = sub.add_parser(name, help=text)
        p.add_argument("file")
        add_format(p)

    p = sub.add_parser("construct", help="build a new structure file")
    p.add_argument("operation", choices=tuple(_CONSTRUCTIONS))
    p.add_argument("files", nargs="+")
    p.add_argument("--set", help="comma separated labels (generators or a "
                                 "multiplicative set)")
    p.add_argument("-o", "--out")

    p = sub.add_parser("functor", help="apply one of the eight functors")
    p.add_argument("name", help=", ".join(_SIDES) + " (-> also accepted)")
    p.add_argument("file")
    p.add_argument("-o", "--out")

    p = sub.add_parser("roundtrip", help="equivalence round-trip audit")
    p.add_argument("--pair", required=True, choices=tuple(_PAIRS))
    p.add_argument("file")
    add_format(p)

    p = sub.add_parser("hom", help="enumerate morphisms between two files")
    p.add_argument("file_a")
    p.add_argument("file_b")

    p = sub.add_parser("enumerate", help="all structures of a kind and order")
    p.add_argument("--kind", required=True, choices=enumeration.ENUMERABLE_KINDS)
    p.add_argument("--order", required=True, type=int,
                   help="maximum order (all orders up to this are produced)")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--out-dir")

    p = sub.add_parser("diagram", help="walk the functor diagram from a "
                                       "real reduced multiring or multifield")
    p.add_argument("file")

    sub.add_parser("rs-unique3", help="uniqueness search for the "
                                      "three-element real semigroup")

    p = sub.add_parser("sample", help="seeded membership-oracle trials for "
                                      "the triangle multifield")
    p.add_argument("--axiom", required=True, choices=sampling.SAMPLED_AXIOMS)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--broken", action="store_true",
                   help="use the deliberately broken oracle")
    add_format(p)

    p = sub.add_parser("corpus", help="write the bundled corpus files")
    p.add_argument("--out", default="corpus")

    return parser


# Built once per process: ``parse_args`` fills a fresh ``Namespace`` on every
# call, so repeated in-process calls to ``main`` share no parsed state.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # ``real-check`` runs ``cmd_real_check``, as bound at this call.
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left (``| head``): send what is still buffered to
        # devnull, so the flush at exit does not fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except core.StructuralAnomaly as exc:
        print(f"structural anomaly: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
