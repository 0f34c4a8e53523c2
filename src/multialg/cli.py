"""Command line surface: audits, constructions, functors, round-trips,
morphism and structure enumeration, and the whole-diagram consistency walk.

Exit codes: 0 success, 1 failed audit, 2 malformed input, 141 (128 +
SIGPIPE) when the reader of standard output closed it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import constructions as cons
from . import core
from . import enumeration
from . import io as mio
from . import ordering_spaces as osp
from . import real_semigroups as rsg
from . import sampling
from . import special_groups as spg
from . import spectra
from .core import CheckReport, FiniteMultigroup, FiniteMultiring, InputError
from .ordering_spaces import SignSpace
from .real_semigroups import RealSemigroup
from .special_groups import SpecialGroup


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
    if isinstance(obj, FiniteMultiring):
        axioms = core.check_multiring(obj)
        reports.append(axioms)
        if level in ("derived", "all"):
            reports.append(core.check_relational_lemmas(obj.additive_multigroup()))
            if axioms.overall:
                flags = core.classify(obj, verified=True)
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
        if level == "all" and axioms.overall:
            reports.append(spectra.check_quotient_characterizations(obj))
            reports.append(spectra.spec_topology(obj).report)
            reports.append(spectra.ordering_hom_bijection_check(obj))
            if core.classify(obj, verified=True).multifield:
                reports.append(spectra.reduced_characterizations_check(obj))
            if spectra.is_real_reduced_mr(obj).overall:
                reports.append(spectra.sper_embedding_check(obj))
    elif isinstance(obj, FiniteMultigroup):
        reports.append(core.check_multigroup(obj))
        if level in ("derived", "all"):
            reports.append(core.check_relational_lemmas(obj))
    elif isinstance(obj, SpecialGroup):
        reports.append(spg.check_sg(obj))
        if level in ("derived", "all"):
            reports.append(spg.check_sg789(obj))
            reports.append(_Classification(
                {"reduced": spg.check_reduced(obj).overall}))
    elif isinstance(obj, RealSemigroup):
        reports.append(rsg.check_rs(obj))
        if level in ("derived", "all"):
            reports.append(rsg.check_rs_derived(obj))
        if level == "all":
            reports.append(rsg.separation_audit(obj))
    elif isinstance(obj, SignSpace):
        reports.append(osp.check_aos(obj) if obj.mode == osp.AOS
                       else osp.check_ars(obj))
        if level in ("derived", "all"):
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
    if not isinstance(obj, FiniteMultiring):
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
    flags = core.classify(obj, verified=True)
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
    print(f"real: {spectra.is_real(obj)}")
    report = spectra.is_real_reduced_mr(obj)
    _emit_report(report, args.format)
    ok = True
    if core.classify(obj).multifield:
        mf = spectra.is_real_reduced_mf(obj)
        _emit_report(mf, args.format)
        rc = spectra.reduced_characterizations_check(obj)
        _emit_report(rc, args.format)
        ok = rc.overall
    return 0 if ok else 1


def _parse_labels(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def cmd_construct(args) -> int:
    op = args.operation
    if op == "product":
        factors = [mio.read_structure(f) for f in args.files]
        if not all(isinstance(f, FiniteMultiring) for f in factors):
            raise InputError("product expects multiring files")
        result = cons.product(factors)  # type: ignore[arg-type]
    else:
        obj = mio.read_structure(args.files[0])
        if not isinstance(obj, FiniteMultiring):
            raise InputError(f"{op} expects a multiring file")
        if op == "quotient":
            ideal = cons.ideal_generated(obj, _parse_labels(args.set or ""))
            result, _ = cons.quotient_by_ideal(obj, ideal)
        elif op == "localize":
            s = cons.multiplicative_set(obj, _parse_labels(args.set or "")
                                        + [obj.names[obj.one]])
            result, _ = cons.localization(obj, s)
        elif op == "marshall":
            s = cons.multiplicative_set(obj, _parse_labels(args.set or "")
                                        + [obj.names[obj.one]])
            result, _ = cons.marshall_quotient(obj, s)
        elif op == "qred":
            result, _ = cons.q_red(obj)
        elif op == "ff":
            result, _ = cons.fraction_multifield(obj)
        else:
            raise InputError(f"unknown construction {op!r}")
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


_FUNCTORS = {
    "sg-mf": ("special_group", lambda g: spg.sg_to_mf(g)),
    "mf-sg": ("multiring", lambda f: spg.mf_to_sg(f)),
    "rs-mr": ("real_semigroup", lambda s: rsg.rs_to_mrred(s)),
    "mr-rs": ("multiring", lambda a: rsg.mrred_to_rs(a)),
    "aos-mf": ("sign_space", lambda s: osp.aos_to_mfred(s)),
    "mf-aos": ("multiring", lambda f: osp.mfred_to_aos(f)[0]),
    "ars-mr": ("sign_space", lambda s: osp.ars_to_mrred(s)),
    "mr-ars": ("multiring", lambda a: osp.mrred_to_ars(a)[0]),
}


def cmd_functor(args) -> int:
    name = args.name.replace("->", "-")
    if name not in _FUNCTORS:
        raise InputError(f"unknown functor {args.name!r}; expected one of "
                         + ", ".join(sorted(_FUNCTORS)))
    expected_kind, fn = _FUNCTORS[name]
    obj = mio.read_structure(args.file)
    if mio.kind_of(obj) != expected_kind:
        raise InputError(f"functor {name} expects a {expected_kind} file, "
                         f"got {mio.kind_of(obj)}")
    return _write_result(fn(obj), args.out)


_ROUNDTRIPS = {
    ("sg-smf", "special_group"): spg.sg_smf_roundtrip,
    ("sg-smf", "multiring"): spg.smf_sg_roundtrip,
    ("rs-mr", "real_semigroup"): rsg.rs_mr_roundtrip,
    ("rs-mr", "multiring"): rsg.mr_rs_roundtrip,
    ("aos-mf", "sign_space"): osp.aos_mf_roundtrip,
    ("aos-mf", "multiring"): osp.mf_aos_roundtrip,
    ("ars-mr", "sign_space"): osp.ars_mr_roundtrip,
    ("ars-mr", "multiring"): osp.mr_ars_roundtrip,
}


def cmd_roundtrip(args) -> int:
    obj = mio.read_structure(args.file)
    kind = mio.kind_of(obj)
    if (args.pair, kind) not in _ROUNDTRIPS:
        raise InputError(f"round-trip {args.pair} does not take a {kind} file")
    report = _ROUNDTRIPS[args.pair, kind](obj)
    _emit_report(report, args.format)
    return 0 if report.overall else 1


def cmd_hom(args) -> int:
    a = mio.read_structure(args.file_a)
    b = mio.read_structure(args.file_b)
    ka, kb = mio.kind_of(a), mio.kind_of(b)
    if ka != kb:
        raise InputError(f"hom needs matching kinds, got {ka} and {kb}")
    if ka == "multiring":
        homs = core.enumerate_multiring_morphisms(a, b)
    elif ka == "special_group":
        homs = spg.enumerate_sg_morphisms(a, b)
    elif ka == "real_semigroup":
        homs = rsg.enumerate_rs_morphisms(a, b)
    else:
        raise InputError(f"hom enumeration not supported for kind {ka}")
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
    print(f"{args.kind} structures of order <= {args.order}"
          f"{' up to isomorphism' if args.up_to_iso else ''}: "
          f"{len(structures)}")
    for i, s in enumerate(structures):
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, f"{args.kind}_{i:03d}.mrs")
            mio.write_structure(path, s)
        if isinstance(s, FiniteMultiring):
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

    if core.classify(obj).multifield:
        mf_red = spectra.is_real_reduced_mf(obj).overall
        edge("real reduced multifield", mf_red)
        if mf_red:
            edge("mf -> sg -> mf table-exact", spg.smf_sg_roundtrip(obj).overall)
            g = spg.mf_to_sg(obj)
            edge("sg reduced iff mf real reduced",
                 spg.check_reduced(g).overall == mf_red)
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
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("classify", help="multiring flags and realness")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("spec", help="prime spectrum and patch relations")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(fn=cmd_spec)

    p = sub.add_parser("sper", help="orderings and the evaluation embedding")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(fn=cmd_sper)

    p = sub.add_parser("orderings", help="orderings and the hom bijection")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(fn=cmd_orderings)

    p = sub.add_parser("real-check", help="real and real reduced audits")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(fn=cmd_real_check)

    p = sub.add_parser("construct", help="build a new structure file")
    p.add_argument("operation", choices=("product", "quotient", "localize",
                                         "marshall", "qred", "ff"))
    p.add_argument("files", nargs="+")
    p.add_argument("--set", help="comma separated labels (generators or a "
                                 "multiplicative set)")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("functor", help="apply one of the eight functors")
    p.add_argument("name", help="sg-mf, mf-sg, rs-mr, mr-rs, aos-mf, "
                                "mf-aos, ars-mr, mr-ars (-> also accepted)")
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_functor)

    p = sub.add_parser("roundtrip", help="equivalence round-trip audit")
    p.add_argument("--pair", required=True,
                   choices=("sg-smf", "rs-mr", "aos-mf", "ars-mr"))
    p.add_argument("file")
    add_format(p)
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("hom", help="enumerate morphisms between two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("enumerate", help="all structures of a kind and order")
    p.add_argument("--kind", required=True, choices=enumeration.ENUMERABLE_KINDS)
    p.add_argument("--order", required=True, type=int,
                   help="maximum order (all orders up to this are produced)")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--out-dir")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("diagram", help="walk the functor diagram from a "
                                       "real reduced multiring or multifield")
    p.add_argument("file")
    p.set_defaults(fn=cmd_diagram)

    p = sub.add_parser("rs-unique3", help="uniqueness search for the "
                                          "three-element real semigroup")
    p.set_defaults(fn=cmd_rs_unique3)

    p = sub.add_parser("sample", help="seeded membership-oracle trials for "
                                      "the triangle multifield")
    p.add_argument("--axiom", required=True, choices=sampling.SAMPLED_AXIOMS)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--broken", action="store_true",
                   help="use the deliberately broken oracle")
    add_format(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("corpus", help="write the bundled corpus files")
    p.add_argument("--out", default="corpus")
    p.set_defaults(fn=cmd_corpus)

    return parser


# Built once per process: ``parse_args`` fills a fresh ``Namespace`` on every
# call, so repeated in-process calls to ``main`` share no parsed state.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left (``| head``): send what is still buffered to
        # devnull, so the flush at exit does not fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except core.StructuralAnomaly as exc:
        print(f"structural anomaly: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
