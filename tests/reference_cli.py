"""The functor, round-trip, hom and construct commands as they were before
one table of functor pairs, and one of constructions, held them.

``_FUNCTORS``, ``_ROUNDTRIPS``, ``cmd_functor``, ``cmd_roundtrip``,
``cmd_hom`` and ``cmd_construct`` are kept verbatim, with the ``functor``
name help, the ``--pair`` choices and the ``construct`` operations the
parser spelled out by hand.  ``tests/test_cli_table.py`` runs ``cli.main``
with these commands in place of the library's and pins exit code, standard
output, standard error and written files to them over the corpus.
``cmd_construct`` ignored every file after the first for the one-file
operations; the library's refuses them, so those calls are not pinned.
``_parse_labels`` is the ``--set`` parser that ``cmd_construct`` read, kept
verbatim: it split at every comma, so a product label such as (-1,1) came
apart.  The library's splits only outside parentheses, and
``tests/test_cli_table.py`` pins it to this one on lists without them.

``_reports_for_level`` and ``build_parser`` are kept verbatim from before
``cli`` named a structure's kind only by ``io.kind_of``: the first tested
the class of the structure, and the second spelled out the parser entries
of the five one-multiring commands one by one.  ``tests/test_cli_table.py``
pins ``check`` at every level and format, and every ``--help``, to them.
"""

from __future__ import annotations

import argparse

from multialg import constructions as cons
from multialg import core
from multialg import enumeration
from multialg import io as mio
from multialg import ordering_spaces as osp
from multialg import real_semigroups as rsg
from multialg import sampling
from multialg import special_groups as spg
from multialg import spectra
from multialg.cli import (
    _CONSTRUCTIONS,
    _PAIRS,
    _SIDES,
    _Classification,
    _emit_report,
    _write_result,
)
from multialg.core import CheckReport, FiniteMultigroup, FiniteMultiring, InputError
from multialg.ordering_spaces import SignSpace
from multialg.real_semigroups import RealSemigroup
from multialg.special_groups import SpecialGroup

FUNCTOR_HELP = ("sg-mf, mf-sg, rs-mr, mr-rs, aos-mf, mf-aos, ars-mr, mr-ars "
                "(-> also accepted)")
PAIR_CHOICES = ("sg-smf", "rs-mr", "aos-mf", "ars-mr")
CONSTRUCT_CHOICES = ("product", "quotient", "localize", "marshall", "qred", "ff")


def _parse_labels(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


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


def _reports_for_level(obj, level: str) -> list:
    reports: list[CheckReport] = []
    derived = level in ("derived", "all")
    if isinstance(obj, FiniteMultiring):
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
    elif isinstance(obj, FiniteMultigroup):
        reports += core._axioms_and_lemmas(obj) if derived else [core.check_multigroup(obj)]
    elif isinstance(obj, SpecialGroup):
        reports.append(spg.check_sg(obj))
        if derived:
            reports.append(spg.check_sg789(obj))
            reports.append(_Classification(
                {"reduced": spg.check_reduced(obj).overall}))
    elif isinstance(obj, RealSemigroup):
        reports.append(rsg.check_rs(obj))
        if derived:
            reports.append(rsg.check_rs_derived(obj))
        if level == "all":
            reports.append(rsg.separation_audit(obj))
    elif isinstance(obj, SignSpace):
        reports.append(osp.check_aos(obj) if obj.mode == osp.AOS
                       else osp.check_ars(obj))
        if derived:
            reports.append(osp.value_set_reassociation_check(obj))
            if obj.mode == osp.ARS:
                reports.append(osp.ars_bridge_check(obj))
    return reports


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

    p = sub.add_parser("classify", help="multiring flags and realness")
    p.add_argument("file")
    add_format(p)

    p = sub.add_parser("spec", help="prime spectrum and patch relations")
    p.add_argument("file")
    add_format(p)

    p = sub.add_parser("sper", help="orderings and the evaluation embedding")
    p.add_argument("file")
    add_format(p)

    p = sub.add_parser("orderings", help="orderings and the hom bijection")
    p.add_argument("file")
    add_format(p)

    p = sub.add_parser("real-check", help="real and real reduced audits")
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
