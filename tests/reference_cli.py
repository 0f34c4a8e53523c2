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
"""

from __future__ import annotations

from multialg import constructions as cons
from multialg import core
from multialg import io as mio
from multialg import ordering_spaces as osp
from multialg import real_semigroups as rsg
from multialg import special_groups as spg
from multialg.cli import _emit_report, _write_result
from multialg.core import FiniteMultiring, InputError

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
