"""The functor-pair table of ``cli``: it prints what the commands it replaced
printed, and every function it reaches is looked up where a rebinding (a
monkeypatch, the benchmark's tracer) is seen."""

import argparse
import dataclasses
import os
import random

import pytest

import reference_cli
from multialg import cli, core
from multialg import io as mio
from multialg import ordering_spaces as osp
from multialg import real_semigroups as rsg
from multialg import special_groups as spg
from multialg.constructions import product
from test_io_kernel import mutants

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
FILES = [os.path.join(CORPUS, f) for f in sorted(os.listdir(CORPUS))]


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS, f"{name}.mrs")


# Each side of each pair: its module, functor name and function, round-trip
# audit, --pair name and a corpus file it takes.
SIDES = [
    (spg, "sg-mf", "sg_to_mf", "sg_smf_roundtrip", "sg-smf", "sg_z22_trivial"),
    (spg, "mf-sg", "mf_to_sg", "smf_sg_roundtrip", "sg-smf", "q2"),
    (rsg, "rs-mr", "rs_to_mrred", "rs_mr_roundtrip", "rs-mr", "rs3x3"),
    (rsg, "mr-rs", "mrred_to_rs", "mr_rs_roundtrip", "rs-mr", "q2xq2"),
    (osp, "aos-mf", "aos_to_mfred", "aos_mf_roundtrip", "aos-mf", "aos_fan2"),
    (osp, "mf-aos", "mfred_to_aos", "mf_aos_roundtrip", "aos-mf", "fan2mf"),
    (osp, "ars-mr", "ars_to_mrred", "ars_mr_roundtrip", "ars-mr", "ars_q2xq2"),
    (osp, "mr-ars", "mrred_to_ars", "mr_ars_roundtrip", "ars-mr", "q2"),
]

LIBRARY_CALLS = [
    *[(module, fn, ["functor", name, corpus_path(f)])
      for module, name, fn, _, _, f in SIDES],
    *[(module, audit, ["roundtrip", "--pair", pair, corpus_path(f)])
      for module, _, _, audit, pair, f in SIDES],
    (core, "enumerate_multiring_morphisms",
     ["hom", corpus_path("q2"), corpus_path("q2")]),
    (spg, "enumerate_sg_morphisms",
     ["hom", corpus_path("sg_z22_trivial"), corpus_path("sg_z22_trivial")]),
    (rsg, "enumerate_rs_morphisms",
     ["hom", corpus_path("rs3"), corpus_path("rs3")]),
]

# One argv per command; the command itself is replaced, so none runs.
COMMANDS = {
    "check": ["check", "x.mrs"],
    "classify": ["classify", "x.mrs"],
    "spec": ["spec", "x.mrs"],
    "sper": ["sper", "x.mrs"],
    "orderings": ["orderings", "x.mrs"],
    "real-check": ["real-check", "x.mrs"],
    "construct": ["construct", "qred", "x.mrs"],
    "functor": ["functor", "mf-sg", "x.mrs"],
    "roundtrip": ["roundtrip", "--pair", "sg-smf", "x.mrs"],
    "hom": ["hom", "x.mrs", "y.mrs"],
    "enumerate": ["enumerate", "--kind", "multiring", "--order", "1"],
    "diagram": ["diagram", "x.mrs"],
    "rs-unique3": ["rs-unique3"],
    "sample": ["sample", "--axiom", "commutativity"],
    "corpus": ["corpus"],
}


def _subcommands() -> dict:
    return next(a for a in cli._PARSER._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _option(command: str, dest: str) -> argparse.Action:
    return next(a for a in _subcommands()[command]._actions if a.dest == dest)


def _run(capsys, argv) -> tuple:
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cases() -> list:
    names = [side[1] for side in SIDES] + ["mf->sg", "bogus"]
    cases = [["functor", name, path] for name in names for path in FILES]
    cases += [["roundtrip", "--pair", pair, path, "--format", fmt]
              for pair in reference_cli.PAIR_CHOICES
              for fmt in ("text", "jsonl") for path in FILES]
    cases += [["hom", a, b] for a in FILES for b in FILES]
    return cases


def test_functor_help_and_pair_choices_are_the_old_literals():
    assert _option("functor", "name").help == reference_cli.FUNCTOR_HELP
    assert tuple(_option("roundtrip", "pair").choices) \
        == reference_cli.PAIR_CHOICES


def test_commands_print_what_the_old_commands_printed(capsys, monkeypatch):
    """functor, roundtrip and hom over the corpus: exit code, standard
    output and standard error equal those of the old commands."""
    cases = _cases()
    assert len(cases) == 10 * 28 + 4 * 2 * 28 + 28 * 28
    new = [_run(capsys, argv) for argv in cases]
    for name in ("cmd_functor", "cmd_roundtrip", "cmd_hom"):
        monkeypatch.setattr(cli, name, getattr(reference_cli, name))
    old = [_run(capsys, argv) for argv in cases]
    for argv, n, o in zip(cases, new, old):
        assert n == o, argv
    assert {code for code, _, _ in new} == {0, 1, 2}


@pytest.mark.parametrize("module, name, argv", LIBRARY_CALLS,
                         ids=[f"{m.__name__}.{n}" for m, n, _ in LIBRARY_CALLS])
def test_main_calls_the_library_function_bound_on_its_module(
        module, name, argv, capsys, monkeypatch):
    original = getattr(module, name)
    calls = []

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls, f"{argv} did not call {module.__name__}.{name}"


def _construct_cases() -> list:
    """Every operation on the corpus: the one-file ones on each file, with
    no --set and with three labels, and product on each file and on every
    ordered pair of files."""
    cases = [["construct", "product", path] for path in FILES]
    cases += [["construct", "product", a, b] for a in FILES for b in FILES]
    for op in reference_cli.CONSTRUCT_CHOICES[1:]:
        sets = [[]] + ([["--set", label] for label in ("1", "2", "-1")]
                       if op in ("quotient", "localize", "marshall") else [])
        cases += [["construct", op, path, *flag] for path in FILES for flag in sets]
    return cases


def _construct_runs(capsys, cases, out) -> list:
    """Each case printed, then written to ``out``: exit code, standard
    output and standard error of both, and the bytes written, if any."""
    runs = []
    for argv in cases:
        if os.path.exists(out):
            os.remove(out)
        printed = _run(capsys, argv)
        written = _run(capsys, argv + ["-o", out])
        data = open(out, "rb").read() if os.path.exists(out) else None
        runs.append((printed, written, data))
    return runs


def test_construct_prints_and_writes_what_the_old_command_did(
        capsys, monkeypatch, tmp_path):
    assert tuple(_option("construct", "operation").choices) \
        == reference_cli.CONSTRUCT_CHOICES
    cases = _construct_cases()
    assert len(cases) == 28 + 28 * 28 + 3 * 4 * 28 + 2 * 28
    out = str(tmp_path / "out.mrs")
    new = _construct_runs(capsys, cases, out)
    monkeypatch.setattr(cli, "cmd_construct", reference_cli.cmd_construct)
    old = _construct_runs(capsys, cases, out)
    for argv, n, o in zip(cases, new, old):
        assert n == o, argv
    assert {printed[0] for printed, _, _ in new} == {0, 2}
    assert sum(data is not None for _, _, data in new) > 100


@pytest.mark.parametrize("op", reference_cli.CONSTRUCT_CHOICES[1:])
def test_construct_refuses_files_past_the_first(op, capsys, tmp_path):
    """A one-file operation given a second file, readable or not, is an
    input error; it used to build from the first file and exit 0."""
    for extra in (str(tmp_path / "missing.mrs"), corpus_path("z3")):
        code, out, err = _run(capsys, ["construct", op, corpus_path("q2"), extra])
        assert (code, out) == (2, "")
        assert err == f"input error: {op} takes one multiring file, got 2\n"


def test_set_labels_split_as_before_outside_parentheses():
    """``--set`` splits only at commas outside parentheses: without them it
    splits as the old parser did, and every corpus label comes back whole
    of a multiring file from the list of all of them."""
    rng = random.Random(35)
    for _ in range(3000):
        raw = "".join(rng.choice("ab1-, ") for _ in range(rng.randrange(14)))
        assert cli._parse_labels(raw) == reference_cli._parse_labels(raw), raw
    plain = with_parentheses = 0
    for path in FILES:
        obj = mio.read_structure(path)
        if not isinstance(obj, core.FiniteMultiring):
            continue
        names = list(obj.names)
        raw = ",".join(names)
        assert cli._parse_labels(raw) == names, path
        if "(" in raw:
            with_parentheses += 1
        else:
            plain += 1
            assert reference_cli._parse_labels(raw) == names, path
    assert plain and with_parentheses
    assert cli._parse_labels(" ((1,-1),0) ,1,, (0,(1,1))") == \
        ["((1,-1),0)", "1", "(0,(1,1))"]


@pytest.mark.parametrize("op", ["quotient", "localize", "marshall"])
def test_construct_reads_product_labels(op, capsys):
    """Product labels in ``--set``, which the old parser split apart."""
    a = mio.read_structure(corpus_path("q2xq2"))
    labels = ["(-1,-1)", "(1,1)"]
    result = cli._CONSTRUCTIONS[op](a, labels)
    assert _run(capsys, ["construct", op, corpus_path("q2xq2"),
                         "--set=" + ",".join(labels)]) == (0, mio.serialize(result), "")
    code, out, err = _run(capsys, ["construct", op, corpus_path("q2xq2"),
                                   "--set=(-1,-1)"])
    assert code == 0 and err == ""
    assert out == mio.serialize(cli._CONSTRUCTIONS[op](a, ["(-1,-1)"]))


def _unaudited_z4(tmp_path) -> str:
    """Z/4 with the product 2·1 changed to 3, which FiniteMultiring accepts
    and check_multiring rejects, first at mul-associativity (2, 1, 2)."""
    z4 = core.ring_multiring(4)
    mul = [list(row) for row in z4.mul]
    mul[2][1] = 3
    path = str(tmp_path / "z4_mutant.mrs")
    mio.write_structure(path, dataclasses.replace(z4, mul=tuple(map(tuple, mul))))
    return path


@pytest.mark.parametrize("op", reference_cli.CONSTRUCT_CHOICES)
def test_construct_audits_each_multiring_file(op, capsys, tmp_path):
    """Every operation refuses a file that fails the multiring audit, naming
    the file and its first failing verdict with the witness; quotient and
    product used to build from it, localize to raise a structural anomaly
    and marshall an error about a cell of its own result."""
    bad = _unaudited_z4(tmp_path)
    message = (f"input error: {bad}: fails the multiring audit: "
               f"mul-associativity at (2,1,2)\n")
    files = [[bad]] + ([[corpus_path("q2"), bad]] if op == "product" else [])
    for paths in files:
        assert _run(capsys, ["construct", op, *paths]) == (2, "", message)


def test_every_command_has_an_argv_here():
    assert set(COMMANDS) == set(_subcommands())


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_main_calls_the_command_bound_on_cli(command, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"),
                        lambda args: calls.append(args.command) or 0)
    assert cli.main(COMMANDS[command]) == 0
    assert calls == [command]


def _ladder() -> dict:
    """The nine structures of the benchmark's check ladder, by rung name."""
    q2, k = core.q2(), core.krasner()
    return {
        "z8": core.ring_multiring(8),
        "z16": core.ring_multiring(16),
        "z32": core.ring_multiring(32),
        "q2cube": product([q2, q2, q2]),
        "fan4mf": osp.aos_to_mfred(osp.fan_aos(4)),
        "sg_fan3": spg.mf_to_sg(osp.aos_to_mfred(osp.fan_aos(3))),
        "aos_fan4": osp.fan_aos(4),
        "z64": core.ring_multiring(64),
        "k6": product([k] * 6),
    }


def test_check_prints_what_the_class_tests_printed(capsys, monkeypatch, tmp_path):
    """``check`` at every level and in both formats, over the corpus, the
    check ladder and seeded one-cell mutants of every kind: exit code,
    standard output and standard error equal those of the reports chosen
    by the class of the structure."""
    written = {**_ladder(), **{f"mutant{i}": m for i, m in
                               enumerate(mutants(random.Random(47), 4))}}
    assert {mio.kind_of(obj) for obj in written.values()} == set(mio.KINDS)
    paths = list(FILES)
    for name, obj in written.items():
        paths.append(str(tmp_path / f"{name}.mrs"))
        mio.write_structure(paths[-1], obj)
    cases = [["check", path, "--level", level, "--format", fmt]
             for path in paths for level in ("axioms", "derived", "all")
             for fmt in ("text", "jsonl")]
    new = [_run(capsys, argv) for argv in cases]
    monkeypatch.setattr(cli, "_reports_for_level", reference_cli._reports_for_level)
    old = [_run(capsys, argv) for argv in cases]
    for argv, n, o in zip(cases, new, old):
        assert n == o, argv
    assert {code for code, _, _ in new} == {0, 1}


def test_help_and_usage_errors_are_the_old_parsers(capsys):
    """``--help`` of the top level and of every command, and the usage
    error of an unknown option, as the parser that spelled out each
    one-multiring command printed them."""
    assert len(COMMANDS) == 15
    old = reference_cli.build_parser()
    cases = [[], ["--help"]] + [[command, flag] for command in sorted(COMMANDS)
                                for flag in ("--help", "--bogus")]
    for argv in cases:
        new_run = _run(capsys, argv)
        try:
            old.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert new_run == (code, captured.out, captured.err), argv
        assert new_run[0] == (0 if "--help" in argv else 2), argv
