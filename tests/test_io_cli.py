import collections
import dataclasses
import json
import os
import random
import subprocess
import sys

import pytest

from multialg import core
from multialg import io as mio
from multialg.cli import _emit_report, build_parser, main
from multialg.core import InputError, q2
from multialg.corpus import ars_q2xq2
from multialg.real_semigroups import canonical_3
from multialg.ordering_spaces import ARS, aos_to_mfred, fan_aos, make_sign_space

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
UNCLOSED_ARS = make_sign_space(ARS, ("p", "q"),
                               [(-1, -1), (0, 0), (1, 0), (1, 1)])


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS, f"{name}.mrs")


class TestFormat:
    def test_parse_serialize_identity_on_corpus_files(self):
        for fname in sorted(os.listdir(CORPUS)):
            path = os.path.join(CORPUS, fname)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            obj = mio.parse(text)
            again = mio.parse(mio.serialize(obj))
            assert again == obj, fname

    def test_serialization_is_byte_stable(self):
        text = mio.serialize(q2(), name="q2")
        assert mio.serialize(mio.parse(text), name="q2") == text

    def test_committed_corpus_matches_regeneration(self, tmp_path):
        written = mio.write_corpus(str(tmp_path))
        assert written
        for path in written:
            name = os.path.basename(path)
            with open(path, encoding="utf-8") as fh:
                fresh = fh.read()
            with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
                committed = fh.read()
            assert fresh == committed, name

    def test_every_kind_round_trips(self):
        for obj in (q2(), q2().additive_multigroup(), canonical_3(),
                    fan_aos(2)):
            assert mio.parse(mio.serialize(obj)) == obj

    def test_json_error_carries_position(self):
        with pytest.raises(InputError, match="line 2"):
            mio.parse('{\n  "kind": }')

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown kind"):
            mio.parse('{"kind": "ring"}')

    def test_duplicate_labels(self):
        doc = mio.to_document(q2())
        doc["elements"] = ["1", "1", "0"]
        with pytest.raises(InputError, match="duplicate"):
            mio.from_document(doc)

    def test_empty_add_cell(self):
        doc = mio.to_document(q2())
        doc["add"][0][0] = []
        with pytest.raises(InputError, match="empty addition cell at \\(0,0\\)"):
            mio.from_document(doc)

    def test_ragged_table(self):
        doc = mio.to_document(q2())
        doc["mul"] = doc["mul"][:2]
        with pytest.raises(InputError, match="ragged"):
            mio.from_document(doc)

    def test_out_of_alphabet_entry(self):
        doc = mio.to_document(q2())
        doc["mul"][0][0] = "seven"
        with pytest.raises(InputError, match="unknown element label"):
            mio.from_document(doc)


class TestCli:
    def test_check_passes_on_corpus_q2(self, capsys):
        assert main(["check", corpus_path("q2"), "--level", "all"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_check_all_audits_a_multifield_once_for_its_guards(self, tmp_path,
                                                               monkeypatch, capsys):
        """The report's own multiring audit is kept on the structure, and
        every classify guard (of check_smf, is_real_reduced_mf and
        reduced_characterizations_check) reads it: one audit in all.
        ``_multiring_report`` is the audit behind check_multiring and the
        report's shared scans alike."""
        f = aos_to_mfred(fan_aos(3))
        path = str(tmp_path / "fan3mf.mrs")
        mio.write_structure(path, f)
        audited = []
        audit = core._multiring_report
        monkeypatch.setattr(core, "_multiring_report",
                            lambda r, *scans: audited.append(r) or audit(r, *scans))
        assert main(["check", path, "--level", "all"]) == 0
        assert sum(r == f for r in audited) == 1

    def test_check_all_and_diagram_run_each_report_once(self, tmp_path, monkeypatch,
                                                        capsys):
        """On the fan-3 multifield, ``check --level all`` audits two
        multirings: the structure and its one-element quotient.  The
        quotient by {0} is a relabelled copy of the structure, so it is
        classified from the structure's kept audit.  The real reduced
        multiring and multifield reports are kept on the structure, so
        ``check --level all`` and ``diagram`` each run them once; each runs
        ``_cube_defect`` once, which counts them here."""
        from multialg import spectra
        path = str(tmp_path / "fan3mf.mrs")
        mio.write_structure(path, aos_to_mfred(fan_aos(3)))
        audited, runs = [], collections.Counter()
        audit, cube = core._multiring_report, spectra._cube_defect
        monkeypatch.setattr(core, "_multiring_report",
                            lambda r, *scans: audited.append(r.size) or audit(r, *scans))
        monkeypatch.setattr(spectra, "_cube_defect", lambda *args: runs.update(
            [sys._getframe(1).f_code.co_name]) or cube(*args))
        assert main(["check", path, "--level", "all"]) == 0
        assert sorted(audited) == [1, 9]
        assert runs == {"is_real_reduced_mr": 1, "is_real_reduced_mf": 1}
        runs.clear()
        assert main(["diagram", path]) == 0
        assert runs == {"is_real_reduced_mr": 1, "is_real_reduced_mf": 1}

    def test_commands_classify_each_multiring_once(self, tmp_path, monkeypatch, capsys):
        """``classify`` is kept on the structure, so its guards derive the
        flags once per multiring: on a multifield ``check --level all``
        derives them for the structure (its quotient by {0} reads them) and
        for its one-element quotient, ``diagram`` and ``real-check`` for
        the structure alone."""
        from test_finite_fields import finite_fields
        classified = []
        unchecked = core._classify_unchecked
        monkeypatch.setattr(core, "_classify_unchecked",
                            lambda r: classified.append(r.size) or unchecked(r))
        for name, f in (("sum3", aos_to_mfred(fan_aos(3))),
                        ("f64", finite_fields.finite_field(64))):
            path = str(tmp_path / f"{name}.mrs")
            mio.write_structure(path, f)
            commands = [["check", path, "--level", "all"], ["real-check", path]]
            if name == "sum3":
                commands.append(["diagram", path])
            for argv in commands:
                classified.clear()
                assert main(argv) == 0, (name, argv[0])
                assert sorted(classified) == sorted(
                    [f.size, 1] if argv[0] == "check" else [f.size]), (name, argv[0])
        capsys.readouterr()

    def test_check_derived_scans_each_table_once(self, tmp_path, monkeypatch, capsys):
        """At ``derived`` the axioms and the lemmas read one reversibility
        walk and one reassociation scan of the (additive) table, on a
        passing multiring, an addition mutant and a multigroup, and the
        axioms report comes first."""
        z12 = core.ring_multiring(12)
        mutant = dataclasses.replace(z12, add=tuple(
            row if x != 3 else (row[0] | 1 << 5,) + row[1:] for x, row in enumerate(z12.add)))
        scanned = []
        for name in ("_reversibility_defect", "_reassociation_defects"):
            monkeypatch.setattr(core, name, lambda table, *args, _name=name,
                                _scan=getattr(core, name): scanned.append((_name, table))
                                or _scan(table, *args))
        for s, table, code in ((z12, z12.add, 0), (mutant, mutant.add, 1),
                               (z12.additive_multigroup(), z12.add, 0)):
            path = str(tmp_path / "s.mrs")
            mio.write_structure(path, s)
            scanned.clear()
            assert main(["check", path, "--level", "derived"]) == code
            assert sorted(name for name, t in scanned if t == table) \
                == ["_reassociation_defects", "_reversibility_defect"]
            ring = isinstance(s, core.FiniteMultiring)
            axioms = core.check_multiring(s) if ring else core.check_multigroup(s)
            lemmas = core.check_relational_lemmas(s.additive_multigroup() if ring else s)
            assert capsys.readouterr().out.startswith(
                f"{axioms.render()}\n{lemmas.render()}\n")

    @pytest.mark.parametrize("level", ["axioms", "derived", "all"])
    def test_check_audits_a_special_group_once(self, level, monkeypatch, capsys):
        """check_reduced reads the check_sg report kept on the group."""
        from multialg import special_groups as spg
        audited = []
        audit = spg.check_psg
        monkeypatch.setattr(spg, "check_psg", lambda g: audited.append(g) or audit(g))
        assert main(["check", corpus_path("sg_z22_reduced"), "--level", level]) == 0
        assert len(audited) == 1

    def test_counted_work_repeats_in_one_process(self, tmp_path, monkeypatch, capsys):
        """Derived tables and audit reports are kept on the structure a
        command reads, so running ``check --level all`` twice and then
        ``diagram`` twice on one file, in one process and clearing no
        cache, makes the same kernel calls each time.  Z/12 is not real
        reduced, so its ``diagram`` stops before any of them."""
        names = ("_reversibility_defect", "_reassociation_defects", "_closed_sets",
                 "_sign_cones", "_close_iso", "_pair_classes", "_triple_relation")
        calls = collections.Counter()
        modules = [m for name, m in sys.modules.items() if name.startswith("multialg.")]
        for name in names:
            fn = next(vars(m)[name] for m in modules if name in vars(m))
            counted = (lambda *args, _fn=fn, _name=name:
                       calls.update([_name]) or _fn(*args))
            for m in modules:
                if vars(m).get(name) is fn:
                    monkeypatch.setattr(m, name, counted)
        made = {}
        for name, s in (("sum3", aos_to_mfred(fan_aos(3))), ("z12", core.ring_multiring(12))):
            path = str(tmp_path / f"{name}.mrs")
            mio.write_structure(path, s)
            for argv in (["check", path, "--level", "all"], ["diagram", path]):
                runs = []
                for _ in range(2):
                    calls.clear()
                    main(argv)
                    runs.append(dict(calls))
                assert runs[0] == runs[1], (name, argv[0])
                made[name, argv[0]] = sum(runs[0].values())
        capsys.readouterr()
        assert made[("z12", "diagram")] == 0 and all(
            made[key] for key in (("sum3", "check"), ("sum3", "diagram"), ("z12", "check")))

    def test_diagram_builds_the_special_group_once(self, tmp_path, monkeypatch,
                                                   capsys):
        """The sg-smf round-trip edge and the reduced edge share one
        mf_to_sg and one check_sg.  mf_to_sg's build is the one call of
        ``_close_iso`` in ``diagram``."""
        from multialg import special_groups as spg
        path = str(tmp_path / "fan3mf.mrs")
        mio.write_structure(path, aos_to_mfred(fan_aos(3)))
        built, audited = [], []
        build, audit = spg._close_iso, spg.check_psg
        monkeypatch.setattr(spg, "_close_iso", lambda n, raw: built.append(n) or build(n, raw))
        monkeypatch.setattr(spg, "check_psg", lambda g: audited.append(g) or audit(g))
        assert main(["diagram", path]) == 0
        assert (len(built), len(audited)) == (1, 1)

    def test_check_fails_on_a_broken_file(self, tmp_path, capsys):
        doc = mio.to_document(q2())
        doc["add"][2][2] = ["-1"]  # 1+1 = {-1}
        path = tmp_path / "broken.mrs"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.mrs"
        path.write_text("{", encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("field, name, change", [
        ("functions", "aos_point", {"functions": 5}),
        ("functions", "aos_point", {"functions": [["x"]]}),
        ("functions", "aos_point", {"functions": [[1.5], [-1]]}),
        ("functions", "aos_point", {"functions": [[True], [-1]]}),
        ("points", "aos_point", {"points": "ab",
                                 "functions": [[1, 1], [-1, -1]]}),
        ("neg", "q2", {"neg": ["1", "0", "-1"]}),
        ("add", "q2", {"add": 5}),
        ("add", "q2", {"add": [["0"] * 3] * 3}),
        ("inv", "z2", {"kind": "multigroup", "identity": "0",
                       "inv": {"0": "0"}, "op": [[["0"], ["1"]]] * 2}),
        ("iso", "sg_z2_reduced", {"iso": [["1"]]}),
        ("iso", "sg_z2_reduced", {"iso": 5}),
        ("d", "rs3", {"d": [[1, 2]]}),
    ])
    def test_wrongly_typed_field_exits_2(self, tmp_path, capsys, field, name,
                                         change):
        with open(corpus_path(name), encoding="utf-8") as fh:
            doc = dict(json.load(fh), **change)
        path = tmp_path / "bad.mrs"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and repr(field) in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("zero", [["0"], "zz"])
    def test_unknown_zero_label_exits_2(self, tmp_path, capsys, zero):
        with open(corpus_path("q2"), encoding="utf-8") as fh:
            doc = dict(json.load(fh), zero=zero)
        path = tmp_path / "bad.mrs"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err \
            == f"input error: unknown element label {zero!r}\n"

    def test_one_at_the_zero_has_no_special_group(self, tmp_path, capsys):
        with open(corpus_path("q2"), encoding="utf-8") as fh:
            doc = json.load(fh)
        path = tmp_path / "one_zero.mrs"
        path.write_text(json.dumps(dict(doc, one=doc["zero"])), encoding="utf-8")
        for argv in (["functor", "mf-sg", str(path)],
                     ["roundtrip", "--pair", "sg-smf", str(path)]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == (
                "input error: special group construction requires a "
                "multifield: 1 is the zero\n"), argv

    def test_missing_file_exits_2(self):
        assert main(["check", "no/such/file.mrs"]) == 2

    def test_a_directory_exits_2(self, capsys):
        assert main(["check", CORPUS]) == 2
        assert capsys.readouterr().err.startswith("input error:")

    def test_a_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.mrs"
        path.write_bytes('{"kind": "multiring", "elements": ["\u00e9"]}'
                         .encode("latin-1"))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"input error: {path} is not UTF-8 text:")

    def test_a_deeply_nested_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.mrs"
        path.write_text("[" * 200_000, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == \
            "input error: malformed structure file: nested too deeply\n"

    def test_an_out_dir_naming_a_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("", encoding="utf-8")
        assert main(["enumerate", "--kind", "multiring", "--order", "1",
                     "--out-dir", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("input error:")
        assert out == ""

    def test_jsonl_output_is_machine_readable(self, capsys):
        assert main(["check", corpus_path("q2"), "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert rows[-1]["overall"] is True
        assert all("axiom" in r for r in rows[:-1])

    def test_check_on_an_ars_space_not_closed_under_products(self, tmp_path,
                                                             capsys):
        """(--)(+0) = (-0) is not a function, so the square-scaling lift
        is skipped, as AX2 is, instead of indexing with the missing
        product."""
        path = tmp_path / "open.mrs"
        mio.write_structure(str(path), UNCLOSED_ARS)
        for level in ("derived", "all"):
            assert main(["check", str(path), "--level", level]) == 1
            out = capsys.readouterr().out
            assert "FAIL  AX1-closed-under-product  witness=('--', '+0')" in out
            assert "FAIL  square-scaling-lifts  [skipped: AX1 failed]" in out

    def test_classify(self, capsys):
        assert main(["classify", corpus_path("q2")]) == 0
        out = capsys.readouterr().out
        assert "multifield: True" in out
        assert "real_reduced_multifield: True" in out

    def test_spec_command(self, capsys):
        assert main(["spec", corpus_path("z6")]) == 0
        out = capsys.readouterr().out
        assert "prime ideals: 2" in out

    def test_sper_and_orderings(self, capsys):
        assert main(["sper", corpus_path("q2xq2")]) == 0
        assert "orderings: 2" in capsys.readouterr().out
        assert main(["orderings", corpus_path("q2")]) == 0
        assert "orderings: 1" in capsys.readouterr().out

    def test_real_check(self, capsys):
        assert main(["real-check", corpus_path("q2")]) == 0
        assert "real: True" in capsys.readouterr().out

    def test_construct_product_quotient_qred(self, tmp_path, capsys):
        out = tmp_path / "p.mrs"
        assert main(["construct", "product", corpus_path("q2"),
                     corpus_path("q2"), "-o", str(out)]) == 0
        assert mio.read_structure(str(out)).size == 9
        out2 = tmp_path / "q.mrs"
        assert main(["construct", "quotient", corpus_path("z6"),
                     "--set", "3", "-o", str(out2)]) == 0
        assert mio.read_structure(str(out2)).size == 3
        out3 = tmp_path / "r.mrs"
        assert main(["construct", "qred", str(out), "-o", str(out3)]) == 0
        assert mio.read_structure(str(out3)).size == 9

    def test_construct_ff_rejects_z6(self, capsys):
        assert main(["construct", "ff", corpus_path("z6")]) == 2

    def test_functor_with_arrow_spelling(self, tmp_path):
        out = tmp_path / "sg.mrs"
        assert main(["functor", "mf->sg", corpus_path("q2"),
                     "-o", str(out)]) == 0
        obj = mio.read_structure(str(out))
        assert mio.kind_of(obj) == "special_group"
        back = tmp_path / "mf.mrs"
        assert main(["functor", "sg-mf", str(out), "-o", str(back)]) == 0
        assert mio.kind_of(mio.read_structure(str(back))) == "multiring"

    def test_construct_and_functor_output(self, tmp_path, capsys):
        """Without -o the file text goes to stdout; with -o it goes to the
        file, and construct's confirmation also gives the size."""
        for argv, confirmation in (
                (["construct", "qred", corpus_path("q2")], " (3 elements)"),
                (["functor", "mf-sg", corpus_path("q2")], "")):
            assert main(argv) == 0
            text = capsys.readouterr().out
            out = tmp_path / f"{argv[0]}.mrs"
            assert main(argv + ["-o", str(out)]) == 0
            assert capsys.readouterr().out == f"wrote {out}{confirmation}\n"
            assert out.read_text(encoding="utf-8") == text
            assert text == mio.serialize(mio.parse(text))

    def test_functor_kind_mismatch(self):
        assert main(["functor", "rs-mr", corpus_path("q2")]) == 2

    def test_roundtrip_commands(self, capsys):
        for pair, name in (("sg-smf", "sg_z22_trivial"), ("rs-mr", "rs3x3"),
                           ("aos-mf", "aos_fan2"), ("ars-mr", "ars_q2xq2"),
                           ("sg-smf", "q2"), ("rs-mr", "q2xq2"),
                           ("aos-mf", "fan2mf"), ("ars-mr", "q2")):
            assert main(["roundtrip", "--pair", pair, corpus_path(name)]) == 0, \
                (pair, name)

    def test_roundtrip_on_every_corpus_file_exits_cleanly(self, capsys):
        """Every pair on every file ends in a verdict or an input error,
        never in a traceback, whatever the file's kind."""
        for fname in sorted(os.listdir(CORPUS)):
            for pair in ("sg-smf", "rs-mr", "aos-mf", "ars-mr"):
                code = main(["roundtrip", "--pair", pair,
                             os.path.join(CORPUS, fname)])
                capsys.readouterr()
                assert code in (0, 1, 2), (pair, fname)

    def test_roundtrip_on_a_file_of_the_wrong_kind_exits_2(self, capsys):
        assert main(["roundtrip", "--pair", "rs-mr", corpus_path("aos_fan2")]) == 2
        assert "input error: round-trip rs-mr does not take a sign_space file" \
            in capsys.readouterr().err

    def test_hom_command(self, capsys):
        assert main(["hom", corpus_path("rs3x3"), corpus_path("rs3")]) == 0
        assert "morphisms: 2" in capsys.readouterr().out

    def test_enumerate_command(self, capsys):
        assert main(["enumerate", "--kind", "multifield", "--order", "3",
                     "--up-to-iso"]) == 0
        out = capsys.readouterr().out
        assert "multifield structures of order <= 3 up to isomorphism: 8" in out

    def test_enumerate_past_order_three_exits_2(self, capsys):
        assert main(["enumerate", "--kind", "multiring", "--order", "4"]) == 2
        assert capsys.readouterr() == ("", "input error: enumeration is supported "
                                           "up to order 3\n")

    def test_diagram_q2(self, capsys):
        assert main(["diagram", corpus_path("q2")]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 9

    def test_diagram_stops_on_non_reduced(self, capsys):
        assert main(["diagram", corpus_path("z6")]) == 1

    @pytest.mark.parametrize("command", ["diagram", "real-check"])
    def test_refuses_a_real_reduced_table_that_fails_the_audit(
            self, command, tmp_path, capsys):
        """q2 x q2 with this neg passes the real reduced table test and
        fails add-i-reversibility.  Both commands used to print edges or
        PASS reports for it before ``classify`` refused it."""
        bad = dataclasses.replace(mio.read_structure(corpus_path("q2xq2")),
                                  neg=(1, 7, 6, 5, 4, 3, 2, 1, 0))
        assert not core.check_multiring(bad).overall
        path = str(tmp_path / "bad.mrs")
        mio.write_structure(path, bad)
        assert main([command, path]) == 2
        assert capsys.readouterr() == (
            "", "input error: classify: structure fails the multiring audit\n")

    def test_rs_unique3(self, capsys):
        assert main(["rs-unique3"]) == 0
        assert "structures on the sign ternary semigroup: 1" \
            in capsys.readouterr().out

    def test_sample_commands(self, capsys):
        assert main(["sample", "--axiom", "commutativity", "--trials", "300",
                     "--seed", "7"]) == 0
        assert main(["sample", "--axiom", "reversibility", "--trials", "5000",
                     "--seed", "3", "--broken"]) == 1

    @pytest.mark.parametrize("trials", ["0", "-3"])
    @pytest.mark.parametrize("broken", [[], ["--broken"]])
    def test_sample_refuses_fewer_than_one_trial(self, capsys, trials, broken):
        """No trials give no verdict: the command refuses with exit 2
        instead of printing a statistical pass."""
        assert main(["sample", "--axiom", "reversibility", "--trials", trials,
                     *broken]) == 2
        assert capsys.readouterr() == (
            "", f"input error: sampling needs at least one trial, got {trials}\n")

    def test_sample_runs_one_trial(self, capsys):
        assert main(["sample", "--axiom", "reversibility", "--trials", "1"]) == 0
        assert "statistical pass only (1 trials)" in capsys.readouterr().out


class TestStability:
    def test_every_corpus_file_passes_check_level_all(self, capsys):
        slow = {"q2xq2", "ars_q2xq2", "rs3x3", "rs_q2xq2", "sg_z23_trivial"}
        for fname in sorted(os.listdir(CORPUS)):
            name = fname[:-4]
            level = "derived" if name in slow else "all"
            code = main(["check", os.path.join(CORPUS, fname),
                         "--level", level])
            capsys.readouterr()
            assert code == 0, fname

    def test_reports_are_deterministic_across_runs(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(["check", corpus_path("q2xq2"), "--level", "axioms",
                         "--format", "jsonl"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_sampling_is_deterministic_across_runs(self, capsys):
        outputs = []
        for _ in range(2):
            main(["sample", "--axiom", "reversibility", "--trials", "500",
                  "--seed", "3", "--broken", "--format", "jsonl"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def test_check_never_ends_in_a_traceback(tmp_path, capsys):
    """Every check level on the sign-space and real-semigroup corpus files,
    on a space not closed under products and on seeded deletions of
    functions from ars_q2xq2 ends in an exit code, never in an exception."""
    paths = [os.path.join(CORPUS, f) for f in sorted(os.listdir(CORPUS))
             if f.startswith(("aos_", "ars_", "rs"))]
    funcs = list(ars_q2xq2().functions)
    rng = random.Random(8)
    spaces = [UNCLOSED_ARS]
    for k in range(4):
        kept = rng.sample(funcs, len(funcs) - 1 - k % 2)
        spaces.append(make_sign_space(ARS, ars_q2xq2().points, kept))
    for k, space in enumerate(spaces):
        paths.append(str(tmp_path / f"space{k}.mrs"))
        mio.write_structure(paths[-1], space)
    assert len(paths) == 14
    for path in paths:
        for level in ("axioms", "derived", "all"):
            code = main(["check", path, "--level", level])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (path, level)
            assert "Traceback" not in err, (path, level)


def test_python_dash_m_runs_the_cli():
    path = filter(None, (SRC, os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-m", "multialg", "check",
                           corpus_path("q2")], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("multiring: PASS")


def test_a_closed_pipe_exits_141_without_a_traceback():
    # The reader is gone before the first write, as with ``| head -1``.
    path = filter(None, (SRC, os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "multialg", "enumerate",
                               "--kind", "multiring", "--order", "3",
                               "--up-to-iso"], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 141, done.stderr
    assert "Traceback" not in done.stderr


def _old_emit_jsonl(report) -> None:
    """The jsonl branch of ``cli._emit_report`` as it was, one ``json.dumps``
    and one print per line."""
    for v in report.verdicts:
        print(json.dumps({
            "subject": report.subject,
            "axiom": v.axiom,
            "passed": v.passed,
            "witness": v.witness,
            "note": v.note,
            "informational": v.informational,
        }, ensure_ascii=False, default=str))
    print(json.dumps({"subject": report.subject,
                      "overall": report.overall}))


def test_jsonl_report_bytes_unchanged(capsysbinary):
    # A non-ASCII label and subject, and a witness only default=str encodes.
    report = core.CheckReport("Kräsner ≥ 2", (
        core.Verdict("a-ε", False, ("−1", frozenset({1, 2}), None), "über"),
        core.Verdict("b", True, informational=True),
    ))
    outputs = []
    for r in (report, core.CheckReport("ε", ())):
        _old_emit_jsonl(r)
        outputs.append(capsysbinary.readouterr().out)
        _emit_report(r, "jsonl")
        assert capsysbinary.readouterr().out == outputs[-1]
    # the verdict lines keep UTF-8, the summary line escapes it
    assert "ε".encode() in outputs[0] and b"\\u03b5" in outputs[1]


def _run(capsys, argv) -> tuple:
    """Exit code (from the return or from SystemExit), stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_parser_run(capsys, argv) -> tuple:
    """What a parser built for this call alone prints for argv."""
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err
    raise AssertionError(f"{argv} parsed without exiting")


class TestSharedParser:
    """main parses with one parser per process; no call may leave state
    behind for the next."""

    def test_same_argv_twice_prints_the_same(self, capsys):
        argv = ["check", corpus_path("z6"), "--level", "all"]
        first = _run(capsys, argv)
        assert first[0] == 0 and first[1]
        assert _run(capsys, argv) == first

    def test_defaults_come_back_after_options(self, capsys):
        plain = ["check", corpus_path("q2")]
        before = _run(capsys, plain)
        code, out, _ = _run(capsys, plain + ["--level", "all", "--format", "jsonl"])
        assert code == 0 and all(json.loads(line) for line in out.splitlines())
        after = _run(capsys, plain)
        assert after == before
        assert after[1].startswith(core.check_multiring(mio.read_structure(
            corpus_path("q2"))).render())
        assert "classification" not in after[1]

    @pytest.mark.parametrize("argv", [["check"],
                                      ["check", "x.mrs", "--level", "bogus"],
                                      ["--help"], ["check", "--help"]])
    def test_exits_match_a_fresh_parser_and_leave_main_usable(
            self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        expected = _fresh_parser_run(capsys, argv)
        assert _run(capsys, argv) == expected
        if argv[-1] == "--help":
            assert expected[0] == 0 and expected[1].startswith("usage: multialg")
        else:
            assert expected[0] == 2
            assert expected[2].startswith("usage: multialg check [-h]")
        code, out, _ = _run(capsys, ["check", corpus_path("q2")])
        assert code == 0 and "PASS" in out
        assert _run(capsys, argv) == expected


class TestEnumerationClosure:
    def test_up_to_iso_is_a_complete_dedupe(self):
        from multialg.enumeration import (enumerate_structures,
                                          multiring_canonical_key)
        labeled = enumerate_structures("multiring", 2, up_to_iso=False)
        reduced = enumerate_structures("multiring", 2, up_to_iso=True)
        assert {multiring_canonical_key(r) for r in labeled} \
            == {multiring_canonical_key(r) for r in reduced}
        assert len({multiring_canonical_key(r) for r in reduced}) \
            == len(reduced)
