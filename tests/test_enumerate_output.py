"""``enumerate`` prints and writes the same bytes as the search that
audited every labelled candidate of the slice.

Each digest below is the sha256 of one in-process ``cli.main`` run's stdout,
recorded with that search: every kind at orders 1-3, with and without
``--up-to-iso``.  One ``--out-dir`` run digests its stdout and its written
files too, each file's name and bytes in name order.
"""

import contextlib
import hashlib
import io
import os

import pytest

from multialg import cli

RUNS = [
    ("multigroup", 1, False, 0,
     "18929fe7d3c8733738c2d96114c59e70a0b102e5caa348ff7b35342fec6aa5d9"),
    ("multigroup", 1, True, 0,
     "0154e4904cabc422c3d9c4813f90e67958db55925d9e3381e2faff0805cd9cc0"),
    ("multigroup", 2, False, 0,
     "9ccaa000bbe58ae2562fc8c602803d4e9addc4a672901469bc908c68fb130aef"),
    ("multigroup", 2, True, 0,
     "246c311b7452e312c2986b50369e2e75ed70b07ce448e933298fdc620386a610"),
    ("multigroup", 3, False, 0,
     "31e1107bd2940ebbb11f24261584f5f86ea0289222e93928da5c6a82e9c98494"),
    ("multigroup", 3, True, 0,
     "a58d6108f6c6ae9c2330cfd7244671b3d26a72e75b2db9a7e1056a27f248a6f8"),
    ("multiring", 1, False, 0,
     "85e93f1121831a29abe390d38aa27ba9bf7f7517913c1a414217955c1b08c2d3"),
    ("multiring", 1, True, 0,
     "b5cdfbeec6dd5a7dd1b55da688cbde1a1d6254dbbfe38b28945b8ff96a67cde2"),
    ("multiring", 2, False, 0,
     "daf8a810422de9a4e6fbd1c07a0bbabbe1a40b71e59dcf3eac95917d2b5943c8"),
    ("multiring", 2, True, 0,
     "bf2d61d2e174b17051eae86e27497c2009336d392c89d49e49828083290a1b18"),
    ("multiring", 3, False, 0,
     "146593c54a58a1d853bc12037d90f6414cad2693f4c1c5d974219e30038f2e96"),
    ("multiring", 3, True, 0,
     "b407749c80fad79505dc7c6e820c5363eb9621d91e39edac716b68a47e95b888"),
    ("multidomain", 1, False, 0,
     "1a14a854c0b348d88d5e71cd374eaa854f369e02b2a0c333acdff842e9288557"),
    ("multidomain", 1, True, 0,
     "1c841f506ab43e39e0fee4740edafd8f351d9cf8364925875323524e83464a99"),
    ("multidomain", 2, False, 0,
     "cbc3a9fa057d2b4c2ff1ece2156b6139d5b3004ae7a781a78b54d4637b7e0e2e"),
    ("multidomain", 2, True, 0,
     "841e083b049f6810d7625a608601a09530171f87797bc41ded16a2f96c15498f"),
    ("multidomain", 3, False, 0,
     "46cc950b88a0a280d9bddeaac7498fe65f49ffa29b27328085d06d876eee0dd8"),
    ("multidomain", 3, True, 0,
     "aa5090d2fd786b73e0fb687f5a92fa4be4f950ed55302a58fdccd4a4cd4dc997"),
    ("multifield", 1, False, 0,
     "d023721c3f806ba307213cd93440379f194e717a111ccbb8b89f10142b81470a"),
    ("multifield", 1, True, 0,
     "d178a89c1e4547a3f5dcb938107411214e95c83d1a49a55100a2e5c4417232a4"),
    ("multifield", 2, False, 0,
     "ced2f7af9e57fbdf9c633faa051a3777ecce1bcfd4bbf5e5fda2c90d8d078f13"),
    ("multifield", 2, True, 0,
     "fe49347f6176a3ef65d6c638b809d01d7ca5cf7443bd671efc21541da3aef2b6"),
    ("multifield", 3, False, 0,
     "809e1d5c2281e06acd4ac250612f129ae70496c2c93cad09558355f30563140b"),
    ("multifield", 3, True, 0,
     "8ab857c021806c561e0fb6f86ffb301476f3ffc74e4f2b63c57f0244444d8210"),
]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("kind, order, up_to_iso, code, digest", RUNS)
def test_enumerate_output(kind, order, up_to_iso, code, digest):
    argv = ["enumerate", "--kind", kind, "--order", str(order)]
    assert _run(argv + ["--up-to-iso"] * up_to_iso) == (code, digest)


def test_enumerate_out_dir(tmp_path):
    argv = ["enumerate", "--kind", "multiring", "--order", "3", "--up-to-iso",
            "--out-dir", str(tmp_path)]
    assert _run(argv) == (0, "b407749c80fad79505dc7c6e820c5363eb9621d91e39edac716b68a47e95b888")
    files = hashlib.sha256()
    names = sorted(os.listdir(tmp_path))
    for name in names:
        files.update(name.encode() + b"\n")
        files.update((tmp_path / name).read_bytes())
    assert len(names) == 17
    assert files.hexdigest() == "e564d4d677fae089902db5b1d835f17305b5c801a99dbcac69ad33ed59594c2a"
