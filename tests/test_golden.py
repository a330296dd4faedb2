"""Byte-exact CLI output: the certificate of every stored link and the
fixed text of `sod` and `mutate`.  Any refactor of the checking, rendering
or replay code must leave these bytes unchanged."""

import hashlib

from sodatlas import cli

ALL_LINKS_SHA256 = "27ee7836b690b724915a56b9ada24bf201fac9ef0b86439c5b44be0b0f04523c"
ALL_LINKS_BYTES = 190_461

SOD_P2_4 = """\
surface: P2[4]
over: Point
block 1: E
block 2: O(-H + E1), O(-H + E2), O(-H + E3), O(-H + E4), O(-2H + E1 + E2 + E3 + E4)
block 3: O
gram:
  1 1 1 1 1 1 5
  0 1 0 0 0 0 2
  0 0 1 0 0 0 2
  0 0 0 1 0 0 2
  0 0 0 0 1 0 2
  0 0 0 0 0 1 2
  0 0 0 0 0 0 1
"""

MUTATE_EMPTY_SCRIPT = """\
start: (1; -2; 0) | (1; -1; 0) | (1; 0; 1)
final: (1; -2; 0) | (1; -1; 0) | (1; 0; 1)
gram:
  1 3 6
  0 1 3
  0 0 1
"""


def test_verify_link_all_bytes(capsys):
    code = cli.main(["verify-link", "--all"])
    out = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    assert len(out) == ALL_LINKS_BYTES
    assert hashlib.sha256(out).hexdigest() == ALL_LINKS_SHA256


def test_sod_on_the_degree_five_model(tmp_path, capsys):
    f = tmp_path / "surface.cfg"
    f.write_text("[surface]\nmodel = P2[4]\n")
    code = cli.main(["sod", "--surface", str(f)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == SOD_P2_4


def test_mutate_with_an_empty_script_prints_the_start_gram(tmp_path, capsys):
    coll = tmp_path / "collection.cfg"
    coll.write_text("[collection]\nmodel = P2\nblocks = O(-2H) | O(-H) | O\n")
    script = tmp_path / "script.txt"
    script.write_text("")
    code = cli.main(["mutate", "--collection", str(coll), "--script", str(script)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == MUTATE_EMPTY_SCRIPT
