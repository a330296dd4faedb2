"""Byte-exact CLI output: the certificate of every stored link, the
fixed text of `sod` and `mutate`, and the full `group` output on fixed
actions.  Any refactor of the checking, rendering, replay or symmetry code
must leave these bytes unchanged."""

import hashlib
import json

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

# One script through every move kind the mutate path renders: L, R, both
# helix turns and serre powers of both signs.
MUTATE_SCRIPT = "L 2; R 1; helix -K; helix +K; serre 1..2 ^-1; serre 1..3 ^2\n"
MUTATE_SHA256 = "fbe591fc55d44fd11034fe6caa5f12a28d3685c774a5fb6f3a1507dcbe47c0d4"
MUTATE_BYTES = 471


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


def test_mutate_bytes_through_every_rendered_move_kind(tmp_path, capsys):
    coll = tmp_path / "collection.cfg"
    coll.write_text("[collection]\nmodel = P2\nblocks = O(-2H) | O(-H) | O\n")
    script = tmp_path / "script.txt"
    script.write_text(MUTATE_SCRIPT)
    code = cli.main(["mutate", "--collection", str(coll), "--script", str(script)])
    out = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    assert len(out) == MUTATE_BYTES
    assert hashlib.sha256(out).hexdigest() == MUTATE_SHA256


# -- group ----------------------------------------------------------------------

def perm(n, *cycles):
    """Matrix on P2[n] (basis H, E1..En; columns are images) permuting the
    E_i along the given cycles."""
    image = {}
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            image[a] = b
    return [[int(i == image.get(j, j)) for j in range(n + 1)] for i in range(n + 1)]


def involution(n):
    """Geiser (n = 7) or Bertini (n = 8) involution D -> (2 D.K / K^2) K - D."""
    k = [-3] + [1] * n
    return [
        [(2 * (-3 if j == 0 else -1) // (9 - n)) * k[i] - (i == j) for j in range(n + 1)]
        for i in range(n + 1)
    ]


HEX_ROT = [[2, 1, 1, 1], [-1, -1, 0, -1], [-1, -1, -1, 0], [-1, 0, -1, -1]]
CREMONA = [
    [2, 1, 1, 1, 0],
    [-1, 0, -1, -1, 0],
    [-1, -1, 0, -1, 0],
    [-1, -1, -1, 0, 0],
    [0, 0, 0, 0, 1],
]

# The thirteen actions of the group-h1 benchmark, unconjugated and in its
# order, then S4 on P2[4]: (number of blown-up points, generators).
GROUP_ACTIONS = [
    (3, [perm(3, [1, 2, 3])]),
    (3, [perm(3, [1, 2, 3]), perm(3, [1, 2])]),
    (4, [perm(4, [1, 2, 3, 4]), perm(4, [1, 3])]),
    (4, [perm(4, [1, 2, 3]), perm(4, [1, 2], [3, 4])]),
    (6, [perm(6, [1, 2, 3], [4, 5])]),
    (6, [perm(6, [1, 2, 3]), perm(6, [4, 5, 6])]),
    (5, [perm(5, [1, 2, 3]), perm(5, [1, 2]), perm(5, [4, 5])]),
    (3, [HEX_ROT, perm(3, [1, 2])]),
    (7, [involution(7)]),
    (7, [involution(7), perm(7, [1, 2])]),
    (8, [involution(8)]),
    (8, [involution(8), perm(8, [1, 2])]),
    (4, [perm(4, [1, 2]), perm(4, [2, 3]), perm(4, [3, 4]), CREMONA]),
    (4, [perm(4, [1, 2, 3, 4]), perm(4, [1, 2])]),
]

GROUP_SHA256 = "f1f17b8fac524a441b0f527a23978b1b5760fcf96ea89decfe110cf3f75175c7"
GROUP_BYTES = 24_687


def test_group_output_bytes(tmp_path, capsys):
    out = []
    for i, (n, gens) in enumerate(GROUP_ACTIONS):
        f = tmp_path / f"action-{i}.cfg"
        f.write_text(
            f"[group]\nmodel = P2[{n}]\n" + "".join(f"gen = {json.dumps(g)}\n" for g in gens)
        )
        code = cli.main(["group", "--action", str(f)])
        assert code == 0
        out.append(capsys.readouterr().out)
    text = "".join(out).encode("utf-8")
    assert len(text) == GROUP_BYTES
    assert hashlib.sha256(text).hexdigest() == GROUP_SHA256
