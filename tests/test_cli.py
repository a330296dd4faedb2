"""Subcommand behaviours, file grammars and exit codes."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import sodatlas
from sodatlas import cli, selftest
from sodatlas.catalog.scripts import catalog_ids
from sodatlas.errors import InputError, VerificationError
from sodatlas.lattice import MAX_BLOWN_POINTS, SurfaceModel
from sodatlas.mutation import VERDICT_FAIL, VERDICT_OK

SRC = str(Path(sodatlas.__file__).resolve().parents[1])
CLI = "import sys; from sodatlas import cli; sys.exit(cli.main(sys.argv[1:]))"

HEX_GEN = "[[2,1,1,1],[-1,-1,0,-1],[-1,-1,-1,0],[-1,0,-1,-1]]"
SWAP12 = "[[1,0,0,0],[0,0,1,0],[0,1,0,0],[0,0,0,1]]"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- classes -------------------------------------------------------------------

def test_classes_degree_five_lists_ten(capsys):
    code, out, _ = run(capsys, "classes", "--degree", "5", "--r", "-1")
    assert code == 0
    assert "surface: P2[4]" in out
    assert "count: 10" in out
    assert out.count("\n") == 13  # header x2, ten classes, count

def test_classes_plane_has_one_line_class(capsys):
    code, out, _ = run(capsys, "classes", "--degree", "9", "--r", "1")
    assert code == 0
    assert "H\n" in out and "count: 1" in out

def test_classes_rejects_degree_out_of_range(capsys):
    code, _, err = run(capsys, "classes", "--degree", "12", "--r", "0")
    assert code == 2 and "degree" in err

@pytest.mark.parametrize("flag", ["--degree", "--r"])
@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
@pytest.mark.parametrize("digits", [4300, 5000])
def test_classes_bounds_the_integer_it_echoes(capsys, flag, sign, digits):
    # 4,300 digits is the most int() takes: the command refuses the value,
    # and a longer one is refused while the arguments are parsed
    value = sign + "9" * digits
    argv = {"--degree": "5", "--r": "0", flag: value}
    try:
        code = cli.main(["classes", *[x for kv in argv.items() for x in kv]])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    last = err.splitlines()[-1]
    assert len(last) < 300 and f"'... ({len(value)} characters)" in last
    if digits == 4300:
        assert err == last + "\n" and last.startswith("error: ")
        assert ("degree" if flag == "--degree" else "r must be one of") in last
    else:
        assert err.startswith("usage: sodatlas classes")
        assert last.startswith(f"sodatlas classes: error: argument {flag}: invalid int value: ")


@pytest.mark.parametrize("flag", ["--degree", "--r"])
def test_classes_refuses_a_value_that_is_no_integer(capsys, flag):
    argv = {"--degree": "5", "--r": "0", flag: "abc"}
    with pytest.raises(SystemExit) as exc:
        cli.main(["classes", *[x for kv in argv.items() for x in kv]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"sodatlas classes: error: argument {flag}: invalid int value: 'abc'"

def test_classes_rejects_unsupported_square_range(capsys):
    code, _, err = run(capsys, "classes", "--degree", "2", "--r", "0")
    assert code == 2 and "error:" in err

def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classes", "--bogus", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- sod -----------------------------------------------------------------------

def test_sod_point_collection(tmp_path, capsys):
    f = tmp_path / "surface.cfg"
    f.write_text("[surface]\nmodel = P2[3]\nover = Point\n")
    code, out, _ = run(capsys, "sod", "--surface", str(f))
    assert code == 0
    assert "block 1: O(-H), O(-2H + E1 + E2 + E3)" in out
    assert "block 3: O" in out
    assert "gram:" in out

def test_sod_accepts_base_and_blowups_keys(tmp_path, capsys):
    f = tmp_path / "surface.cfg"
    f.write_text("[surface]\nbase = F0\nblowups = []\nover = RationalCurve\nfibre = h\n")
    code, out, _ = run(capsys, "sod", "--surface", str(f))
    assert code == 0
    assert "over: RationalCurve" in out

def test_sod_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "sod", "--surface", "/nonexistent/surface.cfg")
    assert code == 2 and "cannot read" in err

def test_sod_rejects_two_sections(tmp_path, capsys):
    f = tmp_path / "surface.cfg"
    f.write_text("[surface]\nmodel = P2\n\n[surface]\nmodel = F0\n")
    code, _, err = run(capsys, "sod", "--surface", str(f))
    assert code == 2 and "exactly one" in err

# Malformed surface files: each exits 2 with one error line and no output.
@pytest.mark.parametrize(
    "lines, want_err",
    [
        ("model = F0\nover = RationalCurve\nfibre = " + "9" * 5000 + "h",
         "error: expected an integer, got '" + "9" * 200 + "'... (5000 characters)\n"),
        ("model = P2[1]\nover = RationalCurve\nfibre = H E1",
         "error: cannot parse divisor expression 'H E1' at 1\n"),
        ("model = P2[1 2]", "error: expected an integer, got '1 2'\n"),
        ("base = P2\nblowups = [1]\nblowups = [2]", "error: key 'blowups' given 2 times, expected once\n"),
    ],
    ids=["overlong-fibre-coefficient", "juxtaposed-fibre-terms", "space-inside-orbit-size", "repeated-blowups"],
)
def test_sod_refuses_a_malformed_surface_file(tmp_path, capsys, lines, want_err):
    f = tmp_path / "surface.cfg"
    f.write_text(f"[surface]\n{lines}\n")
    code, out, err = run(capsys, "sod", "--surface", str(f))
    assert (code, out, err) == (2, "", want_err)


# Degree-8 models and a positive-genus base at the edge of what is a fibre
# space: the constructor refuses them with these texts, or they build.
SOD_EDGES = [
    ("model = P2[1]\nover = Point", 2,
     "error: a rank-one degree-8 surface over a point carries two rulings\n", None),
    ("model = F2\nover = Point", 0, "",
     ["block 1: O(-s - 2h)", "block 2: O(-h), O(-s - h)", "block 3: O"]),
    ("model = F3\nover = Point", 2,
     "error: a rank-one degree-8 surface over a point carries two rulings\n", None),
    ("model = P2[1]\nover = RationalCurve\nfibre = H - E1", 2,
     "error: a degree-8 conic bundle is a ruled surface without blown points\n", None),
    ("model = F2\nover = RationalCurve\nfibre = s + h", 2,
     "error: fibration class is not a ruling of this surface\n", None),
    ("model = F0\nover = RationalCurve\nfibre = s", 0, "",
     ["block 1: O(-s - h)", "block 2: O(-h)", "block 3: O(-s)", "block 4: O"]),
    ("model = P2[9]\nover = Curve\ngenus = 1\nfibre = H - E1", 2,
     "error: surface models cover rational surfaces only; "
     "no model over a positive-genus curve\n", None),
]


@pytest.mark.parametrize("lines, want_code, want_err, want_blocks", SOD_EDGES)
def test_sod_at_the_edge_of_the_fibre_spaces(tmp_path, capsys, lines, want_code, want_err, want_blocks):
    f = tmp_path / "surface.cfg"
    f.write_text(f"[surface]\n{lines}\n")
    code, out, err = run(capsys, "sod", "--surface", str(f))
    assert (code, err) == (want_code, want_err)
    blocks = [line for line in out.splitlines() if line.startswith("block ")]
    assert blocks == (want_blocks or [])


# -- mutate ----------------------------------------------------------------------

def _beilinson_files(tmp_path):
    coll = tmp_path / "collection.cfg"
    coll.write_text("[collection]\nmodel = P2\nblocks = O(-2H) | O(-H) | O\n")
    return coll

def test_mutate_round_trip(tmp_path, capsys):
    coll = _beilinson_files(tmp_path)
    script = tmp_path / "script.txt"
    script.write_text("helix +K\nhelix -K\n")
    code, out, _ = run(capsys, "mutate", "--collection", str(coll), "--script", str(script))
    assert code == 0
    assert out.count("step") == 2
    start = [l for l in out.splitlines() if l.startswith("start:")][0]
    final = [l for l in out.splitlines() if l.startswith("final:")][0]
    assert start.split(":", 1)[1] == final.split(":", 1)[1]

def test_mutate_reports_failing_step(tmp_path, capsys):
    coll = _beilinson_files(tmp_path)
    script = tmp_path / "script.txt"
    script.write_text("L 1\n")
    code, _, err = run(capsys, "mutate", "--collection", str(coll), "--script", str(script))
    assert code == 1
    assert "step 1" in err and "L 1" in err

def test_mutate_rejects_bad_move_text(tmp_path, capsys):
    coll = _beilinson_files(tmp_path)
    script = tmp_path / "script.txt"
    script.write_text("wiggle 3\n")
    code, _, err = run(capsys, "mutate", "--collection", str(coll), "--script", str(script))
    assert code == 2


# -- verify-link -----------------------------------------------------------------

def test_verify_link_single_id(capsys):
    code, out, _ = run(capsys, "verify-link", "--id", "I-9-8")
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(l) for l in lines]
    assert all(r["case"] == "I-9-8" for r in records)
    assert "verdict" in records[-1]
    assert all(r["ok"] for r in records[:-1])

@pytest.mark.parametrize("case", ["NO-SUCH", "x" * 100_000], ids=["short", "overlong"])
def test_verify_link_unknown_id(capsys, case):
    code, _, err = run(capsys, "verify-link", "--id", case)
    assert code == 2 and "unknown catalog id" in err
    # an overlong id is quoted by a bounded prefix, an ordinary one whole
    assert max(map(len, err.splitlines())) < 400
    if case == "NO-SUCH":
        assert err == "error: unknown catalog id 'NO-SUCH'\n"

def test_verify_link_all_cases_in_order(capsys):
    code, out, _ = run(capsys, "verify-link", "--all")
    assert code == 0
    lines = out.strip().splitlines()
    verdicts = [json.loads(l) for l in lines if "verdict" in json.loads(l)]
    assert [v["case"] for v in verdicts] == list(catalog_ids())

def test_verify_link_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify-link", "--id", "II-2-1-2")
    _, second, _ = run(capsys, "verify-link", "--id", "II-2-1-2")
    assert first == second

@pytest.mark.parametrize("first", ["step", "verdict"])
def test_verify_link_names_the_first_failure(capsys, monkeypatch, first):
    """Exit 1 names the first failing record of the first failing case, or
    step 0 when only its verdict fails; stdout keeps every record."""
    ids = catalog_ids()
    step_case, verdict_case = (ids[1], ids[3]) if first == "step" else (ids[3], ids[1])

    def fake(case):
        oks = [True, True, True]
        if case == step_case:
            oks = [True, False, False]
        steps = [{"step": i + 1, "move": f"L {i + 1}", "ok": ok} for i, ok in enumerate(oks)]
        ok = case not in (step_case, verdict_case)
        return {"case": case, "steps": steps, "verdict": VERDICT_OK if ok else VERDICT_FAIL}

    monkeypatch.setattr(cli, "verify_link", fake)
    code, out, err = run(capsys, "verify-link", "--all")
    assert code == 1
    want = []
    for case in ids:
        cert = fake(case)
        want += [json.dumps({"case": case, **r}, sort_keys=True) for r in cert["steps"]]
        want.append(json.dumps({"case": case, "verdict": cert["verdict"]}, sort_keys=True))
    assert out.splitlines() == want
    if first == "step":
        assert err == f"FAIL {step_case}: step 2 (L 2)\n"
    else:
        assert err == f"FAIL {verdict_case}: step 0 (final comparison)\n"

def test_verify_link_needs_exactly_one_selector(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-link"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- group -----------------------------------------------------------------------

def _hexagon_file(tmp_path):
    f = tmp_path / "action.cfg"
    f.write_text(f"[group]\nmodel = P2[3]\ngen = {HEX_GEN}\ngen = {SWAP12}\n")
    return f

def test_group_reports_hexagon_data(tmp_path, capsys):
    code, out, _ = run(capsys, "group", "--action", str(_hexagon_file(tmp_path)))
    assert code == 0
    assert "order: 12" in out
    assert "invariant rank: 1" in out
    assert "H1: 0" in out
    assert "minimality (numerical proxy): minimal" in out
    orbit_lines = [l for l in out.splitlines() if l.startswith("orbit:")]
    assert len(orbit_lines) == 1  # all six contractible classes in one orbit

def test_group_sign_problem_reports_witness(tmp_path, capsys):
    f = tmp_path / "action.cfg"
    f.write_text("[group]\nmodel = P2[2]\ngen = [[1,0,0],[0,0,1],[0,1,0]]\n")
    code, out, _ = run(capsys, "group", "--action", str(f))
    assert code == 0
    witness_lines = [l for l in out.splitlines() if "not minimal, witness:" in l]
    assert len(witness_lines) == 1
    assert "E1" in witness_lines[0] and "E2" in witness_lines[0]

def test_group_below_degree_one_reports_every_line(tmp_path, capsys):
    # P2[9] has degree 0: no (-1)-class enumeration, so no orbits and no proxy
    gen = [[int(j == {1: 2, 2: 1}.get(i, i)) for j in range(10)] for i in range(10)]
    f = tmp_path / "action.cfg"
    f.write_text(f"[group]\nmodel = P2[9]\ngen = {gen}\n")
    code, out, err = run(capsys, "group", "--action", str(f))
    reason = "enumeration needs degree >= 1, surface P2[9] has 0"
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "surface: P2[9]",
        "order: 2",
        "invariant rank: 9",
        f"contractible-class orbits: unavailable ({reason})",
        "H1: 0",
        f"minimality (numerical proxy): unavailable ({reason})",
    ]

def test_group_rejects_wrong_shape(tmp_path, capsys):
    f = tmp_path / "action.cfg"
    f.write_text("[group]\nmodel = P2[3]\ngen = [[1,0],[0,1]]\n")
    code, _, err = run(capsys, "group", "--action", str(f))
    assert code == 2 and "4x4" in err

def test_group_rejects_non_isometry(tmp_path, capsys):
    f = tmp_path / "action.cfg"
    f.write_text("[group]\nmodel = P2\ngen = [[2]]\n")
    code, _, err = run(capsys, "group", "--action", str(f))
    assert code == 2 and "intersection form" in err

def test_group_stops_an_infinite_group_at_the_closure_cap(tmp_path):
    """The quadratic reflection in E1, E2, E3 and the 9-cycle of the E_i
    generate an infinite subgroup of W(E9): H has an infinite orbit.  The
    command runs in a subprocess with a time limit and a limited address
    space, so a closure that never stops fails instead of hanging."""
    root = [1, -1, -1, -1] + [0] * 6
    dot = [1, 1, 1, 1] + [0] * 6  # x.root = dot . x
    reflection = [[int(i == j) + dot[j] * root[i] for j in range(10)] for i in range(10)]
    image = [0, *range(2, 10), 1]  # H stays, E_i goes to E_i+1 and E9 to E1
    cycle = [[int(i == image[j]) for j in range(10)] for i in range(10)]
    f = tmp_path / "action.cfg"
    f.write_text(f"[group]\nmodel = P2[1,1,1,1,1,1,1,1,1]\ngen = {reflection}\ngen = {cycle}\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CLI, "group", "--action", str(f)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: group closure exceeded the cap of 10000 elements\n"


# -- atoms -----------------------------------------------------------------------

def _atom_files(tmp_path):
    surface = tmp_path / "surface.cfg"
    surface.write_text("[surface]\nmodel = P2[2]\n")
    action = tmp_path / "action.cfg"
    action.write_text("[group]\ngen = [[1,0,0],[0,0,1],[0,1,0]]\n")
    contraction = tmp_path / "contraction.cfg"
    contraction.write_text("[contraction]\norbits = [0]\nterminal = Point\nmodel = P2\n")
    return surface, action, contraction

def test_atoms_for_a_blown_orbit(tmp_path, capsys):
    surface, action, contraction = _atom_files(tmp_path)
    code, out, _ = run(
        capsys, "atoms",
        "--surface", str(surface), "--action", str(action), "--contraction", str(contraction),
    )
    assert code == 0
    assert out == (
        "atom: permutation, orbit size 1\n" * 3
        + "atom: permutation, orbit size 2\ncount: 4\n"
    )

def test_atoms_with_k_nef_terminal(tmp_path, capsys):
    surface, action, contraction = _atom_files(tmp_path)
    contraction.write_text("[contraction]\nterminal = K-nef\n")
    code, out, _ = run(
        capsys, "atoms",
        "--surface", str(surface), "--action", str(action), "--contraction", str(contraction),
    )
    assert code == 0
    assert out == "atom: opaque K-nef, degree 7\ncount: 1\n"

def test_atoms_for_the_hexagon_action_over_a_point(tmp_path, capsys):
    surface, _, contraction = _atom_files(tmp_path)
    surface.write_text("[surface]\nmodel = P2[3]\n")
    contraction.write_text("[contraction]\nterminal = Point\nmodel = P2[3]\n")
    code, out, _ = run(
        capsys, "atoms",
        "--surface", str(surface), "--action", str(_hexagon_file(tmp_path)),
        "--contraction", str(contraction),
    )
    assert code == 0
    assert out == (
        "atom: permutation, orbit size 2\n"
        "atom: permutation, orbit size 3\n"
        "atom: permutation, orbit size 1\n"
        "count: 3\n"
    )

def test_atoms_rejects_mismatched_models(tmp_path, capsys):
    surface, action, contraction = _atom_files(tmp_path)
    action.write_text("[group]\nmodel = P2[3]\ngen = [[1,0,0],[0,0,1],[0,1,0]]\n")
    code, _, err = run(
        capsys, "atoms",
        "--surface", str(surface), "--action", str(action), "--contraction", str(contraction),
    )
    assert code == 2 and "does not match" in err

def test_atoms_takes_a_zero_padded_hirzebruch_base_as_the_same_model(tmp_path, capsys):
    surface, action, contraction = _atom_files(tmp_path)
    surface.write_text("[surface]\nmodel = F1[1]\n")
    action.write_text("[group]\nmodel = F01[1]\n")
    contraction.write_text("[contraction]\nterminal = K-nef\n")
    code, out, err = run(
        capsys, "atoms",
        "--surface", str(surface), "--action", str(action), "--contraction", str(contraction),
    )
    assert (code, out, err) == (0, "atom: opaque K-nef, degree 7\ncount: 1\n", "")

def test_atoms_rejects_wrong_residual_model(tmp_path, capsys):
    surface, action, contraction = _atom_files(tmp_path)
    contraction.write_text("[contraction]\norbits = [0]\nterminal = Point\nmodel = F0\n")
    code, _, err = run(
        capsys, "atoms",
        "--surface", str(surface), "--action", str(action), "--contraction", str(contraction),
    )
    assert code == 2 and "leaves" in err

def test_atoms_reports_a_terminal_that_is_no_fibre_space_first(tmp_path, capsys):
    # the terminal is checked as the contraction file is read, before the orbits
    surface, action, contraction = _atom_files(tmp_path)
    contraction.write_text("[contraction]\norbits = [5]\nterminal = Point\nmodel = P2[1]\n")
    code, out, err = run(
        capsys, "atoms",
        "--surface", str(surface), "--action", str(action), "--contraction", str(contraction),
    )
    assert (code, out) == (2, "")
    assert err == "error: a rank-one degree-8 surface over a point carries two rulings\n"


# -- invariant -------------------------------------------------------------------

def test_invariant_round_trip_is_zero(tmp_path, capsys):
    f = tmp_path / "steps.cfg"
    f.write_text("[steps]\nblowup = 3\nblowdown = 3\n")
    code, out, _ = run(capsys, "invariant", "--steps", str(f))
    assert code == 0 and out == "0\n"

def test_invariant_single_blow_up(tmp_path, capsys):
    f = tmp_path / "steps.cfg"
    f.write_text("[steps]\nblowup = 2\n")
    code, out, _ = run(capsys, "invariant", "--steps", str(f))
    assert code == 0 and out == "-1*[orbit 2]\n"

def test_invariant_keeps_first_appearance_order_under_partial_cancellation(tmp_path, capsys):
    # blow-ups are read first: orbit 3 cancels in part and keeps its place, 2 cancels
    f = tmp_path / "steps.cfg"
    f.write_text("[steps]\n" + "".join(f"blowup = {n}\n" for n in (3, 2, 1))
                 + "".join(f"blowdown = {n}\n" for n in (2, 5, 3, 3)))
    code, out, _ = run(capsys, "invariant", "--steps", str(f))
    assert code == 0 and out == "+1*[orbit 3] -1*[orbit 1] +1*[orbit 5]\n"

def test_invariant_rejects_nonpositive_size(tmp_path, capsys):
    f = tmp_path / "steps.cfg"
    f.write_text("[steps]\nblowup = 0\n")
    code, _, err = run(capsys, "invariant", "--steps", str(f))
    assert code == 2 and "positive" in err


# -- malformed integers ----------------------------------------------------------

@pytest.mark.parametrize(
    "command, flag, section, line",
    [
        ("sod", "--surface", "surface", "model = P2[3]\ngenus = abc"),
        ("invariant", "--steps", "steps", "blowup = x"),
        ("mutate", "--collection", "collection", "model = P2\nblocks = opq x | O"),
        ("mutate", "--collection", "collection", "model = P2\nblocks = [a; H; 1] | O"),
        ("profile", "--file", "profile", 'a = (1, 1, "0")\nam = x'),
        ("profile", "--file", "profile", 'a = (1, 1, "0")\nam = 2\nam = 3'),
        ("sod", "--surface", "surface", "model = F" + "1" * 5000),
        ("sod", "--surface", "surface", "model = P2[" + "1" * 5000 + "]"),
        ("sod", "--surface", "surface", "base = F" + "1" * 5000),
        ("sod", "--surface", "surface", "base = P2\nblowups = [" + ", ".join(["9" * 4300] * 2) + "]"),
        ("sod", "--surface", "surface", "base = P2\nblowups = " + "-" * 3000 + "1"),
        ("sod", "--surface", "surface", "base = P2\nblowups = " + "-" * 100_000 + "1"),
        ("group", "--action", "group", "model = P2\ngen = " + "-" * 3000 + "1"),
        ("group", "--action", "group", "model = P2\ngen = " + "-" * 100_000 + "1"),
        ("profile", "--file", "profile", "a = (" + "-" * 3000 + '1, 1, "0")'),
        ("profile", "--file", "profile", "a = (" + "-" * 100_000 + '1, 1, "0")'),
        ("mutate", "--collection", "collection", "model = P2\nblocks = [" + "x" * 100_000 + "] | O"),
        ("mutate", "--collection", "collection", "model = P2\nblocks = O, " + "y" * 100_000),
    ],
    ids=[
        "sod-genus",
        "invariant-blowup",
        "mutate-opaque-size",
        "mutate-object-rank",
        "profile-am",
        "profile-repeated-am",
        "sod-overlong-hirzebruch-model",
        "sod-overlong-orbit-size",
        "sod-overlong-hirzebruch-base",
        "sod-orbit-sum-beyond-printing",
        "sod-deep-blowups",
        "sod-deeper-blowups",
        "group-deep-gen",
        "group-deeper-gen",
        "profile-deep-atom",
        "profile-deeper-atom",
        "mutate-overlong-object",
        "mutate-unreadable-object",
    ],
)
def test_malformed_integer_exits_two(tmp_path, capsys, command, flag, section, line):
    f = tmp_path / "input.cfg"
    f.write_text(f"[{section}]\n{line}\n")
    script = tmp_path / "script.txt"
    script.write_text("")
    argv = [command, flag, str(f)]
    if command == "mutate":
        argv += ["--script", str(script)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err
    # an error quotes a bounded prefix of an overlong input, not all of it
    assert max(map(len, err.splitlines())) < 400


# -- oversized surfaces ----------------------------------------------------------

_ADDRESS_SPACE = 3 * 2**29  # 1.5 GiB, well below the dense Gram matrix of P2[20000]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


@pytest.mark.parametrize("command", ["group", "atoms", "sod"])
def test_oversized_surface_exits_two(tmp_path, command):
    """A model of 20,000 points is refused before any matrix on its lattice
    is built.  The command runs in a subprocess with a limited address space,
    so a regression fails fast there instead of asking this process for
    gigabytes."""
    surface = tmp_path / "surface.cfg"
    surface.write_text("[surface]\nbase = P2\nblowups = [20000]\n")
    action = tmp_path / "action.cfg"
    action.write_text("[group]\nmodel = P2[20000]\n")
    contraction = tmp_path / "contraction.cfg"
    contraction.write_text("[contraction]\nterminal = K-nef\n")
    argv = {
        "group": ["--action", str(action)],
        "atoms": [
            "--surface", str(surface), "--action", str(action),
            "--contraction", str(contraction),
        ],
        "sod": ["--surface", str(surface)],
    }[command]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CLI, command, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: 20000 blown-up points, above the bound of {MAX_BLOWN_POINTS}\n"
    assert proc.stdout == ""


def test_surface_at_the_bound_is_accepted():
    assert SurfaceModel("P2", (MAX_BLOWN_POINTS,)).picard_rank == MAX_BLOWN_POINTS + 1
    with pytest.raises(InputError, match=f"^101 blown-up points, above the bound of {MAX_BLOWN_POINTS}$"):
        SurfaceModel("F0", (50, 51))
    with pytest.raises(InputError, match="^over 2\\^64 blown-up points"):
        SurfaceModel("P2", (2**63, 2**63))


@pytest.mark.parametrize(
    "kind, text, message",
    [
        (
            "group",
            "[group]\nmodel = P2[2]\n"
            "gen = [[True,False,False],[False,False,True],[False,True,False]]\n",
            "expected a rectangular integer matrix",
        ),
        ("profile", '[profile]\natom = (True, True, "0")\nam = 1\nind = 1\n', "an atom is a"),
        ("profile", '[profile]\nopaque = ("K-nef", True)\n', "an opaque marker is a"),
        (
            "contraction",
            "[contraction]\norbits = [True]\nterminal = Point\nmodel = P2\n",
            "expected a list of integers",
        ),
        ("surface", "[surface]\nbase = P2\nblowups = [True]\n", "expected a list of integers"),
    ],
    ids=["group-gen", "profile-atom", "profile-opaque", "contraction-orbits", "surface-blowups"],
)
def test_booleans_are_not_integers_in_file_literals(tmp_path, capsys, kind, text, message):
    f = tmp_path / "input.cfg"
    f.write_text(text)
    if kind == "group":
        argv = ["group", "--action", str(f)]
    elif kind == "profile":
        argv = ["profile", "--file", str(f)]
    elif kind == "surface":
        argv = ["sod", "--surface", str(f)]
    else:
        surface, action, _ = _atom_files(tmp_path)
        argv = ["atoms", "--surface", str(surface), "--action", str(action)]
        argv += ["--contraction", str(f)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("power", ["100000", "10000000", "-65"])
def test_serre_exponent_above_the_cap_exits_two(tmp_path, capsys, power):
    coll = tmp_path / "collection.cfg"
    coll.write_text("[collection]\nmodel = P2[3]\nblocks = opq 5 | O\n")
    script = tmp_path / "script.txt"
    script.write_text(f"serre 1..1 ^{power}\n")
    code, out, err = run(capsys, "mutate", "--collection", str(coll), "--script", str(script))
    assert code == 2
    assert "error:" in err and "cap" in err
    assert "Traceback" not in err
    assert out == ""


def test_serre_growth_past_the_coordinate_bound_exits_two(tmp_path, capsys):
    # each move adds about 122 bits: 4,014 after the 33rd, 4,136 after the 34th
    coll = tmp_path / "collection.cfg"
    coll.write_text("[collection]\nmodel = P2[3]\nblocks = opq 5 | O\n")
    script = tmp_path / "script.txt"
    script.write_text("serre 1..1 ^64\n" * 130)
    code, out, err = run(capsys, "mutate", "--collection", str(coll), "--script", str(script))
    assert code == 2
    assert "error:" in err
    assert "step 34: serre 1..1 ^64 gives a class coordinate of 4136 bits" in err
    assert "above the bound of 4096 bits" in err
    assert "Traceback" not in err
    assert out.startswith("start:")


# -- profile ---------------------------------------------------------------------

def test_profile_on_the_bundled_data(capsys):
    from importlib import resources

    path = resources.files("sodatlas.catalog") / "data" / "profiles.cfg"
    code, out, _ = run(capsys, "profile", "--file", str(path))
    assert code == 0
    assert out.count("index formula: ok") == 3
    assert out.count("rich: yes") == 3
    assert out.count("rational shape: no") == 3

def test_profile_flags_a_failing_formula(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_text('[profile "broken"]\na = (1, 3, "a3")\nam = 2\nind = 2\n')
    code, out, _ = run(capsys, "profile", "--file", str(f))
    assert code == 1
    assert "index formula: FAIL" in out

def test_profile_without_orders_is_skipped(tmp_path, capsys):
    f = tmp_path / "partial.cfg"
    f.write_text('[atoms]\na = (1, 1, "0")\n')
    code, out, _ = run(capsys, "profile", "--file", str(f))
    assert code == 0
    assert "index formula: skipped" in out
    assert "rational shape: yes" in out

def test_profile_prints_degree_six_warnings(tmp_path, capsys):
    f = tmp_path / "dp6.cfg"
    f.write_text(
        '[profile "odd"]\n'
        'a = (1, 1, "0")\nb = (2, 3, "b")\nc = (3, 2, "c")\n'
        "am = 6\nind = 5\n"
    )
    code, out, _ = run(capsys, "profile", "--file", str(f))
    assert code == 1  # 5 * 6 != 1 * 3 * 2
    assert out.count("warning:") == 2


# -- selftest wiring ---------------------------------------------------------------

def test_selftest_subcommand_reports_stub_pass(monkeypatch, capsys):
    monkeypatch.setattr(selftest, "CRITERIA", ((1, "stub", lambda: "fine"),))
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out == "PASS  1 stub: fine\n"

def test_selftest_subcommand_reports_stub_failure(monkeypatch, capsys):
    def boom():
        raise VerificationError("broken on purpose")

    monkeypatch.setattr(selftest, "CRITERIA", ((7, "stub", boom),))
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert out == "FAIL  7 stub: broken on purpose\n"
