"""Grammar fuzzing of the CLI file formats.

Random `[collection]` files with `mutate` scripts, random `[profile]` files,
random `[surface]` files for `sod`, random `[group]` files for `group`,
random surface, action and `[contraction]` files for `atoms`, random
`[steps]` files for `invariant`, and random arguments for `classes` and
`verify-link` go through `cli.main`.  Whatever the input, the exit code is
0, 1 or 2 and nothing raises: malformed input must end in `error:`, not in
a traceback, and standard output is flushed before the `error:` line is
written.  Arguments argparse rejects end its usage text with one `error:`
line and exit 2.  The surface and group files reach extreme orbit counts,
deep nesting and overlong integers; so do the contraction's orbit lists,
the steps' orbit sizes and the `classes` and `verify-link` arguments.  The
examples are derandomized, so every run sees the same inputs.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sodatlas import cli

FUZZ = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- [collection] files and move scripts -------------------------------------------


@st.composite
def _surface(draw):
    base = draw(st.sampled_from(["P2", "F0", "F1", "F2"]))
    orbits = draw(st.lists(st.integers(1, 2), max_size=2))
    labels = ["H"] if base == "P2" else ["s", "h"]
    labels += [f"E{i + 1}" for i in range(sum(orbits))]
    spec = base + (f"[{','.join(map(str, orbits))}]" if orbits else "")
    return spec, labels


def _divisor(labels):
    term = st.tuples(st.integers(-3, 3), st.sampled_from(labels + ["K", "E9", "Q"]))

    def render(terms):
        text = " + ".join(name if c == 1 else f"{c}{name}" for c, name in terms)
        return text.replace("+ -", "- ") or "0"

    return st.lists(term, max_size=3).map(render)


def _object(labels):
    d = _divisor(labels)
    return st.one_of(
        st.just("O"),
        d.map(lambda t: f"O({t})"),
        d.map(lambda t: f"tors {t}"),
        st.builds(
            lambda r, t, c: f"[{r}; {t}; {c}]", st.integers(-2, 2), d, st.integers(-3, 3)
        ),
        st.sampled_from(["O(", "tors", "[1; H]", "[a; H; 1]", "opq x", "X"]),
    )


def _block(labels):
    plain = st.lists(_object(labels), min_size=1, max_size=3).map(", ".join)
    return st.one_of(plain, st.integers(0, 8).map(lambda n: f"opq {n}"))


# Legal start collections, so that most scripts get to run.
_LEGAL = (
    ("P2", "O(-2H) | O(-H) | O"),
    ("P2[1]", "tors E1 | O(-2H) | O(-H) | O"),
    ("P2[2]", "tors E1, tors E2 | O(-2H) | O(-H) | O"),
    ("P2[3]", "opq 5 | O"),
    ("F0", "O(-s-h) | O(-s), O(-h) | O"),
    ("F0[2]", "tors E1, tors E2 | O(-s-h) | O(-s), O(-h) | O"),
)


@st.composite
def collection_files(draw):
    if not draw(st.booleans()):
        spec, blocks = draw(st.sampled_from(_LEGAL))
    else:
        spec, labels = draw(_surface())
        blocks = " | ".join(draw(st.lists(_block(labels), min_size=1, max_size=4)))
    return f"[collection]\nmodel = {spec}\nblocks = {blocks}\n"


_INDEX = st.integers(0, 4)
_POWER = st.sampled_from(list(range(-4, 5)) + [65, -100000])
_MOVE = st.one_of(
    st.builds(lambda k, i: f"{k} {i}", st.sampled_from(["L", "R", "swap", "merge"]), _INDEX),
    st.sampled_from(["helix -K", "helix +K"]),
    st.builds(
        lambda i, sizes: f"split {i} " + " ".join(map(str, sizes)),
        _INDEX,
        st.lists(st.integers(0, 3), min_size=1, max_size=3),
    ),
    st.builds(lambda a, b, n: f"serre {a}..{b} ^{n}", _INDEX, _INDEX, _POWER),
)
_BROKEN_MOVE = st.sampled_from(["wiggle 3", "serre 1..2", "L x", "helix K", "split 1"])


@st.composite
def scripts(draw):
    moves = draw(st.lists(_MOVE, max_size=4))
    if draw(st.integers(0, 3)) == 3:
        moves.insert(draw(st.integers(0, len(moves))), draw(_BROKEN_MOVE))
    return draw(st.sampled_from(["; ", "\n"])).join(moves)


class _Stderr(io.StringIO):
    """Records what standard output had written through when the first
    line reached standard error."""

    def __init__(self, stdout_bytes: io.BytesIO):
        super().__init__()
        self._stdout_bytes = stdout_bytes
        self.stdout_then = None

    def write(self, text):
        if self.stdout_then is None:
            self.stdout_then = self._stdout_bytes.getvalue()
        return super().write(text)


def _run(argv) -> int:
    """`cli.main(argv)` with a buffered standard output; checks that every
    error is one `error:` line, after all of standard output."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", write_through=False)
    err = _Stderr(raw)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out.flush()
    text = err.getvalue()
    assert "Traceback" not in text
    if text:
        assert text.startswith("error:") and text.count("\n") == 1
        assert err.stdout_then == raw.getvalue()
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(collection=collection_files(), script=scripts())
@example(
    collection="[collection]\nmodel = P2[3]\nblocks = opq 5 | O\n",
    script="serre 1..1 ^100000",
)
@example(
    collection="[collection]\nmodel = P2[3]\nblocks = opq 5 | O\n",
    script="\n".join(["serre 1..1 ^64"] * 130),
)
def test_mutate_never_raises(workdir, collection, script):
    coll, moves = workdir / "collection.cfg", workdir / "script.txt"
    coll.write_text(collection)
    moves.write_text(script)
    assert _run(["mutate", "--collection", str(coll), "--script", str(moves)]) in (0, 1, 2)


# -- [profile] files -----------------------------------------------------------------

_COUNT = st.integers(1, 12).map(str)
_ATOM = st.one_of(
    st.builds(
        lambda d, i: f'a = ({d}, {i}, "{"0" if i == 1 else f"b{i}"}")',
        st.integers(1, 6),
        st.integers(1, 3),
    ),
    st.builds(
        lambda shape, d: f'opaque = ("{shape}", {d})',
        st.sampled_from(["P", "dP6"]),
        st.integers(1, 9),
    ),
)
_BROKEN = st.sampled_from(
    [
        "a = (0, 1, \"0\")",
        "a = (1, 2, \"0\")",
        "a = (1, 2)",
        "a = x",
        "a = (1, 1, 0)",
        'opaque = (1, "P")',
        'opaque = ("P", -1)',
        "am = x",
        "am = 1.5",
        "am = 0",
        "ind = -2",
        "ind =",
        "am = 2",
        "ind = 3",
    ]
)


@st.composite
def profile_files(draw):
    header = draw(st.sampled_from(['[profile "p"]', '[profile "p"]', "[atoms]", "[other]"]))
    lines = draw(st.lists(_ATOM, max_size=5))
    for key in ("am", "ind"):
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(_COUNT)}")
    if draw(st.integers(0, 2)) == 2:
        lines.insert(draw(st.integers(0, len(lines))), draw(_BROKEN))
    return "\n".join([header] + lines) + "\n"


@FUZZ
@given(profile=profile_files())
@example(profile='[profile "p"]\na = (1, 1, "0")\nam = x\n')
@example(profile='[profile "p"]\na = (1, 1, "0")\nam = 2\nam = 3\n')
def test_profile_never_raises(workdir, profile):
    path = workdir / "profile.cfg"
    path.write_text(profile)
    assert _run(["profile", "--file", str(path)]) in (0, 1, 2)


# -- [surface] files for sod and [group] files for group -------------------------

_DEEP = st.sampled_from([3000, 100_000])
_HUGE_INT = st.sampled_from(["1" * 5000, "9" * 4300, str(10**40), "-" + "1" * 5000])
_ORBITS = st.one_of(
    st.lists(st.integers(1, 3), max_size=4),
    st.sampled_from([[0], [-1], [100], [101], [20000], [99, 1], [50, 51], [1] * 150, [10**40]]),
)


def _orbit_list(orbits):
    return "[" + ", ".join(map(str, orbits)) + "]"


@st.composite
def _spec(draw):
    """A `model =` surface spec: mostly legal, with extreme orbit counts,
    overlong integers and a few shapes the grammar rejects."""
    base = draw(st.sampled_from(["P2", "P2", "F0", "F1", "F2", "F3", "Q"]))
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from(["P2[", "P2[1,,2]", "F", "P2[-1]", ""]))
    if kind == 1:
        return base + "[" + draw(_HUGE_INT).lstrip("-") + "]"
    if kind == 2:
        return "F" + draw(_HUGE_INT).lstrip("-")
    orbits = draw(_ORBITS)
    return base + (_orbit_list(orbits).replace(" ", "") if orbits else "")


@st.composite
def surface_files(draw):
    lines = ["[surface]"]
    if draw(st.booleans()):
        lines.append(f"model = {draw(_spec())}")
    else:
        lines.append(f"base = {draw(st.sampled_from(['P2', 'F0', 'F1', 'F2', 'P3']))}")
        blowups = draw(
            st.one_of(
                _ORBITS.map(_orbit_list),
                _DEEP.map(lambda n: "[" * n + "1" + "]" * n),
                _DEEP.map(lambda n: "-" * n + "1"),
                _HUGE_INT.map(lambda x: f"[{x}]"),
                st.sampled_from(["[1, 2", "(1, 2)", "[1.5]", "[True]", "{1: 2}", "x"]),
            )
        )
        lines.append(f"blowups = {blowups}")
    over = draw(st.sampled_from(["Point", "Point", "RationalCurve", "Curve", "Plane", None]))
    if over is not None:
        lines.append(f"over = {over}")
    if draw(st.booleans()):
        fibre = draw(st.sampled_from(["h", "s", "H - E1", "E1", "H - E1 - E2 +", "F", "0"]))
        lines.append(f"fibre = {fibre}")
    if draw(st.integers(0, 3)) == 3:
        lines.append(f"genus = {draw(st.one_of(st.integers(-1, 3).map(str), _HUGE_INT))}")
    return "\n".join(lines) + "\n"


@FUZZ
@given(surface=surface_files())
@example(surface="[surface]\nmodel = P2[20000]\nover = RationalCurve\nfibre = H - E1\n")
@example(surface="[surface]\nmodel = P2[100]\nover = RationalCurve\nfibre = H - E1\n")
@example(surface="[surface]\nbase = P2\nblowups = [" + ", ".join(["9" * 4300] * 2) + "]\n")
@example(surface="[surface]\nbase = F0\nblowups = " + "[" * 100_000 + "1" + "]" * 100_000 + "\n")
def test_sod_never_raises(workdir, surface):
    path = workdir / "surface.cfg"
    path.write_text(surface)
    assert _run(["sod", "--surface", str(path)]) in (0, 1, 2)


# Legal models with generators of an action on them.
_ACTIONS = (
    ("P2[2]", "[[1,0,0],[0,0,1],[0,1,0]]"),
    ("P2[3]", "[[2,1,1,1],[-1,-1,0,-1],[-1,-1,-1,0],[-1,0,-1,-1]]"),
    ("P2[3]", "[[1,0,0,0],[0,0,1,0],[0,1,0,0],[0,0,0,1]]"),
    ("F0", "[[0,1],[1,0]]"),
)
_GENERATORS = tuple(gen for _, gen in _ACTIONS)


def _matrix_text(n, entries):
    return "[" + ",".join("[" + ",".join(entries[i * n : (i + 1) * n]) + "]" for i in range(n)) + "]"


@st.composite
def _generator(draw):
    kind = draw(st.integers(0, 6))
    if kind <= 2:
        return draw(st.sampled_from(_GENERATORS))
    if kind == 3:
        n = draw(st.integers(1, 4))
        entries = draw(st.lists(st.integers(-2, 2).map(str), min_size=n * n, max_size=n * n))
        return _matrix_text(n, entries)
    if kind == 4:
        n = draw(st.sampled_from([3, 101]))
        entries = [str(int(i % (n + 1) == 0)) for i in range(n * n)]
        entries[draw(st.integers(0, n * n - 1))] = draw(_HUGE_INT)
        return _matrix_text(n, entries)
    if kind == 5:
        return draw(_DEEP.map(lambda n: "[" * n + "]" * n))
    return draw(st.sampled_from(["[[1,0],[0]]", "[]", "[[]]", "[[1.0]]", "[[True]]", "x", "[[1]"]))


@st.composite
def group_files(draw):
    lines = ["[group]"]
    model, gen = draw(st.sampled_from(_ACTIONS))
    gens = [gen] if draw(st.booleans()) else []
    if draw(st.integers(0, 3)) == 3:
        model = draw(_spec())
    if draw(st.integers(0, 9)):
        lines.append(f"model = {model}")
    gens += draw(st.lists(_generator(), max_size=2))
    lines += [f"gen = {g}" for g in gens]
    return "\n".join(lines) + "\n"


@FUZZ
@given(group=group_files())
@example(group="[group]\nmodel = P2[20000]\ngen = [[1]]\n")
@example(group="[group]\nmodel = P2[100]\n")
@example(group="[group]\nmodel = P2[3]\ngen = " + "[" * 100_000 + "]" * 100_000 + "\n")
def test_group_never_raises(workdir, group):
    path = workdir / "group.cfg"
    path.write_text(group)
    assert _run(["group", "--action", str(path)]) in (0, 1, 2)


# -- surface, action and [contraction] files for atoms ---------------------------------

# Models with generators that act on them, the degree-8 models F0, F1, F2 and
# P2[1] among them, and the residual models a contraction may name.
_ATOM_MODELS = (
    ("P2[2]", ["[[1,0,0],[0,0,1],[0,1,0]]"]),
    ("P2[1,1]", ["[[1,0,0],[0,0,1],[0,1,0]]"]),
    ("P2[3]", _GENERATORS[1:3]),
    ("F0", ["[[0,1],[1,0]]"]),
    ("F0[1]", []),
    ("F1", []),
    ("F2", []),
    ("P2[1]", []),
    ("P2", []),
)
_RESIDUALS = ("P2", "P2[1]", "P2[2]", "P2[3]", "F0", "F1", "F2", "F0[1]")
_ORBIT_INDICES = st.one_of(
    st.lists(st.integers(-1, 3), max_size=3).map(_orbit_list),
    st.sampled_from(["[0, 0]", "[1, 0, 1]", f"[{10**40}]", "[" + "9" * 4300 + "]"]),
    st.just("[" + ", ".join(["0"] * 5000) + "]"),
    _HUGE_INT.map(lambda x: f"[{x}]"),
    _DEEP.map(lambda n: "[" * n + "0" + "]" * n),
    st.sampled_from(["[0", "x", "[1.5]", "[True]", "(0,)", "{0: 1}", ""]),
)


# Legal inputs, so that some draws get as far as the atoms: a model, a
# generator acting on it, and a contraction of it to a fibre space or K-nef.
_LEGAL_ATOMS = (
    ("P2[2]", "[[1,0,0],[0,0,1],[0,1,0]]", "orbits = [0]\nterminal = Point\nmodel = P2"),
    ("P2[3]", _GENERATORS[1], "terminal = Point\nmodel = P2[3]"),
    ("P2[1,1]", "[[1,0,0],[0,0,1],[0,1,0]]", "terminal = K-nef"),
    ("F0[1]", None, "orbits = [0]\nterminal = RationalCurve\nmodel = F0\nfibre = s"),
    ("F2", None, "terminal = Point\nmodel = F2"),
    ("F1", None, "terminal = RationalCurve\nmodel = F1\nfibre = h"),
)


def _legal_atom_files(legal):
    model, gen, contraction = legal
    return (
        f"[surface]\nmodel = {model}\n",
        "[group]\n" + (f"gen = {gen}\n" if gen else ""),
        f"[contraction]\n{contraction}\n",
    )


@st.composite
def _random_atom_files(draw):
    model, gens = draw(st.sampled_from(_ATOM_MODELS))
    if draw(st.integers(0, 5)) == 5:
        model = draw(_spec())
    gen_lines = [f"gen = {g}" for g in gens if draw(st.booleans())]
    gen_lines += [f"gen = {g}" for g in draw(st.lists(_generator(), max_size=1))]
    lines = ["[contraction]"]
    if draw(st.booleans()):
        lines.append(f"orbits = {draw(_ORBIT_INDICES)}")
    terminal = draw(st.sampled_from(["Point", "RationalCurve", "Curve", "K-nef", "Plane", ""]))
    if draw(st.integers(0, 9)):
        lines.append(f"terminal = {terminal}")
    if draw(st.integers(0, 9)):
        residual = draw(st.one_of(st.sampled_from(_RESIDUALS), _spec()))
        lines.append(f"model = {residual}")
    if draw(st.booleans()):
        fibre = draw(st.sampled_from(["h", "s", "s + h", "H - E1", "E1", "F"]))
        lines.append(f"fibre = {fibre}")
    if draw(st.integers(0, 3)) == 3:
        lines.append(f"genus = {draw(st.one_of(st.integers(-1, 3).map(str), _HUGE_INT))}")
    return (
        f"[surface]\nmodel = {model}\n",
        "\n".join(["[group]"] + gen_lines) + "\n",
        "\n".join(lines) + "\n",
    )


def atom_files():
    return st.one_of(st.sampled_from(_LEGAL_ATOMS).map(_legal_atom_files), _random_atom_files())


@FUZZ
@given(files=atom_files())
@example(files=("[surface]\nmodel = P2[1]\n", "[group]\n", "[contraction]\nterminal = Point\nmodel = P2[1]\n"))
@example(
    files=(
        "[surface]\nmodel = P2[9]\n",
        "[group]\n",
        "[contraction]\nterminal = Curve\nmodel = P2[9]\ngenus = 1\nfibre = H - E1\n",
    )
)
@example(
    files=(
        "[surface]\nmodel = P2[1,1]\n",
        "[group]\ngen = [[1,0,0],[0,0,1],[0,1,0]]\n",
        "[contraction]\norbits = [0, 0]\nterminal = Point\nmodel = F3\n",
    )
)
def test_atoms_never_raises(workdir, files):
    paths = [workdir / name for name in ("surface.cfg", "action.cfg", "contraction.cfg")]
    for path, text in zip(paths, files):
        path.write_text(text)
    argv = ["atoms"]
    for flag, path in zip(("--surface", "--action", "--contraction"), paths):
        argv += [flag, str(path)]
    assert _run(argv) in (0, 1, 2)


# -- [steps] files for invariant ---------------------------------------------------------

_STEP_SIZE = st.one_of(
    st.integers(1, 6).map(str),
    st.sampled_from(["0", "-1", "-7", str(10**40), "1.5", "x", "", "1e3", "True", "0x10"]),
    _HUGE_INT,
    st.sampled_from(["[1]", "[[2]]", "(3,)"]),
    _DEEP.map(lambda n: "[" * n + "1" + "]" * n),
    _DEEP.map(lambda n: "-" * n + "1"),
)


@st.composite
def steps_files(draw):
    header = draw(st.sampled_from(["[steps]", "[steps]", "[steps]", "[other]"]))
    keys = st.sampled_from(["blowup", "blowdown", "blowup", "blowdown", "flip"])
    lines = [f"{key} = {size}" for key, size in draw(st.lists(st.tuples(keys, _STEP_SIZE), max_size=6))]
    return "\n".join([header] + lines) + "\n"


@FUZZ
@given(steps=steps_files())
@example(steps="[steps]\nblowup = " + "9" * 4300 + "\nblowdown = " + "9" * 4300 + "\n")
@example(steps="[steps]\nblowup = " + "[" * 100_000 + "1" + "]" * 100_000 + "\n")
def test_invariant_never_raises(workdir, steps):
    path = workdir / "steps.cfg"
    path.write_text(steps)
    assert _run(["invariant", "--steps", str(path)]) in (0, 1, 2)


# -- classes and verify-link arguments ------------------------------------------------


def _run_args(argv) -> int:
    """`_run(argv)`, or exit code 2 for arguments argparse rejects: then
    standard output stays empty and standard error is its usage text with
    one `error:` line at the end.  The arguments go through the parser
    `main` builds for them, which holds only the subparser of their
    command."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli._build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        lines = err.getvalue().splitlines()
        assert exc.code == 2 and out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert lines[0].startswith("usage: sodatlas")
        assert [": error: " in line for line in lines].count(True) == 1
        assert ": error: " in lines[-1]
        return 2
    return _run(argv)


def _flag_mix(values):
    """Flags with values drawn from `values`, with a flag doubled, missing
    its value, written as `--flag=value`, or followed by junk."""

    @st.composite
    def mix(draw):
        flags = draw(st.permutations(list(values)))
        argv = []
        for flag in flags:
            if draw(st.integers(0, 9)) == 0:
                continue
            value = draw(values[flag])
            kind = draw(st.integers(0, 9))
            if kind == 0:
                argv.append(flag)
            elif kind == 1:
                argv.append(f"{flag}={value}")
            else:
                argv += [flag, value]
            if kind == 2:
                argv += [flag, draw(values[flag])]
        if draw(st.integers(0, 9)) == 0:
            junk = draw(st.sampled_from(["--bogus", "x", "-", "--"]))
            argv.insert(draw(st.integers(0, len(argv))), junk)
        return argv

    return mix()


def _int_text(low, high):
    """Mostly integers in low..high, else overlong or malformed ones."""
    small = st.integers(low, high).map(str)
    return st.one_of(
        small,
        small,
        _HUGE_INT,
        st.sampled_from(["", " 5", "1.5", "x", "0x5", "1e3", "+3", "-0", "٣"]),
        st.sampled_from([str(10**40), "-" + str(10**40)]),
    )


# --degree also takes surface specs, which are not integers.
_CLASSES_ARGS = {"--degree": st.one_of(_int_text(0, 10), _spec()), "--r": _int_text(-3, 2)}
# Legal arguments, so that some draws enumerate classes.
_LEGAL_CLASSES = st.builds(
    lambda degree, r: ["--degree", str(degree), "--r", str(r)],
    st.integers(1, 9),
    st.integers(-2, 1),
)


@FUZZ
@given(argv=st.one_of(_LEGAL_CLASSES, _flag_mix(_CLASSES_ARGS)))
@example(argv=["--degree", "9" * 4300, "--r", "0"])
@example(argv=["--degree", "1", "--r", "-" + "9" * 4300])
@example(argv=["--degree", "P2[3]", "--r", "-1"])
def test_classes_never_raises(argv):
    assert _run_args(["classes"] + argv) in (0, 1, 2)


# `--all` alone replays every case (about 0.1 s); tests/test_cli.py runs it,
# so here it comes only with a second selector, which argparse rejects.
_IDS = ("I-9-8", "II-2-1-2", "REF-5-6", "II-curve-gen-1", "I-4-3")
_ID_TEXT = st.one_of(
    st.sampled_from(_IDS),
    st.sampled_from(_IDS).map(lambda case: case.lower()),
    st.sampled_from(_IDS).map(lambda case: case + " "),
    st.sampled_from(["", " ", "I-9-9", "-1", "--all", "*", "I-9-8; II-2-1-2", "é", "\x00"]),
    st.text(max_size=20),
    st.sampled_from([5000, 100_000]).map(lambda n: "I" * n),
    _HUGE_INT,
)


@st.composite
def verify_link_args(draw):
    if draw(st.integers(0, 2)) == 0:
        return ["--id", draw(st.sampled_from(_IDS))]
    argv = draw(_flag_mix({"--id": _ID_TEXT}))
    if draw(st.integers(0, 3)) == 3:
        argv.insert(draw(st.integers(0, len(argv))), "--all")
    if argv.count("--all") == len(argv):
        argv.append("--id")
    return argv


@FUZZ
@given(argv=verify_link_args())
@example(argv=["--id", "I" * 100_000])
@example(argv=["--id", ""])
@example(argv=["--id", "I-9-8", "--all"])
@example(argv=["--id", "I-9-8"])
def test_verify_link_never_raises(argv):
    assert _run_args(["verify-link"] + argv) in (0, 1, 2)
