"""Grammar fuzzing of the CLI file formats.

Random `[collection]` files with `mutate` scripts, and random `[profile]`
files, go through `cli.main`.  Whatever the input, the exit code is 0, 1
or 2 and nothing raises: malformed input must end in `error:`, not in a
traceback.  The examples are derandomized, so every run sees the same
inputs.
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


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


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
