"""Divisor expressions against the tokenizer they replaced.

`textio.parse_divisor` reads one term grammar, `[signs] [n [*]] name`, term
by term, and every term after the first starts with a sign.
`_former_parse_divisor` is the former body: a tokenizer state machine that
also took terms with no sign between them (`2H E1` read as 2H + E1) and a
second `*`.  On every expression the catalog reads, and on random texts over
labels, aliases, `K`, digits, signs, `*`, spaces and `$`, the two agree: the
same class where the former returned one, except that juxtaposed terms and
`**` are now refused; a refusal where the former refused; and no exception
but `InputError` from either.
"""

import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sodatlas import textio
from sodatlas.catalog import scripts
from sodatlas.errors import InputError
from sodatlas.lattice import SurfaceModel
from sodatlas.textio import parse_divisor, parse_surface_spec
from test_fuzz import FUZZ

_TOKEN_RE = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<int>\d+)|(?P<star>\*)|(?P<name>[A-Za-z][A-Za-z0-9']*))")


def _former_parse_divisor(surface, text, names=None):
    names = names or {}
    pos = 0
    total = surface.zero_divisor()
    text = text.strip()
    if text == "0":
        return total
    expect_term = True
    sign = 1
    coeff = None
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise InputError(f"cannot tokenize divisor expression {text!r} at {pos}")
        pos = m.end()
        if m.group("sign"):
            if coeff is not None:
                raise InputError(f"dangling coefficient in {text!r}")
            if not expect_term:
                expect_term = True
                sign = 1 if m.group("sign") == "+" else -1
            else:
                sign *= 1 if m.group("sign") == "+" else -1
        elif m.group("int"):
            if coeff is not None:
                raise InputError(f"two coefficients in a row in {text!r}")
            coeff = int(m.group("int"))
        elif m.group("star"):
            if coeff is None:
                raise InputError(f"stray '*' in {text!r}")
        else:
            name = m.group("name")
            if name in names:
                base = names[name]
            else:
                base = surface.basis_class(name)
            total = total + (sign * (coeff if coeff is not None else 1)) * base
            sign, coeff, expect_term = 1, None, False
    if coeff is not None or expect_term:
        raise InputError(f"incomplete divisor expression {text!r}")
    return total


def _now_refused(text):
    """Whether `text`, which the former parser read, has a term with no sign
    before it or a second `*`: the two shapes the grammar no longer takes."""
    kinds = [m.lastgroup for m in _TOKEN_RE.finditer(text.strip())]
    return any(
        (a == "name" and b in ("int", "name")) or a == b == "star"
        for a, b in zip(kinds, kinds[1:])
    )


def test_every_catalog_expression_reads_as_before(monkeypatch):
    seen = []
    real = textio.parse_divisor

    def record(surface, text, names=None):
        seen.append((surface, text, dict(names or {})))
        return real(surface, text, names)

    monkeypatch.setattr(textio, "parse_divisor", record)
    monkeypatch.setattr(scripts, "parse_divisor", record)
    scripts._catalog.__wrapped__()  # a fresh build, past the cache
    monkeypatch.undo()
    assert len(seen) == 610
    for surface, text, names in seen:
        assert not _now_refused(text)
        assert parse_divisor(surface, text, names) == _former_parse_divisor(surface, text, names)


# Two surfaces, each with aliases; `h` is an alias on P2[3] and a basis label on F0[2].
_P2_3 = SurfaceModel("P2", (3,))
_F0_2 = SurfaceModel("F0", (2,))
_ALIASES = {
    _P2_3: {"h": parse_divisor(_P2_3, "H - E1"), "c'": parse_divisor(_P2_3, "2H - E1 - E2 - E3")},
    _F0_2: {"f": parse_divisor(_F0_2, "s + h - E1"), "c'": parse_divisor(_F0_2, "h - E2")},
}
_NAMES = ["H", "E1", "E2", "E3", "E4", "s", "h", "f", "c'", "K", "E", "$"]
_PIECES = _NAMES + ["0", "1", "2", "9", "+", "-", "*", " "]
# A term: a run of signs, a coefficient with or without `*`, a name known on
# both surfaces or not; the signs are often missing, so terms also meet with
# no sign between them.
_TERM = st.tuples(
    st.lists(st.sampled_from(["+", "-", " + ", " - ", "-"]), max_size=3).map("".join),
    st.sampled_from(["", "", "", "2", "0", "13", "2*", "3 * ", "1 ", "2**", "* "]),
    st.sampled_from(["E1", "E2", "h", "c'", "K", "E1 ", " E2", "E9", "$"]),
).map("".join)
_TEXTS = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
    st.lists(_TERM, min_size=1, max_size=4).map("".join),
    st.lists(_TERM, min_size=2, max_size=4).map("".join),
)


@FUZZ
@given(surface=st.sampled_from([_P2_3, _F0_2]), text=_TEXTS)
@example(surface=_P2_3, text="2H E1")
@example(surface=_P2_3, text="2**H")
@example(surface=_P2_3, text="H - -E1")
def test_random_texts_agree_with_the_former_parser(surface, text):
    names = _ALIASES[surface]
    try:
        want = _former_parse_divisor(surface, text, names)
    except InputError:
        want = None
    if want is None or _now_refused(text):
        with pytest.raises(InputError):
            parse_divisor(surface, text, names)
    else:
        assert parse_divisor(surface, text, names) == want


_BL2 = SurfaceModel("P2", (2,))


@pytest.mark.parametrize(
    "text, coords",
    [
        ("2H - E1 - E2", (2, -1, -1)),
        ("H - -E1", (1, 1, 0)),
        ("H + - E1", (1, -1, 0)),
        ("- - -H", (-1, 0, 0)),
        ("2*H", (2, 0, 0)),
        ("2 * H", (2, 0, 0)),
        ("2 H", (2, 0, 0)),
        ("K", (-3, 1, 1)),
        ("-K+E2", (3, -1, 0)),
        ("0", (0, 0, 0)),
        ("0H", (0, 0, 0)),
        ("  h' + E2 ", (1, -1, 1)),
    ],
)
def test_well_formed_expressions(text, coords):
    names = {"h'": parse_divisor(_BL2, "H - E1")}
    assert parse_divisor(_BL2, text, names).coords == coords


@pytest.mark.parametrize(
    "text, pos",
    [("2H E1", 2), ("H 2E1", 1), ("H - E1 E2", 6), ("2**H", 0), ("", 0), ("+", 0), ("2", 0),
     ("H +", 1), ("*H", 0), ("H - 2 3E1", 1), ("H $", 1)],
)
def test_malformed_expressions_name_where_the_grammar_stopped(text, pos):
    with pytest.raises(InputError) as exc:
        parse_divisor(_BL2, text)
    assert str(exc.value) == f"cannot parse divisor expression {text!r} at {pos}"


def test_an_overlong_coefficient_is_malformed_input():
    with pytest.raises(InputError, match="^expected an integer, got '9999"):
        parse_divisor(_BL2, "9" * 5000 + "H - E1")


def test_an_unknown_name_keeps_its_text():
    with pytest.raises(InputError, match=r"^no basis class 'E3' on P2\[2\]$"):
        parse_divisor(_BL2, "H - E3")


@pytest.mark.parametrize(
    "text, orbits",
    [("P2", ()), ("P2[]", ()), ("P2[ ]", ()), ("P2[3,2]", (3, 2)), ("P2[3, 2]", (3, 2)), ("F0[ 2 ]", (2,))],
)
def test_surface_specs(text, orbits):
    assert parse_surface_spec(text).blowup_orbits == orbits


@pytest.mark.parametrize("text", ["P2[1 2]", "P2[1,,2]", "P2[,]", "P2[1,]", "F0[,2]"])
def test_surface_specs_refuse_a_space_inside_a_size_or_an_empty_size(text):
    with pytest.raises(InputError, match="^expected an integer, got "):
        parse_surface_spec(text)
