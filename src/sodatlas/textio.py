"""Text formats shared by the CLI and the catalog data files: divisor
expressions over a surface basis, K-class serialization, and the stanza
file grammar ([section] headers, `key = value` lines, repeated keys)."""

from __future__ import annotations

import ast
import re

from .errors import InputError
from .ktheory import KClass
from .lattice import DivisorClass, SurfaceModel, _parse_int, _quote

_TOKEN_RE = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<int>\d+)|(?P<star>\*)|(?P<name>[A-Za-z][A-Za-z0-9']*))")
_SURFACE_RE = re.compile(r"^(?P<base>P2|F\d+)\s*(?:\[(?P<orbits>[0-9,\s]*)\])?$")


def parse_surface_spec(text: str) -> SurfaceModel:
    """`P2`, `F0`, `P2[3,2]`, `F0[2]` and friends."""
    m = _SURFACE_RE.match(text.strip())
    if not m:
        raise InputError(f"cannot parse surface spec {_quote(text)}")
    orbits = tuple(
        _parse_int(x) for x in (m.group("orbits") or "").replace(" ", "").split(",") if x
    )
    return SurfaceModel(m.group("base"), orbits)


def parse_divisor(surface: SurfaceModel, text: str, names: dict[str, DivisorClass] | None = None) -> DivisorClass:
    """Parse `2H - E1 - E2 + K` style expressions.  `names` adds aliases on
    top of the basis labels and K."""
    names = names or {}
    pos = 0
    total = surface.zero_divisor()
    text = text.strip()
    if text == "0":
        return total
    expect_term = True
    sign = 1
    coeff: int | None = None
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise InputError(f"cannot tokenize divisor expression {_quote(text)} at {pos}")
        pos = m.end()
        if m.group("sign"):
            if coeff is not None:
                raise InputError(f"dangling coefficient in {_quote(text)}")
            if not expect_term:
                expect_term = True
                sign = 1 if m.group("sign") == "+" else -1
            else:
                sign *= 1 if m.group("sign") == "+" else -1
        elif m.group("int"):
            if coeff is not None:
                raise InputError(f"two coefficients in a row in {_quote(text)}")
            coeff = int(m.group("int"))
        elif m.group("star"):
            if coeff is None:
                raise InputError(f"stray '*' in {_quote(text)}")
        else:
            name = m.group("name")
            if name in names:
                base = names[name]
            else:
                base = surface.basis_class(name)
            total = total + (sign * (coeff if coeff is not None else 1)) * base
            sign, coeff, expect_term = 1, None, False
    if coeff is not None or expect_term:
        raise InputError(f"incomplete divisor expression {_quote(text)}")
    return total


def render_divisor(surface: SurfaceModel, d: DivisorClass) -> str:
    parts: list[str] = []
    for coeff, label in zip(d.coords, surface.labels):
        if coeff == 0:
            continue
        mag = abs(coeff)
        body = label if mag == 1 else f"{mag}{label}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def render_kclass(a: KClass) -> str:
    """Certificate form `(r; c1-coeffs; chi)`."""
    c1 = ",".join(str(x) for x in a.c1.coords)
    return f"({a.rank}; {c1}; {a.chi})"


# -- stanza files --------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[(?P<kind>[A-Za-z][A-Za-z0-9_-]*)(?:\s+\"(?P<name>[^\"]*)\")?\]$")

Stanza = tuple[str, str | None, dict[str, list[str]]]


def parse_stanzas(text: str) -> list[Stanza]:
    """Sections `[kind]` or `[kind "name"]`, then `key = value` lines; keys
    may repeat (values collect in order); `#` starts a comment."""
    stanzas: list[Stanza] = []
    current: dict[str, list[str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _SECTION_RE.match(line.strip())
        if m:
            current = {}
            stanzas.append((m.group("kind"), m.group("name"), current))
            continue
        if current is None:
            raise InputError(f"line {lineno}: content before any [section]")
        if "=" not in line:
            raise InputError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        current.setdefault(key.strip(), []).append(value.strip())
    return stanzas


def stanza_single(stanza: dict[str, list[str]], key: str, default: str | None = None) -> str:
    values = stanza.get(key)
    if not values:
        if default is not None:
            return default
        raise InputError(f"missing key {key!r}")
    if len(values) > 1:
        raise InputError(f"key {key!r} given {len(values)} times, expected once")
    return values[0]


def _names_of(surface: SurfaceModel, stanza: dict[str, list[str]]) -> dict[str, DivisorClass]:
    """The `dict <name> = <divisor>` aliases of a stanza, each over the earlier ones."""
    names: dict[str, DivisorClass] = {}
    for key in stanza:
        if key.startswith("dict "):
            names[key[5:].strip()] = parse_divisor(
                surface, stanza_single(stanza, key), names
            )
    return names


def _parse_literal(text: str, noun: str):
    """`ast.literal_eval`, with a parse failure reported as `cannot parse <noun>`.

    A deeply nested literal exhausts the parser's stack (`MemoryError`) or the
    recursion limit of AST construction (`RecursionError`): a parse failure
    too."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError, RecursionError, MemoryError) as exc:
        raise InputError(f"cannot parse {noun} {_quote(text)}") from exc


def parse_int_list(text: str) -> list[int]:
    value = _parse_literal(text, "integer list")
    if not isinstance(value, (list, tuple)) or not all(type(x) is int for x in value):
        raise InputError(f"expected a list of integers, got {_quote(text)}")
    return list(value)


def parse_matrix(text: str) -> list[list[int]]:
    value = _parse_literal(text, "matrix")
    if (
        not isinstance(value, (list, tuple))
        or not value
        or not all(isinstance(row, (list, tuple)) for row in value)
        or len({len(row) for row in value}) != 1
        or not all(type(x) is int for row in value for x in row)
    ):
        raise InputError(f"expected a rectangular integer matrix, got {_quote(text)}")
    return [list(row) for row in value]


def parse_surface_stanza(stanza: dict[str, list[str]]) -> SurfaceModel:
    base = stanza_single(stanza, "base")
    blowups = stanza.get("blowups")
    orbits: tuple[int, ...] = ()
    if blowups:
        if len(blowups) > 1:
            raise InputError("blowups given more than once")
        orbits = tuple(parse_int_list(blowups[0]))
    return SurfaceModel(base.strip(), orbits)
