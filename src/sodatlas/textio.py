"""Text formats shared by the CLI and the catalog data files: divisor
expressions over a surface basis, K-class serialization, and the stanza
file grammar ([section] headers, `key = value` lines, repeated keys)."""

from __future__ import annotations

import ast
import re

from .errors import InputError
from .ktheory import KClass
from .lattice import DivisorClass, SurfaceModel, _parse_int, _quote

_TERM_RE = re.compile(r"\s*(?P<signs>(?:[+-]\s*)*)(?:(?P<n>\d+)\s*(?:\*\s*)?)?(?P<name>[A-Za-z][A-Za-z0-9']*)")
_SURFACE_RE = re.compile(r"^(?P<base>P2|F\d+)\s*(?:\[(?P<orbits>[0-9,\s]*)\])?$")


def parse_surface_spec(text: str) -> SurfaceModel:
    """`P2`, `F0`, `P2[3,2]`, `F0[2]` and friends: a base, then optionally
    the orbit sizes in brackets, separated by commas.  Spaces may stand
    around a size, not inside one, and no size may be empty: `P2[]` and
    `P2[3, 2]` parse, `P2[1 2]`, `P2[1,,2]` and `P2[,]` do not."""
    m = _SURFACE_RE.match(text.strip())
    if not m:
        raise InputError(f"cannot parse surface spec {_quote(text)}")
    items = m.group("orbits") or ""
    orbits = tuple(_parse_int(x) for x in items.split(",")) if items.strip() else ()
    return SurfaceModel(m.group("base"), orbits)


def parse_divisor(surface: SurfaceModel, text: str, names: dict[str, DivisorClass] | None = None) -> DivisorClass:
    """Parse `2H - E1 - E2 + K` style expressions: `0`, or a sum of terms
    `[signs] [n [*]] name`.  The signs are any run of `+` and `-`, and an odd
    number of `-` negates the term; every term after the first starts with a
    sign, so `2H E1` is refused.  A name is a basis label or K; `names` adds
    aliases on top of both."""
    names = names or {}
    text = text.strip()
    coords = [0] * surface.picard_rank
    if text == "0":
        return DivisorClass(tuple(coords))
    pos = 0
    while True:
        m = _TERM_RE.match(text, pos)
        if not m or (pos and not m.group("signs")):
            raise InputError(f"cannot parse divisor expression {_quote(text)} at {pos}")
        signs, digits, name = m.group("signs", "n", "name")
        k = (-1) ** signs.count("-") * (_parse_int(digits) if digits else 1)
        base = names[name] if name in names else surface.basis_class(name)
        for i, x in enumerate(base.coords):
            coords[i] += k * x
        pos = m.end()
        if pos == len(text):
            return DivisorClass(tuple(coords))


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
    orbits = parse_int_list(stanza_single(stanza, "blowups", "[]"))
    return SurfaceModel(base.strip(), tuple(orbits))
