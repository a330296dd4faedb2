"""Replayable link scripts.

Every case ships as a data stanza: the roof surface, a dictionary of
divisor classes on it, the two side collections, a move script, and
optional post checks.  verify_link replays the moves step by step and
returns a certificate recording each intermediate collection, its Gram
matrix, and the verdict.  The Serre post checks (`serre-inv`,
`serre-match`) compare the class vectors of mutation.serre_images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from ..errors import InputError, VerificationError
from ..ktheory import KClass, line_bundle_class, sigma_kclass, structure_class, torsion_class
from ..lattice import DivisorClass, SurfaceModel, _quote, apply_divisor_matrix
from ..mutation import (
    VERDICT_FAIL,
    VERDICT_OK,
    Block,
    Collection,
    Move,
    _parse_serre_power,
    _record,
    _replay,
    block_of_classes,
    certificate,
    collections_equal,
    parse_script,
    serre_images,
    serre_power_match,
)
from ..textio import (
    _names_of,
    _parse_int,
    parse_divisor,
    parse_stanzas,
    parse_surface_spec,
    stanza_single,
)
from .core import (
    LinkDescriptor,
    MoriFibreSpace,
    geiser_bertini_involution,
    opaque_block_for,
    standard_sod,
    validate_link,
)

_DATA_FILES = ("links.cfg", "refinements.cfg")
_INVOLUTION_DEGREES = {"bertini": 1, "geiser": 2}
_POST_ARITY = {"serre-inv": 2, "sigma-dual": 2, "serre-match": 4}


@dataclass(frozen=True)
class PostCheck:
    """One `post =` line, parsed at catalog load.

    serre-inv a..b ^k: rng, power.  sigma-dual n1 n2: names.
    serre-match p a..b c..d N: prefix p, rng a..b after p moves, far c..d
    on side2, power N (the bound on |N|)."""

    kind: str
    label: str
    rng: tuple[int, int] = (0, 0)
    power: int = 0
    prefix: int = 0
    far: tuple[int, int] = (0, 0)
    names: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class LinkScript:
    """One catalog case, parsed at load: the roof, its named classes, the
    two sides, the moves, the involution if any, and the post checks.  The
    load also checks a link case's name against `validate_link`."""

    case: str
    roof: SurfaceModel
    dictionary: dict[str, DivisorClass]
    side1: Collection
    side2: Collection
    moves: tuple[Move, ...]
    involution: tuple[tuple[int, ...], ...] | None
    posts: tuple[PostCheck, ...]


# -- stanza parsing -----------------------------------------------------------

def _parse_object(surface: SurfaceModel, text: str, names) -> KClass:
    text = text.strip()
    if text == "O":
        return structure_class(surface)
    if text.startswith("O(") and text.endswith(")"):
        return line_bundle_class(surface, parse_divisor(surface, text[2:-1], names))
    if text.startswith("tors "):
        return torsion_class(surface, parse_divisor(surface, text[4:], names), -1)
    if text.startswith("[") and text.endswith("]"):
        parts = text[1:-1].split(";")
        if len(parts) != 3:
            raise InputError(f"expected [rank; c1; chi], got {_quote(text)}")
        return KClass(
            surface,
            _parse_int(parts[0]),
            parse_divisor(surface, parts[1], names),
            _parse_int(parts[2]),
        )
    raise InputError(f"cannot read object {_quote(text)}")


def parse_side(surface: SurfaceModel, text: str, names) -> Collection:
    specs = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if chunk.startswith("opq "):
            specs.append(("opq", _parse_int(chunk[4:])))
        else:
            specs.append([_parse_object(surface, t, names) for t in chunk.split(",")])
    blocks: list[Block | None] = [
        None if isinstance(sp, tuple) else block_of_classes(sp) for sp in specs
    ]
    for pos, sp in enumerate(specs):
        if isinstance(sp, tuple):
            blocks[pos] = opaque_block_for(blocks, pos, surface, sp[1])
    return Collection(surface, tuple(blocks))


def _sigma_collection(c: Collection, mat) -> Collection:
    blocks = tuple(
        block_of_classes(
            [sigma_kclass(o.cls, mat) for o in b.objects], opaque=b.opaque
        )
        for b in c.blocks
    )
    return Collection(c.surface, blocks)


def _descriptor_for(case: str) -> LinkDescriptor:
    parts = case.split("-")
    kind = parts[0]
    if kind == "IV" and len(parts) == 2:
        return LinkDescriptor("IV", (_parse_int(parts[1]),), "Curve")
    if kind == "II" and len(parts) == 4 and parts[1] == "curve":
        d = 4 if parts[2] == "gen" else _parse_int(parts[2])
        n = _parse_int(parts[3])
        return LinkDescriptor("II", (d, d - n, d), "Curve")
    if kind in ("I", "III") and len(parts) == 3:
        return LinkDescriptor(kind, (_parse_int(parts[1]), _parse_int(parts[2])), "Point")
    if kind == "II" and len(parts) == 4:
        return LinkDescriptor("II", tuple(_parse_int(p) for p in parts[1:]), "Point")
    raise InputError(f"cannot classify case name {_quote(case)}")


def _parse_block_range(text: str) -> tuple[int, int]:
    a, sep, b = text.partition("..")
    if not sep:
        raise InputError(f"expected a block range a..b, got {_quote(text)}")
    rng = _parse_int(a), _parse_int(b)
    if not 1 <= rng[0] <= rng[1]:
        raise InputError(f"block range {_quote(text)} needs 1 <= a <= b")
    return rng


def _parse_post(text: str, num_moves: int, names, has_involution: bool) -> PostCheck:
    kind, *args = text.split() or [""]
    if kind not in _POST_ARITY:
        raise InputError(f"unknown post check {_quote(kind)}")
    if len(args) != _POST_ARITY[kind]:
        raise InputError(f"post {kind} takes {_POST_ARITY[kind]} arguments, got {_quote(text)}")
    if kind == "serre-match":
        prefix = _parse_int(args[0])
        if not 0 <= prefix <= num_moves:
            raise InputError(f"serre-match prefix {prefix} is outside 0..{num_moves}")
        return PostCheck(
            kind,
            f"post serre-match {args[1]} vs {args[2]}",
            prefix=prefix,
            rng=_parse_block_range(args[1]),
            far=_parse_block_range(args[2]),
            power=_parse_serre_power(args[3]),
        )
    if not has_involution:
        raise InputError(f"post {kind} needs an involution = line")
    if kind == "serre-inv":
        if not args[1].startswith("^"):
            raise InputError(f"expected a Serre exponent ^k, got {_quote(args[1])}")
        power = _parse_serre_power(args[1][1:])
        return PostCheck(
            kind, f"post serre-inv {args[0]} ^{power}", rng=_parse_block_range(args[0]), power=power
        )
    for name in args:
        if name not in names:
            raise InputError(f"sigma-dual name {_quote(name)} has no dict line")
    return PostCheck(kind, f"post sigma-dual {args[0]} -> {args[1]}", names=tuple(args))


def _script_from_stanza(case: str, stanza, refinement: bool) -> LinkScript:
    roof = parse_surface_spec(stanza_single(stanza, "roof"))
    names = _names_of(roof, stanza)
    involution = None
    if "involution" in stanza:
        word = stanza_single(stanza, "involution")
        if word not in _INVOLUTION_DEGREES:
            raise InputError(f"{case}: unknown involution {_quote(word)}")
        involution = geiser_bertini_involution(_INVOLUTION_DEGREES[word], roof)
    side1 = parse_side(roof, stanza_single(stanza, "side1"), names)
    if refinement:
        target = stanza_single(stanza, "target")
        if target != "standard Point":
            raise InputError(f"{case}: unknown target {_quote(target)}")
        side2 = standard_sod(MoriFibreSpace(roof, "Point"))
    else:
        spec2 = stanza_single(stanza, "side2")
        if spec2 == "sigma(side1)":
            if involution is None:
                raise InputError(f"{case}: sigma(side1) needs an involution")
            side2 = _sigma_collection(side1, involution)
        else:
            side2 = parse_side(roof, spec2, names)
        if not validate_link(_descriptor_for(case)):
            raise InputError(f"{case}: outside the numerical classification")
    moves = parse_script(stanza_single(stanza, "moves"))
    try:
        posts = tuple(
            _parse_post(p, len(moves), names, involution is not None)
            for p in stanza.get("post", ())
        )
    except InputError as exc:
        raise InputError(f"{case}: {exc}") from None
    return LinkScript(
        case=case,
        roof=roof,
        dictionary=names,
        side1=side1,
        side2=side2,
        moves=moves,
        involution=tuple(tuple(row) for row in involution) if involution else None,
        posts=posts,
    )


@lru_cache(maxsize=1)
def _catalog() -> dict[str, LinkScript]:
    scripts: dict[str, LinkScript] = {}
    for fname in _DATA_FILES:
        text = (resources.files(__package__) / "data" / fname).read_text("utf-8")
        for kind, name, stanza in parse_stanzas(text):
            if kind not in ("link", "refinement") or not name:
                raise InputError(f"{fname}: unexpected stanza [{kind}]")
            if name in scripts:
                raise InputError(f"duplicate case {_quote(name)}")
            scripts[name] = _script_from_stanza(name, stanza, kind == "refinement")
    return scripts


def catalog_ids() -> tuple[str, ...]:
    return tuple(_catalog())


def link_script(case: str) -> LinkScript:
    try:
        return _catalog()[case]
    except KeyError:
        raise InputError(f"unknown case {_quote(case)}; see catalog_ids()") from None


# -- verification -------------------------------------------------------------

def _run_post(script: LinkScript, post: PostCheck, states) -> bool:
    """`states` holds the collections the replay passed through, side1 first."""
    if post.kind == "serre-inv":
        a, b = post.rng
        minus_sigma = [
            [-x for x in sigma_kclass(o.cls, script.involution).vector]
            for blk in script.side1.blocks[a - 1 : b]
            for o in blk.objects
        ]
        return serre_images(script.side1, post.rng, post.power) == minus_sigma
    if post.kind == "sigma-dual":
        a, b = post.names
        image = apply_divisor_matrix(script.roof, script.involution, script.dictionary[a])
        return image == script.dictionary[b]
    n = serre_power_match(states[post.prefix], post.rng, script.side2, post.far, post.power)
    return n is not None


def verify_link(case: str) -> dict:
    """Replay the stored script for `case` and return its certificate."""
    script = link_script(case)
    try:
        states, steps = _replay(script.side1, script.moves, case)
    except VerificationError as exc:
        record = {
            "step": 0,
            "move": "replay",
            "blocks": [],
            "gram": [],
            "ok": False,
            "error": str(exc),
        }
        return certificate(case, [record], VERDICT_FAIL)
    final = states[-1]
    records = list(steps)
    ok = collections_equal(final, script.side2, "UpToSignAndBlockPerm")
    records.append(_record(len(records) + 1, "compare final to far side", final, ok))
    verdict_ok = ok
    for post in script.posts:
        try:
            passed = _run_post(script, post, states)
        except InputError:
            passed = False
        records.append(_record(len(records) + 1, post.label, final, passed))
        verdict_ok = verdict_ok and passed
    return certificate(case, records, VERDICT_OK if verdict_ok else VERDICT_FAIL)
