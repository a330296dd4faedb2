"""Replayable link scripts.

Every case ships as a data stanza: the roof surface, a dictionary of
divisor classes on it, the two side collections, a move script, and
optional post checks.  verify_link replays the moves step by step and
returns a certificate recording each intermediate collection, its Gram
matrix, and the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .. import intlinalg
from ..errors import InputError, VerificationError
from ..ktheory import KClass, line_bundle_class, structure_class, torsion_class
from ..lattice import DivisorClass, SurfaceModel
from ..mutation import (
    VERDICT_FAIL,
    VERDICT_OK,
    Block,
    Collection,
    Move,
    _replay,
    block_of_classes,
    certificate,
    collections_equal,
    parse_script,
    run_script,
    serre_power_match,
    subcategory_serre_matrix,
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
    apply_divisor_matrix,
    geiser_bertini_involution,
    opaque_block_for,
    sigma_kclass,
    standard_sod,
    validate_link,
)

_DATA_FILES = ("links.cfg", "refinements.cfg")
_INVOLUTION_DEGREES = {"bertini": 1, "geiser": 2}


@dataclass(frozen=True, eq=False)
class LinkScript:
    case: str
    descriptor: LinkDescriptor | None
    roof: SurfaceModel
    dictionary: dict[str, DivisorClass]
    side1: Collection
    side2: Collection
    moves: tuple[Move, ...]
    involution: tuple[tuple[int, ...], ...] | None
    posts: tuple[tuple[str, ...], ...]


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
            raise InputError(f"expected [rank; c1; chi], got {text!r}")
        return KClass(
            surface,
            _parse_int(parts[0]),
            parse_divisor(surface, parts[1], names),
            _parse_int(parts[2]),
        )
    raise InputError(f"cannot read object {text!r}")


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
    raise InputError(f"cannot classify case name {case!r}")


def _script_from_stanza(case: str, stanza, refinement: bool) -> LinkScript:
    roof = parse_surface_spec(stanza_single(stanza, "roof"))
    names = _names_of(roof, stanza)
    involution = None
    if "involution" in stanza:
        word = stanza_single(stanza, "involution")
        if word not in _INVOLUTION_DEGREES:
            raise InputError(f"{case}: unknown involution {word!r}")
        involution = geiser_bertini_involution(_INVOLUTION_DEGREES[word], roof)
    side1 = parse_side(roof, stanza_single(stanza, "side1"), names)
    if refinement:
        target = stanza_single(stanza, "target")
        if target != "standard Point":
            raise InputError(f"{case}: unknown target {target!r}")
        side2 = standard_sod(MoriFibreSpace(roof, "Point"))
        descriptor = None
    else:
        spec2 = stanza_single(stanza, "side2")
        if spec2 == "sigma(side1)":
            if involution is None:
                raise InputError(f"{case}: sigma(side1) needs an involution")
            side2 = _sigma_collection(side1, involution)
        else:
            side2 = parse_side(roof, spec2, names)
        descriptor = _descriptor_for(case)
        if not validate_link(descriptor):
            raise InputError(f"{case}: outside the numerical classification")
    moves = parse_script(stanza_single(stanza, "moves"))
    posts = tuple(tuple(p.split()) for p in stanza.get("post", ()))
    return LinkScript(
        case=case,
        descriptor=descriptor,
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
                raise InputError(f"duplicate case {name!r}")
            scripts[name] = _script_from_stanza(name, stanza, kind == "refinement")
    return scripts


def catalog_ids() -> tuple[str, ...]:
    return tuple(_catalog())


def link_script(case: str) -> LinkScript:
    try:
        return _catalog()[case]
    except KeyError:
        raise InputError(f"unknown case {case!r}; see catalog_ids()") from None


# -- verification -------------------------------------------------------------

def _check_record(step: int, label: str, ok: bool, last: dict) -> dict:
    """A check on the final collection, shown with `last`, the replay's record of it."""
    return {
        "step": step,
        "move": label,
        "blocks": last["blocks"],
        "gram": last["gram"],
        "ok": ok,
    }


def _parse_block_range(text: str) -> tuple[int, int]:
    a, _, b = text.partition("..")
    return _parse_int(a), _parse_int(b)


def _span_classes(collection: Collection, rng: tuple[int, int]) -> list[KClass]:
    a, b = rng
    return [o.cls for blk in collection.blocks[a - 1 : b] for o in blk.objects]


def _matrix_on_span(script: LinkScript, classes) -> list[list[int]] | None:
    """Matrix (columns are images) of the stored involution on the span of
    `classes`, in their own coordinates; None if it does not preserve it."""
    basis_t = intlinalg.transpose([list(c.vector) for c in classes])
    cols = []
    for c in classes:
        image = sigma_kclass(c, script.involution)
        col = intlinalg.solve(basis_t, list(image.vector))
        if col is None:
            return None
        cols.append(col)
    return intlinalg.transpose(cols)


def _run_post(script: LinkScript, post: tuple[str, ...]) -> tuple[str, bool]:
    kind = post[0]
    if kind == "serre-inv":
        rng = _parse_block_range(post[1])
        k = _parse_int(post[2].lstrip("^"))
        serre = subcategory_serre_matrix(script.side1, rng)
        sigma = _matrix_on_span(script, _span_classes(script.side1, rng))
        ok = sigma is not None and intlinalg.mat_pow(serre, k) == intlinalg.mat_neg(
            sigma
        )
        return f"post serre-inv {post[1]} ^{k}", ok
    if kind == "sigma-dual":
        a, b = post[1], post[2]
        image = apply_divisor_matrix(
            script.roof, script.involution, script.dictionary[a]
        )
        return f"post sigma-dual {a} -> {b}", image == script.dictionary[b]
    if kind == "serre-match":
        prefix = _parse_int(post[1])
        rng_a = _parse_block_range(post[2])
        rng_b = _parse_block_range(post[3])
        nmax = _parse_int(post[4])
        partial, _ = run_script(script.side1, script.moves[:prefix], script.case)
        n = serre_power_match(partial, rng_a, script.side2, rng_b, nmax)
        return f"post serre-match {post[2]} vs {post[3]}", n is not None
    raise InputError(f"{script.case}: unknown post check {kind!r}")


def verify_link(case: str) -> dict:
    """Replay the stored script for `case` and return its certificate."""
    script = link_script(case)
    try:
        final, steps, last = _replay(script.side1, script.moves, case)
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
    records = list(steps)
    ok = collections_equal(final, script.side2, "UpToSignAndBlockPerm")
    records.append(_check_record(len(records) + 1, "compare final to far side", ok, last))
    verdict_ok = ok
    for post in script.posts:
        try:
            label, passed = _run_post(script, post)
        except (InputError, VerificationError):
            label, passed = "post " + " ".join(post), False
        records.append(_check_record(len(records) + 1, label, passed, last))
        verdict_ok = verdict_ok and passed
    return certificate(case, records, VERDICT_OK if verdict_ok else VERDICT_FAIL)
