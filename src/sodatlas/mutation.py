"""Mutation engine for numerically exceptional collections.

Everything here happens in the K-theory shadow: an object is its class, a
block is a tuple of classes, and a collection is legal when its Euler-pairing
Gram matrix is unipotent upper triangular outside opaque blocks.  Moves
rewrite collections; scripts replay move lists and log a verifiable record
per step.

An object keeps a name only where a standard decomposition gives one (`O`,
`O(D)`, `E`); names take no part in equality, and any other label is the
class rendered on first read and kept on the object.

serre_images is the one Serre step and the only place a power of a Serre
matrix is taken: it returns the class vectors that S^power sends a block
range's classes to.  The `serre` move, the catalog's `serre-inv` post and
serre_power_match read it and compare class vectors, never coordinates in
a span basis; serre_power_match asks for 0, 1, -1, 2, -2, ... in that
order, so +N comes before -N.  A collection keeps per range its steps and
the powers it reached, so the `serre-inv` post reuses the images of the
script's `serre` move on the same side.

A collection's Euler pairings are one flat row-major tuple, computed once
per collection (`Collection._pairings`).  The move step indexes it for
mutation coefficients and orthogonality tests, the Serre step cuts its
range's Gram block from it, and check_collection slices each object's row
once, rendering labels only for a violation; its basis test reads the
opaque diagonal blocks off it too.  In a replay, only the certificate
record builds the Gram matrix as rows.

apply_move is a move and its check; run_script checks every collection it
produces.  search_path searches from the start and from the goal at once.
It checks its two ends and rewrites candidates unchecked: mutation, the
helix step and a swap of orthogonal blocks keep a collection exceptional
(Bondal, Izv. Akad. Nauk SSSR 53, 1989; Bondal-Polishchuk, Izv. RAN 57,
1993).  It replays the word it finds through apply_move, checking each step.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import isqrt
from operator import mul

from . import intlinalg
from .errors import InputError, MoveError, UnsupportedRangeError, VerificationError
from .ktheory import KClass, class_from_vector, euler_form_det, euler_row, twist
from .lattice import SurfaceModel, _quote, _shown
from .textio import _parse_int, render_kclass

# Largest |n| in `serre a..b ^n`; the catalog uses |n| <= 3 and
# serre_power_match searches |N| <= 12.
MAX_SERRE_POWER = 64
# Largest bit length of a class coordinate a serre move may produce.  Each
# `serre 1..1 ^64` on P2[3], `opq 5 | O` adds about 122 bits; at this bound
# an Euler pairing of two classes stays far below the 4,300 digits Python
# will turn into text.
MAX_CLASS_BITS = 4096
# Most collections search_path expands, both sides counted.  A search for a
# goal one move beyond its depth bound expands at most 11 from the 15
# catalog cases of the move-search benchmark at depth 3, and 154 from the
# plane's Beilinson collection at depth 8; the longest catalog link the
# search finds, II-curve-5-3 at distance 10, takes 3,196.
MAX_SEARCH_NODES = 10_000


@dataclass(frozen=True)
class ExcObject:
    cls: KClass
    name: str = field(default="", compare=False)

    @property
    def label(self) -> str:
        """The object's name, else its class as `(rank; c1; chi)`.  Rendered
        on first read and kept in the instance dict, as Block.key is: a move
        shares every object it does not rewrite, so each is rendered once."""
        label = self.__dict__.get("label")
        if label is None:
            label = self.__dict__["label"] = self.name or render_kclass(self.cls)
        return label


@dataclass(frozen=True)
class Block:
    objects: tuple[ExcObject, ...]
    opaque: bool = False

    def __post_init__(self) -> None:
        if not self.objects:
            raise InputError("a block needs at least one object")
        object.__setattr__(self, "objects", tuple(self.objects))

    @property
    def size(self) -> int:
        return len(self.objects)

    def classes(self) -> tuple[KClass, ...]:
        return tuple(o.cls for o in self.objects)

    @cached_property
    def key(self) -> tuple:
        """The block up to sign and order of its classes: an opaque block by
        its size and integer span, any other by its sign-normalized classes.
        Computed once; a move rebuilds only the blocks it changes."""
        if self.opaque:
            span = intlinalg.hermite_row_form([list(o.cls.vector) for o in self.objects])
            return ("opaque", self.size, span)
        return ("plain", tuple(sorted([_sign_normal(o.cls.vector) for o in self.objects])))


@dataclass(frozen=True)
class Collection:
    surface: SurfaceModel
    blocks: tuple[Block, ...]
    full: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise InputError("a collection needs at least one block")
        for b in self.blocks:
            for o in b.objects:
                if o.cls.surface is not self.surface and o.cls.surface != self.surface:
                    raise InputError("object lives on a different surface model")

    def objects(self) -> tuple[ExcObject, ...]:
        return tuple(o for b in self.blocks for o in b.objects)

    def classes(self) -> tuple[KClass, ...]:
        return tuple(o.cls for b in self.blocks for o in b.objects)

    @cached_property
    def _pairings(self) -> tuple[int, ...]:
        """chi(x, y) over the listed objects, row by row, computed once; kept
        flat because a tuple of row tuples takes about twice the memory.
        Each entry is the dot product of euler_row(x) with y.vector."""
        classes = self.classes()
        vectors = [y.vector for y in classes]
        return tuple([sum(map(mul, row, v)) for row in map(euler_row, classes) for v in vectors])

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """Gram matrix of the Euler pairing over the listed objects."""
        flat = self._pairings
        n = isqrt(len(flat))
        return tuple(flat[i * n : (i + 1) * n] for i in range(n))


def block_of_classes(classes, opaque: bool = False, labels=None) -> Block:
    """A block of `classes`; `labels`, if given, are their names."""
    names = labels or [""] * len(classes)
    return Block(tuple(map(ExcObject, classes, names)), opaque=opaque)


def collection_of_classes(surface: SurfaceModel, blocks, full: bool = True) -> Collection:
    built = []
    for b in blocks:
        if isinstance(b, Block):
            built.append(b)
        else:
            built.append(block_of_classes(tuple(b)))
    return Collection(surface, tuple(built), full=full)


# -- legality -------------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    ok: bool
    violations: tuple[str, ...]


def check_collection(collection: Collection) -> CheckReport:
    """Whether the collection is legal, and the list of violated
    constraints, in row-major order of the Gram matrix.

    Constraints: chi(x, y) = 0 whenever x sits in a strictly later block
    than y; inside a non-opaque block the objects are exceptional and
    pairwise orthogonal; intra-opaque entries are unconstrained.  A full
    collection must also have as many objects as the K-group rank and a
    unimodular Gram matrix.

    Each object's row of the flat pairings is sliced once, up to the end
    of its block: the part before its block must vanish, and inside a
    non-opaque block the rest is a unit row.  Labels are rendered only for
    a row that breaks a constraint.
    """
    flat = collection._pairings
    n = isqrt(len(flat))
    violations: list[str] = []
    objs = None
    at = 0
    for b in collection.blocks:
        end = at + len(b.objects)
        for i in range(at, end):
            row = flat[i * n : i * n + end]
            if b.opaque:
                if not any(row[:at]):
                    continue
            elif row[i] == 1 and not any(row[:i]) and not any(row[i + 1 :]):
                continue
            if objs is None:
                objs = collection.objects()
            for j in range(at):
                if row[j]:
                    violations.append(
                        f"chi({objs[i].label}, {objs[j].label}) = {row[j]}, expected 0"
                    )
            if not b.opaque:
                for j in range(at, end):
                    want = 1 if i == j else 0
                    if row[j] != want:
                        violations.append(
                            f"chi({objs[i].label}, {objs[j].label}) = {row[j]}, expected {want}"
                        )
        at = end
    if collection.full:
        expected = collection.surface.picard_rank + 2
        if n != expected:
            violations.append(f"full collection has {n} objects, lattice needs {expected}")
        elif not _lattice_basis(collection, not violations):
            violations.append("classes do not form a basis of the K-lattice")
    return CheckReport(ok=not violations, violations=tuple(violations))


def _lattice_basis(collection: Collection, semi_orthogonal: bool) -> bool:
    """Whether the classes, as many as the K-group rank, are a basis of it:
    det V = +-1 for V their vectors.  G = V X V^T, so det G = (det V)^2 det X.
    A semi-orthogonal G is block unipotent outside opaque blocks, so det G is
    the product of the opaque diagonal blocks' determinants, read off the
    flat pairings; otherwise this takes det V itself."""
    if not semi_orthogonal:
        return intlinalg.det([list(c.vector) for c in collection.classes()]) in (1, -1)
    flat = collection._pairings
    n = isqrt(len(flat))
    det_gram, at = 1, 0
    for b in collection.blocks:
        end = at + len(b.objects)
        if b.opaque:
            rows = range(at * n, end * n, n)
            det_gram *= intlinalg.det([list(flat[r + at : r + end]) for r in rows])
        at = end
    return det_gram == euler_form_det(collection.surface)


# -- moves ----------------------------------------------------------------

@dataclass(frozen=True)
class Move:
    """One rewriting step.

    kind: "L" (mutate block `index` left through its neighbour), "R"
    (right), "helix-" (first block twisted by -K to the end), "helix+"
    (last block twisted by K to the front), "swap" (exchange orthogonal
    blocks index, index+1), "merge" (fuse them), "split" (cut block
    `index` into runs of the given sizes), "serre" (apply the N-th power
    of the subcategory Serre matrix to the span of blocks rng[0]..rng[1]).
    Block indices are 1-based, matching script text.
    """

    kind: str
    index: int = 0
    sizes: tuple[int, ...] = ()
    rng: tuple[int, int] = (0, 0)
    power: int = 0


# The script grammar: one alternative per kind of move, told apart by
# which named group matched.
_MOVE_RE = re.compile(
    r"(?P<indexed>L|R|swap|merge)\s+(?P<index>\d+)"
    r"|helix\s+(?P<helix>[-+])K"
    r"|split\s+(?P<at>\d+)(?P<sizes>(?:\s+\d+)+)"
    r"|serre\s+(?P<a>\d+)\.\.(?P<b>\d+)\s+\^(?P<power>-?\d+)"
)


def parse_move(text: str) -> Move:
    text = text.strip()
    m = _MOVE_RE.fullmatch(text)
    if m is None:
        raise InputError(f"cannot parse move {_quote(text)}")
    if m["indexed"]:
        return Move(m["indexed"], index=_parse_int(m["index"]))
    if m["helix"]:
        return Move("helix" + m["helix"])
    if m["sizes"]:
        sizes = tuple(_parse_int(x) for x in m["sizes"].split())
        return Move("split", index=_parse_int(m["at"]), sizes=sizes)
    rng = (_parse_int(m["a"]), _parse_int(m["b"]))
    return Move("serre", rng=rng, power=_parse_serre_power(m["power"]))


def _parse_serre_power(text: str) -> int:
    n = _parse_int(text)
    if abs(n) > MAX_SERRE_POWER:
        raise InputError(f"Serre exponent {_shown(text)} is above the cap |n| <= {MAX_SERRE_POWER}")
    return n


def render_move(move: Move) -> str:
    if move.kind in ("L", "R", "swap", "merge"):
        return f"{move.kind} {move.index}"
    if move.kind in ("helix-", "helix+"):
        return f"helix {move.kind[-1]}K"
    if move.kind == "split":
        return f"split {move.index} " + " ".join(str(s) for s in move.sizes)
    if move.kind == "serre":
        return f"serre {move.rng[0]}..{move.rng[1]} ^{move.power}"
    raise InputError(f"unknown move kind {move.kind!r}")


def parse_script(text: str) -> tuple[Move, ...]:
    moves = []
    for chunk in re.split(r"[;\n]", text):
        chunk = chunk.strip()
        if chunk:
            moves.append(parse_move(chunk))
    return tuple(moves)


def render_script(moves) -> str:
    return "; ".join(render_move(m) for m in moves)


def _mutate_block(collection: Collection, index: int, through: int, side: str) -> Block:
    """Block `index` mutated through block `through` (both 1-based) to the
    given side, one object e_1, e_2, ... of `through` at a time.

    Each coefficient is read off the parent's flat pairings, indexed with a
    (row, column) stride that transposes them on the right: a class F loses
    g_k e_k with g_k = chi(e_k, F) - sum_{l<k} g_l chi(e_k, e_l) on the
    left and g_k = chi(F, e_k) - sum_{l<k} g_l chi(e_l, e_k) on the right.
    That is the one-class mutation F -> F - chi(e, F) e (on the right,
    chi(F, e)) applied once per e_k, whatever `through` is; when
    `through` is orthogonal, as the post-move check requires, it is the
    one-shot projection."""
    blocks = collection.blocks
    moving, mid = blocks[index - 1], blocks[through - 1]
    if mid.opaque:
        raise MoveError("cannot mutate through an opaque block")
    flat = collection._pairings
    n = isqrt(len(flat))
    sizes = [len(b.objects) for b in blocks]
    f_at, e_at = sum(sizes[: index - 1]), sum(sizes[: through - 1])
    # chi(e, f) on the left and chi(f, e) on the right sit at e * rs + f * cs.
    rs, cs = (n, 1) if side == "Left" else (1, n)
    e_rows = [e * rs for e in range(e_at, e_at + len(mid.objects))]
    e_cols = [e * cs for e in range(e_at, e_at + len(mid.objects))]
    e_vectors = [o.cls.vector for o in mid.objects]
    new = []
    for f, obj in enumerate(moving.objects, f_at):
        f_col = f * cs
        coeffs: list[int] = []
        for row in e_rows:
            g = flat[row + f_col]
            for c, col in zip(coeffs, e_cols):
                g -= c * flat[row + col]
            coeffs.append(g)
        vec = obj.cls.vector
        for g, e_vec in zip(coeffs, e_vectors):
            if g:
                vec = [x - g * y for x, y in zip(vec, e_vec)]
        new.append(ExcObject(class_from_vector(collection.surface, vec)))
    return Block(tuple(new), opaque=moving.opaque)


def _flat_span(collection: Collection, a: int, b: int) -> range:
    """Positions in the object list of blocks a..b (1-based, inclusive)."""
    start = sum(len(blk.objects) for blk in collection.blocks[: a - 1])
    return range(start, start + sum(len(blk.objects) for blk in collection.blocks[a - 1 : b]))


def _orthogonal_blocks(collection: Collection, index: int) -> bool:
    """Blocks index, index+1 (1-based): both off-diagonal Gram sub-blocks
    vanish, read off the flat pairings."""
    flat = collection._pairings
    n = isqrt(len(flat))
    first = _flat_span(collection, index, index)
    second = range(first.stop, first.stop + len(collection.blocks[index].objects))
    return all(flat[i * n + j] == 0 and flat[j * n + i] == 0 for i in first for j in second)


def subcategory_serre_matrix(collection: Collection, rng: tuple[int, int] | None = None):
    """Integer matrix of the Serre functor on the span of blocks
    rng[0]..rng[1] (1-based, inclusive; default all), in the coordinates
    given by the listed objects.  Needs a unimodular Gram matrix."""
    blocks = collection.blocks
    if rng is None:
        rng = (1, len(blocks))
    a, b = rng
    if not (1 <= a <= b <= len(blocks)):
        raise InputError(f"block range {a}..{b} out of bounds")
    span, flat = _flat_span(collection, a, b), collection._pairings
    n = isqrt(len(flat))
    gram = [list(flat[i * n + span.start : i * n + span.stop]) for i in span]
    try:
        inv = intlinalg.mat_inverse_integer(gram)
    except ValueError:  # exactly when det(gram) is not +-1
        raise InputError("subcategory Gram matrix is not unimodular") from None
    return intlinalg.mat_mul(inv, intlinalg.transpose(gram))


def _span_vectors(collection: Collection, rng: tuple[int, int]) -> list[list[int]]:
    """Class vectors of blocks rng[0]..rng[1] (1-based, inclusive), in order."""
    blocks = collection.blocks[rng[0] - 1 : rng[1]]
    return [list(o.cls.vector) for blk in blocks for o in blk.objects]


def serre_images(collection: Collection, rng: tuple[int, int], power: int) -> list[list[int]]:
    """Class vectors that S^power sends the classes of blocks rng[0]..rng[1]
    to, in order, where S is the subcategory Serre matrix of that range.
    Column j of a matrix P is the image of the j-th class, so these are the
    rows of P^T V (V: the classes' vectors, row by row).

    The only place a Serre power is taken.  Per range, the collection's
    instance dict keeps the up step S^T, the down step (S^-1)^T once a
    negative power is asked for, and every power of V reached, V itself
    as power 0; a new power steps from the nearest kept one toward it, one
    product per step.  Each call returns fresh lists.  Nothing is kept for
    a range whose Gram matrix is not unimodular, so it raises InputError
    on every call, power 0 included."""
    memo = collection.__dict__.setdefault("_serre_images", {})
    key = (rng[0], rng[1])
    if key not in memo:
        up = intlinalg.transpose(subcategory_serre_matrix(collection, rng))
        memo[key] = ({1: up}, {0: tuple(map(tuple, _span_vectors(collection, rng)))})
    steps, kept = memo[key]
    sign = -1 if power < 0 else 1
    if sign not in steps:
        steps[sign] = intlinalg.mat_inverse_integer(steps[1])
    nearest = next(k for k in range(power, -sign, -sign) if k in kept)
    for k in range(nearest + sign, power + sign, sign):
        kept[k] = tuple(map(tuple, intlinalg.mat_mul(steps[sign], kept[k - sign])))
    return [list(v) for v in kept[power]]


def _twisted(block: Block, d) -> Block:
    return Block(tuple(ExcObject(twist(o.cls, d)) for o in block.objects), opaque=block.opaque)


def apply_move(collection: Collection, move: Move) -> Collection:
    """One checked move: raises MoveError on a violated precondition and
    VerificationError if the rewritten collection fails check_collection.
    This is the move step of run_script and of search_path's replay of
    the word it found; the search itself rewrites with _rewrite."""
    out = _rewrite(collection, move)
    report = check_collection(out)
    if not report.ok:
        raise VerificationError(
            f"collection broke after move {render_move(move)}: " + "; ".join(report.violations)
        )
    return out


def _rewrite(collection: Collection, move: Move) -> Collection:
    """The collection one move produces, unchecked; raises MoveError on a
    violated precondition (InputError for an unknown kind or an oversized
    serre power, as apply_move does)."""
    blocks = list(collection.blocks)
    n = len(blocks)
    k = move.kind
    if k in ("L", "R", "swap", "merge", "split") and not (1 <= move.index <= n):
        raise MoveError(f"block index {move.index} out of range 1..{n}")
    if k == "L":
        if move.index < 2:
            raise MoveError("left mutation needs a block on the left")
        i = move.index - 1
        moved = _mutate_block(collection, move.index, move.index - 1, "Left")
        blocks[i - 1], blocks[i] = moved, blocks[i - 1]
    elif k == "R":
        if move.index >= n:
            raise MoveError("right mutation needs a block on the right")
        i = move.index - 1
        moved = _mutate_block(collection, move.index, move.index + 1, "Right")
        blocks[i], blocks[i + 1] = blocks[i + 1], moved
    elif k == "helix-":
        blocks.append(_twisted(blocks.pop(0), -1 * collection.surface.canonical))
    elif k == "helix+":
        blocks.insert(0, _twisted(blocks.pop(), collection.surface.canonical))
    elif k == "swap":
        if move.index >= n:
            raise MoveError("swap needs a block on the right")
        i = move.index - 1
        if not _orthogonal_blocks(collection, move.index):
            raise MoveError("swap blocks are not completely orthogonal")
        blocks[i], blocks[i + 1] = blocks[i + 1], blocks[i]
    elif k == "merge":
        if move.index >= n:
            raise MoveError("merge needs a block on the right")
        i = move.index - 1
        if blocks[i].opaque or blocks[i + 1].opaque:
            raise MoveError("cannot merge opaque blocks")
        if not _orthogonal_blocks(collection, move.index):
            raise MoveError("merge blocks are not completely orthogonal")
        blocks[i : i + 2] = [Block(blocks[i].objects + blocks[i + 1].objects)]
    elif k == "split":
        i = move.index - 1
        blk = blocks[i]
        if blk.opaque:
            raise MoveError("cannot split an opaque block")
        if not move.sizes or any(s < 1 for s in move.sizes) or sum(move.sizes) != blk.size:
            raise MoveError(f"split sizes {move.sizes} do not partition a block of {blk.size}")
        parts, at = [], 0
        for s in move.sizes:
            parts.append(Block(blk.objects[at : at + s]))
            at += s
        blocks[i : i + 1] = parts
    elif k == "serre":
        a, b = move.rng
        if not (1 <= a <= b <= n):
            raise MoveError(f"block range {a}..{b} out of bounds")
        if a != 1 and b != n:
            raise MoveError("serre power needs an initial or terminal block range")
        new_vectors = serre_images(collection, (a, b), move.power)
        bits = max(abs(x) for v in new_vectors for x in v).bit_length()
        if bits > MAX_CLASS_BITS:
            raise InputError(
                f"{render_move(move)} gives a class coordinate of {bits} bits, "
                f"above the bound of {MAX_CLASS_BITS} bits"
            )
        new = [ExcObject(class_from_vector(collection.surface, v)) for v in new_vectors]
        at = 0
        for bi in range(a - 1, b):
            size = blocks[bi].size
            blocks[bi] = Block(tuple(new[at : at + size]), opaque=blocks[bi].opaque)
            at += size
    else:
        raise InputError(f"unknown move kind {k!r}")
    return Collection(collection.surface, tuple(blocks), collection.full)


# -- comparison -----------------------------------------------------------

def _sign_normal(col: list[int]) -> tuple[int, ...]:
    for x in col:
        if x:
            return tuple(col) if x > 0 else tuple(-y for y in col)
    return tuple(col)


def collections_equal(a: Collection, b: Collection, mode: str = "UpToSignAndBlockPerm") -> bool:
    """UpToSignAndBlockPerm, the only mode: blocks stay in order, but inside
    each non-opaque block the classes are compared as multisets up to a sign
    per class; opaque blocks compare by their integer span.  For equality
    with exact signs and order, use ==."""
    if mode != "UpToSignAndBlockPerm":
        raise InputError(f"unknown comparison mode {mode!r}")
    return a.surface == b.surface and canonical_form(a) == canonical_form(b)


def canonical_form(collection: Collection):
    """Hashable key identifying a collection on its surface up to the
    UpToSignAndBlockPerm comparison."""
    return tuple(b.key for b in collection.blocks)


# -- scripts and certificates ----------------------------------------------

def _render_blocks(collection: Collection) -> list[dict]:
    """Each block's opaque flag and object labels: an object's name where it
    has one (only a standard decomposition names its objects), else its
    `(rank; c1; chi)` form."""
    out = []
    for b in collection.blocks:
        out.append(
            {
                "opaque": b.opaque,
                "objects": [o.label for o in b.objects],
            }
        )
    return out


def _record(step: int, label: str, collection: Collection, ok: bool) -> dict:
    """A certificate record: a move or a check, shown with `collection`."""
    return {
        "step": step,
        "move": label,
        "blocks": _render_blocks(collection),
        "gram": [list(row) for row in collection.gram],
        "ok": ok,
    }


def _replay(collection: Collection, moves, case: str = ""):
    """The collections a script passes through, the start first, and one
    record per move."""
    start = check_collection(collection)
    if not start.ok:
        raise VerificationError(
            f"{case or 'script'}: starting collection is not semi-orthogonal: "
            + "; ".join(start.violations)
        )
    states, steps = [collection], []
    for idx, move in enumerate(moves, 1):
        try:
            states.append(apply_move(states[-1], move))
        except (MoveError, VerificationError) as exc:
            raise VerificationError(
                f"{case or 'script'}: step {idx} ({render_move(move)}) failed: {exc}"
            ) from exc
        except InputError as exc:
            raise InputError(f"{case or 'script'}: step {idx}: {exc}") from exc
        steps.append(_record(idx, render_move(move), states[-1], True))
    return states, steps


def run_script(collection: Collection, moves, case: str = ""):
    """Replay `moves`, checking legality after every step.  Returns the
    final collection and one record per step (move, resulting blocks, Gram
    matrix).  Raises VerificationError naming the first bad step.

    The start collection is checked once here; each collection a move
    produces is checked once, inside the move step, and its record reuses
    the pairings that check computed."""
    states, steps = _replay(collection, moves, case)
    return states[-1], steps


def certificate(case: str, steps, verdict: str) -> dict:
    """A replay's certificate: the case, one record per step (each with its
    Gram matrix), and the verdict."""
    return {"case": case, "steps": steps, "verdict": verdict}


VERDICT_OK = "equivalent: verified at K-theory level"
VERDICT_FAIL = "mismatch at K-theory level"


# -- search ----------------------------------------------------------------

# The move kinds search_path tries, in the order it tries them.
DEFAULT_SEARCH_KINDS = ("L", "R", "helix-", "helix+", "swap")


def _candidate_moves(collection: Collection) -> list[Move]:
    n = len(collection.blocks)
    out = [Move("L", index=i) for i in range(2, n + 1)]
    out += [Move("R", index=i) for i in range(1, n)]
    if n > 1:
        out += [Move("helix-"), Move("helix+")]
    out += [Move("swap", index=i) for i in range(1, n)]
    return out


def _children(collection: Collection):
    """(move, collection) for each candidate move whose preconditions hold,
    in candidate order; the collections are unchecked."""
    for move in _candidate_moves(collection):
        try:
            child = _rewrite(collection, move)
        except MoveError:
            continue
        yield move, child


def search_path(start: Collection, goal: Collection, max_depth: int):
    """The least shortest move word, in candidate-move order, of at most
    `max_depth` moves taking `start` to `goal` up to UpToSignAndBlockPerm,
    or None.  Raises UnsupportedRangeError once it would expand more than
    MAX_SEARCH_NODES collections, counted on both sides.

    A two-sided breadth-first search on canonical_form keys: every search
    move has an inverse search move, so it expands one whole layer at a
    time, from the start or from the goal, whichever frontier is smaller.
    The forward side keeps each key's parent key and move, the backward
    side each key's distance to the goal.  Once a layer holds a key of the
    other side, the first such node of the last forward layer, in discovery
    order, lies on the least word: its parent chain is the prefix, and the
    rest takes at each step the first move down one backward layer.

    Only the ends are checked: the goal first, with the start's `full` flag
    that every reached collection carries, then the start; if either fails,
    there is no word.  The word found is replayed through apply_move, which
    checks each step and raises VerificationError naming a failing move."""
    key = canonical_form(start)
    # Moves keep the surface, so a goal on another surface is never reached.
    if goal.surface != start.surface:
        return None
    goal_key = canonical_form(goal)
    if key == goal_key:
        return ()
    goal = replace(goal, full=start.full)
    if max_depth < 1 or not check_collection(goal).ok or not check_collection(start).ok:
        return None
    parent = {key: None}  # forward side: key -> (parent key, move)
    dist = {goal_key: 0}  # backward side: key -> moves to the goal
    ahead, behind = [(key, start)], [(goal_key, goal)]  # each side's last layer
    depth = expanded = 0
    met = False
    while not met:
        if not (ahead and behind) or depth == max_depth:
            return None
        depth += 1
        forward = len(ahead) <= len(behind)
        layer, known, other = (ahead, parent, dist) if forward else (behind, dist, parent)
        new = []
        for k, current in layer:
            expanded += 1
            if expanded > MAX_SEARCH_NODES:
                raise UnsupportedRangeError(
                    f"search expanded more than {MAX_SEARCH_NODES} collections "
                    f"within depth {max_depth}"
                )
            for move, child in _children(current):
                ck = canonical_form(child)
                if ck in known:
                    continue
                if ck in other:
                    met = True
                elif depth == max_depth:
                    continue
                known[ck] = (k, move) if forward else dist[k] + 1
                new.append((ck, child))
                if met and forward:
                    break
            if met and forward:
                break
        if forward:
            ahead = new
        else:
            behind = new
    # The meeting node: the first one of the last forward layer that the
    # backward side holds.  A forward layer stops at that node.
    meet_key, current = next(node for node in ahead if node[0] in dist)
    k, word = meet_key, []
    while parent[k] is not None:
        k, move = parent[k]
        word.append(move)
    word.reverse()
    for togo in reversed(range(dist[meet_key])):
        move, current = next(
            (m, c) for m, c in _children(current) if dist.get(canonical_form(c)) == togo
        )
        word.append(move)
    current = start
    for move in word:
        current = apply_move(current, move)
    return tuple(word)


def serre_power_match(
    a: Collection,
    rng_a: tuple[int, int],
    b: Collection,
    rng_b: tuple[int, int],
    max_power: int = 12,
):
    """Smallest |N| with S^N carrying the listed blocks of `a` onto those of
    `b` (per block, up to order and a sign per object), where S is the
    subcategory Serre matrix of the `a` range, trying N before -N through
    serre_images; None if the block shapes differ or no |N| <= max_power
    fits.  A range out of bounds or not unimodular raises, whatever the
    bound."""
    for coll, (lo, hi) in ((a, rng_a), (b, rng_b)):
        if not (1 <= lo <= hi <= len(coll.blocks)):
            raise InputError(f"block range {lo}..{hi} out of bounds")
    sizes = [blk.size for blk in a.blocks[rng_a[0] - 1 : rng_a[1]]]
    if sizes != [blk.size for blk in b.blocks[rng_b[0] - 1 : rng_b[1]]]:
        return None
    starts = [sum(sizes[:i]) for i in range(len(sizes))]

    def per_block(vectors):
        normal = [_sign_normal(v) for v in vectors]
        return [sorted(normal[at : at + size]) for at, size in zip(starts, sizes)]

    target = per_block(_span_vectors(b, rng_b))
    if per_block(serre_images(a, rng_a, 0)) == target and max_power >= 0:
        return 0
    for n_abs in range(1, max_power + 1):
        for n in (n_abs, -n_abs):
            if per_block(serre_images(a, rng_a, n)) == target:
                return n
    return None
