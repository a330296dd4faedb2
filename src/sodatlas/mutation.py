"""Mutation engine for numerically exceptional collections.

Everything here happens in the K-theory shadow: an object is its class, a
block is a tuple of classes, and a collection is legal when its Euler-pairing
Gram matrix is unipotent upper triangular outside opaque blocks.  Moves
rewrite collections; scripts replay move lists and log a verifiable record
per step.

An object keeps a name only where a standard decomposition gives one (`O`,
`O(D)`, `E`); names take no part in equality, and any other label is the
class rendered on demand.

serre_images is the one Serre step: it returns the class vectors that a
power of the subcategory Serre matrix sends a block range's classes to.
The `serre` move, the catalog's `serre-inv` post and serre_power_match all
compare these class vectors, never coordinates in a span basis.
serre_power_match tries the exponents 0, 1, -1, 2, -2, ... in that order,
so +N comes before -N.

apply_move is a move and its check; run_script checks every collection it
produces.  search_path searches from the start and from the goal at once.
It rewrites candidates unchecked and keys them with canonical_form first,
since legality depends only on that key.  It checks the goal first, then
each new key it keeps on either side, and nothing else: no duplicate, no
key the other side already holds, and nothing in the last layer the depth
allows, whose keys only need to meet the other side.
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
from .lattice import SurfaceModel
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
        return self.name or render_kclass(self.cls)


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
        return ("plain", tuple(sorted(_sign_normal(o.cls.vector) for o in self.objects)))


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
        rows = [euler_row(x) for x in classes]
        return tuple(sum(map(mul, row, v)) for row in rows for v in vectors)

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
    gram: tuple[tuple[int, ...], ...]
    violations: tuple[str, ...]


def check_collection(collection: Collection) -> CheckReport:
    """Gram matrix plus the list of violated constraints.

    Constraints: chi(x, y) = 0 whenever x sits in a strictly later block
    than y; inside a non-opaque block the objects are exceptional and
    pairwise orthogonal; intra-opaque entries are unconstrained.  A full
    collection must also have as many objects as the K-group rank and a
    unimodular Gram matrix.
    """
    objs = collection.objects()
    n = len(objs)
    gram = collection.gram
    violations: list[str] = []
    owner = [bi for bi, b in enumerate(collection.blocks) for _ in b.objects]
    for i in range(n):
        for j in range(n):
            bi, bj = owner[i], owner[j]
            if bi > bj and gram[i][j] != 0:
                violations.append(
                    f"chi({objs[i].label}, {objs[j].label}) = {gram[i][j]}, expected 0"
                )
            elif bi == bj and not collection.blocks[bi].opaque:
                want = 1 if i == j else 0
                if gram[i][j] != want:
                    violations.append(
                        f"chi({objs[i].label}, {objs[j].label}) = {gram[i][j]}, expected {want}"
                    )
    if collection.full:
        expected = collection.surface.picard_rank + 2
        if n != expected:
            violations.append(f"full collection has {n} objects, lattice needs {expected}")
        elif not _lattice_basis(collection, gram, not violations):
            violations.append("classes do not form a basis of the K-lattice")
    return CheckReport(ok=not violations, gram=gram, violations=tuple(violations))


def _lattice_basis(collection: Collection, gram, semi_orthogonal: bool) -> bool:
    """Whether the classes, as many as the K-group rank, are a basis of it:
    det V = +-1 for V their vectors.  G = V X V^T, so det G = (det V)^2 det X.
    A semi-orthogonal G is block unipotent outside opaque blocks, so det G is
    the product of the opaque diagonal blocks' determinants; otherwise this
    takes det V itself."""
    if not semi_orthogonal:
        return intlinalg.det([list(c.vector) for c in collection.classes()]) in (1, -1)
    det_gram, at = 1, 0
    for b in collection.blocks:
        if b.opaque:
            rows = gram[at : at + b.size]
            det_gram *= intlinalg.det([list(row[at : at + b.size]) for row in rows])
        at += b.size
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


_MOVE_RES = [
    ("L", re.compile(r"^L\s+(\d+)$")),
    ("R", re.compile(r"^R\s+(\d+)$")),
    ("helix-", re.compile(r"^helix\s+-K$")),
    ("helix+", re.compile(r"^helix\s+\+K$")),
    ("swap", re.compile(r"^swap\s+(\d+)$")),
    ("merge", re.compile(r"^merge\s+(\d+)$")),
    ("split", re.compile(r"^split\s+(\d+)((?:\s+\d+)+)$")),
    ("serre", re.compile(r"^serre\s+(\d+)\.\.(\d+)\s+\^(-?\d+)$")),
]


def parse_move(text: str) -> Move:
    text = text.strip()
    for kind, rx in _MOVE_RES:
        m = rx.match(text)
        if not m:
            continue
        if kind in ("L", "R", "swap", "merge"):
            return Move(kind, index=_parse_int(m.group(1)))
        if kind in ("helix-", "helix+"):
            return Move(kind)
        if kind == "split":
            sizes = tuple(_parse_int(x) for x in m.group(2).split())
            return Move(kind, index=_parse_int(m.group(1)), sizes=sizes)
        rng = (_parse_int(m.group(1)), _parse_int(m.group(2)))
        return Move(kind, rng=rng, power=_parse_serre_power(m.group(3)))
    raise InputError(f"cannot parse move {text!r}")


def _parse_serre_power(text: str) -> int:
    n = _parse_int(text)
    if abs(n) > MAX_SERRE_POWER:
        raise InputError(f"Serre exponent {text} is above the cap |n| <= {MAX_SERRE_POWER}")
    return n


def render_move(move: Move) -> str:
    if move.kind in ("L", "R"):
        return f"{move.kind} {move.index}"
    if move.kind == "helix-":
        return "helix -K"
    if move.kind == "helix+":
        return "helix +K"
    if move.kind in ("swap", "merge"):
        return f"{move.kind} {move.index}"
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

    Each coefficient is read off the parent's Gram matrix: a class F loses
    g_k e_k with g_k = chi(e_k, F) - sum_{l<k} g_l chi(e_k, e_l) on the
    left and g_k = chi(F, e_k) - sum_{l<k} g_l chi(e_l, e_k) on the right.
    That is mutate_class applied once per e_k, whatever `through` is; when
    `through` is orthogonal, as the post-move check requires, it is the
    one-shot projection."""
    moving, mid = collection.blocks[index - 1], collection.blocks[through - 1]
    if mid.opaque:
        raise MoveError("cannot mutate through an opaque block")
    flat = collection._pairings
    n = isqrt(len(flat))
    if side == "Left":
        def chi(e, f):
            return flat[e * n + f]
    else:
        def chi(e, f):
            return flat[f * n + e]
    es = _flat_span(collection, through, through)
    e_vectors = [o.cls.vector for o in mid.objects]
    new = []
    for f, obj in zip(_flat_span(collection, index, index), moving.objects):
        coeffs: list[int] = []
        for e in es:
            coeffs.append(chi(e, f) - sum(g * chi(e, l) for g, l in zip(coeffs, es)))
        vec = obj.cls.vector
        for g, e_vec in zip(coeffs, e_vectors):
            if g:
                vec = [x - g * y for x, y in zip(vec, e_vec)]
        new.append(ExcObject(class_from_vector(collection.surface, vec)))
    return Block(tuple(new), opaque=moving.opaque)


def _flat_span(collection: Collection, a: int, b: int) -> range:
    """Positions in the object list of blocks a..b (1-based, inclusive)."""
    start = sum(blk.size for blk in collection.blocks[: a - 1])
    return range(start, start + sum(blk.size for blk in collection.blocks[a - 1 : b]))


def _orthogonal_blocks(collection: Collection, index: int) -> bool:
    """Blocks index, index+1 (1-based): both off-diagonal Gram sub-blocks vanish."""
    gram = collection.gram
    first, second = (_flat_span(collection, i, i) for i in (index, index + 1))
    return all(gram[i][j] == 0 and gram[j][i] == 0 for i in first for j in second)


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
    span, full = _flat_span(collection, a, b), collection.gram
    gram = [list(full[i][span.start : span.stop]) for i in span]
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
    rows of P^T V (V: the classes' vectors, row by row)."""
    serre = subcategory_serre_matrix(collection, rng)
    power_t = intlinalg.transpose(intlinalg.mat_pow(serre, power))
    return intlinalg.mat_mul(power_t, _span_vectors(collection, rng))


def _twisted(block: Block, d) -> Block:
    return Block(tuple(ExcObject(twist(o.cls, d)) for o in block.objects), opaque=block.opaque)


def apply_move(collection: Collection, move: Move) -> Collection:
    """One checked move: raises MoveError on a violated precondition and
    VerificationError if the rewritten collection fails check_collection.
    This is the move step of run_script; search_path rewrites with
    _rewrite and checks only the new collections it keeps."""
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
    return replace(collection, blocks=tuple(blocks))


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
    out = []
    for b in collection.blocks:
        out.append(
            {
                "opaque": b.opaque,
                "objects": [render_kclass(o.cls) for o in b.objects],
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
    the Gram matrix that check computed."""
    states, steps = _replay(collection, moves, case)
    return states[-1], steps


def certificate(case: str, steps, verdict: str) -> dict:
    gram = steps[-1]["gram"] if steps else []
    return {
        "case": case,
        "steps": steps,
        "gram": gram,
        "verdict": verdict,
    }


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

    Candidates are rewritten unchecked; legality depends only on the key,
    so a key already seen is dropped unchecked.  The goal is checked first,
    with the start's `full` flag that every reached collection carries; if
    it fails, no word reaches it.  After that a key is checked at most
    once, when one side first keeps it; a key the other side holds needs
    no check, and keys of the last layer the depth allows are only matched
    against the other side.  The start, the caller's, is not checked."""
    key = canonical_form(start)
    # Moves keep the surface, so a goal on another surface is never reached.
    if goal.surface != start.surface:
        return None
    goal_key = canonical_form(goal)
    if key == goal_key:
        return ()
    goal = replace(goal, full=start.full)
    if max_depth < 1 or not check_collection(goal).ok:
        return None
    parent = {key: None}  # forward side: key -> (parent key, move)
    dist = {goal_key: 0}  # backward side: key -> moves to the goal
    dropped = set()  # keys that failed their check
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
                if ck in known or ck in dropped:
                    continue
                if ck in other:
                    met = True
                elif depth == max_depth:
                    continue
                elif not check_collection(child).ok:
                    dropped.add(ck)
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
    subcategory Serre matrix of the `a` range, trying N before -N; None if
    the block shapes differ or no power fits."""
    sizes = [blk.size for blk in a.blocks[rng_a[0] - 1 : rng_a[1]]]
    if sizes != [blk.size for blk in b.blocks[rng_b[0] - 1 : rng_b[1]]]:
        return None
    starts = [sum(sizes[:i]) for i in range(len(sizes))]

    def per_block(vectors):
        normal = [_sign_normal(v) for v in vectors]
        return [sorted(normal[at : at + size]) for at, size in zip(starts, sizes)]

    target = per_block(_span_vectors(b, rng_b))
    serre = subcategory_serre_matrix(a, rng_a)
    step = intlinalg.transpose(serre)
    step_back = intlinalg.transpose(intlinalg.mat_inverse_integer(serre))
    forward = backward = _span_vectors(a, rng_a)
    for n_abs in range(max_power + 1):
        tries = [(0, forward)]
        if n_abs:
            forward = intlinalg.mat_mul(step, forward)
            backward = intlinalg.mat_mul(step_back, backward)
            tries = [(n_abs, forward), (-n_abs, backward)]
        for n, images in tries:
            if per_block(images) == target:
                return n
    return None
