"""check_collection and the L/R rewrite against the routes they replaced.

check_collection decides unimodularity from the Gram matrix: once the
violation scan passes, det G is the product of the opaque diagonal blocks'
determinants, which must equal det X, X the Euler form.  `_oracle_check`
keeps the n x n Bareiss determinant of the class vectors instead.  Both
must give the same verdict, the same violation texts in the same order and
the same Gram matrix.

`_rewrite` reads each L/R mutation coefficient off the parent's Gram matrix.
`_oracle_mutate_block` applies `mutate_class` once per object of the
block it mutates through, and must give the same classes, also through a
block that is not orthogonal.

check_collection walks one flat row slice per object, its basis test reads
the opaque diagonal blocks off the flat pairings, and the move step
indexes the flat pairings with a (row, column) stride.  The bodies they
replaced are kept below as oracles: the n x n scan of `collection.gram`,
the basis test over `collection.gram`, the closure-based block mutation,
the orthogonality test over `collection.gram` and the
`dataclasses.replace`-based rewrite.  On the
depth-2 walks of both sides of every catalog case, and on collections with
permuted blocks, +-1 Gram entries or class coordinates, toggled opaque
flags and `full=False`, both give the same violation texts in the same
order, the same children, keys and MoveError texts.

An object's label is rendered once and kept; on every collection these
walks reach it must stay `name or render_kclass(cls)`.
"""

import random
from dataclasses import replace
from math import isqrt

import pytest

from sodatlas import intlinalg
from sodatlas.catalog.scripts import catalog_ids, link_script
from sodatlas.errors import InputError, MoveError
from sodatlas.ktheory import KClass, class_from_vector, euler_form_det, euler_pairing
from sodatlas.lattice import SurfaceModel
from sodatlas.mutation import (
    DEFAULT_SEARCH_KINDS,
    MAX_CLASS_BITS,
    Block,
    Collection,
    ExcObject,
    Move,
    _candidate_moves,
    _replay,
    _rewrite,
    _sign_normal,
    _twisted,
    canonical_form,
    check_collection,
    render_move,
    serre_images,
)
from sodatlas.textio import render_kclass

_SEED = 20261018
# I-4-3 and II-curve-gen-1 start with an opaque block; the other two are
# move-search benchmark cases.
WALK_CASES = ("I-9-8", "REF-5-6", "I-4-3", "II-curve-gen-1")


def _oracle_scan(collection):
    """The violated Gram constraints, from an n x n scan of `collection.gram`
    in row-major order: the scan check_collection used before it walked
    flat row slices."""
    objs = collection.objects()
    n = len(objs)
    gram = collection.gram
    violations = []
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
    return violations


def _oracle_check(collection):
    """(ok, violations, gram) with unimodularity from det of the class vectors."""
    n = len(collection.objects())
    gram = collection.gram
    violations = _oracle_scan(collection)
    if collection.full:
        expected = collection.surface.picard_rank + 2
        if n != expected:
            violations.append(f"full collection has {n} objects, lattice needs {expected}")
        elif intlinalg.det([list(c.vector) for c in collection.classes()]) not in (1, -1):
            violations.append("classes do not form a basis of the K-lattice")
    return not violations, tuple(violations), gram


def _same_check(collection):
    report = check_collection(collection)
    assert (report.ok, report.violations, collection.gram) == _oracle_check(collection)
    return report.ok


def _walk(start, depth=3):
    """Every candidate an exhaustive layer walk of `depth` moves rewrites
    from `start`, checked or not; a layer keeps the new legal ones."""
    seen, layer, reached = {canonical_form(start)}, [start], []
    for _ in range(depth):
        nxt = []
        for coll in layer:
            for move in _candidate_moves(coll):
                try:
                    out = _rewrite(coll, move)
                except MoveError:
                    continue
                reached.append(out)
                key = canonical_form(out)
                if key not in seen and _oracle_check(out)[0]:
                    seen.add(key)
                    nxt.append(out)
        layer = nxt
    return reached


@pytest.mark.parametrize("case", WALK_CASES)
def test_check_matches_the_oracle_on_a_depth3_walk(case):
    reached = _walk(link_script(case).side1)
    assert reached
    for coll in reached:
        _same_check(coll)


def test_check_matches_the_oracle_on_every_replay_state():
    ids = catalog_ids()
    assert len(ids) == 46
    for case in ids:
        script = link_script(case)
        states, _ = _replay(script.side1, script.moves, case)
        for coll in states:
            assert _same_check(coll), case


def _opaque_start(case):
    start = link_script(case).side1
    at = next(i for i, b in enumerate(start.blocks) if b.opaque)
    return start, at


def _doubled(start, at):
    """The opaque block (a, b, ...) replaced by (a, a + 2b, ...): the
    classes span an index-2 sublattice, so det G is 4 det X."""
    objs = start.blocks[at].objects
    a, b = objs[0].cls, objs[1].cls
    block = Block((objs[0], ExcObject(a + 2 * b)) + objs[2:], opaque=True)
    return Collection(start.surface, start.blocks[:at] + (block,) + start.blocks[at + 1 :])


@pytest.mark.parametrize("case", ("I-4-3", "II-curve-gen-1"))
def test_check_rejects_a_sublattice_like_the_oracle(case):
    start, at = _opaque_start(case)
    bad = _doubled(start, at)
    assert check_collection(start).ok
    assert not _same_check(bad)
    assert check_collection(bad).violations == ("classes do not form a basis of the K-lattice",)


def test_check_with_a_cross_block_violation_matches_the_oracle():
    start, at = _opaque_start("II-curve-gen-1")
    bad = _doubled(start, at)
    blocks = bad.blocks
    # Two neighbouring one-object blocks with chi(x, y) != 0 in the wrong
    # order: exactly one entry below the diagonal breaks.
    gram = bad.gram
    pos = [sum(b.size for b in blocks[:i]) for i in range(len(blocks))]
    i = next(
        i
        for i in range(len(blocks) - 1)
        if blocks[i].size == blocks[i + 1].size == 1 and gram[pos[i]][pos[i + 1]]
    )
    swapped = Collection(
        bad.surface, blocks[:i] + (blocks[i + 1], blocks[i]) + blocks[i + 2 :]
    )
    assert not _same_check(swapped)
    violations = check_collection(swapped).violations
    assert len(violations) == 2 and violations[0].endswith("expected 0")
    assert violations[1] == "classes do not form a basis of the K-lattice"


@pytest.mark.parametrize(
    "surface",
    [SurfaceModel("P2", (1,) * k) for k in range(9)]
    + [SurfaceModel(f"F{d}") for d in range(3)],
    ids=lambda s: f"{s.base}[{len(s.blowup_orbits)}]",
)
def test_euler_form_is_unimodular(surface):
    assert euler_form_det(surface) == 1


# -- L/R coefficients ------------------------------------------------------


def mutate_class(e: KClass, t: KClass, side: str) -> KClass:
    """Left or right mutation of the class t through the class e."""
    if side == "Left":
        return t - euler_pairing(e, t) * e
    if side == "Right":
        return t - euler_pairing(t, e) * e
    raise InputError(f"unknown mutation side {side!r}")


def _oracle_mutate_block(moving, through, side):
    if through.opaque:
        raise MoveError("cannot mutate through an opaque block")
    new = []
    for obj in moving.objects:
        cls = obj.cls
        for e in through.objects:
            cls = mutate_class(e.cls, cls, side)
        new.append(ExcObject(cls))
    return Block(tuple(new), opaque=moving.opaque)


def _oracle_lr(collection, move):
    """(classes, opaque) per block after an L or R move, mutated one class at a time."""
    blocks = list(collection.blocks)
    i = move.index - 1
    if move.kind == "L":
        moved = _oracle_mutate_block(blocks[i], blocks[i - 1], "Left")
        blocks[i - 1], blocks[i] = moved, blocks[i - 1]
    else:
        moved = _oracle_mutate_block(blocks[i], blocks[i + 1], "Right")
        blocks[i], blocks[i + 1] = blocks[i + 1], moved
    return [(b.classes(), b.opaque) for b in blocks]


def _same_lr(collection, move):
    try:
        expected = _oracle_lr(collection, move)
    except MoveError:
        with pytest.raises(MoveError):
            _rewrite(collection, move)
        return
    out = _rewrite(collection, move)
    assert [(b.classes(), b.opaque) for b in out.blocks] == expected


def _lr_moves(collection, rng, count):
    n = len(collection.blocks)
    for _ in range(count):
        if rng.random() < 0.5:
            yield Move("L", index=rng.randrange(2, n + 1))
        else:
            yield Move("R", index=rng.randrange(1, n))


def test_lr_coefficients_match_the_oracle_on_checked_collections():
    rng = random.Random(_SEED)
    pool = [coll for case in WALK_CASES for coll in _walk(link_script(case).side1, 2)]
    pool = [coll for coll in pool if check_collection(coll).ok]
    for coll in rng.sample(pool, 150):
        for move in _lr_moves(coll, rng, 3):
            _same_lr(coll, move)


def test_lr_coefficients_match_the_oracle_through_blocks_that_are_not_orthogonal():
    rng = random.Random(_SEED + 1)
    non_orthogonal = 0
    for surface in (SurfaceModel("P2", (1, 1, 1)), SurfaceModel("F1", (2,)), SurfaceModel("F0")):
        width = surface.picard_rank + 2
        for _ in range(40):
            blocks = []
            for _ in range(rng.randrange(2, 5)):
                classes = [
                    class_from_vector(surface, [rng.randrange(-3, 4) for _ in range(width)])
                    for _ in range(rng.randrange(1, 4))
                ]
                blocks.append(Block(tuple(map(ExcObject, classes))))
            coll = Collection(surface, tuple(blocks), full=False)
            gram = coll.gram
            start = 0
            for b in blocks:
                span = range(start, start + b.size)
                non_orthogonal += any(gram[i][j] for i in span for j in span if i != j)
                start += b.size
            for move in _lr_moves(coll, rng, 4):
                _same_lr(coll, move)
    assert non_orthogonal > 50


# -- the move step's former bodies -----------------------------------------


def _old_lattice_basis(collection, gram, semi_orthogonal):
    """check_collection's basis test as its former body ran it, on the
    opaque diagonal blocks of `collection.gram`."""
    if not semi_orthogonal:
        return intlinalg.det([list(c.vector) for c in collection.classes()]) in (1, -1)
    det_gram, at = 1, 0
    for b in collection.blocks:
        if b.opaque:
            rows = gram[at : at + b.size]
            det_gram *= intlinalg.det([list(row[at : at + b.size]) for row in rows])
        at += b.size
    return det_gram == euler_form_det(collection.surface)


def _old_check(collection):
    """check_collection's violations as its former body found them."""
    violations = _oracle_scan(collection)
    if collection.full:
        n = len(collection.objects())
        expected = collection.surface.picard_rank + 2
        if n != expected:
            violations.append(f"full collection has {n} objects, lattice needs {expected}")
        elif not _old_lattice_basis(collection, collection.gram, not violations):
            violations.append("classes do not form a basis of the K-lattice")
    return tuple(violations)


def _same_violations(collection):
    report = check_collection(collection)
    expected = _old_check(collection)
    assert report.violations == expected
    assert report.ok == (not expected)
    return report.ok


def _old_flat_span(collection, a, b):
    start = sum(blk.size for blk in collection.blocks[: a - 1])
    return range(start, start + sum(blk.size for blk in collection.blocks[a - 1 : b]))


def _old_mutate_block(collection, index, through, side):
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
    es = _old_flat_span(collection, through, through)
    e_vectors = [o.cls.vector for o in mid.objects]
    new = []
    for f, obj in zip(_old_flat_span(collection, index, index), moving.objects):
        coeffs = []
        for e in es:
            coeffs.append(chi(e, f) - sum(g * chi(e, l) for g, l in zip(coeffs, es)))
        vec = obj.cls.vector
        for g, e_vec in zip(coeffs, e_vectors):
            if g:
                vec = [x - g * y for x, y in zip(vec, e_vec)]
        new.append(ExcObject(class_from_vector(collection.surface, vec)))
    return Block(tuple(new), opaque=moving.opaque)


def _old_orthogonal_blocks(collection, index):
    gram = collection.gram
    first, second = (_old_flat_span(collection, i, i) for i in (index, index + 1))
    return all(gram[i][j] == 0 and gram[j][i] == 0 for i in first for j in second)


def _old_rewrite(collection, move):
    blocks = list(collection.blocks)
    n = len(blocks)
    k = move.kind
    if k in ("L", "R", "swap", "merge", "split") and not (1 <= move.index <= n):
        raise MoveError(f"block index {move.index} out of range 1..{n}")
    if k == "L":
        if move.index < 2:
            raise MoveError("left mutation needs a block on the left")
        i = move.index - 1
        moved = _old_mutate_block(collection, move.index, move.index - 1, "Left")
        blocks[i - 1], blocks[i] = moved, blocks[i - 1]
    elif k == "R":
        if move.index >= n:
            raise MoveError("right mutation needs a block on the right")
        i = move.index - 1
        moved = _old_mutate_block(collection, move.index, move.index + 1, "Right")
        blocks[i], blocks[i + 1] = blocks[i + 1], moved
    elif k == "helix-":
        blocks.append(_twisted(blocks.pop(0), -1 * collection.surface.canonical))
    elif k == "helix+":
        blocks.insert(0, _twisted(blocks.pop(), collection.surface.canonical))
    elif k == "swap":
        if move.index >= n:
            raise MoveError("swap needs a block on the right")
        i = move.index - 1
        if not _old_orthogonal_blocks(collection, move.index):
            raise MoveError("swap blocks are not completely orthogonal")
        blocks[i], blocks[i + 1] = blocks[i + 1], blocks[i]
    elif k == "merge":
        if move.index >= n:
            raise MoveError("merge needs a block on the right")
        i = move.index - 1
        if blocks[i].opaque or blocks[i + 1].opaque:
            raise MoveError("cannot merge opaque blocks")
        if not _old_orthogonal_blocks(collection, move.index):
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


def _old_key(collection):
    """canonical_form with each plain block's classes sorted from a generator."""
    out = []
    for b in collection.blocks:
        if b.opaque:
            span = intlinalg.hermite_row_form([list(o.cls.vector) for o in b.objects])
            out.append(("opaque", b.size, span))
        else:
            out.append(("plain", tuple(sorted(_sign_normal(o.cls.vector) for o in b.objects))))
    return tuple(out)


def _shape(collection):
    """Everything a child carries: surface, full flag, and per block the
    opaque flag and each object's class vector and name."""
    return (
        collection.surface,
        collection.full,
        [(b.opaque, [(o.cls.vector, o.name) for o in b.objects]) for b in collection.blocks],
    )


def _same_rewrite(collection, move):
    """The child of `move` by both routes, or None when both raise the same
    error with the same text."""
    outcomes = []
    for rewrite in (_old_rewrite, _rewrite):
        try:
            outcomes.append(rewrite(collection, move))
        except (MoveError, InputError) as exc:
            outcomes.append((type(exc), str(exc)))
    expected, out = outcomes
    if not isinstance(expected, Collection):
        assert out == expected
        return None
    assert isinstance(out, Collection), out
    assert _shape(out) == _shape(expected)
    assert canonical_form(out) == canonical_form(expected) == _old_key(expected)
    return out


def _step_moves(collection, first_layer):
    """The search's candidate moves, merges and splits and, on the first
    layer, indices at and beyond the ends and serre moves on the initial
    and terminal block ranges."""
    n = len(collection.blocks)
    moves = _candidate_moves(collection)
    moves += [Move("merge", index=i) for i in range(1, n)]
    for i, b in enumerate(collection.blocks, 1):
        moves.append(Move("split", index=i, sizes=(1,) * b.size))
    if first_layer:
        moves += [Move(k, index=i) for k in ("L", "R", "swap", "merge") for i in (0, 1, n, n + 1)]
        moves += [Move("serre", rng=(1, b), power=1) for b in range(1, n + 1)]
        moves += [Move("serre", rng=(a, n), power=-1) for a in range(2, n + 1)]
    return moves


def _sides():
    ids = catalog_ids()
    assert len(ids) == 46
    return [side for case in ids for side in (link_script(case).side1, link_script(case).side2)]


def test_move_step_matches_its_former_bodies_on_depth2_walks():
    """Every move of _step_moves from the first two layers of a walk from
    each catalog side; a layer keeps the new children the former check
    accepts."""
    children = 0
    for side in _sides():
        assert _same_violations(side)
        seen, layer = {canonical_form(side)}, [side]
        for depth in range(2):
            nxt = []
            for coll in layer:
                for move in _step_moves(coll, depth == 0):
                    out = _same_rewrite(coll, move)
                    if out is None:
                        continue
                    children += 1
                    key = canonical_form(out)
                    if key in seen:
                        continue
                    seen.add(key)
                    if _same_violations(out) and move.kind in DEFAULT_SEARCH_KINDS:
                        nxt.append(out)
            layer = nxt
    assert children > 9_000


def _with_pairings(collection, flat):
    """A fresh copy of `collection` whose pairings are `flat`."""
    copy = Collection(collection.surface, collection.blocks, collection.full)
    copy.__dict__["_pairings"] = flat
    return copy


def _corruptions(side, rng):
    """Collections the catalog side turns into under block permutations,
    +-1 Gram entries, +-1 class coordinates and toggled opaque flags."""
    blocks = list(side.blocks)
    for _ in range(2):
        order = blocks[:]
        rng.shuffle(order)
        yield Collection(side.surface, tuple(order), side.full)
    flat = side._pairings
    for _ in range(6):
        at = rng.randrange(len(flat))
        bent = flat[:at] + (flat[at] + rng.choice((-1, 1)),) + flat[at + 1 :]
        yield _with_pairings(side, bent)
    objs = [(bi, oi) for bi, b in enumerate(blocks) for oi in range(b.size)]
    for _ in range(3):
        bi, oi = rng.choice(objs)
        vec = list(blocks[bi].objects[oi].cls.vector)
        vec[rng.randrange(len(vec))] += rng.choice((-1, 1))
        objects = list(blocks[bi].objects)
        objects[oi] = ExcObject(class_from_vector(side.surface, vec), objects[oi].name)
        bent = blocks[:bi] + [Block(tuple(objects), blocks[bi].opaque)] + blocks[bi + 1 :]
        yield Collection(side.surface, tuple(bent), side.full)
    for bi, b in enumerate(blocks):
        bent = blocks[:bi] + [Block(b.objects, not b.opaque)] + blocks[bi + 1 :]
        yield Collection(side.surface, tuple(bent), side.full)


def test_move_step_matches_its_former_bodies_on_corrupted_collections():
    """Each corruption's violations with either full flag, and three of its
    moves with each."""
    rng = random.Random(_SEED + 2)
    broken = tried = 0
    for side in _sides():
        assert side.full
        for bad in _corruptions(side, rng):
            for coll in (bad, _with_pairings(replace(bad, full=False), bad._pairings)):
                broken += not _same_violations(coll)
                for move in rng.sample(_step_moves(coll, False), 3):
                    tried += _same_rewrite(coll, move) is not None
    assert broken > 1_000 and tried > 1_000


def _same_labels(collection):
    for o in collection.objects():
        label = o.label
        assert label == (o.name or render_kclass(o.cls))
        assert o.label is label


def test_each_label_is_its_name_or_its_rendered_class():
    """On every replay state and far side of the catalog, on the depth-2
    walks of the walk cases and on their corruptions."""
    rng = random.Random(_SEED + 3)
    named = 0
    for case in catalog_ids():
        script = link_script(case)
        states, _ = _replay(script.side1, script.moves, case)
        for coll in (*states, script.side2):
            _same_labels(coll)
            named += sum(bool(o.name) for o in coll.objects())
    for case in WALK_CASES:
        side = link_script(case).side1
        for coll in (*_walk(side, 2), *_corruptions(side, rng)):
            _same_labels(coll)
    assert named  # the standard far sides of the refinement cases name theirs
