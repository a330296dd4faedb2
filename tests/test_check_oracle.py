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
"""

import random

import pytest

from sodatlas import intlinalg
from sodatlas.catalog.scripts import catalog_ids, link_script
from sodatlas.errors import InputError, MoveError
from sodatlas.ktheory import KClass, class_from_vector, euler_form_det, euler_pairing
from sodatlas.lattice import SurfaceModel
from sodatlas.mutation import (
    Block,
    Collection,
    ExcObject,
    Move,
    _candidate_moves,
    _replay,
    _rewrite,
    canonical_form,
    check_collection,
)

_SEED = 20261018
# I-4-3 and II-curve-gen-1 start with an opaque block; the other two are
# move-search benchmark cases.
WALK_CASES = ("I-9-8", "REF-5-6", "I-4-3", "II-curve-gen-1")


def _oracle_check(collection):
    """(ok, violations, gram) with unimodularity from det of the class vectors."""
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
