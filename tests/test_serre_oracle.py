"""The Serre checks on class vectors against the coordinate routes they replaced.

`serre-inv` posts and serre_power_match compare class vectors. The oracles
below solve every class in the span basis with a Smith reduction and compare
coordinate matrices instead: `_serre_inv_on_coordinates` is the post check
mat_pow(S, k) == -Sigma, and `_power_match_on_coordinates` is the Hermite
span check, solve_many and the walk on coordinate matrices. On a range whose
classes form a basis of their span both routes must give the same verdict
and the same exponent.

serre_images is the only place the library takes a Serre power: per range
it keeps the up and down steps and every power it reached, and steps to a
new power from the nearest kept one.  `_former_serre_images` is its body
before that memo, a square-and-multiply power (`_mat_pow`, the former
`intlinalg.mat_pow`) with the range's Gram block cut from
`collection.gram`; on every replay state and every end range, exponents
-8..8 asked for in two seeded shuffled orders must give the same vectors,
and a caller's changes to a returned list must not reach the memo.
`_former_power_match` is serre_power_match before it read serre_images,
with its own forward and backward stepping; both must give the same
exponent, None or InputError on ranges inside both collections.  A range
outside its collection raises before the shapes are compared, where the
former body read it as a clipped slice.
"""

import random
from dataclasses import replace
from functools import lru_cache

import pytest

from sodatlas import intlinalg
from sodatlas.catalog.scripts import _run_post, catalog_ids, link_script
from sodatlas.errors import InputError
from sodatlas.ktheory import class_from_vector, sigma_kclass
from sodatlas.lattice import SurfaceModel
from sodatlas.mutation import (
    Block,
    Collection,
    ExcObject,
    Move,
    _replay,
    apply_move,
    serre_images,
    serre_power_match,
    subcategory_serre_matrix,
)

_SEED = 20261018


def _mat_pow(a, k):
    """a**k, the former `intlinalg.mat_pow`: k < 0 inverts first, then
    square-and-multiply from the lowest set bit of k."""
    if k < 0:
        return _mat_pow(intlinalg.mat_inverse_integer(a), -k)
    if k == 0:
        return intlinalg.identity(len(a))
    base = intlinalg.copy_matrix(a)
    while not k & 1:
        base = intlinalg.mat_mul(base, base)
        k >>= 1
    result = base
    k >>= 1
    while k:
        base = intlinalg.mat_mul(base, base)
        if k & 1:
            result = intlinalg.mat_mul(result, base)
        k >>= 1
    return result


def _range_classes(collection, rng):
    a, b = rng
    return [o.cls for blk in collection.blocks[a - 1 : b] for o in blk.objects]


def _coordinates(basis, classes):
    """Columns: each class solved in `basis`; None if one leaves its span."""
    basis_t = intlinalg.transpose([list(c.vector) for c in basis])
    cols = intlinalg.solve_many(basis_t, [list(c.vector) for c in classes])
    return None if any(col is None for col in cols) else cols


@lru_cache(maxsize=None)
def _serre_and_inverse(collection, rng):
    serre = subcategory_serre_matrix(collection, rng)
    return serre, intlinalg.mat_inverse_integer(serre)


def _serre_inv_on_coordinates(script, rng, power):
    classes = _range_classes(script.side1, rng)
    cols = _coordinates(classes, [sigma_kclass(c, script.involution) for c in classes])
    if cols is None:
        return False
    sigma = intlinalg.transpose(cols)
    serre, inverse = _serre_and_inverse(script.side1, rng)
    power_matrix = _mat_pow(serre if power >= 0 else inverse, abs(power))
    return power_matrix == [[-x for x in row] for row in sigma]


def _sign_normal(col):
    for x in col:
        if x:
            return tuple(col) if x > 0 else tuple(-y for y in col)
    return tuple(col)


def _power_match_on_coordinates(a, rng_a, b, rng_b, max_power=12):
    blocks_a = a.blocks[rng_a[0] - 1 : rng_a[1]]
    sizes = [blk.size for blk in blocks_a]
    if sizes != [blk.size for blk in b.blocks[rng_b[0] - 1 : rng_b[1]]]:
        return None
    cls_a, cls_b = _range_classes(a, rng_a), _range_classes(b, rng_b)
    spans = [intlinalg.hermite_row_form([list(c.vector) for c in cls]) for cls in (cls_a, cls_b)]
    if spans[0] != spans[1]:
        return None
    cols = _coordinates(cls_a, cls_b)
    if cols is None:
        return None
    target = [_sign_normal(col) for col in cols]
    serre, inverse = _serre_and_inverse(a, rng_a)
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    forward = backward = intlinalg.identity(len(cls_a))
    for n_abs in range(max_power + 1):
        tries = [(0, forward)]
        if n_abs:
            forward = intlinalg.mat_mul(forward, serre)
            backward = intlinalg.mat_mul(backward, inverse)
            tries = [(n_abs, forward), (-n_abs, backward)]
        for n, power in tries:
            images = [_sign_normal(col) for col in zip(*power)]
            if all(
                sorted(images[at : at + size]) == sorted(target[at : at + size])
                for at, size in zip(starts, sizes)
            ):
                return n
    return None


def _posts(kind):
    return [
        (cid, post) for cid in catalog_ids() for post in link_script(cid).posts if post.kind == kind
    ]


_SERRE_INV = _posts("serre-inv")


@pytest.mark.parametrize("cid, post", _SERRE_INV, ids=[cid for cid, _ in _SERRE_INV])
def test_serre_inv_post_matches_the_coordinate_check(cid, post):
    script = link_script(cid)
    verdicts = {}
    for k in range(-4, 5):
        library = _run_post(script, replace(post, power=k), [script.side1])
        assert library == _serre_inv_on_coordinates(script, post.rng, k), (cid, k)
        verdicts[k] = library
    assert verdicts[post.power] and not verdicts[0]


def _shuffled(collection, rng):
    """`collection` with the classes of each block shuffled and sign-flipped."""
    blocks = []
    for blk in collection.blocks:
        objects = [ExcObject(rng.choice((1, -1)) * o.cls) for o in blk.objects]
        rng.shuffle(objects)
        blocks.append(Block(tuple(objects), opaque=blk.opaque))
    return Collection(collection.surface, tuple(blocks), full=collection.full)


def _off_span(collection, rng, outside):
    """`collection` with the first class of block rng[0] replaced by `outside`."""
    blocks = list(collection.blocks)
    first = blocks[rng[0] - 1]
    objects = (ExcObject(outside),) + first.objects[1:]
    blocks[rng[0] - 1] = Block(objects, opaque=first.opaque)
    return Collection(collection.surface, tuple(blocks), full=collection.full)


def test_serre_power_match_agrees_with_the_coordinate_walk():
    rng = random.Random(_SEED)
    powers, misses = [], 0
    for cid, post in _posts("serre-match"):
        script = link_script(cid)
        states, _ = _replay(script.side1, script.moves, cid)
        start = states[post.prefix]
        args = (start, post.rng, script.side2, post.far, post.power)
        assert serre_power_match(*args) == _power_match_on_coordinates(*args) is not None
        # an initial range on side1 and a terminal one on the prefix state
        terminal = (post.rng[0], len(start.blocks))
        for source, span in ((script.side1, (1, post.rng[1])), (start, terminal)):
            for k in range(-3, 4):
                far = _shuffled(apply_move(source, Move("serre", rng=span, power=k)), rng)
                found = serre_power_match(source, span, far, span)
                assert found == _power_match_on_coordinates(source, span, far, span), (cid, k)
                assert found is not None and abs(found) <= abs(k)
                powers.append(found)
            outside = next(
                o.cls for i, blk in enumerate(source.blocks, 1)
                if not span[0] <= i <= span[1] for o in blk.objects
            )
            far = _off_span(far, span, outside)
            assert serre_power_match(source, span, far, span) is None
            assert _power_match_on_coordinates(source, span, far, span) is None
            misses += 1
    assert misses == 12
    assert {p for p in powers if p < 0} and {p for p in powers if p > 0}


def _former_serre_matrix(collection, rng):
    """subcategory_serre_matrix before the memo, on `collection.gram`."""
    a, b = rng
    start = sum(blk.size for blk in collection.blocks[: a - 1])
    stop = start + sum(blk.size for blk in collection.blocks[a - 1 : b])
    gram = [list(row[start:stop]) for row in collection.gram[start:stop]]
    try:
        inv = intlinalg.mat_inverse_integer(gram)
    except ValueError:
        raise InputError("subcategory Gram matrix is not unimodular") from None
    return intlinalg.mat_mul(inv, intlinalg.transpose(gram))


def _former_serre_images(collection, rng, power, serre):
    """serre_images before the memo, given the range's former Serre matrix."""
    power_t = intlinalg.transpose(_mat_pow(serre, power))
    return intlinalg.mat_mul(power_t, [list(c.vector) for c in _range_classes(collection, rng)])


def _end_ranges(collection):
    """Every initial and every terminal block range."""
    n = len(collection.blocks)
    return sorted({(1, b) for b in range(1, n + 1)} | {(a, n) for a in range(1, n + 1)})


_WALK = range(-8, 9)


def test_memoised_serre_images_match_the_former_body_on_every_replay_state():
    """Exponents -8..8 in two seeded shuffled orders, so each power is
    reached from a different kept one.  The first state of each replay is
    the catalog's side1, whose memo a script's serre move or an earlier
    replay may have filled; every other state starts empty."""
    rand = random.Random(_SEED)
    checked = 0
    for cid in catalog_ids():
        script = link_script(cid)
        states, _ = _replay(script.side1, script.moves, cid)
        for state in states:
            for rng in _end_ranges(state):
                # _mat_pow inverts first for k < 0; invert once per range
                serre = _former_serre_matrix(state, rng)
                signed = {1: serre, -1: intlinalg.mat_inverse_integer(serre)}
                want = {
                    k: _former_serre_images(state, rng, abs(k), signed[-1 if k < 0 else 1])
                    for k in _WALK
                }
                for k in rand.sample(_WALK, len(_WALK)) + rand.sample(_WALK, len(_WALK)):
                    got = serre_images(state, rng, k)
                    assert got == want[k], (cid, rng, k)
                    got[0][0] += 1
                    got.append([])
                    checked += 1
    assert checked > 40_000


def test_a_range_that_is_not_unimodular_raises_on_every_call():
    plane = SurfaceModel("P2")
    twice = class_from_vector(plane, [2, 0, 0])  # chi(2O, 2O) = 4
    coll = Collection(plane, (Block((ExcObject(twice),), opaque=True),), full=False)
    for k in (0, 1, 1, -1, 0, 1):
        with pytest.raises(InputError) as exc:
            serre_images(coll, (1, 1), k)
        with pytest.raises(InputError) as former:
            _former_serre_matrix(coll, (1, 1))
        assert str(exc.value) == str(former.value) == "subcategory Gram matrix is not unimodular"


def _former_power_match(a, rng_a, b, rng_b, max_power=12):
    """serre_power_match before it read serre_images: its own forward and
    backward stepping, with a second inverse of the Serre matrix."""
    sizes = [blk.size for blk in a.blocks[rng_a[0] - 1 : rng_a[1]]]
    if sizes != [blk.size for blk in b.blocks[rng_b[0] - 1 : rng_b[1]]]:
        return None
    starts = [sum(sizes[:i]) for i in range(len(sizes))]

    def per_block(vectors):
        normal = [_sign_normal(v) for v in vectors]
        return [sorted(normal[at : at + size]) for at, size in zip(starts, sizes)]

    target = per_block([list(c.vector) for c in _range_classes(b, rng_b)])
    serre = subcategory_serre_matrix(a, rng_a)
    step = intlinalg.transpose(serre)
    step_back = intlinalg.transpose(intlinalg.mat_inverse_integer(serre))
    forward = backward = [list(c.vector) for c in _range_classes(a, rng_a)]
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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return "InputError", str(exc)


_BOUNDS = (-2, -1, 0, 1, 2, 3, 12)


def test_serre_power_match_agrees_with_its_former_body():
    """On each serre-match post, and on shuffled Serre images of both signs
    from an initial range of side1 and a terminal range of the post's
    state, under bounds from -2 to 12."""
    rand = random.Random(_SEED)
    outcomes = set()
    for cid, post in _posts("serre-match"):
        script = link_script(cid)
        states, _ = _replay(script.side1, script.moves, cid)
        start = states[post.prefix]
        cases = [(start, post.rng, script.side2, post.far)]
        terminal = (post.rng[0], len(start.blocks))
        for source, span in ((script.side1, (1, post.rng[1])), (start, terminal)):
            for k in range(-4, 5):
                far = _shuffled(apply_move(source, Move("serre", rng=span, power=k)), rand)
                cases.append((source, span, far, span))
        for case in cases:
            for bound in _BOUNDS:
                got = serre_power_match(*case, bound)
                assert got == _former_power_match(*case, bound), (cid, case[1], bound)
                outcomes.add(got)
    assert None in outcomes and {-4, -1, 0, 1, 4} <= outcomes


def test_serre_power_match_agrees_with_its_former_body_off_unimodular_ranges():
    """A range that is not unimodular: mismatched shapes give None before any
    Serre work, matched ones raise, a negative bound included; so does a
    range out of bounds."""
    plane = SurfaceModel("P2")
    twice = class_from_vector(plane, [2, 0, 0])  # chi(2O, 2O) = 4
    one = Collection(plane, (Block((ExcObject(twice),), opaque=True),), full=False)
    pair = Collection(plane, (Block((ExcObject(twice), ExcObject(twice)), opaque=True),), full=False)
    for bound in _BOUNDS:
        assert serre_power_match(one, (1, 1), pair, (1, 1), bound) is None
        assert _former_power_match(one, (1, 1), pair, (1, 1), bound) is None
        for rng, text in (
            ((1, 1), "subcategory Gram matrix is not unimodular"),
            ((1, 2), "block range 1..2 out of bounds"),
        ):
            got = _outcome(serre_power_match, one, rng, one, rng, bound)
            assert got == _outcome(_former_power_match, one, rng, one, rng, bound)
            assert got == ("InputError", text)


@pytest.mark.parametrize(
    "rng_a, rng_b, text",
    [
        ((1, 1), (3, 6), "block range 3..6 out of bounds"),
        ((1, 1), (0, 1), "block range 0..1 out of bounds"),
        ((1, 1), (2, 1), "block range 2..1 out of bounds"),
        ((0, 1), (1, 1), "block range 0..1 out of bounds"),
    ],
)
def test_serre_power_match_refuses_a_range_out_of_bounds(rng_a, rng_b, text):
    """On II-3-2-3 (block sizes 1, 8, 1) the former body compared these
    ranges as clipped slices and returned None."""
    side1 = link_script("II-3-2-3").side1
    assert [blk.size for blk in side1.blocks] == [1, 8, 1]
    assert _former_power_match(side1, rng_a, side1, rng_b) is None
    with pytest.raises(InputError) as caught:
        serre_power_match(side1, rng_a, side1, rng_b)
    assert str(caught.value) == text
