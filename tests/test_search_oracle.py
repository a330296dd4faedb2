"""search_path against the one-sided breadth-first search it replaced.

The old search is kept here as the oracle: it expands from the start alone,
layer by layer in candidate-move order, and returns the first word that
reaches the goal, which is the least shortest word in that order.  The
two-sided search must return the same word, or None where the oracle does,
on seeded samples of goals at depth 1 to 4.

The two-sided search checks only its ends and the word it returns.  That
rests on a theorem, kept here as a property: every child a search move
makes from a collection that passes check_collection passes it too, on
random walks from both sides of every catalog case.  Its backward half
rests on another, also kept as a property: every search move has a search
move as its inverse, up to the search's key.
"""

import random
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sodatlas import mutation
from sodatlas.catalog.scripts import catalog_ids, link_script
from sodatlas.ktheory import class_from_vector
from sodatlas.lattice import SurfaceModel
from sodatlas.mutation import (
    Collection,
    Move,
    MoveError,
    canonical_form,
    check_collection,
    collection_of_classes,
    render_script,
    search_path,
)

from test_fuzz import FUZZ
from test_mutation import _layers

# The cases of the move-search benchmark, plus two with an opaque block.
CASES = (
    "I-9-8", "I-9-5", "I-8-6", "II-9-7-8", "II-9-4-5", "II-8-5-6", "II-9-6-9",
    "II-8-4-8", "II-6-4-6", "II-curve-8-1", "II-curve-8-2", "IV-8", "REF-6-8",
    "REF-5-6", "REF-5-8", "I-4-3", "IV-4",
)


def _one_sided_search(start, goal, max_depth):
    """The forward-only search_path, checking each new key it expands or
    returns; in the last layer it checks only the goal."""
    goal_key = canonical_form(goal) if goal.surface == start.surface else None
    key = canonical_form(start)
    if key == goal_key:
        return ()
    seen = {key}
    frontier = deque([(start, ())] if max_depth > 0 else [])
    while frontier:
        current, path = frontier.popleft()
        leaf = len(path) + 1 == max_depth
        for move in mutation._candidate_moves(current):
            try:
                nxt = mutation._rewrite(current, move)
            except MoveError:
                continue
            key = canonical_form(nxt)
            if key in seen or (leaf and key != goal_key):
                continue
            seen.add(key)
            if not check_collection(nxt).ok:
                continue
            if key == goal_key:
                return path + (move,)
            if not leaf:
                frontier.append((nxt, path + (move,)))
    return None


def _words(start, goal, max_depth):
    """The words of search_path and of the oracle, as text or None."""
    words = search_path(start, goal, max_depth), _one_sided_search(start, goal, max_depth)
    return tuple(None if w is None else render_script(w) for w in words)


@pytest.mark.parametrize("case", CASES)
def test_words_match_the_one_sided_search_up_to_depth_3(case):
    start = link_script(case).side1
    rng = random.Random(case)
    for depth, layer in enumerate(_layers(start, 3), 1):
        for goal in rng.sample(layer, min(2, len(layer))):
            new, old = _words(start, goal, 3)
            assert new == old and len(new.split("; ")) == depth


@pytest.mark.parametrize("case", ["I-9-8", "REF-5-6"])
def test_words_match_at_depth_4_and_none_one_short(case):
    start = link_script(case).side1
    rng = random.Random(case)
    for goal in rng.sample(_layers(start, 4)[3], 2):
        new, old = _words(start, goal, 4)
        assert new == old and len(new.split("; ")) == 4
        assert _words(start, goal, 3) == (None, None)


def test_goal_with_another_full_flag():
    start = link_script("I-9-8").side1
    goal = _layers(start, 2)[1][5]
    partial = replace(goal, full=False)
    assert check_collection(partial).ok
    new, old = _words(start, partial, 3)
    assert new == old and new is not None
    # From a partial start every reached collection is partial too, so a
    # goal that fails its check as a full collection is still reached.
    part = Collection(start.surface, start.blocks[:3], full=False)
    goal = replace(_layers(part, 2)[1][3], full=True)
    assert not check_collection(goal).ok
    new, old = _words(part, goal, 3)
    assert new == old and new is not None


def test_goal_on_another_surface():
    start = link_script("I-9-8").side1
    goal = _layers(start, 2)[1][5]
    f0 = SurfaceModel("F0")
    assert f0 != start.surface and f0.picard_rank == start.surface.picard_rank
    moved = collection_of_classes(
        f0, [[class_from_vector(f0, c.vector) for c in b.classes()] for b in goal.blocks]
    )
    # The same class vectors, hence the same key, on a surface moves never reach.
    assert canonical_form(moved) == canonical_form(goal)
    assert _words(start, moved, 3) == (None, None)


@FUZZ
@given(
    st.sampled_from(catalog_ids()),
    st.sampled_from(("side1", "side2")),
    st.lists(st.integers(0, 10**6), max_size=4),
)
def test_search_moves_keep_a_checked_collection_valid(case, side, word):
    """A walk of up to four search moves, each drawn among the children of
    the collection it leaves; every child along the way passes its check."""
    current = getattr(link_script(case), side)
    assert check_collection(current).ok
    for pick in word:
        children = [child for _, child in mutation._children(current)]
        for child in children:
            assert check_collection(child).ok, mutation._render_blocks(child)
        current = children[pick % len(children)]


def _inverse(move):
    """The search move that undoes `move`: L i and R i-1 undo each other, as
    do helix -K and helix +K, and swap i undoes itself."""
    if move.kind == "L":
        return Move("R", index=move.index - 1)
    if move.kind == "R":
        return Move("L", index=move.index + 1)
    if move.kind == "swap":
        return move
    return Move("helix+" if move.kind == "helix-" else "helix-")


@pytest.mark.parametrize("case", catalog_ids())
def test_an_inverse_word_takes_each_side_back_to_its_key(case):
    """A seeded word of 1 to 4 search moves that apply, from either side,
    then its inverse word in reverse: the key is the start's again."""
    for side in ("side1", "side2"):
        start = getattr(link_script(case), side)
        rng = random.Random(f"{case} {side}")
        current, word = start, []
        for _ in range(rng.randint(1, 4)):
            moves = mutation._candidate_moves(current)
            rng.shuffle(moves)
            for move in moves:
                try:
                    current = mutation._rewrite(current, move)
                except MoveError:
                    continue
                word.append(move)
                break
        assert word, side
        for move in reversed(word):
            current = mutation._rewrite(current, _inverse(move))
        assert canonical_form(current) == canonical_form(start), (side, render_script(word))
