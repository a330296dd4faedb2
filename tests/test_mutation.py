"""Mutation engine: legality reports, move semantics, scripts, search."""

import random

import pytest

from sodatlas import mutation
from sodatlas.errors import InputError, MoveError, UnsupportedRangeError, VerificationError
from sodatlas.ktheory import (
    euler_pairing,
    euler_row,
    line_bundle_class,
    structure_class,
    torsion_class,
    twist,
)
from sodatlas.catalog import MoriFibreSpace, standard_sod
from sodatlas.lattice import SurfaceModel
from sodatlas.mutation import (
    MAX_SERRE_POWER,
    Block,
    Collection,
    ExcObject,
    Move,
    apply_move,
    block_of_classes,
    canonical_form,
    check_collection,
    collection_of_classes,
    collections_equal,
    parse_move,
    parse_script,
    render_move,
    render_script,
    run_script,
    search_path,
    serre_power_match,
    subcategory_serre_matrix,
)
from sodatlas.textio import render_kclass

P2 = SurfaceModel("P2")
H = P2.basis_class("H")
F0 = SurfaceModel("F0")
X6 = SurfaceModel("P2", (3,))


def beilinson():
    return collection_of_classes(
        P2,
        [
            [line_bundle_class(P2, -2 * H)],
            [line_bundle_class(P2, -1 * H)],
            [structure_class(P2)],
        ],
    )


def three_block_deg6():
    h1 = X6.basis_class("H")
    e = [X6.basis_class(f"E{i}") for i in (1, 2, 3)]
    h2 = 2 * h1 - e[0] - e[1] - e[2]
    return collection_of_classes(
        X6,
        [
            [line_bundle_class(X6, -1 * h1), line_bundle_class(X6, -1 * h2)],
            [line_bundle_class(X6, -1 * (h1 - ei)) for ei in e],
            [structure_class(X6)],
        ],
    )


def test_check_collection_beilinson():
    rep = check_collection(beilinson())
    assert rep.ok
    assert rep.gram == ((1, 3, 6), (0, 1, 3), (0, 0, 1))
    assert rep.violations == ()


def test_check_collection_three_block():
    rep = check_collection(three_block_deg6())
    assert rep.ok
    for i in range(6):
        assert rep.gram[i][i] == 1


def test_check_collection_flags_violations():
    bad = collection_of_classes(
        P2,
        [[structure_class(P2)], [line_bundle_class(P2, -1 * H)]],
        full=False,
    )
    rep = check_collection(bad)
    assert not rep.ok
    assert any("expected 0" in v for v in rep.violations)


def test_check_collection_full_counts_objects():
    short = collection_of_classes(P2, [[structure_class(P2)]], full=True)
    rep = check_collection(short)
    assert not rep.ok
    assert any("lattice needs 3" in v for v in rep.violations)


def test_opaque_block_intra_unconstrained():
    e1 = X6.basis_class("E1")
    blk = block_of_classes(
        [torsion_class(X6, e1, -1), line_bundle_class(X6, -1 * X6.basis_class("H"))],
        opaque=True,
    )
    coll = Collection(X6, (blk, Block((ExcObject(structure_class(X6), "O"),))), full=False)
    rep = check_collection(coll)
    # one intra-opaque entry is -1; only the cross-block entries are constrained
    assert euler_pairing(blk.classes()[0], blk.classes()[1]) == -1
    assert rep.ok


def test_move_parse_render_roundtrip():
    text = "L 2; R 1; helix -K; helix +K; swap 3; merge 2; split 2 1 2; serre 1..4 ^-3"
    moves = parse_script(text)
    assert render_script(moves) == text
    assert moves[0] == Move("L", index=2)
    assert moves[6].sizes == (1, 2)
    assert moves[7].rng == (1, 4) and moves[7].power == -3
    with pytest.raises(InputError):
        parse_move("twist 3")
    with pytest.raises(InputError):
        parse_move("serre 1..2")


def test_serre_exponent_is_capped():
    assert parse_move(f"serre 1..1 ^{MAX_SERRE_POWER}").power == MAX_SERRE_POWER
    assert parse_move(f"serre 1..1 ^-{MAX_SERRE_POWER}").power == -MAX_SERRE_POWER
    for power in (MAX_SERRE_POWER + 1, -MAX_SERRE_POWER - 1, 10**7):
        with pytest.raises(InputError, match=f"cap \\|n\\| <= {MAX_SERRE_POWER}"):
            parse_move(f"serre 1..1 ^{power}")


def test_move_with_an_overlong_integer_is_input_error():
    with pytest.raises(InputError):
        parse_move("L " + "1" * 5000)


def test_gram_is_computed_once_per_collection(monkeypatch):
    coll = three_block_deg6()
    classes = coll.classes()
    expected = tuple(tuple(euler_pairing(x, y) for y in classes) for x in classes)
    calls = []
    monkeypatch.setattr(mutation, "euler_row", lambda x: calls.append(x) or euler_row(x))
    assert coll.gram == expected
    assert check_collection(coll).gram == expected
    assert subcategory_serre_matrix(coll, (1, 2))
    assert calls == list(classes)  # one row per listed class, once


def test_serre_matrix_beilinson():
    assert subcategory_serre_matrix(beilinson()) == [
        [10, 6, 3],
        [-15, -8, -3],
        [6, 3, 1],
    ]


def test_serre_matrix_full_equals_twist_matrix():
    # On the whole collection the Serre matrix must act as twisting by the
    # canonical class (objects' parity shift is invisible to classes).
    coll = three_block_deg6()
    mat = subcategory_serre_matrix(coll)
    classes = list(coll.classes())
    k = X6.canonical
    for j, c in enumerate(classes):
        twisted = twist(c, k)
        acc = None
        for i, base in enumerate(classes):
            term = mat[i][j] * base
            acc = term if acc is None else acc + term
        assert acc == twisted


def test_left_mutation_through_structure_sheaf():
    e1 = X6.basis_class("E1")
    coll = collection_of_classes(
        X6,
        [[structure_class(X6)], [torsion_class(X6, e1, 0)]],
        full=False,
    )
    out = apply_move(coll, Move("L", index=2))
    assert out.blocks[0].classes()[0] == -1 * line_bundle_class(X6, -1 * e1)
    assert out.blocks[1].classes()[0] == structure_class(X6)


def test_right_mutation_through_torsion_block():
    e1 = X6.basis_class("E1")
    d = X6.basis_class("H") - e1
    coll = collection_of_classes(
        X6,
        [[line_bundle_class(X6, d)], [torsion_class(X6, e1, X6.intersect(d, e1))]],
        full=False,
    )
    out = apply_move(coll, Move("R", index=1))
    assert out.blocks[1].classes()[0] == line_bundle_class(X6, d - e1)


def test_left_then_right_restores():
    coll = three_block_deg6()
    after = apply_move(coll, Move("L", index=2))
    back = apply_move(after, Move("R", index=1))
    assert coll == back


def test_helix_roundtrip_strict():
    coll = three_block_deg6()
    assert apply_move(apply_move(coll, Move("helix-")), Move("helix+")) == coll
    assert apply_move(apply_move(coll, Move("helix+")), Move("helix-")) == coll


def test_helix_turn_equals_the_standard_collection_and_keeps_its_names():
    coll = standard_sod(MoriFibreSpace(P2, "Point"))
    turned = apply_move(apply_move(coll, Move("helix-")), Move("helix+"))
    assert turned == coll
    assert [o.label for o in coll.objects()] == ["O(-2H)", "O(-H)", "O"]
    # the first block went round the helix; the others never moved
    (moved,) = turned.blocks[0].objects
    assert moved.label == render_kclass(moved.cls)
    assert [o.label for o in turned.objects()[1:]] == ["O(-H)", "O"]


def test_swap_requires_orthogonality():
    coll = beilinson()
    with pytest.raises(MoveError):
        apply_move(coll, Move("swap", index=1))


def test_swap_merge_split():
    h1 = F0.basis_class("h")  # fiber over one ruling
    s = F0.basis_class("s")
    coll = collection_of_classes(
        F0,
        [
            [line_bundle_class(F0, -1 * (s + h1))],
            [line_bundle_class(F0, -1 * s)],
            [line_bundle_class(F0, -1 * h1)],
            [structure_class(F0)],
        ],
    )
    swapped = apply_move(coll, Move("swap", index=2))
    assert swapped.blocks[1].classes()[0] == line_bundle_class(F0, -1 * h1)
    merged = apply_move(swapped, Move("merge", index=2))
    assert len(merged.blocks) == 3
    assert merged.blocks[1].size == 2
    split = apply_move(merged, Move("split", index=2, sizes=(1, 1)))
    assert split == swapped
    with pytest.raises(MoveError):
        apply_move(merged, Move("split", index=2, sizes=(3,)))
    with pytest.raises(MoveError):
        apply_move(coll, Move("merge", index=1))


def test_mutation_through_opaque_rejected():
    e1 = X6.basis_class("E1")
    opaque = block_of_classes([torsion_class(X6, e1, -1)], opaque=True)
    coll = Collection(
        X6,
        (opaque, block_of_classes([structure_class(X6)])),
        full=False,
    )
    with pytest.raises(MoveError):
        apply_move(coll, Move("L", index=2))
    # mutating the opaque block itself through an ordinary one is fine
    out = apply_move(coll, Move("R", index=1))
    assert out.blocks[1].opaque


def test_serre_move_needs_end_segment():
    coll = collection_of_classes(
        X6,
        [
            [line_bundle_class(X6, -1 * X6.basis_class("H"))],
            *[[line_bundle_class(X6, -1 * (X6.basis_class("H") - X6.basis_class(f"E{i}")))] for i in (1, 2, 3)],
            [structure_class(X6)],
        ],
        full=False,
    )
    with pytest.raises(MoveError):
        apply_move(coll, Move("serre", rng=(2, 3), power=1))


def test_serre_move_full_range_is_canonical_twist():
    coll = beilinson()
    out = apply_move(coll, Move("serre", rng=(1, 3), power=1))
    k = P2.canonical
    expected = [twist(c, k) for c in coll.classes()]
    got = list(out.classes())
    assert got == expected


def test_run_script_records_steps():
    final, steps = run_script(beilinson(), parse_script("helix -K; helix +K"), case="demo")
    assert final == beilinson()
    assert [s["move"] for s in steps] == ["helix -K", "helix +K"]
    assert all(s["ok"] for s in steps)
    assert steps[0]["gram"] == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]


def test_run_script_reports_failing_step():
    with pytest.raises(VerificationError) as err:
        run_script(beilinson(), parse_script("helix -K; swap 1"), case="demo")
    assert "step 2" in str(err.value)


def test_collections_equal_modes():
    coll = three_block_deg6()
    flipped_first = Collection(
        X6,
        (
            block_of_classes([-1 * coll.blocks[0].classes()[0], coll.blocks[0].classes()[1]][::-1]),
            coll.blocks[1],
            coll.blocks[2],
        ),
    )
    assert coll != flipped_first
    assert collections_equal(coll, flipped_first, "UpToSignAndBlockPerm")
    assert canonical_form(coll) == canonical_form(flipped_first)
    for mode in ("Strict", "Sloppy"):
        with pytest.raises(InputError):
            collections_equal(coll, coll, mode)


def test_random_left_right_restore_and_helix():
    # Random legal collections: mutate left at a random cut, mutate right
    # back, land exactly where we started; same for the helix pair.
    rng = random.Random(20260816)
    surfaces = [P2, X6, SurfaceModel("F0", (2,)), SurfaceModel("P2", (4,))]
    base_colls = []
    for s in surfaces:
        if s.base == "P2" and not s.blowup_orbits:
            base_colls.append(beilinson())
        elif s == X6:
            base_colls.append(three_block_deg6())
        else:
            labels = s.labels
            if s.base == "P2":
                h = [s.basis_class("H") - s.basis_class(f"E{i}") for i in (1, 2, 3, 4)]
                h5 = 2 * s.basis_class("H") - sum(
                    (s.basis_class(f"E{i}") for i in (2, 3, 4)), s.basis_class("E1")
                )
                base_colls.append(
                    collection_of_classes(
                        s,
                        [[line_bundle_class(s, -1 * hi)] for hi in h]
                        + [[line_bundle_class(s, -1 * h5)], [structure_class(s)]],
                        full=False,
                    )
                )
            else:
                sc = s.basis_class("s")
                hc = s.basis_class("h")
                e = [s.basis_class(f"E{i}") for i in (1, 2)]
                base_colls.append(
                    collection_of_classes(
                        s,
                        [
                            [torsion_class(s, e[0], -1)],
                            [torsion_class(s, e[1], -1)],
                            [line_bundle_class(s, -1 * (sc + hc))],
                            [line_bundle_class(s, -1 * sc)],
                            [line_bundle_class(s, -1 * hc)],
                            [structure_class(s)],
                        ],
                    )
                )
    for _ in range(200):
        coll = rng.choice(base_colls)
        n = len(coll.blocks)
        i = rng.randrange(2, n + 1)
        stepped = apply_move(coll, Move("L", index=i))
        back = apply_move(stepped, Move("R", index=i - 1))
        assert coll == back
        assert apply_move(apply_move(coll, Move("helix-")), Move("helix+")) == coll


def test_search_path_twist_within_depth():
    target = collection_of_classes(
        P2,
        [
            [line_bundle_class(P2, -3 * H)],
            [line_bundle_class(P2, -2 * H)],
            [line_bundle_class(P2, -1 * H)],
        ],
    )
    path = search_path(beilinson(), target, max_depth=4)
    assert path is not None and len(path) <= 4
    replayed, _ = run_script(beilinson(), path)
    assert collections_equal(replayed, target, "UpToSignAndBlockPerm")


def test_search_path_node_budget(monkeypatch):
    start = beilinson()
    beyond = _layers(start, 4)[3][0]
    # Both sides together expand 8 collections before depth 3 runs out: the
    # start, the goal, and the start's 6 children in the last layer.
    monkeypatch.setattr(mutation, "MAX_SEARCH_NODES", 8)
    assert search_path(start, beyond, max_depth=3) is None
    monkeypatch.setattr(mutation, "MAX_SEARCH_NODES", 7)
    with pytest.raises(UnsupportedRangeError, match="more than 7 collections"):
        search_path(start, beyond, max_depth=3)


def _count_checks(monkeypatch):
    checked = []
    check = mutation.check_collection
    monkeypatch.setattr(mutation, "check_collection", lambda c: checked.append(c) or check(c))
    return checked


def test_search_checks_only_the_collections_it_keeps(monkeypatch):
    from sodatlas.catalog.scripts import link_script

    start = link_script("I-9-8").side1
    beyond = _layers(start, 4)[3][0]
    checked = _count_checks(monkeypatch)
    assert search_path(start, beyond, max_depth=3) is None
    # The goal first, then one check per new key of a layer that is not
    # the last: the start's 8 children and the goal's 8.
    assert canonical_form(checked[0]) == canonical_form(beyond)
    assert len(checked) == 17
    assert len({canonical_form(c) for c in checked}) == 17
    # A goal in the depth-3 layer is checked before anything is expanded.
    goal = _depth3_layer(start)[70]
    checked.clear()
    assert render_script(search_path(start, goal, max_depth=3)) == "L 4; R 2; L 2"
    assert canonical_form(checked[0]) == canonical_form(goal)
    assert len(checked) == len({canonical_form(c) for c in checked})
    # From a start that fails its own check, most keys fail theirs; a key
    # that failed is not checked again when a later move reaches it.
    checked.clear()
    assert search_path(Collection(start.surface, start.blocks[::-1]), beyond, max_depth=4) is None
    assert sum(not check_collection(c).ok for c in checked) == 5
    assert len(checked) == len({canonical_form(c) for c in checked}) == 6


def test_search_stops_at_a_goal_that_fails_its_check(monkeypatch):
    from sodatlas.catalog.scripts import link_script

    start = link_script("I-9-8").side1
    broken = Collection(start.surface, start.blocks[:1])
    checked = _count_checks(monkeypatch)
    expanded = []
    children = mutation._children
    monkeypatch.setattr(mutation, "_children", lambda c: expanded.append(c) or children(c))
    assert search_path(start, broken, max_depth=3) is None
    assert len(checked) == 1 and not expanded


def _layers(start, depth):
    """The legal collections first reached after 1, ..., depth moves, each
    layer in the order breadth-first search meets them."""
    seen, layer, out = {canonical_form(start)}, [start], []
    for _ in range(depth):
        nxt = []
        for coll in layer:
            for move in mutation._candidate_moves(coll):
                try:
                    child = mutation._rewrite(coll, move)
                except MoveError:
                    continue
                key = canonical_form(child)
                if key not in seen:
                    seen.add(key)
                    if check_collection(child).ok:
                        nxt.append(child)
        out.append(nxt)
        layer = nxt
    return out


def _depth3_layer(start):
    """Collections first reached after three moves, in the order
    breadth-first search meets them."""
    seen, layer = {canonical_form(start)}, [start]
    for _ in range(3):
        nxt = []
        for coll in layer:
            for move in mutation._candidate_moves(coll):
                try:
                    out = apply_move(coll, move)
                except (MoveError, VerificationError):
                    continue
                key = canonical_form(out)
                if key not in seen:
                    seen.add(key)
                    nxt.append(out)
        layer = nxt
    return layer


# Per catalog case: the size of the depth-3 layer and the word search_path
# returns for the goal at each listed rank of that layer.
SEARCH_WORDS = {
    "I-9-8": (140, {0: "L 2; L 3; L 2", 70: "L 4; R 2; L 2"}),
    "II-9-7-8": (150, {0: "L 2; L 2; L 3", 75: "L 4; R 1; R 2"}),
    "REF-5-6": (147, {0: "L 2; L 2; L 3", 146: "helix +K; helix +K; helix +K"}),
}


@pytest.mark.parametrize("case", sorted(SEARCH_WORDS))
def test_search_path_words_are_pinned(case):
    from sodatlas.catalog.scripts import link_script

    size, words = SEARCH_WORDS[case]
    start = link_script(case).side1
    layer = _depth3_layer(start)
    assert len(layer) == size
    for rank, word in words.items():
        assert render_script(search_path(start, layer[rank], max_depth=3)) == word


def test_serre_power_match_identity_and_twist():
    coll = beilinson()
    assert serre_power_match(coll, (1, 3), coll, (1, 3)) == 0
    twisted = apply_move(coll, Move("serre", rng=(1, 3), power=2))
    n = serre_power_match(coll, (1, 3), twisted, (1, 3))
    assert n == 2
    other = collection_of_classes(P2, [[structure_class(P2)]], full=False)
    assert serre_power_match(coll, (1, 3), other, (1, 1)) is None
