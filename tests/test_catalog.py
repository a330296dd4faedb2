"""Fibre spaces, standard decompositions, link classification, replays."""

import random
from importlib import resources

import pytest
from test_serre_oracle import _mat_pow

from sodatlas import intlinalg, mutation
from sodatlas.catalog.scripts import _descriptor_for, _script_from_stanza
from sodatlas.errors import InputError, UnsupportedRangeError
from sodatlas.ktheory import euler_pairing, sigma_kclass
from sodatlas.lattice import SurfaceModel, apply_divisor_matrix
from sodatlas.mutation import (
    VERDICT_OK,
    check_collection,
    collections_equal,
    run_script,
    serre_power_match,
    subcategory_serre_matrix,
)
from sodatlas.catalog import (
    LinkDescriptor,
    MoriFibreSpace,
    birationally_rich,
    catalog_ids,
    e_bundle_class,
    geiser_bertini_involution,
    link_script,
    standard_sod,
    validate_link,
    verify_link,
)
from sodatlas.textio import parse_stanzas

P2 = SurfaceModel("P2")
F0 = SurfaceModel("F0")


def _point(spec):
    return MoriFibreSpace(SurfaceModel(*spec), "Point")


def _bundle(spec, fib):
    s = SurfaceModel(*spec)
    return MoriFibreSpace(s, "RationalCurve", fibration_class=fib(s))


# -- fibre space gates ---------------------------------------------------------

def test_fibre_space_rejects_degree_seven():
    with pytest.raises(InputError):
        MoriFibreSpace(SurfaceModel("P2", (2,)), "Point")
    with pytest.raises(InputError):
        _bundle(("P2", (2,)), lambda s: s.basis_class("H") - s.basis_class("E1"))


def test_fibre_space_rejects_degree_nine_bundle():
    with pytest.raises(InputError):
        MoriFibreSpace(P2, "RationalCurve", fibration_class=P2.basis_class("H"))


def test_fibration_class_must_be_a_zero_class():
    with pytest.raises(InputError):
        MoriFibreSpace(F0, "RationalCurve", fibration_class=F0.basis_class("s") + F0.basis_class("h"))
    with pytest.raises(InputError):
        MoriFibreSpace(F0, "RationalCurve")


def test_positive_genus_base_degree_bound():
    with pytest.raises(InputError):
        MoriFibreSpace(F0, "Curve", genus=1, fibration_class=F0.basis_class("h"))


def test_richness_table():
    assert birationally_rich(_point(("P2",)))
    assert birationally_rich(_point(("F0",)))
    assert birationally_rich(_point(("P2", (3,))))
    assert birationally_rich(_point(("P2", (4,))))
    assert not birationally_rich(_point(("P2", (5,))))
    assert birationally_rich(_bundle(("F0",), lambda s: s.basis_class("h")))
    assert not birationally_rich(
        _bundle(("P2", (5,)), lambda s: s.basis_class("H") - s.basis_class("E1"))
    )


# -- standard decompositions ---------------------------------------------------

def _shape(coll):
    return [("opq", b.size) if b.opaque else b.size for b in coll.blocks]


def test_standard_point_shapes():
    assert _shape(standard_sod(_point(("P2",)))) == [1, 1, 1]
    assert _shape(standard_sod(_point(("F0",)))) == [1, 2, 1]
    assert _shape(standard_sod(_point(("P2", (3,))))) == [2, 3, 1]
    assert _shape(standard_sod(_point(("P2", (4,))))) == [1, 5, 1]
    for blown in (5, 6, 8):
        coll = standard_sod(_point(("P2", (blown,))))
        assert _shape(coll) == [("opq", blown + 2), 1]


def test_standard_bundle_shapes():
    assert _shape(standard_sod(_bundle(("F0",), lambda s: s.basis_class("h")))) == [1, 1, 1, 1]
    assert _shape(
        standard_sod(_bundle(("P2", (3,)), lambda s: s.basis_class("H") - s.basis_class("E1")))
    ) == [2, 2, 1, 1]
    assert _shape(
        standard_sod(_bundle(("P2", (4,)), lambda s: s.basis_class("H") - s.basis_class("E1")))
    ) == [1, 4, 1, 1]
    low = standard_sod(
        _bundle(("P2", (5,)), lambda s: s.basis_class("H") - s.basis_class("E1"))
    )
    assert _shape(low) == [("opq", 6), 1, 1]


def test_standard_sod_checks_out_everywhere():
    cases = [
        _point(("P2",)),
        _point(("F0",)),
        _point(("F2",)),
        _point(("P2", (3,))),
        _point(("P2", (4,))),
        _point(("P2", (6,))),
        _bundle(("F0",), lambda s: s.basis_class("s")),
        _bundle(("F3",), lambda s: s.basis_class("h")),
        _bundle(("P2", (3,)), lambda s: s.basis_class("H") - s.basis_class("E2")),
        _bundle(("P2", (4,)), lambda s: s.basis_class("H") - s.basis_class("E4")),
        _bundle(("P2", (6,)), lambda s: s.basis_class("H") - s.basis_class("E1")),
    ]
    for mfs in cases:
        coll = standard_sod(mfs)
        assert check_collection(coll).ok, mfs
        total = sum(b.size for b in coll.blocks)
        assert total == mfs.surface.picard_rank + 2


def test_standard_sod_positive_genus_unsupported():
    s = SurfaceModel("P2", (9,))
    with pytest.raises(UnsupportedRangeError):
        MoriFibreSpace(
            s, "Curve", genus=1, fibration_class=s.basis_class("H") - s.basis_class("E1")
        )


def test_e_bundle_class_facts():
    s = SurfaceModel("P2", (4,))
    e = e_bundle_class(s)
    assert e.rank == 2
    assert e.c1 == s.canonical
    assert euler_pairing(e, e) == 1
    with pytest.raises(InputError):
        e_bundle_class(P2)


# -- link classification ---------------------------------------------------------

GOLDEN = (
    [LinkDescriptor("I", d) for d in ((9, 8), (9, 5), (8, 6), (4, 3))]
    + [LinkDescriptor("III", d) for d in ((8, 9), (5, 9), (6, 8), (3, 4))]
    + [
        LinkDescriptor("II", (d, 1, d))
        for d in (9, 8, 6, 5, 4, 3, 2)
    ]
    + [LinkDescriptor("II", (d, 2, d)) for d in (9, 8, 6, 5, 4, 3)]
    + [
        LinkDescriptor("II", d)
        for d in ((9, 6, 9), (9, 3, 9), (8, 4, 8), (6, 4, 6), (6, 3, 6))
    ]
    + [
        LinkDescriptor("II", d)
        for d in ((9, 7, 8), (9, 4, 5), (8, 5, 6), (8, 3, 5))
    ]
    + [
        LinkDescriptor("II", d)
        for d in ((8, 7, 9), (5, 4, 9), (6, 5, 8), (5, 3, 8))
    ]
    + [LinkDescriptor("IV", (d,)) for d in (1, 2, 4, 8)]
    + [
        LinkDescriptor("II", d, base="Curve")
        for d in ((8, 8), (6, 6), (5, 5), (3, 3), (6, 4, 6), (5, 1, 5), (8, 5, 8))
    ]
)


def test_golden_links_accepted():
    for d in GOLDEN:
        assert validate_link(d), d


def test_near_misses_rejected():
    rng = random.Random(20260816)
    golden_keys = {(d.link_type, tuple(d.degrees), d.base) for d in GOLDEN}
    rejected = 0
    while rejected < 50:
        t = rng.choice(["I", "II", "III", "IV"])
        n = rng.choice([1, 2, 3])
        degs = tuple(rng.randint(1, 9) for _ in range(n))
        base = rng.choice(["Point", "Curve"]) if t == "II" else "Point"
        if (t, degs, base) in golden_keys:
            continue
        d = LinkDescriptor(t, degs, base=base)
        if validate_link(d):
            continue
        rejected += 1
    assert rejected == 50


def test_specific_rejections():
    assert not validate_link(LinkDescriptor("I", (9, 7)))
    assert not validate_link(LinkDescriptor("II", (7, 1, 7)))
    assert not validate_link(LinkDescriptor("II", (8, 2, 9)))
    assert not validate_link(LinkDescriptor("II", (9, 2)))
    assert not validate_link(LinkDescriptor("IV", (3,)))
    assert not validate_link(LinkDescriptor("II", (9, 9), base="Curve"))
    assert not validate_link(LinkDescriptor("II", (6, 6, 6), base="Curve"))
    assert not validate_link(LinkDescriptor("III", (9, 8)))


# -- the involution ------------------------------------------------------------

def test_involution_properties():
    for degree, blown in ((1, 8), (2, 7)):
        s = SurfaceModel("P2", (blown,))
        mat = geiser_bertini_involution(degree, s)
        n = s.picard_rank
        assert intlinalg.mat_mul(mat, mat) == intlinalg.identity(n)
        k = s.canonical
        assert apply_divisor_matrix(s, mat, k) == k
        # anti-invariant part: trace is 2 - n
        assert sum(mat[i][i] for i in range(n)) == 2 - n


def test_involution_degree_gate():
    with pytest.raises(InputError):
        geiser_bertini_involution(3, SurfaceModel("P2", (6,)))
    with pytest.raises(InputError):
        geiser_bertini_involution(1, SurfaceModel("P2", (7,)))


# -- the stored catalog ----------------------------------------------------------

def test_catalog_inventory():
    ids = catalog_ids()
    assert len(ids) == 46
    assert len([c for c in ids if c.startswith("REF-")]) == 3
    assert len([c for c in ids if c.startswith("IV-")]) == 4
    assert len([c for c in ids if c.startswith("II-curve-")]) == 13


def test_sides_are_legal_collections():
    for cid in catalog_ids():
        script = link_script(cid)
        assert check_collection(script.side1).ok, cid
        assert check_collection(script.side2).ok, cid


def test_rank_law():
    for cid in catalog_ids():
        script = link_script(cid)
        expect = script.roof.picard_rank + 2
        for side in (script.side1, script.side2):
            assert sum(b.size for b in side.blocks) == expect, cid


def test_dictionary_r_class_conventions():
    for cid in catalog_ids():
        script = link_script(cid)
        for name, div in script.dictionary.items():
            r = script.roof.r_class_value(div)
            if name.startswith("h"):
                assert r == 0, (cid, name)
            elif name.startswith("H"):
                assert r == 1, (cid, name)
            elif name.startswith("E"):
                assert r == -1, (cid, name)


def test_link_descriptors_validate():
    text = (resources.files("sodatlas.catalog") / "data" / "links.cfg").read_text("utf-8")
    links = [name for kind, name, _ in parse_stanzas(text) if kind == "link"]
    assert len(links) == len(catalog_ids()) - 3  # all but the refinements
    for cid in links:
        assert validate_link(_descriptor_for(cid)), cid


def test_unknown_case_rejected():
    with pytest.raises(InputError):
        link_script("II-7-1-7")


def test_replay_whole_catalog():
    for cid in catalog_ids():
        cert = verify_link(cid)
        assert cert["verdict"] == VERDICT_OK, (cid, cert["steps"][-1])
        assert cert["case"] == cid and set(cert) == {"case", "steps", "verdict"}
        assert all(rec["ok"] for rec in cert["steps"])


def test_certificate_records_every_move():
    script = link_script("I-9-8")
    cert = verify_link("I-9-8")
    move_records = cert["steps"][: len(script.moves)]
    assert len(cert["steps"]) > len(script.moves)  # final compare appended
    for rec in move_records:
        assert rec["blocks"]
        assert all(isinstance(row, list) for row in rec["gram"])


def test_replay_intermediate_chain_for_nine_eight():
    script = link_script("I-9-8")
    state = script.side1
    seen = []
    for mv in script.moves:
        state, steps = run_script(state, (mv,), "I-9-8")
        seen.append([b.size for b in state.blocks])
    assert seen[-1] == [b.size for b in script.side2.blocks]


def test_verify_link_replays_each_move_once(monkeypatch):
    calls = []
    step = mutation.apply_move
    monkeypatch.setattr(mutation, "apply_move", lambda c, m: calls.append(m) or step(c, m))
    for cid in ("II-curve-5-1", "II-curve-6-2", "IV-2"):
        calls.clear()
        assert verify_link(cid)["verdict"] == VERDICT_OK
        assert tuple(calls) == link_script(cid).moves, cid


# -- post checks ------------------------------------------------------------------

_I_9_8 = """\
[link "I-9-8"]
roof = P2[1]
dict h = H - E1
side1 = tors E1 | O(-2H) | O(-H) | O
side2 = O(-h-E1) | O(-E1) | O(-h) | O
moves = helix -K; L 4; helix -K; L 4
"""

_IV_2 = """\
[link "IV-2"]
roof = P2[7]
dict h1 = H - E1
dict h2 = -2K - h1
side1 = opq 8 | O(-h1) | O
side2 = opq 8 | O(-h2) | O
involution = geiser
moves = serre 1..2 ^2
"""


def test_post_lines_parse_to_their_labels():
    assert [p.label for p in link_script("IV-2").posts] == [
        "post serre-inv 1..2 ^2",
        "post sigma-dual h1 -> h2",
    ]
    (match,) = link_script("II-curve-5-1").posts
    assert (match.prefix, match.rng, match.far, match.power) == (5, (2, 3), (2, 3), 12)
    assert match.label == "post serre-match 2..3 vs 2..3"


@pytest.mark.parametrize(
    "stanza, post, reason",
    [
        (_I_9_8, "serre-match 1", "takes 4 arguments"),
        (_IV_2, "sigma-dual h1", "takes 2 arguments"),
        (_IV_2, "serre-inv 1..2 ^2 ^3", "takes 2 arguments"),
        (_IV_2, "", "unknown post check"),
        (_IV_2, "wobble 1..2", "unknown post check"),
        (_I_9_8, "serre-match x 1..2 1..2 12", "expected an integer"),
        (_I_9_8, "serre-match 2 1..2 1..2 many", "expected an integer"),
        (_IV_2, "serre-inv 1..b ^2", "expected an integer"),
        (_IV_2, "serre-inv 1..2 ^x", "expected an integer"),
        (_IV_2, "serre-inv 1..2 2", "^k"),
        (_IV_2, "serre-inv 1-2 ^2", "a..b"),
        (_IV_2, "serre-inv 0..2 ^2", "1 <= a <= b"),
        (_I_9_8, "serre-match 2 2..1 1..2 12", "1 <= a <= b"),
        (_I_9_8, "serre-match -1 1..2 1..2 12", "outside 0..4"),
        (_I_9_8, "serre-match 5 1..2 1..2 12", "outside 0..4"),
        (_IV_2, "serre-inv 1..2 ^65", "cap"),
        (_I_9_8, "serre-match 2 1..2 1..2 100000", "cap"),
        (_I_9_8, "serre-inv 1..2 ^2", "involution"),
        (_I_9_8, "sigma-dual h h", "involution"),
        (_IV_2, "sigma-dual h1 nope", "'nope'"),
        # overlong words are quoted by a bounded prefix and their length
        (_IV_2, "w" * 100_000, "unknown post check"),
        (_I_9_8, "serre-match " + "x" * 100_000, "takes 4 arguments"),
        (_IV_2, "serre-inv " + "7" * 100_000 + " ^2", "a..b"),
        (_IV_2, "serre-inv 1.." + "0" * 4000 + " ^2", "1 <= a <= b"),
        (_IV_2, "serre-inv 1..2 " + "2" * 100_000, "^k"),
        (_IV_2, "sigma-dual h1 " + "n" * 100_000, "has no dict line"),
    ],
)
def test_bad_post_line_is_input_error(stanza, post, reason):
    ((kind, name, fields),) = parse_stanzas(stanza + f"post = {post}\n")
    with pytest.raises(InputError) as exc:
        _script_from_stanza(name, fields, kind == "refinement")
    assert str(exc.value).startswith(f"{name}: ")
    assert reason in str(exc.value)
    assert len(str(exc.value)) < 400


# -- Serre identities on the stored cases -----------------------------------------

@pytest.mark.parametrize("cid,power", [("II-2-1-2", 3), ("II-3-2-3", 2), ("II-9-1-9", 3), ("II-6-2-6", 2)])
def test_bertini_geiser_matrix_identity(cid, power):
    script = link_script(cid)
    m = len(script.side1.blocks) - 1
    serre = subcategory_serre_matrix(script.side1, (1, m))
    span = [o.cls for b in script.side1.blocks[:m] for o in b.objects]
    basis_t = intlinalg.transpose([list(c.vector) for c in span])
    cols = []
    for c in span:
        col = intlinalg.solve(basis_t, list(sigma_kclass(c, script.involution).vector))
        assert col is not None
        cols.append(col)
    sigma_span = intlinalg.transpose(cols)
    assert _mat_pow(serre, power) == [[-x for x in row] for row in sigma_span]


def test_iv_low_degree_fibration_swap():
    for cid, dual in (("IV-1", -4), ("IV-2", -2)):
        script = link_script(cid)
        h1 = script.dictionary["h1"]
        h2 = script.dictionary["h2"]
        k = script.roof.canonical
        assert apply_divisor_matrix(script.roof, script.involution, h1) == h2
        assert h2 == dual * k - h1


def test_curve_cases_reach_a_serre_power():
    found = {}
    for cid in catalog_ids():
        script = link_script(cid)
        for post in script.posts:
            if post.kind == "serre-match":
                partial, _ = run_script(script.side1, script.moves[: post.prefix], cid)
                found[cid] = serre_power_match(
                    partial, post.rng, script.side2, post.far, post.power
                )
    assert found == {
        "II-curve-5-1": -1,
        "II-curve-5-2": -2,
        "II-curve-5-3": -3,
        "II-curve-6-1": 0,
        "II-curve-6-2": -1,
        "II-curve-6-3": -1,
    }


def test_serre_power_match_needs_matching_shape():
    a = link_script("II-curve-5-1")
    b = link_script("II-curve-6-1")
    assert serre_power_match(a.side1, (2, 3), b.side1, (2, 3), 12) is None


# -- refinements -----------------------------------------------------------------

def test_refinements_reach_standard_collections():
    for cid in ("REF-6-8", "REF-5-6", "REF-5-8"):
        cert = verify_link(cid)
        assert cert["verdict"] == VERDICT_OK, cid
        script = link_script(cid)
        final, _ = run_script(script.side1, script.moves, cid)
        assert collections_equal(final, script.side2, "UpToSignAndBlockPerm")
