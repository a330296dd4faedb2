"""Embedded acceptance suite.

Twelve independent checks covering the whole library: class counts,
catalog replay, Serre-power identities, Euler-form oracles, mutation
group laws, the golden link classification, the equivariant examples,
the arithmetic profiles, and a small search exercise.  Each check
returns a one-line summary and raises VerificationError on failure, so
the suite double-functions as the `selftest` subcommand and as the
backing for tests/test_acceptance.py.
"""

from __future__ import annotations

import random
import time
from typing import Callable

from . import intlinalg
from .arithmetic import (
    builtin_profiles,
    dam_order,
    index_formula_check,
    is_rational_profile,
    is_rich_profile,
)
from .catalog.core import (
    LinkDescriptor,
    MoriFibreSpace,
    e_bundle_class,
    standard_sod,
    validate_link,
)
from .catalog.scripts import catalog_ids, link_script, verify_link
from .equivariant import (
    burnside_invariant,
    group_action,
    h1_cyclic,
    h1_lattice,
    invariant_rank,
    atom_multiset,
    orbit_gset,
    orbits,
    permutation_basis_certificate,
)
from .errors import VerificationError
from .ktheory import (
    KClass,
    chi_line_bundle,
    euler_pairing,
    line_bundle_class,
    serre_class,
    twist,
)
from .lattice import SurfaceModel
from .mutation import (
    VERDICT_OK,
    Move,
    MoveError,
    apply_move,
    collection_of_classes,
    search_path,
    subcategory_serre_matrix,
)

_SEED = 20260816


def _ensure(cond: bool, message: str) -> None:
    if not cond:
        raise VerificationError(message)


def _perm_matrix(n: int, mapping: dict[int, int]) -> list[list[int]]:
    mat = [[0] * n for _ in range(n)]
    for j in range(n):
        mat[mapping.get(j, j)][j] = 1
    return mat


# column matrices: image of the basis vector j sits in column j
_HEX_ROT = [[2, 1, 1, 1], [-1, -1, 0, -1], [-1, -1, -1, 0], [-1, 0, -1, -1]]
_CREMONA = [
    [2, 1, 1, 1, 0],
    [-1, 0, -1, -1, 0],
    [-1, -1, 0, -1, 0],
    [-1, -1, -1, 0, 0],
    [0, 0, 0, 0, 1],
]


# -- 1: class counts ----------------------------------------------------------

_COUNT_TABLE = {
    # describe() -> {r: count}
    "P2": {-1: 0, 0: 0, 1: 1},
    "F0": {-1: 0, 0: 2, 1: 0},
    "P2[2]": {-1: 3, 0: 2, 1: 1},
    "P2[3]": {-1: 6, 0: 3, 1: 2},
    "P2[4]": {-1: 10, 0: 5, 1: 5},
}


def criterion_1() -> str:
    """Low-square class counts on the degree >= 5 models."""
    start = time.monotonic()
    surfaces = [
        SurfaceModel("P2", ()),
        SurfaceModel("F0", ()),
        SurfaceModel("P2", (2,)),
        SurfaceModel("P2", (3,)),
        SurfaceModel("P2", (4,)),
    ]
    checked = 0
    for s in surfaces:
        for r, expected in _COUNT_TABLE[s.describe()].items():
            got = len(s.enumerate_r_classes(r))
            _ensure(
                got == expected,
                f"{s.describe()} r={r}: found {got} classes, expected {expected}",
            )
            checked += 1
    elapsed = time.monotonic() - start
    _ensure(elapsed < 1.0, f"count enumeration took {elapsed:.2f}s (budget 1s)")
    return f"{checked} counts match in {int(elapsed * 1000)} ms"


# -- 2: catalog replay --------------------------------------------------------

def criterion_2() -> str:
    """Every stored link script replays with a clean certificate."""
    start = time.monotonic()
    ids = catalog_ids()
    for case in ids:
        cert = verify_link(case)
        _ensure(cert["verdict"] == VERDICT_OK, f"{case}: verdict {cert['verdict']!r}")
        for record in cert["steps"]:
            _ensure(record["ok"], f"{case}: step {record['step']} failed")
    elapsed = time.monotonic() - start
    _ensure(elapsed < 10.0, f"catalog replay took {elapsed:.2f}s (budget 10s)")
    return f"{len(ids)} links verified in {elapsed:.2f}s"


# -- 3: Serre powers against the stored involutions ---------------------------

def criterion_3() -> str:
    """Serre power = minus the involution on the complement of O, fibre
    classes exchanged on the rank-change links, and a finite Serre power
    matching the far side over a curve: the post records of each replay,
    with the cube on degree-1 roofs, the square on degree-2 roofs and
    |N| <= 12 over a curve."""
    seen = {"deg1": 0, "deg2": 0, "dual": 0, "match": 0}
    for case in catalog_ids():
        script = link_script(case)
        if not script.posts:
            continue
        records = verify_link(case)["steps"][-len(script.posts) :]
        for post, record in zip(script.posts, records):
            _ensure(record["move"] == post.label and record["ok"], f"{case}: {post.label} failed")
            if post.kind == "serre-inv":
                want = 3 if script.roof.degree == 1 else 2
                _ensure(
                    post.power == want,
                    f"{case}: power {post.power} on a degree-{script.roof.degree} roof",
                )
                seen["deg1" if script.roof.degree == 1 else "deg2"] += 1
            elif post.kind == "sigma-dual":
                seen["dual"] += 1
            else:
                _ensure(post.power <= 12, f"{case}: Serre power bound {post.power} above 12")
                seen["match"] += 1
    _ensure(seen["deg1"] >= 1, "no degree-1 roof exercised the cube identity")
    _ensure(seen["deg2"] >= 1, "no degree-2 roof exercised the square identity")
    _ensure(seen["dual"] == 2, f"expected 2 fibre-exchange checks, ran {seen['dual']}")
    _ensure(seen["match"] >= 6, f"expected >= 6 over-curve matches, ran {seen['match']}")
    return (
        f"{seen['deg1']} cube + {seen['deg2']} square identities, "
        f"{seen['dual']} fibre swaps, {seen['match']} curve matches"
    )


# -- 4: Euler-form oracles ----------------------------------------------------

def _catalog_surfaces() -> list[SurfaceModel]:
    seen: dict[str, SurfaceModel] = {}
    for case in catalog_ids():
        roof = link_script(case).roof
        seen.setdefault(roof.describe(), roof)
    return [seen[k] for k in sorted(seen)]


def criterion_4() -> str:
    """Pairing of line classes reduces to a single Euler characteristic,
    and the Serre class swaps the pairing's arguments."""
    rng = random.Random(_SEED)
    surfaces = _catalog_surfaces()
    pairs = 0
    for s in surfaces:
        n = s.picard_rank
        for _ in range(1000):
            d1 = s.divisor(tuple(rng.randint(-4, 4) for _ in range(n)))
            d2 = s.divisor(tuple(rng.randint(-4, 4) for _ in range(n)))
            lhs = euler_pairing(line_bundle_class(s, d1), line_bundle_class(s, d2))
            _ensure(
                lhs == chi_line_bundle(s, d2 - d1),
                f"{s.describe()}: line pairing broke at {d1.coords} vs {d2.coords}",
            )
            pairs += 1
        for _ in range(1000):
            a = KClass(
                s,
                rng.randint(-3, 3),
                s.divisor(tuple(rng.randint(-3, 3) for _ in range(n))),
                rng.randint(-5, 5),
            )
            b = KClass(
                s,
                rng.randint(-3, 3),
                s.divisor(tuple(rng.randint(-3, 3) for _ in range(n))),
                rng.randint(-5, 5),
            )
            _ensure(
                euler_pairing(a, b) == euler_pairing(b, serre_class(a)),
                f"{s.describe()}: Serre swap broke",
            )
            pairs += 1
    return f"{pairs} pairings on {len(surfaces)} surfaces"


# -- 5: full-collection Serre matrix = twist by K -----------------------------

def _rich_standard_collections():
    p2 = SurfaceModel("P2", ())
    f0 = SurfaceModel("F0", ())
    bl3 = SurfaceModel("P2", (3,))
    bl4 = SurfaceModel("P2", (4,))
    spaces = [
        MoriFibreSpace(p2, "Point"),
        MoriFibreSpace(f0, "Point"),
        MoriFibreSpace(bl3, "Point"),
        MoriFibreSpace(bl4, "Point"),
        MoriFibreSpace(f0, "RationalCurve", fibration_class=f0.divisor((0, 1))),
        MoriFibreSpace(bl3, "RationalCurve", fibration_class=bl3.divisor((1, -1, 0, 0))),
        MoriFibreSpace(bl4, "RationalCurve", fibration_class=bl4.divisor((1, -1, 0, 0, 0))),
    ]
    return [standard_sod(m) for m in spaces]


def criterion_5() -> str:
    """On every opaque-free standard collection the full Serre matrix is
    the matrix of twisting by the canonical class."""
    p2 = SurfaceModel("P2", ())
    beilinson = collection_of_classes(
        p2,
        [
            [line_bundle_class(p2, -2 * p2.divisor((1,)))],
            [line_bundle_class(p2, -1 * p2.divisor((1,)))],
            [line_bundle_class(p2, 0 * p2.divisor((1,)))],
        ],
    )
    collections = [beilinson] + _rich_standard_collections()
    for coll in collections:
        _ensure(
            not any(b.opaque for b in coll.blocks),
            f"{coll.surface.describe()}: collection is not opaque-free",
        )
        # Column j of S is the image of the j-th class, so the rows of S^T V
        # are the images' class vectors (V: the classes' vectors, row by row).
        serre_t = intlinalg.transpose(subcategory_serre_matrix(coll, None))
        vectors = [list(c.vector) for c in coll.classes()]
        twisted = [list(twist(c, coll.surface.canonical).vector) for c in coll.classes()]
        _ensure(
            intlinalg.mat_mul(serre_t, vectors) == twisted,
            f"{coll.surface.describe()}: Serre matrix differs from the K-twist",
        )
    return f"{len(collections)} collections checked"


# -- 6: the rank-2 bundle class on the degree-5 model -------------------------

def criterion_6() -> str:
    """Five ruling pairs, one class; unit self-pairing; canonical c1."""
    s = SurfaceModel("P2", (4,))
    e = e_bundle_class(s)  # raises if the five pairs disagree
    _ensure(e.rank == 2, f"rank {e.rank} != 2")
    _ensure(e.c1 == s.canonical, "c1 is not the canonical class")
    chi_self = euler_pairing(e, e)
    _ensure(chi_self == 1, f"self-pairing {chi_self} != 1")
    return "five ruling pairs agree, chi(E,E)=1, c1=K"


# -- 7: mutation group laws ---------------------------------------------------

def _move_pool():
    pool = [standard_sod(MoriFibreSpace(SurfaceModel("P2", ()), "Point"))]
    pool.extend(_rich_standard_collections())
    for case in catalog_ids():
        pool.append(link_script(case).side1)
    return pool


def criterion_7() -> str:
    """Left then right mutation at the same junction restores the
    collection; the two helix turns are inverse."""
    rng = random.Random(_SEED)
    pool = _move_pool()
    done = 0
    attempts = 0
    while done < 200:
        attempts += 1
        _ensure(attempts < 5000, "could not find 200 legal mutation sites")
        coll = rng.choice(pool)
        n = len(coll.blocks)
        if n < 2:
            continue
        i = rng.randint(2, n)
        try:
            once = apply_move(coll, Move("L", index=i))
            back = apply_move(once, Move("R", index=i - 1))
        except MoveError:
            continue
        _ensure(
            back == coll,
            f"L {i} then R {i - 1} did not restore a {coll.surface.describe()} collection",
        )
        done += 1
    for coll in pool:
        turned = apply_move(apply_move(coll, Move("helix-")), Move("helix+"))
        _ensure(
            turned == coll,
            f"helix turn is not the identity on {coll.surface.describe()}",
        )
    return f"200 L/R round trips, {len(pool)} helix round trips"


# -- 8: stored refinement scripts ---------------------------------------------

def criterion_8() -> str:
    """The three contraction refinements replay."""
    for case in ("REF-6-8", "REF-5-6", "REF-5-8"):
        cert = verify_link(case)
        _ensure(cert["verdict"] == VERDICT_OK, f"{case}: verdict {cert['verdict']!r}")
    return "refinements REF-6-8, REF-5-6, REF-5-8 replay"


# -- 9: the golden link list --------------------------------------------------

_GOLDEN = (
    [LinkDescriptor("I", d) for d in ((9, 8), (9, 5), (8, 6), (4, 3))]
    + [LinkDescriptor("III", d) for d in ((8, 9), (5, 9), (6, 8), (3, 4))]
    + [LinkDescriptor("II", (d, 1, d)) for d in (9, 8, 6, 5, 4, 3, 2)]
    + [LinkDescriptor("II", (d, 2, d)) for d in (9, 8, 6, 5, 4, 3)]
    + [
        LinkDescriptor("II", d)
        for d in ((9, 6, 9), (9, 3, 9), (8, 4, 8), (6, 4, 6), (6, 3, 6))
    ]
    + [LinkDescriptor("II", d) for d in ((9, 7, 8), (9, 4, 5), (8, 5, 6), (8, 3, 5))]
    + [LinkDescriptor("II", d) for d in ((8, 7, 9), (5, 4, 9), (6, 5, 8), (5, 3, 8))]
    + [LinkDescriptor("IV", (d,)) for d in (1, 2, 4, 8)]
    + [
        LinkDescriptor("II", d, base="Curve")
        for d in ((8, 8), (6, 6), (5, 5), (3, 3), (6, 4, 6), (5, 1, 5), (8, 5, 8))
    ]
)

_CURATED_MISSES = (
    LinkDescriptor("I", (9, 7)),
    LinkDescriptor("II", (7, 1, 7)),
    LinkDescriptor("II", (8, 2, 9)),
    LinkDescriptor("II", (9, 2)),
    LinkDescriptor("IV", (3,)),
    LinkDescriptor("II", (9, 9), base="Curve"),
    LinkDescriptor("II", (6, 6, 6), base="Curve"),
)


def criterion_9() -> str:
    """Classification membership: the known list passes, near misses fail."""
    for d in _GOLDEN:
        _ensure(validate_link(d), f"golden descriptor rejected: {d}")
    for d in _CURATED_MISSES:
        _ensure(not validate_link(d), f"curated near miss accepted: {d}")
    rng = random.Random(_SEED)
    golden_keys = {(d.link_type, tuple(d.degrees), d.base) for d in _GOLDEN}
    rejected = 0
    while rejected < 50:
        t = rng.choice(["I", "II", "III", "IV"])
        n = rng.choice([1, 2, 3])
        degs = tuple(rng.randint(1, 9) for _ in range(n))
        base = rng.choice(["Point", "Curve"]) if t == "II" else "Point"
        if (t, degs, base) in golden_keys:
            continue
        if validate_link(LinkDescriptor(t, degs, base=base)):
            continue  # a lawful member outside the sampled list, not a near miss
        rejected += 1
    return f"{len(_GOLDEN)} accepted, {len(_CURATED_MISSES)} + 50 rejected"


# -- 10: the equivariant example suite ----------------------------------------

def criterion_10() -> str:
    """Fixed ranks, orbit shapes, cohomology and certificates on the
    worked symmetry examples."""
    p2 = SurfaceModel("P2", ())
    bl2 = SurfaceModel("P2", (2,))
    bl3 = SurfaceModel("P2", (3,))
    bl4 = SurfaceModel("P2", (4,))

    _ensure(invariant_rank(group_action(bl3, [])) == 4, "trivial action rank != 4")
    swap2 = group_action(bl2, [_perm_matrix(3, {1: 2, 2: 1})])
    _ensure(invariant_rank(swap2) == 2, "two-point swap rank != 2")
    swap3 = group_action(bl3, [_perm_matrix(4, {1: 2, 2: 1})])
    _ensure(invariant_rank(swap3) == 3, "swap with a spectator point rank != 3")

    hexagon = group_action(bl3, [_HEX_ROT, _perm_matrix(4, {1: 2, 2: 1})])
    _ensure(hexagon.order == 12, f"hexagon symmetry order {hexagon.order} != 12")
    _ensure(invariant_rank(hexagon) == 1, "hexagon invariant rank != 1")

    weyl = group_action(
        bl4,
        [
            _perm_matrix(5, {1: 2, 2: 1}),
            _perm_matrix(5, {2: 3, 3: 2}),
            _perm_matrix(5, {3: 4, 4: 3}),
            _CREMONA,
        ],
    )
    _ensure(weyl.order == 120, f"lattice Weyl group order {weyl.order} != 120")
    parts = orbits(weyl, bl4.enumerate_r_classes(-1))
    _ensure(
        sorted(len(p) for p in parts) == [10],
        "the ten contractible classes do not form one orbit",
    )

    _ensure(h1_lattice([[[-1]]]) == [2], "sign action on a line: H1 != Z/2")
    _ensure(h1_cyclic([[-1]]) == [2], "sign action, cyclic route: H1 != Z/2")
    swap_mat = _perm_matrix(2, {0: 1, 1: 0})
    _ensure(h1_lattice([swap_mat]) == [], "rank-2 swap module: H1 != 0")
    _ensure(h1_cyclic(swap_mat) == [], "rank-2 swap module, cyclic route: H1 != 0")

    certs = []
    for surface, action, contraction in (
        (p2, group_action(p2, []), [MoriFibreSpace(p2, "Point")]),
        (bl2, swap2, [0, MoriFibreSpace(p2, "Point")]),
        (bl3, hexagon, [MoriFibreSpace(bl3, "Point")]),
    ):
        atoms = atom_multiset(surface, action, contraction)
        cert = permutation_basis_certificate(surface, atoms, action)
        _ensure(
            h1_lattice(cert["matrices"]) == [],
            f"certified permutation module on {surface.describe()} has H1 != 0",
        )
        certs.append(cert["size"])

    z = orbit_gset(swap2, bl2.exceptional_classes())
    _ensure(
        burnside_invariant([("BlowUp", z), ("BlowDown", z)]).is_zero(),
        "palindromic step list has nonzero invariant",
    )
    up = burnside_invariant([("BlowUp", z)])
    _ensure(up.terms == ((-1, z),), "single blow-up is not minus the orbit class")
    return f"ranks, orbits, H1 and certificates (sizes {certs}) reproduce"


# -- 11: arithmetic profiles --------------------------------------------------

def criterion_11() -> str:
    """Index formula and the rationality/richness predicates on the
    bundled profiles."""
    profiles = builtin_profiles()
    expected_orders = {
        "severi-brauer-nonsplit": 9,
        "minimal-degree8": 8,
        "conic-product": 8,
    }
    for name, order in expected_orders.items():
        p = profiles[name]
        _ensure(index_formula_check(p), f"{name}: index formula fails")
        _ensure(dam_order(p) == order, f"{name}: decomposition order != {order}")
        _ensure(is_rich_profile(p), f"{name}: expected a rich profile")
        _ensure(not is_rational_profile(p), f"{name}: nontrivial atoms, not rational")
    return f"{len(expected_orders)} profiles satisfy the index formula"


# -- 12: search sanity --------------------------------------------------------

def criterion_12() -> str:
    """The search engine finds the twist-by-one rewriting on the plane."""
    start_t = time.monotonic()
    p2 = SurfaceModel("P2", ())
    h = p2.divisor((1,))
    start = collection_of_classes(
        p2,
        [
            [line_bundle_class(p2, -2 * h)],
            [line_bundle_class(p2, -1 * h)],
            [line_bundle_class(p2, 0 * h)],
        ],
    )
    goal = collection_of_classes(
        p2, [[twist(o.cls, -1 * h)] for blk in start.blocks for o in blk.objects]
    )
    path = search_path(start, goal, max_depth=4)
    elapsed = time.monotonic() - start_t
    _ensure(path is not None, "no path between the twisted collections within depth 4")
    _ensure(elapsed < 1.0, f"search took {elapsed:.2f}s (budget 1s)")
    return f"path of {len(path)} move(s) found in {int(elapsed * 1000)} ms"


# -- driver -------------------------------------------------------------------

CRITERIA: tuple[tuple[int, str, Callable[[], str]], ...] = (
    (1, "class-count table", criterion_1),
    (2, "catalog replay", criterion_2),
    (3, "Serre-power identities", criterion_3),
    (4, "Euler-form oracles", criterion_4),
    (5, "full-collection Serre twist", criterion_5),
    (6, "degree-5 bundle class", criterion_6),
    (7, "mutation group laws", criterion_7),
    (8, "refinement scripts", criterion_8),
    (9, "link classification", criterion_9),
    (10, "equivariant examples", criterion_10),
    (11, "arithmetic profiles", criterion_11),
    (12, "search sanity", criterion_12),
)


def run_all(emit=print) -> bool:
    ok = True
    for number, name, check in CRITERIA:
        try:
            detail = check()
        except Exception as exc:  # noqa: BLE001 - every failure becomes a FAIL line
            emit(f"FAIL {number:2d} {name}: {exc}")
            ok = False
        else:
            emit(f"PASS {number:2d} {name}: {detail}")
    return ok
