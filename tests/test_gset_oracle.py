"""G-sets from the image table against the former stabilizer route.

The library records a transitive G-set by the permutations its generators
induce on the orbit, in a canonical numbering, and compares two by the
dataclass `==` (size, rows, generators).  The former route is kept here as
the oracle: the stabilizer of a member is scanned from the enumerated
group, and two G-sets of one group are isomorphic exactly when some h in
the group has h.A = B.h for their stabilizers A and B (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, ch. 4).  The exact orbit-stabilizer count,
which the library no longer makes, is checked here on every orbit.

The library also reads a G-set off the image table its orbit split built,
restricted to the orbit.  The former route, which rebuilt the table from the
orbit's members and, for a block orbit, from their c1, is kept here as the
reference.

The image table moves int tuples column by column, one product per matrix:
divisor coordinates under the generators, K-class vectors under the
generators bordered at rank and chi.  The former per-item table, which
moved each item by `apply_divisor_matrix` or `sigma_kclass` and told items
apart by a key, is kept here: both must give the same table, or the same
error type and text naming the same first item, on stable and unstable
class sets and on every K-class table of the atom and certificate calls of
tests/test_equivariant.py.  The moves per table are pinned, and no
per-item transport may run.

The former second equality, `gsets_equal`, and the former linear-scan
reduction of Burnside terms, `_reduce_terms`, are kept here too: `==` and
hash must agree with the first on every pair of G-sets built here, and the
one-dict reduction of `BurnsideElement` with the second on seeded step
lists, term order included.
"""

import operator
import random
from collections import Counter
from itertools import combinations_with_replacement, islice

import pytest
from hypothesis import HealthCheck, given, settings
from test_h1_oracle import ACTIONS, S4_P2_4, WEYL_A4_P2_4, weyl_caps, weyl_subgroups  # noqa: F401

from test_equivariant import BL2, BL3, BL4, F0, P2, hexagon_action, perm_matrix, weyl_action

from sodatlas import equivariant, intlinalg, ktheory
from sodatlas.catalog.core import MoriFibreSpace, standard_sod
from sodatlas.equivariant import (
    K_NEF,
    BurnsideElement,
    TransitiveGSet,
    atom_multiset,
    group_action,
    orbit_gset,
    orbits,
    permutation_basis_certificate,
)
from sodatlas.errors import ActionError, InputError
from sodatlas.lattice import SurfaceModel, apply_divisor_matrix


def _freeze(mat):
    return tuple(tuple(int(x) for x in row) for row in mat)


def stabilizer(action, d):
    """The former `_orbit_gset` scan: every element of the group fixing d."""
    return frozenset(g for g in action.elements if apply_divisor_matrix(action.surface, g, d) == d)


def conjugate(a, b, group):
    """The former `gsets_equal` test: some h in the group with h.A = B.h,
    that is h.A.h^-1 = B."""
    for h in group:
        left = frozenset(_freeze(intlinalg.mat_mul(h, s)) for s in a)
        if left == frozenset(_freeze(intlinalg.mat_mul(s, h)) for s in b):
            return True
    return False


def former_gsets_equal(a, b):
    """The former `gsets_equal`: equal sizes, and the same generators and
    canonical rows when both sets have rows; size-only otherwise."""
    if a.size != b.size:
        return False
    if a.rows is None or b.rows is None:
        return True
    return a.generators == b.generators and a.rows == b.rows


def former_reduce_terms(pairs, equal):
    """The former `_reduce_terms`, orbits told apart by `equal`: the first
    equal entry gathers each coefficient, zeros dropped on entry and exit."""
    out = []
    for coeff, gset in pairs:
        if coeff == 0:
            continue
        for entry in out:
            if equal(entry[1], gset):
                entry[0] += coeff
                break
        else:
            out.append([coeff, gset])
    return tuple((c, g) for c, g in out if c != 0)


def same_gsets(a, b):
    """`==` both ways agrees with the former `gsets_equal`, and equal sets
    hash equal."""
    verdict = a == b
    assert verdict == (b == a) == former_gsets_equal(a, b) == former_gsets_equal(b, a)
    assert not verdict or hash(a) == hash(b)
    return verdict


def orbit_members(action, classes, every_member=True):
    """(G-set of its orbit, stabilizer) for each member of the classes' orbits,
    or for the first member of each; checks the orbit-stabilizer count."""
    out = []
    for part in orbits(action, classes):
        gset = orbit_gset(action, part)
        assert gset.size == len(part)
        for d in part if every_member else part[:1]:
            stab = stabilizer(action, d)
            assert len(part) * len(stab) == action.order
            out.append((gset, stab))
    return out


def compare_pairs(action, members):
    """Checks both routes' verdict on each unordered pair of equal size, and
    counts the pairs by verdict."""
    verdicts = {True: 0, False: 0}
    for (a, stab_a), (b, stab_b) in combinations_with_replacement(members, 2):
        if a.size != b.size:
            assert not same_gsets(a, b)
            continue
        expected = conjugate(stab_a, stab_b, action.elements)
        assert same_gsets(a, b) == expected
        verdicts[expected] += 1
    return verdicts


# The group-h1 actions without the two Bertini ones (240 (-1)-classes each),
# and S4 on P2[4]; unordered pairs of (-1)-classes of equal orbit size,
# counted by (isomorphic, not isomorphic).
PAIRS = {
    "c3-p2-3": (21, 0),
    "s3-p2-3": (21, 0),
    "d4-p2-4": (23, 16),
    "a4-p2-4": (31, 0),
    "c6-p2-6": (126, 0),
    "c3xc3-p2-6": (135, 81),
    "s3xc2-p2-5": (48, 0),
    "hexagon-p2-3": (21, 0),
    "geiser-p2-7": (1596, 0),
    "geiser-swap-p2-7": (828, 0),
    "s4-p2-4": (31, 0),
    "weyl-a4-p2-4": (55, 0),
}


@pytest.mark.parametrize("name", PAIRS)
def test_benchmark_actions_agree_with_stabilizer_conjugacy(name):
    n, gens = {"s4-p2-4": S4_P2_4, "weyl-a4-p2-4": WEYL_A4_P2_4}.get(name) or ACTIONS[name]
    surface = SurfaceModel("P2", (n,))
    action = group_action(surface, gens)
    members = orbit_members(action, surface.enumerate_r_classes(-1))
    verdicts = compare_pairs(action, members)
    assert (verdicts[True], verdicts[False]) == PAIRS[name]


@settings(
    derandomize=True,
    max_examples=30,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(weyl_subgroups())
def test_weyl_subgroups_agree_with_stabilizer_conjugacy(weyl_caps, case):  # noqa: F811
    """One member per orbit of the (-1)-classes: the verdict is the same for
    every member of an orbit, as the stabilizers of one orbit are conjugate."""
    k, gens = case
    surface = SurfaceModel("P2", (k,))
    action = group_action(surface, gens)
    members = orbit_members(action, surface.enumerate_r_classes(-1), every_member=False)
    compare_pairs(action, members)


# -- the G-set restricted from the split's table -------------------------------

def former_gset(action, orbit):
    """The former `_orbit_gset`: the image table rebuilt from the orbit's
    members, each moved again by every generator."""
    index = {d.coords: i for i, d in enumerate(orbit)}
    rows = [
        [index[apply_divisor_matrix(action.surface, g, d).coords] for d in orbit]
        for g in action.generators
    ]
    return TransitiveGSet(len(orbit), rows, action.generators)


GROUP_ACTIONS = {**ACTIONS, "s4-p2-4": S4_P2_4, "weyl-a4-p2-4": WEYL_A4_P2_4}


@pytest.mark.parametrize("name", GROUP_ACTIONS)
def test_orbit_gsets_equal_the_rebuilt_table(name):
    n, gens = GROUP_ACTIONS[name]
    surface = SurfaceModel("P2", (n,))
    action = group_action(surface, gens)
    for part in orbits(action, surface.enumerate_r_classes(-1)):
        got, expected = orbit_gset(action, part), former_gset(action, part)
        assert (got.size, got.rows, got.generators) == (
            expected.size,
            expected.rows,
            expected.generators,
        )


def _swap_on_bl2():
    return group_action(BL2, [perm_matrix(3, {1: 2, 2: 1})])


def _cyclic_on_bl3():
    return group_action(BL3, [perm_matrix(4, {1: 2, 2: 3, 3: 1})])


def _trivial(surface):
    return group_action(surface, [])


S5 = SurfaceModel("P2", (5,))
S9 = SurfaceModel("P2", (9,))
F0_11 = SurfaceModel("F0", (1, 1))
RULING = MoriFibreSpace(F0, "RationalCurve", fibration_class=F0.basis_class("h"))

# The contractions `atom_multiset` is called on in tests/test_equivariant.py.
ATOM_CASES = {
    "c3-blown-to-plane": (BL3, _cyclic_on_bl3, [0, MoriFibreSpace(P2, "Point")]),
    "c3-direct": (BL3, _cyclic_on_bl3, [MoriFibreSpace(BL3, "Point")]),
    "degree-four": (S5, lambda: _trivial(S5), [MoriFibreSpace(S5, "Point")]),
    "weyl-degree-five": (BL4, weyl_action, [MoriFibreSpace(BL4, "Point")]),
    "k-nef": (S9, lambda: _trivial(S9), [K_NEF]),
    "swap-blown-pair": (BL2, _swap_on_bl2, [0, MoriFibreSpace(P2, "Point")]),
    "hexagon": (BL3, hexagon_action, [MoriFibreSpace(BL3, "Point")]),
    "plane": (P2, lambda: _trivial(P2), [MoriFibreSpace(P2, "Point")]),
    "ruled-two-blown": (F0_11, lambda: _trivial(F0_11), [0, 1, RULING]),
}


@pytest.mark.parametrize("name", ATOM_CASES)
def test_atom_gsets_equal_the_rebuilt_table(name):
    """Blown atoms carry their (-1)-classes as c1, and a block orbit's
    members are told apart by c1, as transport keeps rank and chi: so the
    former route rebuilt every atom's table from the c1 of its payload."""
    surface, make, contraction = ATOM_CASES[name]
    action = make()
    for atom in atom_multiset(surface, action, contraction):
        if atom.kind != "permutation":
            continue
        got, expected = atom.gset, former_gset(action, [c.c1 for c in atom.classes])
        assert (got.size, got.rows, got.generators) == (
            expected.size,
            expected.rows,
            expected.generators,
        )


@pytest.fixture
def transports(monkeypatch):
    """Counts per-item transports: divisors moved one by one, directly or
    through `sigma_kclass`, and K-classes moved through `sigma_kclass`."""
    calls = []

    def counted(transport):
        def moved(*args):
            calls.append(args)
            return transport(*args)

        return moved

    for module in (equivariant, ktheory):
        for name in ("apply_divisor_matrix", "sigma_kclass"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    return calls


@pytest.fixture
def tables(monkeypatch):
    """Records each `_image_table` call as (matrices, vectors, error), the
    matrices as the table consumed them: one column product each."""
    calls = []

    def recorded(matrices, vectors, error):
        consumed = []
        calls.append((consumed, vectors, error))

        def each():
            for m in matrices:
                consumed.append(m)
                yield m

        return IMAGE_TABLE(each(), vectors, error)

    monkeypatch.setattr(equivariant, "_image_table", recorded)
    return calls


def _moves(tables):
    """Vectors moved over all recorded tables: one column product per matrix
    moves every vector of its table once."""
    return sum(len(matrices) * len(vectors) for matrices, vectors, _ in tables)


def _weyl_a4():
    n, gens = WEYL_A4_P2_4
    surface = SurfaceModel("P2", (n,))
    return surface, group_action(surface, gens)


def test_orbit_gset_moves_each_class_once_per_generator(transports, tables):
    surface, action = _weyl_a4()
    minus = surface.enumerate_r_classes(-1)
    transports.clear()
    orbit_gset(action, minus)
    assert len(tables) == 1 and len(tables[0][0]) == 4  # one table, one product per generator
    assert _moves(tables) == 4 * 10  # four generators, ten (-1)-classes
    assert transports == []


def test_atoms_move_each_class_once_per_generator(transports, tables):
    surface, action = _weyl_a4()
    transports.clear()
    atom_multiset(surface, action, [MoriFibreSpace(surface, "Point")])
    assert all(len(matrices) == 4 for matrices, _, _ in tables)
    assert _moves(tables) == 4 * 7  # four generators, one block orbit of 5 and two of 1
    assert transports == []


def test_orbit_gset_refuses_two_orbits():
    with pytest.raises(ActionError, match="^expected a single orbit, found 2$"):
        orbit_gset(_trivial(BL2), BL2.exceptional_classes())


# -- the image table against the former per-item route ----------------------

IMAGE_TABLE = equivariant._image_table
UNSTABLE = "class set is not stable: generator moves {} outside the set"


def former_image_table(generators, items, key, move, error):
    """The former `_image_table`: `move(items[i], generators[t])` for each
    generator and item, items told apart by `key`.  The first image outside
    the items raises ActionError with `error`, its `{}` filled with the
    moved item's key."""
    index = {key(x): i for i, x in enumerate(items)}
    table = []
    for g in generators:
        row = []
        for x in items:
            j = index.get(key(move(x, g)))
            if j is None:
                raise ActionError(error.format(key(x)))
            row.append(j)
        table.append(row)
    return table


def _outcome(build, *args):
    """The table, or the type and text of the error it raised."""
    try:
        return build(*args)
    except (ActionError, InputError) as exc:
        return type(exc), str(exc)


def same_divisor_tables(action, classes):
    """Both routes on the sorted classes, as `_split` passes them."""
    pool = sorted(set(classes), key=lambda d: d.coords)
    expected = _outcome(
        former_image_table,
        action.generators,
        pool,
        lambda d: d.coords,
        lambda d, g: apply_divisor_matrix(action.surface, g, d),
        UNSTABLE,
    )
    assert _outcome(IMAGE_TABLE, action.generators, [d.coords for d in pool], UNSTABLE) == expected
    return expected


def divisor_tables_agree(action, orbits_checked=None):
    """The (-1)- and 0-classes, and each of them less the least one or two
    members of one orbit (not stable when that orbit has more members, and
    then a generator may move several classes out): equal tables, or equal
    error types and texts."""
    outcomes = Counter()
    for r in (-1, 0):
        classes = action.surface._r_classes_any_degree(r)
        outcomes[type(same_divisor_tables(action, classes))] += 1
        for part in orbits(action, classes)[:orbits_checked]:
            for dropped in (part[:1], part[:2]):
                outcomes[type(same_divisor_tables(action, set(classes) - set(dropped)))] += 1
    return outcomes


@pytest.mark.parametrize("name", GROUP_ACTIONS)
def test_divisor_tables_match_the_former_route(name):
    n, gens = GROUP_ACTIONS[name]
    surface = SurfaceModel("P2", (n,))
    outcomes = divisor_tables_agree(group_action(surface, gens), orbits_checked=12)
    assert outcomes[list] >= 2 and outcomes[tuple] >= 1  # stable and unstable sets both met


@settings(
    derandomize=True,
    max_examples=30,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(weyl_subgroups())
def test_divisor_tables_match_the_former_route_on_weyl_subgroups(weyl_caps, case):  # noqa: F811
    k, gens = case
    divisor_tables_agree(group_action(SurfaceModel("P2", (k,)), gens), orbits_checked=4)


def test_a_class_of_another_surface_is_named_as_before():
    action = _swap_on_bl2()
    for classes in ([BL3.basis_class("E1")], [BL2.basis_class("E1"), *BL3.exceptional_classes()]):
        assert same_divisor_tables(action, classes)[0] is ActionError


def _kclass_route(surface, generators, vectors, error):
    """The former route on the classes of `vectors`, moved by `sigma_kclass`."""
    items = [ktheory.class_from_vector(surface, v) for v in vectors]
    return _outcome(former_image_table, generators, items, lambda c: c.vector, ktheory.sigma_kclass, error)


def _ruling_swap():
    return F0, group_action(F0, [perm_matrix(2, {0: 1, 1: 0})]), [RULING]


def _reflection_on_f0_11():
    return group_action(F0_11, [[[1, 1, 1, 1], [0, 1, 0, 0], [0, -1, 0, -1], [0, -1, -1, 0]]])


# The certificate calls of tests/test_equivariant.py: (atom case, action of
# the certificate, or None for the atoms' own action).
CERTIFICATE_CASES = {
    "plane": ("plane", None),
    "blown-pair": ("swap-blown-pair", None),
    "hexagon": ("hexagon", None),
    "basis-moved-off": ("ruled-two-blown", _reflection_on_f0_11),
    "generator-of-another-surface": ("plane", _swap_on_bl2),
}


def _kclass_tables(tables, surface, generators):
    """The recorded K-class tables against the former route: the table saw
    the generators bordered for K-classes, and gives the former table, or
    its error type and text."""
    checked = 0
    for matrices, vectors, error in tables:
        if vectors and len(vectors[0]) != surface.picard_rank + 2:
            continue  # a blown orbit's divisor table
        bordered = list(islice(equivariant._on_kclasses(surface, generators), len(matrices)))
        assert matrices == bordered
        expected = _kclass_route(surface, generators, vectors, error)
        got = _outcome(IMAGE_TABLE, equivariant._on_kclasses(surface, generators), vectors, error)
        assert got == expected
        checked += 1
    return checked


def _block_tables(name, terminal):
    """K-class tables an `atom_multiset` call builds: one per block that is
    not opaque, up to the first block the action moves."""
    if name == "k-nef":
        return 0
    if name == "ruling-swap":
        return 2  # the ruling swap exchanges the two middle blocks
    return sum(not b.opaque for b in standard_sod(terminal).blocks)


@pytest.mark.parametrize("name", [*ATOM_CASES, "ruling-swap"])
def test_atom_block_tables_match_the_former_route(name, tables):
    if name == "ruling-swap":
        surface, action, contraction = _ruling_swap()
    else:
        surface, make, contraction = ATOM_CASES[name]
        action = make()
    outcome = _outcome(atom_multiset, surface, action, contraction)
    checked = _kclass_tables(tables, surface, action.generators)
    assert checked == _block_tables(name, contraction[-1])
    if name == "ruling-swap":
        assert outcome == (ActionError, "minimal-model block is not invariant under the action")


@pytest.mark.parametrize("name", CERTIFICATE_CASES)
def test_certificate_tables_match_the_former_route(name, tables):
    atom_case, other = CERTIFICATE_CASES[name]
    surface, make, contraction = ATOM_CASES[atom_case]
    atoms = atom_multiset(surface, make(), contraction)
    action = other() if other else make()
    tables.clear()
    outcome = _outcome(permutation_basis_certificate, surface, atoms, action)
    generators = action.generators or (equivariant._identity(surface.picard_rank),)
    assert _kclass_tables(tables, surface, generators) == 1
    if name == "basis-moved-off":
        assert outcome == (ActionError, "a generator moves a basis object off the basis")
    if name == "generator-of-another-surface":
        assert outcome == (InputError, "expected 1 coefficients, got 3")


# -- the Burnside reduction against the former linear scan ---------------------

def _gset_pool():
    """Every (-1)-class orbit G-set of the actions above, listed once per
    member, so equal G-sets recur; the actions' G-sets never compare equal
    across actions."""
    pool = []
    for name in ("s3-p2-3", "d4-p2-4", "c3xc3-p2-6", "s4-p2-4", "weyl-a4-p2-4"):
        n, gens = GROUP_ACTIONS[name]
        surface = SurfaceModel("P2", (n,))
        action = group_action(surface, gens)
        pool.extend(gset for gset, _ in orbit_members(action, surface.enumerate_r_classes(-1)))
    return pool


def _random_terms(rng, orbits_pool):
    return [(rng.randint(-2, 2), rng.choice(orbits_pool)) for _ in range(rng.randint(0, 14))]


@pytest.mark.parametrize("kind", ["gsets", "sizes"])
def test_burnside_reduction_matches_the_former_scan(kind):
    if kind == "gsets":
        pool, equal = _gset_pool(), former_gsets_equal
    else:
        pool, equal = list(range(1, 7)), operator.eq
    rng = random.Random(f"burnside-{kind}")
    for _ in range(300):
        terms = _random_terms(rng, pool)
        element = BurnsideElement(tuple(terms))
        assert element.terms == former_reduce_terms(terms, equal)
        shuffled = terms[:]
        rng.shuffle(shuffled)
        other = BurnsideElement(tuple(shuffled))
        assert other == element and hash(other) == hash(element)
        assert (element == BurnsideElement()) == (not element.terms)
