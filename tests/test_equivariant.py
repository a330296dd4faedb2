"""Group actions on Picard lattices: closure, orbits, atoms, H^1, Burnside."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodatlas import equivariant, intlinalg
from sodatlas.catalog.core import MoriFibreSpace
from sodatlas.equivariant import (
    Atom,
    BurnsideElement,
    K_NEF,
    TransitiveGSet,
    atom_multiset,
    burnside_invariant,
    group_action,
    h1_cyclic,
    h1_lattice,
    h1_picard,
    invariant_rank,
    minimality_proxy,
    opaque_atom,
    orbit_gset,
    orbits,
    permutation_basis_certificate,
    permutation_atom,
)
from sodatlas.errors import ActionError, InputError, UnsupportedRangeError
from sodatlas.lattice import SurfaceModel, apply_divisor_matrix
from sodatlas.textio import render_kclass

P2 = SurfaceModel("P2")
BL2 = SurfaceModel("P2", (2,))
BL3 = SurfaceModel("P2", (3,))
BL4 = SurfaceModel("P2", (4,))
F0 = SurfaceModel("F0")


def perm_matrix(n, mapping):
    """Basis permutation sending index src to index dst, rest fixed."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for src, dst in mapping.items():
        for i in range(n):
            m[i][src] = 1 if i == dst else 0
    return m


# Rotation of the hexagon of (-1)-classes on the degree-6 model: a lattice
# isometry of order 6 fixing K, computed from the images of E1..E3 and the
# requirement that K stay put.
HEX_ROT = [
    [2, 1, 1, 1],
    [-1, -1, 0, -1],
    [-1, -1, -1, 0],
    [-1, 0, -1, -1],
]

# Quadratic involution centered at the first three points of the degree-5
# model: swaps E_i with the line through the other two, fixes E4.
CREMONA = [
    [2, 1, 1, 1, 0],
    [-1, 0, -1, -1, 0],
    [-1, -1, 0, -1, 0],
    [-1, -1, -1, 0, 0],
    [0, 0, 0, 0, 1],
]


def orders_of(action):
    """Multiplicative order of each element of the closed group."""
    n = len(action.elements[0])
    one = [[int(i == j) for j in range(n)] for i in range(n)]
    orders = []
    for m in action.elements:
        p, k = [list(row) for row in m], 1
        while p != one:
            p = [[sum(m[i][t] * p[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
            k += 1
            assert k <= action.order
        orders.append(k)
    return orders


def hexagon_action():
    return group_action(BL3, [HEX_ROT, perm_matrix(4, {1: 2, 2: 1})])


def weyl_action():
    gens = [
        perm_matrix(5, {1: 2, 2: 1}),
        perm_matrix(5, {2: 3, 3: 2}),
        perm_matrix(5, {3: 4, 4: 3}),
        CREMONA,
    ]
    return group_action(BL4, gens)


# -- construction and validation ------------------------------------------------

def test_trivial_action_has_one_element():
    a = group_action(BL3, [])
    assert a.order == 1
    assert orders_of(a) == [1]


def test_generator_must_preserve_the_form():
    with pytest.raises(ActionError):
        group_action(P2, [[[2]]])


def test_generator_must_fix_the_canonical_class():
    # -1 on the rank-1 lattice preserves the form but negates K
    with pytest.raises(ActionError):
        group_action(P2, [[[-1]]])


def test_generator_shape_checked():
    with pytest.raises(ActionError):
        group_action(BL2, [[[1, 0], [0, 1]]])


def test_closure_cap_enforced(monkeypatch):
    gens = [
        perm_matrix(5, {1: 2, 2: 1}),
        perm_matrix(5, {2: 3, 3: 2}),
        perm_matrix(5, {3: 4, 4: 3}),
        CREMONA,
    ]
    monkeypatch.setattr(equivariant, "DEFAULT_CLOSURE_CAP", 50)
    with pytest.raises(ActionError):
        group_action(BL4, gens)


def test_hexagon_closure_is_dihedral_of_order_12():
    a = hexagon_action()
    assert a.order == 12
    assert sorted(orders_of(a)) == [1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 6, 6]


def test_weyl_closure_has_order_120():
    assert weyl_action().order == 120


# -- fixed sublattice -------------------------------------------------------------

def test_invariant_rank_of_trivial_group_is_full():
    assert invariant_rank(group_action(BL3, [])) == 4


def test_invariant_rank_of_the_swap():
    # On the two-point blow-up the swap fixes H and E1+E2: rank 2.  Keeping a
    # third basis point fixed adds one, giving the rank-3 fixed space.
    swap2 = group_action(BL2, [perm_matrix(3, {1: 2, 2: 1})])
    assert invariant_rank(swap2) == 2
    swap3 = group_action(BL3, [perm_matrix(4, {1: 2, 2: 1})])
    assert invariant_rank(swap3) == 3


def test_invariant_rank_of_the_hexagon_action_is_one():
    assert invariant_rank(hexagon_action()) == 1


TRANSPOSITIONS = [
    perm_matrix(5, {1: 2, 2: 1}),
    perm_matrix(5, {2: 3, 3: 2}),
    perm_matrix(5, {3: 4, 4: 3}),
    perm_matrix(5, {1: 4, 4: 1}),
    CREMONA,
]


@settings(max_examples=40, deadline=None)
@given(
    picks=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
    extra=st.integers(min_value=0, max_value=4),
)
def test_invariant_rank_monotone_under_more_generators(picks, extra):
    gens = [TRANSPOSITIONS[i] for i in picks]
    small = group_action(BL4, gens)
    large = group_action(BL4, gens + [TRANSPOSITIONS[extra]])
    assert invariant_rank(large) <= invariant_rank(small)


# -- orbits -----------------------------------------------------------------------

def test_orbits_of_trivial_group_are_singletons():
    es = BL3.exceptional_classes()
    assert orbits(group_action(BL3, []), es) == tuple((e,) for e in sorted(es, key=lambda d: d.coords))


def test_swap_orbit_has_size_two():
    a = group_action(BL2, [perm_matrix(3, {1: 2, 2: 1})])
    parts = orbits(a, BL2.exceptional_classes())
    assert [len(p) for p in parts] == [2]


@pytest.mark.parametrize("gens", [[], [perm_matrix(3, {1: 2, 2: 1})]], ids=["trivial", "swap"])
def test_orbits_refuse_a_class_of_another_surface(gens):
    action = group_action(BL2, gens)
    foreign = BL3.basis_class("E1")
    for split in (orbits, orbit_gset):
        with pytest.raises(ActionError, match=r"^class \(0, 1, 0, 0\) does not live on P2\[2\]$"):
            split(action, [foreign])
        with pytest.raises(ActionError, match="does not live on P2"):
            split(action, [*BL2.exceptional_classes(), foreign])


def test_weyl_action_is_transitive_on_the_ten_minus_one_classes():
    a = weyl_action()
    minus = a.surface.enumerate_r_classes(-1)
    assert len(minus) == 10
    parts = orbits(a, minus)
    assert [len(p) for p in parts] == [10]


def _unstable_orbits():
    a = group_action(BL2, [perm_matrix(3, {1: 2, 2: 1})])
    orbits(a, [BL2.basis_class("E1")])


def _unstable_block():
    # the ruling swap exchanges the two middle blocks of the conic bundle
    swap = group_action(F0, [perm_matrix(2, {0: 1, 1: 0})])
    ruling = MoriFibreSpace(F0, "RationalCurve", fibration_class=F0.basis_class("h"))
    atom_multiset(F0, swap, [ruling])


def _basis_moved_off():
    # atoms read off under the trivial action; the reflection in s - E1 - E2
    # sends O(-h) to a class outside their basis
    surface = SurfaceModel("F0", (1, 1))
    ruling = MoriFibreSpace(F0, "RationalCurve", fibration_class=F0.basis_class("h"))
    atoms = atom_multiset(surface, group_action(surface, []), [0, 1, ruling])
    reflection = [[1, 1, 1, 1], [0, 1, 0, 0], [0, -1, 0, -1], [0, -1, -1, 0]]
    permutation_basis_certificate(surface, atoms, group_action(surface, [reflection]))


@pytest.mark.parametrize(
    "call, message",
    [
        (_unstable_orbits, "class set is not stable: generator moves (0, 1, 0) outside the set"),
        (_unstable_block, "minimal-model block is not invariant under the action"),
        (_basis_moved_off, "a generator moves a basis object off the basis"),
    ],
    ids=["orbits", "atom-block", "certificate"],
)
def test_unstable_items_raise_the_callers_action_error(call, message):
    with pytest.raises(ActionError) as caught:
        call()
    assert type(caught.value) is ActionError
    assert str(caught.value) == message


# -- transitive G-sets and the Burnside sum ------------------------------------------

@pytest.mark.parametrize(
    "size, rows, message",
    [
        (2, ((0, 0),), "G-set rows must permute the points"),  # not a bijection
        (2, ((0, 1, 2),), "G-set rows must permute the points"),  # a third point
        (3, ((1, 0),), "G-set rows must permute the points"),  # a point missing
        (2, ((0, 1),), "G-set rows are not transitive"),  # the trivial action on two points
        (4, ((1, 0, 3, 2), (1, 0, 2, 3)), "G-set rows are not transitive"),  # two orbits
        (2, (), "G-set rows are not transitive"),  # no generator
    ],
)
def test_gset_rows_must_be_transitive_permutations(size, rows, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        TransitiveGSet(size, rows)


def test_gset_rows_are_kept_in_the_least_breadth_first_numbering():
    # a 3-cycle and a transposition on three points, numbered two ways
    a = TransitiveGSet(3, ((1, 2, 0), (1, 0, 2)))
    b = TransitiveGSet(3, ((1, 2, 0), (0, 2, 1)))
    assert a.rows == b.rows == ((1, 2, 0), (0, 2, 1))
    assert TransitiveGSet(1, ()).rows == ()


def test_orbit_gset_records_size_and_rows():
    a = group_action(BL2, [perm_matrix(3, {1: 2, 2: 1})])
    z = orbit_gset(a, BL2.exceptional_classes())
    assert z.size == 2
    assert z.rows == ((1, 0),)
    assert z.generators == a.generators


def test_isomorphic_orbits_compare_equal():
    # S3 permuting three basis points: the E_i and the pencils H - E_i are
    # isomorphic G-sets, though the first member of each in sorted order, E3
    # and H - E1, have different stabilizers.
    s3 = group_action(BL3, [perm_matrix(4, {1: 2, 2: 3, 3: 1}), perm_matrix(4, {1: 2, 2: 1})])
    pencils = [BL3.basis_class("H") - e for e in BL3.exceptional_classes()]
    a = orbit_gset(s3, BL3.exceptional_classes())
    b = orbit_gset(s3, pencils)
    assert orbits(s3, pencils)[0][0] == BL3.basis_class("H") - BL3.basis_class("E1")
    assert orbits(s3, BL3.exceptional_classes())[0][0] == BL3.basis_class("E3")
    assert a == b and hash(a) == hash(b)
    assert burnside_invariant([("BlowUp", a), ("BlowDown", b)]).is_zero()


def test_gsets_of_two_actions_compare_unequal():
    # the same swap of E1 and E2, on two surfaces and by two generator lists
    swap2 = group_action(BL2, [perm_matrix(3, {1: 2, 2: 1})])
    swap3 = group_action(BL3, [perm_matrix(4, {1: 2, 2: 1})])
    twice = group_action(BL2, [perm_matrix(3, {1: 2, 2: 1})] * 2)
    pair = [BL3.basis_class("E1"), BL3.basis_class("E2")]
    a, b, c = (orbit_gset(swap2, BL2.exceptional_classes()), orbit_gset(swap3, pair),
               orbit_gset(twice, BL2.exceptional_classes()))
    assert a.rows == b.rows == ((1, 0),) and c.rows == ((1, 0), (1, 0))
    assert a != b and b != a
    assert a != c
    assert not burnside_invariant([("BlowUp", a), ("BlowDown", b)]).is_zero()


def conjugate_by_inverse(a, b, group):
    """Some h in the group with h.A.h^-1 = B."""
    for h in group:
        hinv = intlinalg.mat_inverse_integer(h)
        conj = frozenset(
            tuple(map(tuple, intlinalg.mat_mul(h, intlinalg.mat_mul(s, hinv)))) for s in a
        )
        if conj == b:
            return True
    return False


# Pairs of (-1)-classes counted by (conjugate stabilizers, equal orbit sizes).
@pytest.mark.parametrize(
    "surface, gens, counts",
    [
        # S3 on P2[3]: all six stabilizers are conjugate subgroups of order 2
        (BL3, [perm_matrix(4, {1: 2, 2: 3, 3: 1}), perm_matrix(4, {1: 2, 2: 1})],
         {(True, True): 36}),
        # S4 on P2[4]: E_i is fixed by an S3, H - E_i - E_j by a Klein four-group
        (BL4, [perm_matrix(5, {1: 2, 2: 3, 3: 4, 4: 1}), perm_matrix(5, {1: 2, 2: 1})],
         {(True, True): 52, (False, False): 48}),
        # D4 on P2[4]: E_1 and H - E_1 - E_2 have stabilizers of order 2 that
        # are not conjugate
        (BL4, [perm_matrix(5, {1: 2, 2: 3, 3: 4, 4: 1}), perm_matrix(5, {1: 3, 3: 1})],
         {(True, True): 36, (False, True): 32, (False, False): 32}),
    ],
)
def test_gsets_equal_agrees_with_stabilizers_conjugate_by_inverses(surface, gens, counts):
    action = group_action(surface, gens)
    members = []
    for part in orbits(action, surface.enumerate_r_classes(-1)):
        gset = orbit_gset(action, part)
        for d in part:
            fixed = list(d.coords)
            stab = frozenset(g for g in action.elements if intlinalg.mat_vec(g, fixed) == fixed)
            members.append((gset, stab))
    verdicts = Counter()
    for a, stab_a in members:
        for b, stab_b in members:
            expected = conjugate_by_inverse(stab_a, stab_b, action.elements)
            assert (a == b) == expected
            verdicts[expected, a.size == b.size] += 1
    assert verdicts == counts


def test_atoms_and_gsets_never_read_the_group_elements():
    """A G-set is read off the generators' image table alone."""

    class Unenumerated:
        def __init__(self, action):
            self.surface, self.generators = action.surface, action.generators

        @property
        def elements(self):
            raise AssertionError("the group elements were read")

    for surface, action, contraction in (
        (BL4, weyl_action(), [MoriFibreSpace(BL4, "Point")]),
        (BL3, hexagon_action(), [MoriFibreSpace(BL3, "Point")]),
        (BL2, group_action(BL2, [perm_matrix(3, {1: 2, 2: 1})]), [0, MoriFibreSpace(P2, "Point")]),
        (P2, group_action(P2, []), [MoriFibreSpace(P2, "Point")]),
    ):
        blind = Unenumerated(action)
        expected = atom_multiset(surface, action, contraction)
        got = atom_multiset(surface, blind, contraction)
        assert [(a.kind, a.gset, a.classes) for a in got] == [
            (a.kind, a.gset, a.classes) for a in expected
        ]
        for part in orbits(action, surface.enumerate_r_classes(-1)):
            assert orbit_gset(blind, part) == orbit_gset(action, part)


def test_burnside_of_empty_list_is_zero():
    assert burnside_invariant([]).is_zero()


def test_burnside_of_single_blow_up_is_minus_the_orbit():
    a = group_action(BL2, [perm_matrix(3, {1: 2, 2: 1})])
    z = orbit_gset(a, BL2.exceptional_classes())
    element = burnside_invariant([("BlowUp", z)])
    assert element.terms == ((-1, z),)


def test_burnside_palindrome_cancels():
    a = group_action(BL2, [perm_matrix(3, {1: 2, 2: 1})])
    z = orbit_gset(a, BL2.exceptional_classes())
    steps = [("BlowUp", z), ("BlowDown", z)]
    assert burnside_invariant(steps).is_zero()


def test_burnside_additive_under_concatenation():
    a = group_action(BL2, [perm_matrix(3, {1: 2, 2: 1})])
    z = orbit_gset(a, BL2.exceptional_classes())
    one = [("BlowDown", z)]
    two = [("BlowDown", z), ("BlowUp", z)]
    assert burnside_invariant(one + two) == burnside_invariant(one) + burnside_invariant(two)


def test_burnside_rejects_unknown_step_kinds():
    with pytest.raises(InputError):
        burnside_invariant([("Flip", TransitiveGSet(1, ()))])


# -- atoms -------------------------------------------------------------------------

def test_atoms_of_plane_blown_at_one_free_orbit():
    c3 = group_action(BL3, [perm_matrix(4, {1: 2, 2: 3, 3: 1})])
    atoms = atom_multiset(BL3, c3, [0, MoriFibreSpace(P2, "Point")])
    assert all(a.kind == "permutation" for a in atoms)
    assert sorted(a.gset.size for a in atoms) == [1, 1, 1, 3]
    # the blown atom is torsion supported on the orbit
    blown = [a for a in atoms if a.gset.size == 3][0]
    assert all(c.rank == 0 and c.chi == 0 for c in blown.classes)


def test_atoms_of_minimal_degree_four_model():
    s5 = SurfaceModel("P2", (5,))
    atoms = atom_multiset(s5, group_action(s5, []), [MoriFibreSpace(s5, "Point")])
    kinds = sorted((a.kind, a.shape or "", a.degree or a.gset.size) for a in atoms)
    assert kinds == [("opaque", "O-perp", 4), ("permutation", "", 1)]


def test_atoms_of_degree_five_model_under_the_weyl_action():
    a = weyl_action()
    atoms = atom_multiset(BL4, a, [MoriFibreSpace(BL4, "Point")])
    assert [x.gset.size for x in atoms] == [1, 5, 1]


def test_atoms_of_k_nef_marker():
    s9 = SurfaceModel("P2", (9,))
    atoms = atom_multiset(s9, group_action(s9, []), [K_NEF])
    assert [(a.kind, a.shape, a.degree) for a in atoms] == [("opaque", K_NEF, 0)]


def test_atom_difference_of_two_presentations_is_permutation_only():
    # contract the orbit to the plane, or stop at the degree-6 model itself
    c3 = group_action(BL3, [perm_matrix(4, {1: 2, 2: 3, 3: 1})])
    via_plane = Counter(atom_multiset(BL3, c3, [0, MoriFibreSpace(P2, "Point")]))
    direct = Counter(atom_multiset(BL3, c3, [MoriFibreSpace(BL3, "Point")]))
    difference = (via_plane - direct) + (direct - via_plane)
    assert all(a.kind == "permutation" for a in difference)


def test_atoms_reject_an_orbit_the_action_splits():
    both = SurfaceModel("P2", (1, 1))
    swap = group_action(both, [perm_matrix(3, {1: 2, 2: 1})])
    with pytest.raises(ActionError, match="not stable"):
        atom_multiset(both, swap, [0, K_NEF])
    # one blown orbit of two points, which the trivial group splits in two
    with pytest.raises(ActionError, match="splits under the action"):
        atom_multiset(BL2, group_action(BL2, []), [0, K_NEF])


def test_atoms_reject_a_wrong_minimal_model():
    # contracting the orbit leaves the plane, not the degree-6 model
    c3 = group_action(BL3, [perm_matrix(4, {1: 2, 2: 3, 3: 1})])
    with pytest.raises(ActionError):
        atom_multiset(BL3, c3, [0, MoriFibreSpace(BL3, "Point")])


def test_atoms_need_a_terminal_marker():
    with pytest.raises(InputError):
        atom_multiset(BL3, group_action(BL3, []), [])
    with pytest.raises(InputError):
        atom_multiset(BL3, group_action(BL3, []), [0])


def test_atom_equality_ignores_the_class_payload():
    a = permutation_atom(TransitiveGSet(2, ((1, 0),)), classes=())
    b = permutation_atom(TransitiveGSet(2, ((1, 0),)), classes=(1, 2))
    assert a == b and hash(a) == hash(b)
    assert a != opaque_atom("O-perp", 4)
    with pytest.raises(InputError):
        Atom("half-open")


@pytest.mark.parametrize("fields", [{"shape": "O-perp"}, {"degree": 4}, {"shape": "O-perp", "degree": 4}])
def test_permutation_atoms_refuse_a_shape_or_degree(fields):
    with pytest.raises(InputError, match="^permutation atoms carry no shape or degree$"):
        Atom("permutation", gset=TransitiveGSet(2, ((1, 0),)), **fields)


def test_opaque_atoms_refuse_a_gset():
    with pytest.raises(InputError, match="^opaque atoms carry no G-set$"):
        Atom("opaque", gset=TransitiveGSet(2, ((1, 0),)), shape="O-perp", degree=4)
    assert Atom("opaque", shape="O-perp", degree=4) == opaque_atom("O-perp", 4)


# -- permutation-basis certificate ----------------------------------------------------

def test_certificate_for_the_plane_with_trivial_action():
    triv = group_action(P2, [])
    atoms = atom_multiset(P2, triv, [MoriFibreSpace(P2, "Point")])
    cert = permutation_basis_certificate(P2, atoms, triv)
    assert cert["size"] == 3
    assert cert["permutations"] == [(0, 1, 2)]


def test_certificate_for_a_blown_orbit_of_size_two():
    swap = group_action(BL2, [perm_matrix(3, {1: 2, 2: 1})])
    atoms = atom_multiset(BL2, swap, [0, MoriFibreSpace(P2, "Point")])
    cert = permutation_basis_certificate(BL2, atoms, swap)
    assert cert["size"] == 5
    (perm,) = cert["permutations"]
    moved = [i for i, j in enumerate(perm) if i != j]
    assert len(moved) == 2  # exactly one 2-cycle
    for mat in cert["matrices"]:
        assert sorted(sum(row) for row in mat) == [1] * 5


def test_certificate_for_the_hexagon_action():
    a = hexagon_action()
    atoms = atom_multiset(BL3, a, [MoriFibreSpace(BL3, "Point")])
    assert sorted(x.gset.size for x in atoms) == [1, 2, 3]
    cert = permutation_basis_certificate(BL3, atoms, a)
    assert cert["size"] == 6
    assert len(cert["permutations"]) == 2


# criterion 10 of selftest: the plane, a blown orbit of size two, the hexagon
@pytest.mark.parametrize(
    "surface, gens, contraction, basis, expected",
    [
        (
            P2, [], [MoriFibreSpace(P2, "Point")],
            ["(1; -2; 0)", "(1; -1; 0)", "(1; 0; 1)"],
            {
                "size": 3,
                "permutations": [(0, 1, 2)],
                "matrices": [((1, 0, 0), (0, 1, 0), (0, 0, 1))],
            },
        ),
        (
            BL2, [perm_matrix(3, {1: 2, 2: 1})], [0, MoriFibreSpace(P2, "Point")],
            [
                "(1; -2,0,0; 0)", "(1; -1,0,0; 0)", "(1; 0,0,0; 1)",
                "(0; 0,0,1; 0)", "(0; 0,1,0; 0)",
            ],
            {
                "size": 5,
                "permutations": [(0, 1, 2, 4, 3)],
                "matrices": [
                    (
                        (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                        (0, 0, 0, 0, 1), (0, 0, 0, 1, 0),
                    )
                ],
            },
        ),
        (
            BL3, [HEX_ROT, perm_matrix(4, {1: 2, 2: 1})], [MoriFibreSpace(BL3, "Point")],
            [
                "(1; -1,0,0,0; 0)", "(1; -2,1,1,1; 0)", "(1; -1,1,0,0; 0)",
                "(1; -1,0,0,1; 0)", "(1; -1,0,1,0; 0)", "(1; 0,0,0,0; 1)",
            ],
            {
                "size": 6,
                "permutations": [(1, 0, 3, 4, 2, 5), (0, 1, 4, 3, 2, 5)],
                "matrices": [
                    (
                        (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0),
                        (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1),
                    ),
                    (
                        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0),
                        (0, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1),
                    ),
                ],
            },
        ),
    ],
    ids=["plane", "blown-pair", "hexagon"],
)
def test_certificates_of_the_worked_examples(surface, gens, contraction, basis, expected):
    """`basis` is the atoms' payload in atom order, the basis the
    permutations act on."""
    action = group_action(surface, gens)
    atoms = atom_multiset(surface, action, contraction)
    assert [render_kclass(c) for atom in atoms for c in atom.classes] == basis
    assert permutation_basis_certificate(surface, atoms, action) == expected


def test_certificate_rejects_opaque_atoms():
    s5 = SurfaceModel("P2", (5,))
    triv = group_action(s5, [])
    atoms = atom_multiset(s5, triv, [MoriFibreSpace(s5, "Point")])
    with pytest.raises(ActionError):
        permutation_basis_certificate(s5, atoms, triv)


def test_certificate_rejects_an_incomplete_basis():
    triv = group_action(P2, [])
    atoms = atom_multiset(P2, triv, [MoriFibreSpace(P2, "Point")])
    with pytest.raises(ActionError):
        permutation_basis_certificate(P2, atoms[:-1], triv)


# -- G-minimality proxy ------------------------------------------------------------

def test_hexagon_action_is_numerically_minimal():
    action = hexagon_action()
    assert minimality_proxy(action, orbits(action, BL3.enumerate_r_classes(-1))) is None


def test_swap_action_is_not_minimal():
    swap = group_action(BL2, [perm_matrix(3, {1: 2, 2: 1})])
    witness = minimality_proxy(swap, orbits(swap, BL2.enumerate_r_classes(-1)))
    assert witness == (BL2.basis_class("E2"), BL2.basis_class("E1"))


def test_plane_is_trivially_minimal():
    trivial = group_action(P2, [])
    assert minimality_proxy(trivial, orbits(trivial, P2.enumerate_r_classes(-1))) is None


# -- H^1 -----------------------------------------------------------------------------

def test_h1_of_the_trivial_group_vanishes():
    assert h1_picard(group_action(P2, [])) == []


def test_h1_of_sign_action_on_rank_one():
    # no surface model hosts this action (it negates K), hence the lattice route
    assert h1_lattice([[[-1]]]) == [2]
    assert h1_cyclic([[-1]]) == [2]


def test_h1_of_the_swap_permutation_module_vanishes():
    swap = [[0, 1], [1, 0]]
    assert h1_lattice([swap]) == []
    assert h1_cyclic(swap) == []


@pytest.mark.parametrize(
    "mat",
    [
        [[-1]],
        [[0, 1], [1, 0]],
        [[0, -1], [1, -1]],  # order 3 on the hexagonal plane lattice
        HEX_ROT,
        CREMONA,
    ],
)
def test_bar_complex_agrees_with_the_cyclic_formula(mat):
    assert h1_lattice([mat]) == h1_cyclic(mat)


def test_h1_of_the_hexagon_action_vanishes():
    assert h1_picard(hexagon_action()) == []


def _de_jonquieres(n):
    """The involution of F0[n], n even: E_i -> h - E_i, h -> h and
    s -> s + (n/2)h - sum E_i, as columns over (s, h, E1..En)."""
    cols = [[1, n // 2] + [-1] * n, [0, 1] + [0] * n]
    cols += [[0, 1] + [-(j == i) for j in range(n)] for i in range(n)]
    return [list(row) for row in zip(*cols)]


@pytest.mark.parametrize("n", range(2, 21, 2))
def test_h1_of_the_de_jonquieres_involution_is_the_closed_form(n):
    # (Z/2)^(n-2): the hyperelliptic fixed curve of genus g = (n - 2)/2 gives (Z/2)^(2g)
    surface = SurfaceModel("F0", (n,))
    gen = _de_jonquieres(n)
    action = group_action(surface, [gen])
    assert action.order == 2
    assert invariant_rank(action) == 2
    assert h1_picard(action) == h1_lattice([gen]) == h1_cyclic(gen) == [2] * (n - 2)


def test_h1_of_a_verified_permutation_module_vanishes():
    a = hexagon_action()
    atoms = atom_multiset(BL3, a, [MoriFibreSpace(BL3, "Point")])
    cert = permutation_basis_certificate(BL3, atoms, a)
    assert h1_lattice(cert["matrices"]) == []


@pytest.mark.parametrize(
    "generators, size",
    [
        ([[[1, 0], [0, 1]], [[1]]], 2),  # two sizes
        ([[[1, 0]]], 1),  # one row of two entries
        ([[[1, 0], [0]]], 2),  # a ragged row
    ],
)
def test_h1_lattice_refuses_generators_that_are_not_square_of_one_size(generators, size):
    with pytest.raises(InputError, match=f"^generator is not a {size}x{size} matrix$"):
        h1_lattice(generators)


@pytest.mark.parametrize(
    "generator, size",
    [
        ([[1, 0]], 1),  # one row of two entries
        ([[1], [0]], 2),  # two rows of one entry
        ([[0, 1], [1]], 2),  # a ragged row
    ],
)
def test_h1_cyclic_refuses_a_generator_that_is_not_square(generator, size):
    with pytest.raises(InputError, match=f"^generator is not a {size}x{size} matrix$"):
        h1_cyclic(generator)


@pytest.mark.parametrize(
    "mat",
    [
        [[0]],  # {1, g} closes to a monoid of two elements
        [[1, 0], [0, 0]],  # a projection, idempotent
        [[2]],  # powers grow without end
        [[1, 1], [1, -1]],  # determinant -2
    ],
)
def test_h1_refuses_a_generator_not_invertible_over_z(mat):
    message = r"^generator is not invertible over Z \(determinant is not 1 or -1\)$"
    minus_one = [[-int(i == j) for j in range(len(mat))] for i in range(len(mat))]
    for call in (h1_cyclic, lambda m: h1_lattice([m]), lambda m: h1_lattice([minus_one, m])):
        with pytest.raises(InputError, match=message):
            call(mat)


def test_h1_lattice_of_the_0x0_generator_vanishes():
    assert h1_lattice([[]]) == []


def test_h1_lattice_with_no_generator_vanishes():
    # no generator is the trivial group, as for h1_picard of an action without one
    assert h1_lattice([]) == [] == h1_picard(group_action(BL2, []))


def test_h1_cap_is_enforced():
    with pytest.raises(UnsupportedRangeError):
        h1_picard(weyl_action())
    with pytest.raises(UnsupportedRangeError):
        h1_cyclic([[1, 1], [0, 1]])


@pytest.mark.parametrize(
    "generator",
    [
        [[1, 1], [0, 1]],  # the shear, of infinite order
        # a 7-cycle and an 8-cycle: a finite cyclic group of order 56
        perm_matrix(15, {i: i + 1 - 7 * (i == 6) - 8 * (i == 14) for i in range(15)}),
    ],
    ids=["shear", "order-56"],
)
def test_both_h1_routes_refuse_a_group_above_the_cap_with_one_type(generator):
    for call in (h1_cyclic, lambda g: h1_lattice([g])):
        with pytest.raises(UnsupportedRangeError, match=f"cap of {equivariant.DEFAULT_H1_CAP}$"):
            call(generator)


def test_h1_lattice_above_the_cap_names_the_h1_cap():
    action = weyl_action()
    assert action.order == 120
    message = f"^group closure exceeds the H\\^1 cap of {equivariant.DEFAULT_H1_CAP}$"
    with pytest.raises(UnsupportedRangeError, match=message):
        h1_lattice(action.generators)
    with pytest.raises(UnsupportedRangeError, match="H\\^1 cap"):
        h1_picard(action)
