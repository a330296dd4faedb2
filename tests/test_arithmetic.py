"""Small-atom profiles: the index formula and the comparison predicates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodatlas.arithmetic import (
    AtomProfile,
    SmallAtom,
    builtin_profiles,
    dam_order,
    dp6_consistency,
    index_formula_check,
    is_rational_profile,
    is_rich_profile,
    parse_profiles,
    same_nontrivial_atoms,
)
from sodatlas.catalog.core import MoriFibreSpace
from sodatlas.equivariant import atom_multiset, group_action, opaque_atom
from sodatlas.errors import InputError
from sodatlas.lattice import SurfaceModel

TRIV = SmallAtom(1, 1, "0")
A3 = SmallAtom(1, 3, "a3")
A3_2 = SmallAtom(1, 3, "2a3")

SEVERI_BRAUER = AtomProfile((TRIV, A3, A3_2), amitsur_order=3, surface_index=3)


# -- the atom record ---------------------------------------------------------------

def test_trivial_atom_requires_index_one_and_label_zero():
    with pytest.raises(InputError):
        SmallAtom(1, 1, "a")
    with pytest.raises(InputError):
        SmallAtom(1, 2, "0")
    with pytest.raises(InputError):
        SmallAtom(0, 1, "0")


def test_profile_accepts_only_atoms_and_opaque_markers():
    AtomProfile((TRIV, opaque_atom("O-perp", 4)))
    with pytest.raises(InputError):
        AtomProfile(("not-an-atom",))
    with pytest.raises(InputError):
        AtomProfile((), amitsur_order=0)


# -- dam_order and the index formula -------------------------------------------------

def test_dam_order_of_all_trivial_atoms_is_one():
    assert dam_order(AtomProfile((TRIV, SmallAtom(2, 1, "0")))) == 1


def test_dam_order_of_the_severi_brauer_profile():
    assert dam_order(SEVERI_BRAUER) == 9


def test_dam_order_of_the_minimal_degree8_profile():
    profile = AtomProfile((TRIV, SmallAtom(2, 2, "a2"), SmallAtom(1, 4, "a4")))
    assert dam_order(profile) == 8


def test_dam_order_rejects_opaque_atoms():
    with pytest.raises(InputError):
        dam_order(AtomProfile((TRIV, opaque_atom("O-perp", 4))))


def test_dam_order_multiplicative_under_concatenation():
    p = AtomProfile((A3, TRIV))
    q = AtomProfile((SmallAtom(1, 2, "a"),))
    both = AtomProfile(p.atoms + q.atoms)
    assert dam_order(both) == dam_order(p) * dam_order(q)


@settings(max_examples=50, deadline=None)
@given(
    indices_p=st.lists(st.integers(min_value=1, max_value=6), max_size=4),
    indices_q=st.lists(st.integers(min_value=1, max_value=6), max_size=4),
)
def test_dam_order_multiplicative_property(indices_p, indices_q):
    def build(indices):
        return AtomProfile(
            tuple(
                SmallAtom(1, d, "0" if d == 1 else f"x{i}") for i, d in enumerate(indices)
            )
        )

    p, q = build(indices_p), build(indices_q)
    assert dam_order(AtomProfile(p.atoms + q.atoms)) == dam_order(p) * dam_order(q)


def test_index_formula_on_the_severi_brauer_profile():
    assert index_formula_check(SEVERI_BRAUER)


def test_index_formula_on_the_split_profile():
    assert index_formula_check(AtomProfile((TRIV,), amitsur_order=1, surface_index=1))


def test_index_formula_negative_control():
    corrupted = AtomProfile((TRIV,), amitsur_order=1, surface_index=2)
    assert not index_formula_check(corrupted)


def test_index_formula_needs_both_fields():
    with pytest.raises(InputError):
        index_formula_check(AtomProfile((TRIV,), amitsur_order=1))
    with pytest.raises(InputError):
        index_formula_check(AtomProfile((TRIV,), surface_index=1))


# -- predicates ----------------------------------------------------------------------

def test_all_trivial_profiles_are_rational():
    assert is_rational_profile(AtomProfile((TRIV, SmallAtom(3, 1, "0"))))


def test_opaque_marker_breaks_richness():
    profile = AtomProfile((TRIV, opaque_atom("O-perp", 4)))
    assert not is_rich_profile(profile)
    assert not is_rational_profile(profile)


def test_severi_brauer_profile_is_rich_but_not_rational():
    assert is_rich_profile(SEVERI_BRAUER)
    assert not is_rational_profile(SEVERI_BRAUER)


def test_rational_implies_rich_on_builtin_and_ad_hoc_profiles():
    profiles = list(builtin_profiles().values()) + [
        SEVERI_BRAUER,
        AtomProfile((TRIV,)),
        AtomProfile((opaque_atom("O-perp", 2),)),
    ]
    for p in profiles:
        assert not is_rational_profile(p) or is_rich_profile(p)


# -- nontrivial-atom comparison --------------------------------------------------------

def test_trivial_atoms_are_ignored_in_comparison():
    assert same_nontrivial_atoms(AtomProfile((A3,)), AtomProfile((A3, TRIV)))


def test_equal_multisets_compare_equal():
    p = AtomProfile((SmallAtom(2, 3, "b"), SmallAtom(3, 1, "0")))
    q = AtomProfile((SmallAtom(3, 1, "0"), SmallAtom(2, 3, "b")))
    assert same_nontrivial_atoms(p, q)


def test_distinct_labels_compare_different():
    assert not same_nontrivial_atoms(
        AtomProfile((SmallAtom(1, 2, "a"),)), AtomProfile((SmallAtom(1, 2, "a'"),))
    )


def test_opaque_markers_compare_by_shape_and_degree():
    p = AtomProfile((opaque_atom("O-perp", 4),))
    q = AtomProfile((opaque_atom("O-perp", 4),))
    r = AtomProfile((opaque_atom("O-perp", 2),))
    assert same_nontrivial_atoms(p, q)
    assert not same_nontrivial_atoms(p, r)


@settings(max_examples=30, deadline=None)
@given(
    seeds=st.lists(
        st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4)),
        max_size=4,
    ),
    extra_trivial=st.integers(min_value=0, max_value=3),
)
def test_same_nontrivial_atoms_is_an_equivalence(seeds, extra_trivial):
    atoms = tuple(
        SmallAtom(d1, d2, "0" if d2 == 1 else f"c{i}") for i, (d1, d2) in enumerate(seeds)
    )
    p = AtomProfile(atoms)
    q = AtomProfile(atoms + (TRIV,) * extra_trivial)
    r = AtomProfile(tuple(reversed(q.atoms)))
    assert same_nontrivial_atoms(p, p)
    assert same_nontrivial_atoms(p, q) == same_nontrivial_atoms(q, p)
    assert not same_nontrivial_atoms(p, q) or (
        not same_nontrivial_atoms(q, r) or same_nontrivial_atoms(p, r)
    )


# -- degree-6 consistency ----------------------------------------------------------------

def test_dp6_full_index_profile_is_consistent():
    profile = AtomProfile(
        (SmallAtom(2, 3, "a3"), SmallAtom(3, 2, "a2"), TRIV), surface_index=6
    )
    assert dp6_consistency(profile) == []


def test_dp6_index_outside_the_divisor_list_warns():
    profile = AtomProfile(
        (SmallAtom(2, 3, "a3"), SmallAtom(3, 2, "a2"), TRIV), surface_index=5
    )
    warnings = dp6_consistency(profile)
    assert len(warnings) == 2  # not in {1,2,3,6}, and not the component product


def test_dp6_rational_shape_is_consistent():
    profile = AtomProfile(
        (SmallAtom(2, 1, "0"), SmallAtom(3, 1, "0"), TRIV), surface_index=1
    )
    assert dp6_consistency(profile) == []


def test_dp6_index_component_mismatch_warns():
    profile = AtomProfile(
        (SmallAtom(2, 3, "a3"), SmallAtom(3, 1, "0"), TRIV), surface_index=6
    )
    warnings = dp6_consistency(profile)
    assert len(warnings) == 1
    assert "product" in warnings[0]


def test_dp6_shape_errors():
    with pytest.raises(InputError):
        dp6_consistency(AtomProfile((TRIV,)))
    with pytest.raises(InputError):
        dp6_consistency(
            AtomProfile((SmallAtom(2, 3, "x"), SmallAtom(3, 2, "y"), SmallAtom(2, 3, "z")))
        )
    with pytest.raises(InputError):
        # degree-3 component exceeds its index bound
        dp6_consistency(
            AtomProfile((TRIV, SmallAtom(2, 3, "x"), SmallAtom(3, 3, "y")))
        )
    with pytest.raises(InputError):
        dp6_consistency(AtomProfile((TRIV, opaque_atom("O-perp", 6))))


# -- files ---------------------------------------------------------------------------------

def test_parse_profile_stanza_roundtrip():
    text = """
[atoms "sample"]
a = (1, 1, "0")
a = (1, 3, "a3")
b = (1, 3, "2a3")
am = 3
ind = 3
"""
    ((name, profile),) = parse_profiles(text)
    assert name == "sample"
    assert profile.amitsur_order == 3 and profile.surface_index == 3
    assert same_nontrivial_atoms(profile, SEVERI_BRAUER)
    assert index_formula_check(profile)


def test_parse_profile_rejects_malformed_atoms():
    with pytest.raises(InputError):
        parse_profiles('[atoms]\na = (1, 2)\n')
    with pytest.raises(InputError):
        parse_profiles('[atoms]\na = "x"\n')
    with pytest.raises(InputError):
        parse_profiles('[link]\nmoves = L 2\n')
    with pytest.raises(InputError):
        parse_profiles("# nothing\n")


def test_parse_opaque_markers():
    ((_, profile),) = parse_profiles('[profile]\nopaque = ("O-perp", 4)\na = (1, 1, "0")\n')
    assert not is_rich_profile(profile)
    with pytest.raises(InputError):
        parse_profiles('[profile]\nopaque = ("O-perp", "x")\n')


def test_builtin_profiles_satisfy_the_index_formula():
    profiles = builtin_profiles()
    assert set(profiles) == {"severi-brauer-nonsplit", "minimal-degree8", "conic-product"}
    for profile in profiles.values():
        assert index_formula_check(profile)
        assert is_rich_profile(profile)
        assert not is_rational_profile(profile)
    assert dam_order(profiles["severi-brauer-nonsplit"]) == 9
    assert dam_order(profiles["minimal-degree8"]) == 8
    assert dam_order(profiles["conic-product"]) == 8


# Each bundled profile with a lattice model over a point (the Galois image
# acting on Pic: no group or the ruling swap of F0) and its atom sizes.
_LATTICE_MODELS = {
    "severi-brauer-nonsplit": ("P2", [], [1, 1, 1]),
    "minimal-degree8": ("F0", [[[0, 1], [1, 0]]], [1, 1, 2]),
    "conic-product": ("F0", [], [1, 1, 1, 1]),
}


@pytest.mark.parametrize("name", sorted(_LATTICE_MODELS))
def test_builtin_field_degrees_are_the_atom_sizes_of_a_lattice_model(name):
    base, gens, sizes = _LATTICE_MODELS[name]
    surface = SurfaceModel(base)
    atoms = atom_multiset(surface, group_action(surface, gens), [MoriFibreSpace(surface, "Point")])
    assert sorted(a.gset.size for a in atoms) == sizes
    assert sorted(a.field_degree for a in builtin_profiles()[name].atoms) == sizes
