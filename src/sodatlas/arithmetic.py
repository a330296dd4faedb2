"""Atom bookkeeping over non-closed ground fields.

Each small atom records the degree of the field it lives over, the index of
its Brauer class, and a symbolic label for that class.  Profiles bundle
atoms with the declared Amitsur-group order and surface index so the index
formula can be checked; no field or Brauer-group arithmetic happens here,
labels are compared verbatim.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from importlib import resources
from math import prod

from .equivariant import Atom, opaque_atom
from .errors import InputError
from .textio import _parse_int, _parse_literal, _quote, parse_stanzas, stanza_single

TRIVIAL_LABEL = "0"


@dataclass(frozen=True)
class SmallAtom:
    field_degree: int
    brauer_index: int
    brauer_label: str

    def __post_init__(self) -> None:
        if self.field_degree < 1 or self.brauer_index < 1:
            raise InputError("field degree and Brauer index must be positive")
        if (self.brauer_index == 1) != (self.brauer_label == TRIVIAL_LABEL):
            raise InputError(
                f"index {self.brauer_index} with label {self.brauer_label!r}: "
                f"index 1 and label {TRIVIAL_LABEL!r} must come together"
            )

    @property
    def is_trivial(self) -> bool:
        return self.brauer_index == 1

    def describe(self) -> str:
        return f"({self.field_degree}, {self.brauer_index}, {self.brauer_label!r})"


@dataclass(frozen=True)
class AtomProfile:
    """Multiset of atoms plus the declared Amitsur order and surface index."""

    atoms: tuple = ()
    amitsur_order: int | None = None
    surface_index: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        for a in self.atoms:
            if isinstance(a, SmallAtom):
                continue
            if isinstance(a, Atom) and a.kind == "opaque":
                continue
            raise InputError(f"profiles hold small atoms and opaque markers, got {a!r}")
        for label, value in (("am", self.amitsur_order), ("ind", self.surface_index)):
            if value is not None and value < 1:
                raise InputError(f"{label} must be positive when given")


def dam_order(profile: AtomProfile) -> int:
    """Product of the atom indices; the derived invariant the formula targets."""
    for a in profile.atoms:
        if not isinstance(a, SmallAtom):
            raise InputError("opaque atoms carry no index; the product is undefined")
    return prod(a.brauer_index for a in profile.atoms)


def index_formula_check(profile: AtomProfile) -> bool:
    """surface_index * amitsur_order == product of atom indices."""
    if profile.amitsur_order is None or profile.surface_index is None:
        raise InputError("the formula needs both am and ind on the profile")
    return profile.surface_index * profile.amitsur_order == dam_order(profile)


def is_rational_profile(profile: AtomProfile) -> bool:
    return all(isinstance(a, SmallAtom) and a.is_trivial for a in profile.atoms)


def is_rich_profile(profile: AtomProfile) -> bool:
    return all(isinstance(a, SmallAtom) for a in profile.atoms)


def _nontrivial(profile: AtomProfile) -> Counter:
    return Counter(
        a for a in profile.atoms if not (isinstance(a, SmallAtom) and a.is_trivial)
    )


def same_nontrivial_atoms(p: AtomProfile, q: AtomProfile) -> bool:
    """Multiset equality after deleting trivial atoms."""
    return _nontrivial(p) == _nontrivial(q)


def dp6_consistency(profile: AtomProfile) -> list[str]:
    """Warnings for a minimal degree-6 profile whose declared index is off.

    The profile must consist of small atoms over fields of degrees 1, 2, 3
    with index bounds 1, 3, 2 respectively; anything else is a shape error.
    With a declared surface index, it must lie in {1, 2, 3, 6} and equal the
    product of the two nontrivial component indices.
    """
    atoms = sorted(
        (a for a in profile.atoms if isinstance(a, SmallAtom)),
        key=lambda a: a.field_degree,
    )
    if len(atoms) != len(profile.atoms) or [a.field_degree for a in atoms] != [1, 2, 3]:
        raise InputError("expected exactly three small atoms over fields of degrees 1, 2, 3")
    one, two, three = atoms
    if one.brauer_index != 1 or two.brauer_index > 3 or three.brauer_index > 2:
        raise InputError("component indices exceed the degree-6 bounds (1, <=3, <=2)")
    warnings = []
    ind = profile.surface_index
    if ind is not None:
        if ind not in (1, 2, 3, 6):
            warnings.append(f"surface index {ind} is not one of 1, 2, 3, 6")
        expected = two.brauer_index * three.brauer_index
        if ind != expected:
            warnings.append(
                f"surface index {ind} differs from the product {expected} "
                f"of the component indices {two.describe()} and {three.describe()}"
            )
    return warnings


# -- profile files ---------------------------------------------------------------

_PROFILE_KINDS = ("profile", "atoms")


def _parse_atom_value(text: str) -> SmallAtom:
    value = _parse_literal(text, "atom")
    if (
        not isinstance(value, tuple)
        or len(value) != 3
        or type(value[0]) is not int
        or type(value[1]) is not int
        or not isinstance(value[2], str)
    ):
        raise InputError(f"an atom is a (field_degree, index, \"label\") triple, got {_quote(text)}")
    return SmallAtom(value[0], value[1], value[2])


def _parse_opaque_value(text: str) -> Atom:
    value = _parse_literal(text, "opaque marker")
    if (
        not isinstance(value, tuple)
        or len(value) != 2
        or not isinstance(value[0], str)
        or type(value[1]) is not int
    ):
        raise InputError(f"an opaque marker is a (\"shape\", degree) pair, got {_quote(text)}")
    return opaque_atom(value[0], value[1])


def parse_profile_stanza(stanza: dict[str, list[str]]) -> AtomProfile:
    atoms: list = []
    am = ind = None
    for key, values in stanza.items():
        if key == "am":
            am = _parse_int(stanza_single(stanza, key))
        elif key == "ind":
            ind = _parse_int(stanza_single(stanza, key))
        elif key == "opaque":
            atoms.extend(_parse_opaque_value(v) for v in values)
        else:
            atoms.extend(_parse_atom_value(v) for v in values)
    return AtomProfile(tuple(atoms), amitsur_order=am, surface_index=ind)


def parse_profiles(text: str) -> list[tuple[str | None, AtomProfile]]:
    """All profile stanzas of a file, in order, as (name, profile) pairs."""
    out = []
    for kind, name, stanza in parse_stanzas(text):
        if kind not in _PROFILE_KINDS:
            raise InputError(f"unexpected section [{kind}] in a profile file")
        out.append((name, parse_profile_stanza(stanza)))
    if not out:
        raise InputError("no profile stanzas found")
    return out


def builtin_profiles() -> dict[str, AtomProfile]:
    """The packaged worked examples, keyed by stanza name."""
    text = (resources.files("sodatlas.catalog") / "data" / "profiles.cfg").read_text("utf-8")
    return {name: profile for name, profile in parse_profiles(text)}
