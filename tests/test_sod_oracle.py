"""Construct-then-build against the construction that checked the rulings
while it built.

The oracle keeps the fibre-space checks as they were split: the
constructor checked the base, the degree and the fibration 0-class, and
`standard_sod` checked the rulings and the curve base while it built.  The
library checks all of it in `MoriFibreSpace`, and `standard_sod` only
builds.  Both must give the same blocks, labels, class vectors and opaque
flags, or raise the same error with the same text, on a family of
candidates: the plane with 0 to 9 points and F0 to F4 with 0 to 7 points,
in every ordered split into orbits, over a point, a rational curve and a
genus-1 curve, with no fibration class, each 0-class and each basis class.
Below degree 3, where the 0-classes are not enumerated, the plane's
candidates take H - E1 instead, so that conic bundles of degree 2, 1 and 0
build and the genus-1 curve reaches its range check.

Each accepted fibre space enumerates each kind of r-class at most once,
construction and build together.
"""

from functools import lru_cache
from types import SimpleNamespace

from sodatlas.catalog.core import (
    RICH_CURVE_DEGREES,
    RICH_POINT_DEGREES,
    MoriFibreSpace,
    _line_block,
    _sorted_classes,
    birationally_rich,
    e_bundle_class,
    opaque_block_for,
    standard_sod,
)
from sodatlas.errors import InputError, SodatlasError, UnsupportedRangeError
from sodatlas.ktheory import structure_class
from sodatlas.lattice import SurfaceModel
from sodatlas.mutation import Collection, block_of_classes

MOVED = {
    "a rank-one degree-8 surface over a point carries two rulings",
    "a degree-8 conic bundle is a ruled surface without blown points",
    "fibration class is not a ruling of this surface",
    "surface models cover rational surfaces only; no model over a positive-genus curve",
}


def _old_construct(s, base, genus, f):
    """The constructor's checks before the rulings moved into it."""
    deg = s.degree
    if base == "Point":
        if f is not None:
            raise InputError("a point base takes no fibration class")
        if deg == 7 or not 1 <= deg <= 9:
            raise InputError(f"no rank-one fibre space of degree {deg} over a point")
    elif base in ("RationalCurve", "Curve"):
        if base == "RationalCurve" and (deg == 7 or deg > 8):
            raise InputError(f"no conic bundle of degree {deg} over a rational curve")
        if base == "Curve":
            if genus < 1:
                raise InputError("a Curve base needs genus >= 1; use RationalCurve for genus 0")
            if deg > 8 * (1 - genus):
                raise InputError(f"degree {deg} conic bundle impossible over a genus-{genus} curve")
        if f is None:
            raise InputError("a conic bundle needs its fibration 0-class")
        if s.r_class_value(f) != 0:
            raise InputError("fibration class must be a 0-class")
    else:
        raise InputError(f"unknown base kind {base!r}")
    return SimpleNamespace(surface=s, base=base, genus=genus, fibration_class=f, degree=deg)


def _old_birationally_rich(mfs):
    if mfs.base == "Point":
        return mfs.degree in RICH_POINT_DEGREES
    if mfs.base == "RationalCurve":
        return mfs.degree in RICH_CURVE_DEGREES
    return False


def _old_standard_sod(mfs):
    s = mfs.surface
    deg = mfs.degree
    if mfs.base == "Curve":
        raise UnsupportedRangeError(
            "surface models cover rational surfaces only; no model over a positive-genus curve"
        )
    f = mfs.fibration_class
    o_block = block_of_classes([structure_class(s)], labels=["O"])
    tail = [o_block] if f is None else [_line_block(s, [f]), o_block]
    if not _old_birationally_rich(mfs):
        front = [opaque_block_for([None, *tail], 0, s, s.picard_rank + 2 - len(tail))]
    elif deg == 9:
        h = s.basis_class("H")
        front = [_line_block(s, [2 * h]), _line_block(s, [h])]
    elif deg == 8:
        if f is None:
            rulings = _sorted_classes(s.enumerate_r_classes(0))
            if len(rulings) != 2:
                raise InputError("a rank-one degree-8 surface over a point carries two rulings")
        elif s.base == "P2" or s.num_blown:
            raise InputError("a degree-8 conic bundle is a ruled surface without blown points")
        elif f == s.basis_class("h"):
            rulings = [s.basis_class("s"), f]
        elif s.hirzebruch_d == 0 and f == s.basis_class("s"):
            rulings = [s.basis_class("h"), f]
        else:
            raise InputError("fibration class is not a ruling of this surface")
        r1, r2 = rulings
        front = [_line_block(s, [r1 + r2]), _line_block(s, [r for r in rulings if r != f])]
    else:  # degrees 6 and 5
        zeros = [z for z in _sorted_classes(s.enumerate_r_classes(0)) if z != f]
        want, name = (2, "three") if deg == 6 else (4, "five")
        if f is not None and len(zeros) != want:
            raise InputError(f"fibration class is not one of the {name} rulings")
        if deg == 6:
            first = _line_block(s, _sorted_classes(s.enumerate_r_classes(1)))
        else:
            first = block_of_classes([e_bundle_class(s)], labels=["E"])
        front = [first, _line_block(s, zeros)]
    return Collection(s, (*front, *tail))


def _orbit_splits(n):
    """Every ordered split of n points into orbits."""
    if n == 0:
        yield ()
        return
    for k in range(1, n + 1):
        for rest in _orbit_splits(n - k):
            yield (k,) + rest


def _surfaces():
    for n in range(10):
        for orbits in _orbit_splits(n):
            yield SurfaceModel("P2", orbits)
    for d in range(5):
        for n in range(8):
            for orbits in _orbit_splits(n):
                yield SurfaceModel(f"F{d}", orbits)


def _fibrations(s):
    yield None
    try:
        yield from _sorted_classes(s.enumerate_r_classes(0))
    except UnsupportedRangeError:
        if s.base == "P2":
            yield s.basis_class("H") - s.basis_class("E1")
    for label in s.labels:
        yield s.basis_class(label)


def _outcome(construct, build, *args):
    """("construct" or "build", error type and text) for a failure, or
    ("ok", blocks) with each block's opaque flag, labels and vectors."""
    try:
        mfs = construct(*args)
    except SodatlasError as exc:
        return "construct", (type(exc).__name__, str(exc))
    try:
        coll = build(mfs)
    except SodatlasError as exc:
        return "build", (type(exc).__name__, str(exc))
    return "ok", tuple(
        (b.opaque, tuple(o.label for o in b.objects), tuple(o.cls.vector for o in b.objects))
        for b in coll.blocks
    )


@lru_cache(maxsize=None)
def _outcomes():
    """Each candidate of the family with the old and the new outcome."""
    out = []
    for s in _surfaces():
        for base in ("Point", "RationalCurve", "Curve"):
            for f in _fibrations(s):
                args = (s, base, int(base == "Curve"), f)
                old = _outcome(_old_construct, _old_standard_sod, *args)
                new = _outcome(MoriFibreSpace, standard_sod, *args)
                out.append((args, old, new))
    return out


def test_construct_then_build_matches_the_split_checks():
    outcomes = _outcomes()
    for args, old, new in outcomes:
        s, base, _, f = args
        assert new[1] == old[1], (s.describe(), base, f)
    stages = [(old[0], new[0]) for _, old, new in outcomes]
    assert len(outcomes) == 45369
    assert stages.count(("ok", "ok")) == 5868
    assert stages.count(("build", "construct")) == 262
    assert stages.count(("construct", "construct")) == 45369 - 5868 - 262
    # standard_sod raises nothing on a fibre space the constructor accepts
    assert all(new[0] != "build" for _, _, new in outcomes)
    # the old build stage raised exactly the four texts that moved
    assert {old[1][1] for _, old, _ in outcomes if old[0] == "build"} == MOVED
    assert {args[0].degree for args, old, _ in outcomes if old[0] == "ok"} == {
        0, 1, 2, 3, 4, 5, 6, 8, 9,
    }


def test_rich_exactly_when_no_block_is_opaque():
    for args, _, new in _outcomes():
        if new[0] == "ok":
            s, base, genus, f = args
            mfs = MoriFibreSpace(s, base, genus=genus, fibration_class=f)
            assert birationally_rich(mfs) == (not any(opaque for opaque, _, _ in new[1]))


def test_hirzebruch_surfaces_past_the_family_match_over_a_point():
    """Degree 8 over a point reads its rulings off d; F5 to F12 against the
    enumerating oracle."""
    for d in range(5, 13):
        args = (SurfaceModel(f"F{d}"), "Point", 0, None)
        new = _outcome(MoriFibreSpace, standard_sod, *args)
        assert new[1] == _outcome(_old_construct, _old_standard_sod, *args)[1], d
        assert new[0] == ("construct" if d % 2 else "ok"), d


def test_each_fibre_space_enumerates_each_kind_of_class_once(monkeypatch):
    accepted = [args for args, _, new in _outcomes() if new[0] == "ok"]
    asked = []
    enumerate_r_classes = SurfaceModel.enumerate_r_classes

    def counted(self, r):
        asked.append(r)
        return enumerate_r_classes(self, r)

    monkeypatch.setattr(SurfaceModel, "enumerate_r_classes", counted)
    for args in accepted:
        asked.clear()
        standard_sod(MoriFibreSpace(*args))
        assert len(asked) == len(set(asked)), (args[0].describe(), args[1], args[3], asked)
    assert len(accepted) == 5868
