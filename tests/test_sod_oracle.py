"""standard_sod against the case-by-case construction it replaced.

The old construction is kept here as the oracle: it writes the rich
degrees once per base, the point base first and then the rational curve.
The library states them once, as front blocks followed by the base's own
decomposition pulled back.  Both must give the same blocks, labels, class
vectors and opaque flags, or raise the same error with the same text, on a
family of fibre spaces: the plane with 0 to 8 points and F0 to F4 with 0
to 7 points, in every ordered split into orbits, over a point, a rational
curve and a genus-1 curve, with no fibration class, each 0-class and each
basis class.  In the rich degrees
the family adds conic bundles whose fibration class is not a 0-class,
built past the constructor's check, so that the checks on the rulings
raise too.
"""

from functools import lru_cache

from sodatlas.catalog.core import (
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


def _old_standard_sod(mfs):
    s = mfs.surface
    deg = mfs.degree
    o_block = block_of_classes([structure_class(s)], labels=["O"])
    if mfs.base == "Curve":
        raise UnsupportedRangeError(
            "surface models cover rational surfaces only; no model over a positive-genus curve"
        )
    if mfs.base == "Point":
        if deg == 9:
            h = s.basis_class("H")
            return Collection(s, (_line_block(s, [2 * h]), _line_block(s, [h]), o_block))
        if deg == 8:
            zero = _sorted_classes(s.enumerate_r_classes(0))
            if len(zero) != 2:
                raise InputError("a rank-one degree-8 surface over a point carries two rulings")
            h1, h2 = zero
            return Collection(s, (_line_block(s, [h1 + h2]), _line_block(s, [h1, h2]), o_block))
        if deg == 6:
            ones = _sorted_classes(s.enumerate_r_classes(1))
            zeros = _sorted_classes(s.enumerate_r_classes(0))
            return Collection(s, (_line_block(s, ones), _line_block(s, zeros), o_block))
        if deg == 5:
            zeros = _sorted_classes(s.enumerate_r_classes(0))
            e_block = block_of_classes([e_bundle_class(s)], labels=["E"])
            return Collection(s, (e_block, _line_block(s, zeros), o_block))
        opaque = opaque_block_for([None, o_block], 0, s, s.picard_rank + 1)
        return Collection(s, (opaque, o_block))
    f = mfs.fibration_class
    fib_block = _line_block(s, [f])
    if deg == 8:
        if s.base == "P2" or s.num_blown:
            raise InputError("a degree-8 conic bundle is a ruled surface without blown points")
        if f == s.basis_class("h"):
            section = s.basis_class("s")
        elif s.hirzebruch_d == 0 and f == s.basis_class("s"):
            section = s.basis_class("h")
        else:
            raise InputError("fibration class is not a ruling of this surface")
        return Collection(
            s,
            (_line_block(s, [section + f]), _line_block(s, [section]), fib_block, o_block),
        )
    if deg == 6:
        ones = _sorted_classes(s.enumerate_r_classes(1))
        zeros = [z for z in _sorted_classes(s.enumerate_r_classes(0)) if z != f]
        if len(zeros) != 2:
            raise InputError("fibration class is not one of the three rulings")
        return Collection(s, (_line_block(s, ones), _line_block(s, zeros), fib_block, o_block))
    if deg == 5:
        zeros = [z for z in _sorted_classes(s.enumerate_r_classes(0)) if z != f]
        if len(zeros) != 4:
            raise InputError("fibration class is not one of the five rulings")
        e_block = block_of_classes([e_bundle_class(s)], labels=["E"])
        return Collection(s, (e_block, _line_block(s, zeros), fib_block, o_block))
    tail = [fib_block, o_block]
    opaque = opaque_block_for([None] + tail, 0, s, s.picard_rank)
    return Collection(s, (opaque, fib_block, o_block))


def _orbit_splits(n):
    """Every ordered split of n points into orbits."""
    if n == 0:
        yield ()
        return
    for k in range(1, n + 1):
        for rest in _orbit_splits(n - k):
            yield (k,) + rest


def _surfaces():
    for n in range(9):
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
        pass
    for label in s.labels:
        yield s.basis_class(label)


def _unchecked_bundle(s, f):
    """A conic bundle over a rational curve, built without the constructor's
    checks on its fibration class."""
    mfs = object.__new__(MoriFibreSpace)
    values = {"surface": s, "base": "RationalCurve", "genus": 0, "fibration_class": f}
    for name, value in values.items():
        object.__setattr__(mfs, name, value)
    return mfs


@lru_cache(maxsize=None)
def _outcomes():
    """Each fibre space of the family with the old and the new outcome."""
    out = []
    for s in _surfaces():
        for base in ("Point", "RationalCurve", "Curve"):
            for f in _fibrations(s) if base != "Point" else [None]:
                try:
                    mfs = MoriFibreSpace(s, base, genus=int(base == "Curve"), fibration_class=f)
                except InputError:
                    if base != "RationalCurve" or f is None:
                        continue
                    mfs = _unchecked_bundle(s, f)
                    if not birationally_rich(mfs):
                        continue
                out.append((mfs, _outcome(_old_standard_sod, mfs), _outcome(standard_sod, mfs)))
    return out


def _outcome(build, mfs):
    try:
        coll = build(mfs)
    except SodatlasError as exc:
        return type(exc).__name__, str(exc)
    return tuple(
        (b.opaque, tuple(o.label for o in b.objects), tuple(o.cls.vector for o in b.objects))
        for b in coll.blocks
    )


def _raised(outcome):
    return isinstance(outcome[0], str)


def test_standard_sod_matches_the_case_by_case_construction():
    outcomes = _outcomes()
    for mfs, old, new in outcomes:
        assert new == old, (mfs.surface.describe(), mfs.base, mfs.fibration_class)
    built = [old for _, old, _ in outcomes if not _raised(old)]
    texts = {old[1] for _, old, _ in outcomes if _raised(old)}
    assert (len(outcomes), len(built)) == (5592, 5420)
    assert {mfs.degree for mfs, _, _ in outcomes} == {1, 2, 3, 4, 5, 6, 8, 9}
    assert texts == {
        "a rank-one degree-8 surface over a point carries two rulings",
        "a degree-8 conic bundle is a ruled surface without blown points",
        "fibration class is not a ruling of this surface",
        "fibration class is not one of the three rulings",
        "fibration class is not one of the five rulings",
    }


def test_rich_exactly_when_no_block_is_opaque():
    for mfs, _, new in _outcomes():
        if not _raised(new):
            assert birationally_rich(mfs) == (not any(opaque for opaque, _, _ in new))
