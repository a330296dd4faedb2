"""Mori fibre spaces, their standard decompositions, and the numerical
classification of links between them.

Everything is modeled on the Picard/K lattice: a fibre space is a surface
model plus a base kind (and the fibration 0-class F when the base is a
curve).  `MoriFibreSpace` alone decides which fibre spaces exist; over a
point, degree 8 needs two 0-classes, h and s + (d/2)h, which F_d has for
even d only.  A standard decomposition is front blocks followed by the
base's own decomposition pulled back: (O) over a point, (O(-F), O) over a
rational curve.  In the birationally rich degrees the front is the
degree's explicit blocks, built from the r-classes with F taken out of the
rulings, each kind enumerated once; otherwise it is one opaque block, the
span orthogonal to the tail under `ktheory.euler_form`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Literal

from .. import intlinalg
from ..errors import InputError, UnsupportedRangeError
from ..ktheory import (
    KClass,
    class_from_vector,
    euler_form,
    euler_row,
    line_bundle_class,
    structure_class,
)
from ..lattice import DivisorClass, SurfaceModel
from ..mutation import Block, Collection, block_of_classes
from ..textio import render_divisor

BaseKind = Literal["Point", "RationalCurve", "Curve"]

RICH_POINT_DEGREES = (9, 8, 6, 5)
RICH_CURVE_DEGREES = (8, 6, 5)


@dataclass(frozen=True)
class MoriFibreSpace:
    surface: SurfaceModel
    base: BaseKind
    genus: int = 0
    fibration_class: DivisorClass | None = None

    def __post_init__(self) -> None:
        s, deg, f = self.surface, self.surface.degree, self.fibration_class
        if self.base == "Point":
            if f is not None:
                raise InputError("a point base takes no fibration class")
            if deg == 7 or not 1 <= deg <= 9:
                raise InputError(f"no rank-one fibre space of degree {deg} over a point")
            # degree 8 is P2[1] or F_d, and only F_d with even d has two 0-classes
            if deg == 8 and (s.hirzebruch_d is None or s.hirzebruch_d % 2):
                raise InputError("a rank-one degree-8 surface over a point carries two rulings")
        elif self.base == "RationalCurve":
            if deg == 7 or deg > 8:
                raise InputError(f"no conic bundle of degree {deg} over a rational curve")
            self._check_fibration()
            if deg == 8:
                if s.base == "P2" or s.num_blown:
                    raise InputError("a degree-8 conic bundle is a ruled surface without blown points")
                if f not in (s.basis_class("h"), s.basis_class("s")):  # s is a 0-class on F0 only
                    raise InputError("fibration class is not a ruling of this surface")
        elif self.base == "Curve":
            if self.genus < 1:
                raise InputError("a Curve base needs genus >= 1; use RationalCurve for genus 0")
            if deg > 8 * (1 - self.genus):
                raise InputError(
                    f"degree {deg} conic bundle impossible over a genus-{self.genus} curve"
                )
            self._check_fibration()
            raise UnsupportedRangeError(
                "surface models cover rational surfaces only; no model over a positive-genus curve"
            )
        else:
            raise InputError(f"unknown base kind {self.base!r}")

    def _check_fibration(self) -> None:
        if self.fibration_class is None:
            raise InputError("a conic bundle needs its fibration 0-class")
        if self.surface.r_class_value(self.fibration_class) != 0:
            raise InputError("fibration class must be a 0-class")

    @property
    def degree(self) -> int:
        return self.surface.degree


def birationally_rich(mfs: MoriFibreSpace) -> bool:
    """Whether the degree is one of the paper's birationally rich degrees,
    where the standard decomposition has explicit blocks only; every
    fibre space is over a point or a rational curve."""
    return mfs.degree in (RICH_POINT_DEGREES if mfs.base == "Point" else RICH_CURVE_DEGREES)


# -- orthogonality spans ----------------------------------------------------

def orthogonal_span(
    surface: SurfaceModel,
    left_of: list[KClass],
    right_of: list[KClass],
) -> tuple[KClass, ...]:
    """Basis of the lattice of classes x with chi(x, y) = 0 for y in
    `left_of` and chi(z, x) = 0 for z in `right_of` (x sits to the left of
    the first group and to the right of the second).  Saturated, so the
    span is exactly the K-theory of the orthogonal subcategory."""
    # row i of the form is chi(e_i, -), so chi(x, y) = sum_i x_i (row i . y)
    form = euler_form(surface)
    rows = [[sum(map(mul, row, y.vector)) for row in form] for y in left_of]
    rows += [list(euler_row(z)) for z in right_of]
    if not rows:
        rows = [[0] * len(form)]
    basis = intlinalg.kernel_basis(rows)
    return tuple(class_from_vector(surface, v) for v in basis)


def opaque_block_for(
    collection_blocks: list[Block],
    position: int,
    surface: SurfaceModel,
    expected_dim: int,
) -> Block:
    """Solve for the opaque block at `position` from the surrounding
    blocks' orthogonality constraints; its rank must be `expected_dim`."""
    left_of: list[KClass] = []
    right_of: list[KClass] = []
    for q, blk in enumerate(collection_blocks):
        if blk is None:
            continue
        if q < position:
            left_of.extend(o.cls for o in blk.objects)
        elif q > position:
            right_of.extend(o.cls for o in blk.objects)
    span = orthogonal_span(surface, left_of, right_of)
    if len(span) != expected_dim:
        raise InputError(
            f"opaque span has rank {len(span)}, expected {expected_dim}"
        )
    return block_of_classes(span, opaque=True)


# -- standard decompositions -------------------------------------------------

def _sorted_classes(classes) -> list[DivisorClass]:
    return sorted(classes, key=lambda d: d.coords)


def _label_for(surface: SurfaceModel, d: DivisorClass) -> str:
    if not any(d.coords):
        return "O"
    return f"O({render_divisor(surface, -1 * d)})"


def _line_block(surface: SurfaceModel, divisors) -> Block:
    return block_of_classes(
        [line_bundle_class(surface, -1 * d) for d in divisors],
        labels=[_label_for(surface, d) for d in divisors],
    )


def standard_sod(mfs: MoriFibreSpace) -> Collection:
    """The standard decomposition: front blocks, then the base's own
    decomposition pulled back, (O) over a point and (O(-F), O) over a
    rational curve.  The front is the degree's explicit blocks when the
    fibre space is birationally rich, else one opaque orthogonal span.
    `MoriFibreSpace` has already checked the rulings, so this only builds."""
    s = mfs.surface
    deg = mfs.degree
    f = mfs.fibration_class
    o_block = block_of_classes([structure_class(s)], labels=["O"])
    tail = [o_block] if f is None else [_line_block(s, [f]), o_block]
    if not birationally_rich(mfs):
        front = [opaque_block_for([None, *tail], 0, s, s.picard_rank + 2 - len(tail))]
    elif deg == 9:
        h = s.basis_class("H")
        front = [_line_block(s, [2 * h]), _line_block(s, [h])]
    elif deg == 8:
        h = s.basis_class("h")
        if f is None:  # both rulings, in coordinate order
            rulings = [h, s.basis_class("s") + s.hirzebruch_d // 2 * h]
        else:
            rulings = [s.basis_class("s") if f == h else h, f]
        r1, r2 = rulings
        front = [_line_block(s, [r1 + r2]), _line_block(s, [r for r in rulings if r != f])]
    else:  # degrees 6 and 5
        zeros = _sorted_classes(s.enumerate_r_classes(0))
        if deg == 6:
            first = _line_block(s, _sorted_classes(s.enumerate_r_classes(1)))
        else:
            first = block_of_classes([_e_bundle(s, zeros)], labels=["E"])
        front = [first, _line_block(s, [z for z in zeros if z != f])]
    return Collection(s, (*front, *tail))


def e_bundle_class(surface: SurfaceModel) -> KClass:
    """Rank-2 class [O(-H_i)] + [O(-h_i)] on a degree-5 model, computed
    through all five ruling pairs and checked to be pair-independent."""
    if surface.degree != 5:
        raise InputError(f"expected a degree-5 model, got degree {surface.degree}")
    return _e_bundle(surface, _sorted_classes(surface.enumerate_r_classes(0)))


def _e_bundle(surface: SurfaceModel, zeros) -> KClass:
    """e_bundle_class from the model's 0-classes `zeros`, in coordinate order."""
    k = surface.canonical
    values = []
    for h in zeros:
        big_h = -1 * k - h
        values.append(
            line_bundle_class(surface, -1 * big_h) + line_bundle_class(surface, -1 * h)
        )
    first = values[0]
    if any(v != first for v in values[1:]):
        raise InputError("ruling pairs disagree; the model is not a del Pezzo lattice")
    return first


# -- link classification ------------------------------------------------------

LinkType = Literal["I", "II", "III", "IV"]

TYPE_I_DEGREES = ((9, 8), (9, 5), (8, 6), (4, 3))
TYPE_II_POINT_SYMMETRIC = tuple(
    [(d, 1, d) for d in (9, 8, 6, 5, 4, 3, 2)]
    + [(d, 2, d) for d in (9, 8, 6, 5, 4, 3)]
    + [(9, 6, 9), (9, 3, 9), (8, 4, 8), (6, 4, 6), (6, 3, 6)]
)
TYPE_II_POINT_ASYMMETRIC = ((9, 7, 8), (9, 4, 5), (8, 5, 6), (8, 3, 5))
TYPE_IV_DEGREES = (1, 2, 4, 8)


@dataclass(frozen=True)
class LinkDescriptor:
    link_type: LinkType
    degrees: tuple[int, ...]
    base: Literal["Point", "Curve"] = "Point"


def validate_link(d: LinkDescriptor) -> bool:
    """Membership in the numerical classification of links."""
    t, degs = d.link_type, tuple(d.degrees)
    if t == "I":
        return degs in TYPE_I_DEGREES
    if t == "III":
        return tuple(reversed(degs)) in TYPE_I_DEGREES
    if t == "IV":
        if len(degs) == 1:
            return degs[0] in TYPE_IV_DEGREES
        return len(degs) == 2 and degs[0] == degs[1] and degs[0] in TYPE_IV_DEGREES
    if t == "II":
        if d.base == "Curve":
            if len(degs) == 2:
                return degs[0] == degs[1] and degs[0] <= 8
            if len(degs) == 3:
                return degs[0] == degs[2] and degs[0] <= 8 and degs[1] < degs[0]
            return False
        if len(degs) != 3:
            return False
        if degs in TYPE_II_POINT_SYMMETRIC:
            return True
        return degs in TYPE_II_POINT_ASYMMETRIC or tuple(reversed(degs)) in TYPE_II_POINT_ASYMMETRIC
    return False


def geiser_bertini_involution(degree: int, surface: SurfaceModel) -> list[list[int]]:
    """Matrix (columns act on divisor coordinates) of the involution
    D -> (2(D.K)/degree) K - D; degree 1 or 2 and the surface must have
    that degree."""
    if degree not in (1, 2):
        raise InputError("the involution exists in degrees 1 and 2 only")
    if surface.degree != degree:
        raise InputError(
            f"surface has degree {surface.degree}, the degree-{degree} involution needs {degree}"
        )
    n = surface.picard_rank
    k = surface.canonical
    mat = [[0] * n for _ in range(n)]
    for j in range(n):
        basis = surface.divisor(tuple(1 if i == j else 0 for i in range(n)))
        pairing = surface.intersect(basis, k)
        image = (2 * pairing // degree) * k - basis
        for i in range(n):
            mat[i][j] = image.coords[i]
    # involution sanity: squares to identity, isometry, fixes K
    assert intlinalg.mat_mul(mat, mat) == intlinalg.identity(n)
    assert intlinalg.mat_vec(mat, list(k.coords)) == list(k.coords)
    gram = [list(row) for row in surface.gram]
    assert intlinalg.mat_mul(intlinalg.transpose(mat), intlinalg.mat_mul(gram, mat)) == gram
    return mat

