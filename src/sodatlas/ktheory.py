"""K-group of a rational surface in (rank, c1, chi) coordinates.

The group is Z + Pic + Z, with exact integer arithmetic; ``sigma_kclass``
moves a class by a Picard isometry fixing K.

The Euler pairing is one linear functional per class: ``euler_row(a)`` is
chi(a, -) on the vector (rank, c1..., chi), so chi(a, b) is an integer dot
product and a Gram matrix costs one row per class.  ``euler_form`` is the
matrix X of the pairing, chi(x, y) = x.X.y^T.  Its formula,

    chi(a, b) = r_a chi_b + r_b chi_a - r_a r_b + r_b (c1_a.K) - c1_a.c1_b,

was verified symbolically (see the test suite) against the two identities
that pin it down: the line-bundle specialization chi(O(A), O(B)) =
chi(O(B-A)) and the duality chi(a, b) = chi(b, a*K).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from operator import mul

from . import intlinalg
from .errors import InputError
from .lattice import DivisorClass, SurfaceModel, apply_divisor_matrix


@dataclass(frozen=True)
class KClass:
    surface: SurfaceModel
    rank: int
    c1: DivisorClass
    chi: int

    def __post_init__(self) -> None:
        if len(self.c1.coords) != self.surface.picard_rank:
            raise InputError("c1 does not live on the stated surface")

    def __add__(self, other: "KClass") -> "KClass":
        self._check(other)
        return KClass(self.surface, self.rank + other.rank, self.c1 + other.c1, self.chi + other.chi)

    def __sub__(self, other: "KClass") -> "KClass":
        self._check(other)
        return KClass(self.surface, self.rank - other.rank, self.c1 - other.c1, self.chi - other.chi)

    def __neg__(self) -> "KClass":
        return KClass(self.surface, -self.rank, -self.c1, -self.chi)

    def __rmul__(self, k: int) -> "KClass":
        return KClass(self.surface, k * self.rank, k * self.c1, k * self.chi)

    def _check(self, other: "KClass") -> None:
        if self.surface != other.surface:
            raise InputError("classes live on different surfaces")

    def is_zero(self) -> bool:
        return self.rank == 0 and self.chi == 0 and self.c1.is_zero()

    @cached_property
    def vector(self) -> tuple[int, ...]:
        """Coordinates (rank, c1..., chi) used wherever matrices act on K."""
        return (self.rank,) + self.c1.coords + (self.chi,)


def class_from_vector(surface: SurfaceModel, vec) -> KClass:
    vec = tuple(map(int, vec))
    if len(vec) != surface.picard_rank + 2:
        raise InputError("K-class vector has the wrong length")
    return KClass(surface, vec[0], DivisorClass(vec[1:-1]), vec[-1])


def sigma_kclass(a: KClass, mat) -> KClass:
    """Push a K-class through a Picard isometry fixing K: rank and
    holomorphic Euler characteristic are untouched."""
    return KClass(a.surface, a.rank, apply_divisor_matrix(a.surface, mat, a.c1), a.chi)


def chi_line_bundle(surface: SurfaceModel, d: DivisorClass) -> int:
    dd = surface.intersect(d, d)
    dk = surface.intersect(d, surface.canonical)
    return 1 + (dd - dk) // 2


def line_bundle_class(surface: SurfaceModel, d: DivisorClass) -> KClass:
    return KClass(surface, 1, d, chi_line_bundle(surface, d))


def structure_class(surface: SurfaceModel) -> KClass:
    return line_bundle_class(surface, surface.zero_divisor())


def torsion_class(surface: SurfaceModel, e: DivisorClass, k: int) -> KClass:
    if surface.r_class_value(e) != -1:
        raise InputError("torsion classes require a (-1)-class support")
    return KClass(surface, 0, e, k + 1)


def euler_row(a: KClass) -> tuple[int, ...]:
    """The functional chi(a, -) on vectors (rank, c1..., chi):
    chi(a, b) = euler_row(a) . b.vector.

    Coefficients: chi_a - rank_a + c1_a.K on the rank, -G.c1_a on c1 (G the
    intersection form, in the closed form of `lattice`), rank_a on chi."""
    surface = a.surface
    c = a.c1.coords
    d = surface.hirzebruch_d
    if d is None:
        c1_part = (-c[0],) + c[1:]
    else:
        c1_part = (d * c[0] - c[1], -c[0]) + c[2:]
    head = a.chi - a.rank + surface.intersect(a.c1, surface.canonical)
    return (head,) + c1_part + (a.rank,)


@cache
def euler_form(surface: SurfaceModel) -> tuple[tuple[int, ...], ...]:
    """The Euler form X, chi(x, y) = x.X.y^T on (rank, c1..., chi): row i is
    the euler_row of the i-th unit vector.  Computed once per surface."""
    units = intlinalg.identity(surface.picard_rank + 2)
    return tuple(euler_row(class_from_vector(surface, e)) for e in units)


@cache
def euler_form_det(surface: SurfaceModel) -> int:
    """det X, X = euler_form(surface)."""
    return intlinalg.det(euler_form(surface))


def euler_pairing(a: KClass, b: KClass) -> int:
    a._check(b)
    return sum(map(mul, euler_row(a), b.vector))


def twist(a: KClass, l: DivisorClass) -> KClass:
    surface = a.surface
    r = a.rank
    ll = surface.intersect(l, l)
    lk = surface.intersect(l, surface.canonical)
    c1_l = surface.intersect(a.c1, l)
    c1 = DivisorClass(tuple([x + r * y for x, y in zip(a.c1.coords, l.coords)]))
    return KClass(surface, r, c1, a.chi + c1_l + r * ((ll - lk) // 2))


def serre_class(a: KClass) -> KClass:
    return twist(a, a.surface.canonical)
