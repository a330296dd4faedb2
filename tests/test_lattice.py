from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodatlas.errors import InputError, UnsupportedRangeError
from sodatlas.ktheory import euler_form
from sodatlas.lattice import DivisorClass, SurfaceModel, _quad_solutions

P2 = SurfaceModel("P2")
F0 = SurfaceModel("F0")
DEGREE_MODELS = {
    9: P2,
    8: F0,
    7: SurfaceModel("P2", (2,)),
    6: SurfaceModel("P2", (3,)),
    5: SurfaceModel("P2", (4,)),
}


def _signature(gram) -> tuple[int, int]:
    # congruence diagonalization over Fraction
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][k]), None)
            if j is None:
                continue
            for c in range(n):
                m[k][c] += m[j][c]
            for r in range(n):
                m[r][k] += m[r][j]
        piv = m[k][k]
        if piv > 0:
            pos += 1
        elif piv < 0:
            neg += 1
        for r in range(k + 1, n):
            f = m[r][k] / piv
            for c in range(n):
                m[r][c] -= f * m[k][c]
        for c in range(k + 1, n):
            f = m[k][c] / piv
            for r in range(n):
                m[r][c] -= f * m[r][k]
    return pos, neg


def _surfaces():
    bases = st.sampled_from(["P2", "F0", "F1", "F2", "F3"])
    orbits = st.lists(st.integers(1, 3), max_size=3)
    return st.builds(lambda b, o: SurfaceModel(b, tuple(o)), bases, orbits)


def test_basic_intersections():
    h = P2.basis_class("H")
    assert P2.intersect(h, h) == 1
    bl2 = SurfaceModel("P2", (2,))
    e1, e2 = bl2.basis_class("E1"), bl2.basis_class("E2")
    assert bl2.intersect(e1, e2) == 0
    assert bl2.intersect(e1, e1) == -1
    assert bl2.intersect(bl2.basis_class("H"), e1) == 0
    bl3 = SurfaceModel("P2", (3,))
    assert bl3.intersect(bl3.canonical, bl3.canonical) == 6
    f2 = SurfaceModel("F2")
    s, hh = f2.basis_class("s"), f2.basis_class("h")
    assert f2.intersect(s, s) == -2
    assert f2.intersect(s, hh) == 1
    assert f2.intersect(hh, hh) == 0


def test_canonical_class_coords():
    assert P2.canonical.coords == (-3,)
    assert F0.canonical.coords == (-2, -2)
    assert SurfaceModel("P2", (1,)).canonical.coords == (-3, 1)
    assert SurfaceModel("F2", (1,)).canonical.coords == (-2, -4, 1)


@given(_surfaces())
@settings(max_examples=60, deadline=None)
def test_degree_and_signature(surface):
    n = surface.num_blown
    expected = (9 - n) if surface.hirzebruch_d is None else (8 - n)
    assert surface.degree == expected
    assert surface.picard_rank == len(surface.labels) == len(surface.gram)
    assert _signature(surface.gram) == (1, surface.picard_rank - 1)


def test_r_class_value_examples():
    assert P2.r_class_value(P2.basis_class("H")) == 1
    bl1 = SurfaceModel("P2", (1,))
    assert bl1.r_class_value(bl1.basis_class("E1")) == -1
    assert bl1.r_class_value(bl1.basis_class("H") - bl1.basis_class("E1")) == 0
    assert bl1.r_class_value(bl1.basis_class("H") + bl1.basis_class("E1")) is None
    assert bl1.r_class_value(2 * bl1.basis_class("H")) == 4


def test_table_counts_match():
    expected = {
        -1: {9: 0, 8: 0, 7: 3, 6: 6, 5: 10},
        0: {9: 0, 8: 2, 7: 2, 6: 3, 5: 5},
        1: {9: 1, 8: 0, 7: 1, 6: 2, 5: 5},
    }
    for r, row in expected.items():
        for deg, count in row.items():
            surface = DEGREE_MODELS[deg]
            classes = surface.enumerate_r_classes(r)
            assert len(classes) == count, (r, deg)
            for d in classes:
                assert surface.intersect(d, d) == r
                assert surface.intersect(d, d) + surface.intersect(d, surface.canonical) == -2


def test_explicit_small_sets():
    x6 = DEGREE_MODELS[6]
    h = x6.basis_class("H")
    assert x6.enumerate_r_classes(0) == {h - x6.basis_class(f"E{i}") for i in (1, 2, 3)}
    assert x6.enumerate_r_classes(1) == {h, 2 * h - x6.basis_class("E1") - x6.basis_class("E2") - x6.basis_class("E3")}
    assert F0.enumerate_r_classes(0) == {F0.basis_class("s"), F0.basis_class("h")}
    f1 = SurfaceModel("F1")
    assert f1.enumerate_r_classes(-1) == {f1.basis_class("s")}
    x5 = DEGREE_MODELS[5]
    es = [x5.basis_class(f"E{i}") for i in range(1, 5)]
    expected_minus1 = set(es) | {
        x5.basis_class("H") - a - b for i, a in enumerate(es) for b in es[i + 1:]
    }
    assert x5.enumerate_r_classes(-1) == expected_minus1


def test_root_system_counts_below_supported_degree():
    # classical counts: 56 on degree 2 and 240 on degree 1
    assert len(SurfaceModel("P2", (7,))._r_classes_any_degree(-1)) == 56
    assert len(SurfaceModel("P2", (8,))._r_classes_any_degree(-1)) == 240
    assert len(DEGREE_MODELS[5]._r_classes_any_degree(-2)) == 20


def _former_vectors_with_sum_and_square(n, s, q):
    """The former recursive generator: all integer vectors of length n with
    sum s and sum of squares q, each subproblem solved again from every
    prefix."""
    if n == 0:
        if s == 0 and q == 0:
            yield ()
        return
    if n == 1:
        if s * s == q:
            yield (s,)
        return
    # (s - b)^2 <= (n-1)(q - b^2) prunes the head coordinate
    for b in _quad_solutions(n, -2 * s, s * s - (n - 1) * q):
        if b * b > q:
            continue
        for rest in _former_vectors_with_sum_and_square(n - 1, s - b, q - b * b):
            yield (b,) + rest


def _old_r_classes(surface, r):
    """The enumeration with its former closed forms for unblown bases and its
    former recursive generator."""
    if surface.degree < 1:
        raise UnsupportedRangeError(
            f"enumeration needs degree >= 1, surface {surface.describe()} has {surface.degree}"
        )
    c = 2 + r
    n = surface.num_blown
    found = set()
    if surface.hirzebruch_d is None:
        if n == 0:
            if c % 3 == 0 and (c // 3) ** 2 == r:
                found.add(surface.divisor((c // 3,)))
            return found
        for a in _quad_solutions(9 - n, -6 * c, c * c + n * r):
            s, q = 3 * a - c, a * a - r
            if q < 0:
                continue
            for b in _former_vectors_with_sum_and_square(n, s, q):
                found.add(surface.divisor((a,) + tuple(-x for x in b)))
        return found
    d = surface.hirzebruch_d
    if n == 0:
        # 2b^2 - c.b + r = 0 factors as (2b - r)(b - 1)
        for beta in {1} | ({r // 2} if r % 2 == 0 else set()):
            num = (d - 2) * beta + c
            if num % 2 == 0:
                alpha = num // 2
                cand = surface.divisor((beta, alpha))
                if surface.r_class_value(cand) == r:
                    found.add(cand)
        return found
    for beta in _quad_solutions(8 - n, -4 * c, 4 * r):
        a1 = -(4 * (d - 2) * beta + 2 * n * beta + 4 * c)
        a0 = ((d - 2) ** 2 + n * d) * beta ** 2 + 2 * (d - 2) * c * beta + c * c + n * r
        for alpha in _quad_solutions(4, a1, a0):
            s = 2 * alpha - (d - 2) * beta - c
            q = 2 * alpha * beta - d * beta ** 2 - r
            if q < 0:
                continue
            for b in _former_vectors_with_sum_and_square(n, s, q):
                found.add(surface.divisor((beta, alpha) + tuple(-x for x in b)))
    return found


def _enumeration(enumerate_, surface, r):
    try:
        return enumerate_(surface, r)
    except UnsupportedRangeError as exc:
        return str(exc)


def test_enumeration_matches_the_closed_forms_for_unblown_bases():
    """One window serves every base: with no blown points it closes on the
    classes the former closed forms gave, on P2 with 0-8 points and F0-F11
    with 0-7 points."""
    surfaces = [SurfaceModel("P2", (n,) if n else ()) for n in range(9)]
    surfaces += [SurfaceModel(f"F{d}", (n,) if n else ()) for d in range(12) for n in range(8)]
    pairs = [(s, r) for s in surfaces for r in (-2, -1, 0, 1)]
    assert len(pairs) == 420
    for s, r in pairs:
        want = _enumeration(_old_r_classes, s, r)
        assert _enumeration(SurfaceModel._r_classes_any_degree, s, r) == want, (s.describe(), r)


def _box_r_classes(surface, r, window=range(-25, 26)):
    """Every integer vector inside the Cauchy-Schwarz box, tested one by one.

    With D.K = -(2 + r) and D^2 = r written on the head coordinates, the
    exceptional part b of D has a fixed sum s and square sum q, so
    s^2 <= n.q and |b_i| <= isqrt(q).  The head runs over `window`, and no
    class may lie near its edge."""
    n = surface.num_blown
    d = surface.hirzebruch_d
    c = 2 + r
    heads = []
    for x in window:
        if d is None:
            heads.append(((x,), 3 * x - c, x * x - r))
            continue
        for y in window:
            # D = x.s + y.h - sum b_i E_i
            heads.append(((x, y), 2 * y - (d - 2) * x - c, 2 * x * y - d * x * x - r))
    found = set()
    for head, s, q in heads:
        if q < 0 or s * s > n * q:
            continue
        bound = isqrt(q)
        for b in product(range(-bound, bound + 1), repeat=n):
            if sum(b) == s and sum(x * x for x in b) == q:
                found.add(DivisorClass(head + tuple(-x for x in b)))
    edge = max(abs(window[0]), abs(window[-1])) // 2
    assert all(abs(x) < edge for cls in found for x in cls.coords[: surface.base_rank])
    return found


BOX_SURFACES = [
    SurfaceModel(base, (n,) if n else ()) for base in ("P2", "F0", "F1", "F2", "F3") for n in range(5)
]


@pytest.mark.parametrize("surface", BOX_SURFACES, ids=lambda s: s.describe())
def test_enumeration_matches_the_cauchy_schwarz_box(surface):
    """Independent of the enumeration's windows and of its subproblems: every
    vector of the box is tested, on P2 and F0-F3 with at most 4 points."""
    for r in (-2, -1, 0, 1):
        assert surface._r_classes_any_degree(r) == _box_r_classes(surface, r), r


@pytest.mark.parametrize("n, count", [(6, 27), (7, 126), (8, 2160)])
def test_zero_class_counts_of_del_pezzo_surfaces(n, count):
    """The classical conic-class counts on degrees 3, 2 and 1, by the kernel
    and by the former generator."""
    surface = SurfaceModel("P2", (n,))
    classes = surface._r_classes_any_degree(0)
    assert len(classes) == count
    assert classes == _old_r_classes(surface, 0)


def test_enumeration_gate():
    low = SurfaceModel("P2", (7,))
    with pytest.raises(UnsupportedRangeError):
        low.enumerate_r_classes(0)
    with pytest.raises(InputError):
        DEGREE_MODELS[5].enumerate_r_classes(2)
    # negative r stays available below degree 3
    assert len(low.enumerate_r_classes(-1)) == 56


def test_blow_up_bookkeeping():
    s = SurfaceModel("P2", (3,))
    assert s.describe() == "P2[3]"
    assert s.degree == 6 and s.picard_rank == 4
    s2 = SurfaceModel("P2", (3, 1))
    assert s2.degree == 5
    assert s2.orbit_ranges() == [range(1, 4), range(4, 5)]
    f = SurfaceModel("F0", (2,))
    assert f.degree == 6 and f.picard_rank == 4
    assert f.labels == ("s", "h", "E1", "E2")
    with pytest.raises(InputError):
        SurfaceModel("P2", (3, 0))


@pytest.mark.parametrize("padded, plain", [("F01", "F1"), ("F00", "F0"), ("F0012", "F12")])
def test_zero_padded_hirzebruch_bases_are_one_surface(padded, plain):
    """Both spellings give one surface: one name, `==`, hash and Euler form."""
    a, b = SurfaceModel(padded, (1,)), SurfaceModel(plain, (1,))
    assert a.base == plain and a.describe() == b.describe() == f"{plain}[1]"
    assert a == b and hash(a) == hash(b)
    assert a.hirzebruch_d == b.hirzebruch_d and a.gram == b.gram
    assert euler_form(a) is euler_form(b)


def test_divisor_validation():
    with pytest.raises(InputError):
        P2.divisor((1, 2))
    with pytest.raises(InputError):
        P2.basis_class("E1")
    with pytest.raises(InputError):
        SurfaceModel("X3")


@given(_surfaces(), st.data())
@settings(max_examples=60, deadline=None)
def test_adjunction_parity(surface, data):
    n = surface.picard_rank
    coords = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    d = surface.divisor(coords)
    assert (surface.intersect(d, d) - surface.intersect(d, surface.canonical)) % 2 == 0
