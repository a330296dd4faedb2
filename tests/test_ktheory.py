"""The pairing formula is the single most load-bearing line in the package,
so it is verified symbolically here (sympy) against the two identities that
characterize it, before anything downstream is trusted."""

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sodatlas import ktheory as kt
from sodatlas.errors import InputError
from sodatlas.lattice import SurfaceModel
from test_check_oracle import mutate_class

P2 = SurfaceModel("P2")
BL1 = SurfaceModel("P2", (1,))
X5 = SurfaceModel("P2", (4,))
F2B = SurfaceModel("F2", (2,))


def _symbolic_setup(surface):
    n = surface.picard_rank
    gram = sympy.Matrix(surface.gram)
    k = sympy.Matrix(surface.canonical.coords)

    def pair(u, v):
        return (u.T * gram * v)[0, 0]

    def chi_line(d):
        return 1 + sympy.Rational(1, 2) * (pair(d, d) - pair(d, k))

    def euler(ra, ca, xa, rb, cb, xb):
        return ra * xb + rb * xa - ra * rb + rb * pair(ca, k) - pair(ca, cb)

    return n, pair, chi_line, euler, k


@pytest.mark.parametrize("surface", [P2, SurfaceModel("P2", (3,)), F2B])
def test_symbolic_line_bundle_identity(surface):
    n, pair, chi_line, euler, _ = _symbolic_setup(surface)
    a = sympy.Matrix(sympy.symbols(f"a0:{n}"))
    b = sympy.Matrix(sympy.symbols(f"b0:{n}"))
    lhs = euler(1, a, chi_line(a), 1, b, chi_line(b))
    rhs = chi_line(b - a)
    assert sympy.simplify(sympy.expand(lhs - rhs)) == 0


@pytest.mark.parametrize("surface", [P2, SurfaceModel("P2", (3,)), F2B])
def test_symbolic_serre_duality(surface):
    n, pair, chi_line, euler, k = _symbolic_setup(surface)
    ra, xa, rb, xb = sympy.symbols("ra xa rb xb")
    a = sympy.Matrix(sympy.symbols(f"a0:{n}"))
    b = sympy.Matrix(sympy.symbols(f"b0:{n}"))
    # chi(a, b) = chi(b, a twisted by K); the K-twist leaves chi shifted by c1.K
    ak_c1 = a + ra * k
    ak_chi = xa + pair(a, k)
    lhs = euler(ra, a, xa, rb, b, xb)
    rhs = euler(rb, b, xb, ra, ak_c1, ak_chi)
    assert sympy.simplify(sympy.expand(lhs - rhs)) == 0


@pytest.mark.parametrize("surface", [P2, SurfaceModel("P2", (3,)), F2B])
def test_symbolic_twist_invariance(surface):
    n, pair, chi_line, euler, k = _symbolic_setup(surface)
    ra, xa, rb, xb = sympy.symbols("ra xa rb xb")
    a = sympy.Matrix(sympy.symbols(f"a0:{n}"))
    b = sympy.Matrix(sympy.symbols(f"b0:{n}"))
    l = sympy.Matrix(sympy.symbols(f"l0:{n}"))
    half = sympy.Rational(1, 2)

    def tw(r, c, x):
        return (r, c + r * l, x + pair(c, l) + r * half * (pair(l, l) - pair(l, k)))

    lhs = euler(*tw(ra, a, xa), *tw(rb, b, xb))
    rhs = euler(ra, a, xa, rb, b, xb)
    assert sympy.simplify(sympy.expand(lhs - rhs)) == 0


def test_chi_line_bundle_values():
    assert kt.chi_line_bundle(P2, P2.zero_divisor()) == 1
    for deg, surface in [(9, P2), (6, SurfaceModel("P2", (3,))), (5, X5)]:
        assert kt.chi_line_bundle(surface, -surface.canonical) == 1 + deg
    assert kt.chi_line_bundle(BL1, BL1.basis_class("E1")) == 1
    h = P2.basis_class("H")
    assert kt.line_bundle_class(P2, -h).chi == 0
    assert kt.line_bundle_class(P2, h).chi == 3


def test_torsion_class_guard():
    e1 = BL1.basis_class("E1")
    assert kt.torsion_class(BL1, e1, -1).vector == (0, 0, 1, 0)
    assert kt.torsion_class(BL1, e1, 0).chi == 1
    with pytest.raises(InputError):
        kt.torsion_class(BL1, BL1.basis_class("H"), 0)


def test_euler_examples():
    o = kt.structure_class(BL1)
    t = kt.torsion_class(BL1, BL1.basis_class("E1"), -1)
    assert kt.euler_pairing(o, o) == 1
    assert kt.euler_pairing(o, t) == 0
    assert kt.euler_pairing(t, o) == -1
    assert kt.euler_pairing(t, t) == 1


def test_randomized_line_and_serre_identities():
    rng = random.Random(20260816)
    for surface in (P2, BL1, X5, F2B):
        n = surface.picard_rank
        for _ in range(250):
            d1 = surface.divisor([rng.randint(-6, 6) for _ in range(n)])
            d2 = surface.divisor([rng.randint(-6, 6) for _ in range(n)])
            a = kt.line_bundle_class(surface, d1)
            b = kt.line_bundle_class(surface, d2)
            assert kt.euler_pairing(a, b) == kt.chi_line_bundle(surface, d2 - d1)
            x = kt.KClass(surface, rng.randint(-4, 4), d1, rng.randint(-5, 5))
            y = kt.KClass(surface, rng.randint(-4, 4), d2, rng.randint(-5, 5))
            assert kt.euler_pairing(x, y) == kt.euler_pairing(y, kt.serre_class(x))


def test_twist_of_torsion_is_torsion():
    e = BL1.basis_class("E1")
    h = BL1.basis_class("H")
    t = kt.torsion_class(BL1, e, 2)
    shifted = kt.twist(t, h - 3 * e)
    deg_shift = BL1.intersect(e, h - 3 * e)
    assert shifted == kt.torsion_class(BL1, e, 2 + deg_shift)


def test_twist_action_and_serre_inverse():
    rng = random.Random(7)
    surface = X5
    n = surface.picard_rank
    for _ in range(100):
        a = kt.KClass(
            surface,
            rng.randint(-3, 3),
            surface.divisor([rng.randint(-4, 4) for _ in range(n)]),
            rng.randint(-5, 5),
        )
        l = surface.divisor([rng.randint(-3, 3) for _ in range(n)])
        m = surface.divisor([rng.randint(-3, 3) for _ in range(n)])
        assert kt.twist(kt.twist(a, l), m) == kt.twist(a, l + m)
        assert kt.twist(kt.serre_class(a), -surface.canonical) == a
    assert kt.serre_class(kt.structure_class(P2)).vector == (1, -3, 1)


def _oracle_twist(a, l):
    """The twist in DivisorClass arithmetic, as the library wrote it before
    it built c1 from the coordinates."""
    surface = a.surface
    ll = surface.intersect(l, l)
    lk = surface.intersect(l, surface.canonical)
    c1_l = surface.intersect(a.c1, l)
    chi = a.chi + c1_l + a.rank * ((ll - lk) // 2)
    return kt.KClass(surface, a.rank, a.c1 + a.rank * l, chi)


def test_twist_matches_the_divisor_arithmetic():
    rng = random.Random(20261019)
    for surface in (P2, BL1, X5, F2B, SurfaceModel("F0"), SurfaceModel("F1", (1, 2))):
        n = surface.picard_rank
        for _ in range(200):
            a = kt.KClass(
                surface,
                rng.choice([0, 0, rng.randint(-3, 3)]),
                surface.divisor([rng.randint(-4, 4) for _ in range(n)]),
                rng.randint(-5, 5),
            )
            l = rng.choice([surface.canonical, -surface.canonical])
            if rng.random() < 0.5:
                l = surface.divisor([rng.randint(-3, 3) for _ in range(n)])
            assert kt.twist(a, l) == _oracle_twist(a, l)
    with pytest.raises(InputError, match="length mismatch"):
        kt.twist(kt.structure_class(P2), BL1.canonical)


def test_mutation_oracles():
    # right mutation through a torsion sheet realizes the elementary triangle
    surface = BL1
    e = surface.basis_class("E1")
    h = surface.basis_class("H")
    for d in (h, 2 * h - e, surface.zero_divisor()):
        a = surface.intersect(d, e)
        t = kt.torsion_class(surface, e, a)
        res = mutate_class(t, kt.line_bundle_class(surface, d), "Right")
        assert res == kt.line_bundle_class(surface, d - e)
    # left-mutation oracles frozen from hand computation
    o = kt.structure_class(surface)
    assert mutate_class(o, kt.torsion_class(surface, e, 0), "Left") == -kt.line_bundle_class(surface, -e)
    assert mutate_class(o, kt.line_bundle_class(surface, -e), "Right") == -kt.torsion_class(surface, e, 0)
    f0 = SurfaceModel("F0")
    oh = kt.line_bundle_class(f0, f0.basis_class("h"))
    assert mutate_class(kt.structure_class(f0), oh, "Left") == -kt.line_bundle_class(f0, -f0.basis_class("h"))


def test_hmutation_shadow():
    # on degree >= 3 with a 0-class h: Left through O(D) sends O(D+h) to
    # O(D-h) up to one shift, i.e. to minus its class (chi(O(h)) = 2)
    x6 = SurfaceModel("P2", (3,))
    for h in x6.enumerate_r_classes(0):
        for d in (x6.zero_divisor(), x6.basis_class("H"), -x6.canonical):
            lhs = mutate_class(
                kt.line_bundle_class(x6, d),
                kt.line_bundle_class(x6, d + h),
                "Left",
            )
            assert lhs == -kt.line_bundle_class(x6, d - h)


def test_left_right_inverse_property():
    # Left then Right through the same exceptional class restores t exactly
    # when chi(t, e) = 0, which is the adjacency situation in a collection.
    rng = random.Random(99)
    surface = F2B
    n = surface.picard_rank
    for _ in range(200):
        e = kt.line_bundle_class(surface, surface.divisor([rng.randint(-3, 3) for _ in range(n)]))
        raw = kt.KClass(
            surface,
            rng.randint(-3, 3),
            surface.divisor([rng.randint(-3, 3) for _ in range(n)]),
            rng.randint(-4, 4),
        )
        t = raw - kt.euler_pairing(raw, e) * e
        assert kt.euler_pairing(t, e) == 0
        assert mutate_class(e, mutate_class(e, t, "Left"), "Right") == t
    # without that orthogonality the roundtrip drops the chi(t, e) multiple
    o = kt.structure_class(surface)
    assert mutate_class(o, mutate_class(o, o, "Left"), "Right").is_zero()


def test_class_vector_roundtrip():
    v = (2, -5, 1, 1, 1, 1, 1, 0)
    surface = SurfaceModel("P2", (5,))
    assert kt.class_from_vector(surface, v).vector == v
    with pytest.raises(InputError):
        kt.class_from_vector(P2, (1, 0))
