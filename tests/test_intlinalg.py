from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sodatlas import intlinalg as la


def _matrices(max_dim: int = 4, lo: int = -9, hi: int = 9):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def _det_fraction(a) -> Fraction:
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    sign = 1
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        d *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / inv
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return sign * d


def test_xgcd_basics():
    g0, x0, y0 = la.xgcd(0, 0)
    assert g0 == 0 and 0 * x0 + 0 * y0 == g0
    for a, b in [(12, 18), (-4, 6), (7, 0), (0, -5), (240, 46)]:
        g, x, y = la.xgcd(a, b)
        assert g >= 0
        assert a * x + b * y == g
        assert a % g == 0 and b % g == 0 if g else (a == b == 0)


@given(_matrices())
@settings(max_examples=200, deadline=None)
def test_smith_normal_form_properties(a):
    u, d, v = la.smith_normal_form(a)
    assert la.mat_mul(la.mat_mul(u, a), v) == d
    assert abs(la.det(u)) == 1
    assert abs(la.det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    for prev, cur in zip(diag, diag[1:]):
        assert cur == 0 or (prev != 0 and cur % prev == 0)
        assert prev >= 0 and cur >= 0
    nonzero = [x for x in diag if x]
    assert diag[: len(nonzero)] == nonzero


@given(_matrices())
@settings(max_examples=200, deadline=None)
def test_kernel_basis_annihilates_and_saturates(a):
    kern = la.kernel_basis(a)
    ncols = len(a[0])
    for vec in kern:
        assert la.mat_vec(a, vec) == [0] * len(a)
    assert len(kern) == ncols - len(la.invariant_factors(a))
    if kern:
        # saturation: the kernel basis extends to a basis of Z^n
        factors = la.invariant_factors(kern)
        assert all(f == 1 for f in factors)


@given(_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_recovers_images(a, data):
    ncols = len(a[0])
    x = data.draw(st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols))
    b = la.mat_vec(a, x)
    sol = la.solve(a, b)
    assert sol is not None
    assert la.mat_vec(a, sol) == b


def test_solve_many_answers_each_right_hand_side():
    a = [[2, 0], [0, 3], [0, 0]]
    assert la.solve_many(a, [[2, 3, 0], [1, 0, 0], [4, -6, 0], [0, 0, 1]]) == [
        [1, 1],
        None,
        [2, -2],
        None,
    ]
    assert la.solve_many(a, []) == []


def test_solve_reports_unsolvable():
    assert la.solve([[2, 0], [0, 2]], [1, 0]) is None
    assert la.solve([[1, 1]], [3]) == [3, 0] or la.solve([[1, 1]], [3]) is not None
    assert la.solve([[0, 0]], [1]) is None


@given(_matrices(max_dim=4))
@settings(max_examples=150, deadline=None)
def test_det_matches_fraction_elimination(a):
    if len(a) != len(a[0]):
        return
    assert la.det(a) == _det_fraction(a)


@given(_matrices(max_dim=4))
@settings(max_examples=100, deadline=None)
def test_hermite_row_form_is_span_invariant(a):
    h = la.hermite_row_form(a)
    # shuffling generators or adding a row multiple keeps the span
    doubled = [row[:] for row in a] + [[2 * x for x in a[0]]]
    mixed = [[x + y for x, y in zip(a[0], a[-1])]] + [row[:] for row in a[1:]] + [a[0][:]]
    assert la.hermite_row_form(doubled) == h
    assert la.hermite_row_form(mixed) == h
    for row in h:
        assert la.solve(la.transpose(list(map(list, h))), list(row)) is not None


def test_hermite_distinguishes_index_two_sublattice():
    full = la.hermite_row_form([[1, 0], [0, 1]])
    sub = la.hermite_row_form([[1, 0], [0, 2]])
    assert full != sub


def test_inverse_fraction_and_integer():
    a = [[1, 2], [3, 5]]
    inv = la.mat_inverse_integer(a)
    assert la.mat_mul(a, inv) == la.identity(2)
    b = [[2, 0], [0, 1]]
    frac = la.mat_inverse_fraction(b)
    assert frac[0][0] == Fraction(1, 2)
    try:
        la.mat_inverse_integer(b)
    except ValueError:
        pass
    else:
        raise AssertionError("non-integral inverse must raise")


def test_abelian_quotient_shapes():
    assert la.abelian_quotient(2, []) == [0, 0]
    assert la.abelian_quotient(1, [[2]]) == [2]
    assert la.abelian_quotient(2, [[1, 0], [0, 3]]) == [3]
    assert la.abelian_quotient(3, [[1, 0, 0]]) == [0, 0]
