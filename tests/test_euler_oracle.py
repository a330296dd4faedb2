"""The closed-form intersection and the Euler row against the dense formulas.

`dense_intersect` is the library's former intersection: a loop over every
entry of the Gram matrix.  `dense_euler_pairing` is the former pairing
formula, written on top of it.  Both are kept here unchanged as independent
oracles for `SurfaceModel.intersect`, `euler_row` and `euler_pairing`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodatlas.errors import InputError
from sodatlas.ktheory import KClass, euler_pairing, euler_row
from sodatlas.lattice import DivisorClass, SurfaceModel

BOUND = 10**6
ORACLE = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def dense_intersect(surface, a, b):
    g = surface.gram
    return sum(
        x * sum(g[i][j] * y for j, y in enumerate(b.coords))
        for i, x in enumerate(a.coords)
    )


def dense_euler_pairing(a, b):
    surface = a.surface
    c1a_c1b = dense_intersect(surface, a.c1, b.c1)
    c1a_k = dense_intersect(surface, a.c1, surface.canonical)
    return a.rank * b.chi + b.rank * a.chi - a.rank * b.rank + b.rank * c1a_k - c1a_c1b


# P2[k] for k <= 8 and F_d[k] for d <= 3, k <= 8
surfaces = st.builds(
    lambda base, k: SurfaceModel(base, (1,) * k),
    st.sampled_from(["P2", "F0", "F1", "F2", "F3"]),
    st.integers(0, 8),
)
coord = st.integers(-BOUND, BOUND)


@st.composite
def divisor_pairs(draw):
    surface = draw(surfaces)
    n = surface.picard_rank
    a, b = (DivisorClass(tuple(draw(st.lists(coord, min_size=n, max_size=n)))) for _ in "ab")
    return surface, a, b


@st.composite
def kclass_pairs(draw):
    surface, c1a, c1b = draw(divisor_pairs())
    a = KClass(surface, draw(coord), c1a, draw(coord))
    b = KClass(surface, draw(coord), c1b, draw(coord))
    return a, b


@ORACLE
@given(divisor_pairs())
def test_closed_form_intersect_matches_the_dense_loop(case):
    surface, a, b = case
    assert surface.intersect(a, b) == dense_intersect(surface, a, b)
    assert surface.intersect(a, surface.canonical) == dense_intersect(surface, a, surface.canonical)


@ORACLE
@given(kclass_pairs())
def test_euler_row_matches_the_dense_pairing(case):
    a, b = case
    expected = dense_euler_pairing(a, b)
    assert euler_pairing(a, b) == expected
    assert sum(x * y for x, y in zip(euler_row(a), b.vector, strict=True)) == expected


@pytest.mark.parametrize("base", ["P2", "F2"])
def test_closed_form_intersect_keeps_the_length_check(base):
    surface = SurfaceModel(base, (2,))
    good = surface.zero_divisor()
    short = DivisorClass(good.coords[:-1])
    for a, b in ((good, short), (short, good)):
        with pytest.raises(InputError, match="length mismatch"):
            surface.intersect(a, b)
