"""The class transports and the Euler form against the routes they replaced.

`lattice.apply_divisor_matrix` is one matrix-vector product that builds the
`DivisorClass` directly.  The oracle is the earlier route: `intlinalg.mat_vec`,
then `SurfaceModel.divisor`, which converts and checks the image a second
time.  On seeded random integer matrices and classes over P2 with 0 to 8
points and over F0-F2, both give the same images and, for a wrong row count,
the same error.  `ktheory.euler_form` is checked against `euler_pairing`:
chi(x, y) = x.X.y^T.
"""

import random

import pytest

from sodatlas import intlinalg
from sodatlas.errors import InputError
from sodatlas.ktheory import (
    KClass,
    class_from_vector,
    euler_form,
    euler_form_det,
    euler_pairing,
    sigma_kclass,
)
from sodatlas.lattice import DivisorClass, SurfaceModel, apply_divisor_matrix

_SEED = 20261019


def _orbit_split(rng, n):
    """A random ordered split of n points into orbits."""
    sizes = []
    while n:
        sizes.append(rng.randint(1, n))
        n -= sizes[-1]
    return tuple(sizes)


SURFACES = [SurfaceModel("P2", _orbit_split(random.Random(_SEED + n), n)) for n in range(9)]
SURFACES += [SurfaceModel(f"F{d}") for d in range(3)]


def _vector(rng, n):
    return [rng.randint(-9, 9) for _ in range(n)]


def _matrix(rng, rows, cols):
    mat = [_vector(rng, cols) for _ in range(rows)]
    return mat if rng.random() < 0.5 else tuple(map(tuple, mat))


def _oracle(surface, mat, d):
    return surface.divisor(tuple(intlinalg.mat_vec(mat, list(d.coords))))


def _error(fn, *args):
    with pytest.raises(InputError) as exc:
        fn(*args)
    return str(exc.value)


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.describe())
def test_divisor_images_agree_with_the_oracle(surface):
    rng = random.Random(f"{_SEED}-{surface.describe()}")
    n = surface.picard_rank
    for _ in range(60):
        mat = _matrix(rng, n, n)
        d = DivisorClass(tuple(_vector(rng, n)))
        image = apply_divisor_matrix(surface, mat, d)
        assert image == _oracle(surface, mat, d)
        assert all(type(x) is int for x in image.coords)
    for rows in (0, n - 1, n + 1, 2 * n):
        mat = _matrix(rng, rows, n)
        text = _error(apply_divisor_matrix, surface, mat, d)
        assert text == _error(_oracle, surface, mat, d)
        assert text == f"expected {n} coefficients, got {rows}"


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.describe())
def test_kclass_transport_keeps_rank_and_chi(surface):
    rng = random.Random(f"{_SEED}-sigma-{surface.describe()}")
    n = surface.picard_rank
    for _ in range(30):
        mat = _matrix(rng, n, n)
        c1 = DivisorClass(tuple(_vector(rng, n)))
        a = KClass(surface, rng.randint(-3, 3), c1, rng.randint(-9, 9))
        image = sigma_kclass(a, mat)
        assert (image.surface, image.rank, image.chi) == (surface, a.rank, a.chi)
        assert image.c1 == _oracle(surface, mat, a.c1)
    assert _error(sigma_kclass, a, mat[:-1]) == _error(_oracle, surface, mat[:-1], a.c1)


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.describe())
def test_euler_form_gives_the_euler_pairing(surface):
    rng = random.Random(f"{_SEED}-euler-{surface.describe()}")
    n = surface.picard_rank + 2
    form = euler_form(surface)
    assert len(form) == n and all(len(row) == n for row in form)
    assert euler_form(surface) is form
    assert euler_form_det(surface) == intlinalg.det(form)
    for _ in range(40):
        x, y = _vector(rng, n), _vector(rng, n)
        xform = sum(x[i] * form[i][j] * y[j] for i in range(n) for j in range(n))
        assert xform == euler_pairing(class_from_vector(surface, x), class_from_vector(surface, y))


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.describe())
def test_class_from_vector_converts_once_and_checks_the_length(surface):
    rng = random.Random(f"{_SEED}-vector-{surface.describe()}")
    n = surface.picard_rank + 2
    vec = _vector(rng, n)
    a = class_from_vector(surface, vec)
    assert a == KClass(surface, vec[0], surface.divisor(vec[1:-1]), vec[-1])
    assert a.vector == tuple(vec)
    for length in (0, n - 1, n + 1):
        assert _error(class_from_vector, surface, _vector(rng, length)) == (
            "K-class vector has the wrong length"
        )
