"""The exact kernels of `intlinalg` against the routes they replaced.

`mat_inverse_integer` is fraction-free Gauss-Jordan (Bareiss); the oracle is
Gauss-Jordan over Fraction followed by an integrality check, as the module
computed it before.  `mat_mul` and `mat_vec` sum `map(mul, ...)`; the oracle
sums a generator over `zip`.  Both sides must give equal results, or raise
ValueError with equal texts, on derandomized examples of the shared fuzzing
profile: unimodular, singular and nonsingular non-unimodular matrices of
size 0 to 12, and products of every shape, empty and zero-column ones
included, with entries of hundreds of digits.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
from test_fuzz import FUZZ

from sodatlas import intlinalg as la

MAX_SIZE = 12


def oracle_inverse(a):
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    out = []
    for row in m:
        if any(x.denominator != 1 for x in row[n:]):
            raise ValueError("inverse is not integral")
        out.append([int(x) for x in row[n:]])
    return out


def oracle_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def oracle_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


EXPECTED_ERROR = {
    "unimodular": None,
    "singular": "singular matrix",
    "non-unimodular": "inverse is not integral",
}


@st.composite
def square(draw, kind):
    """A square matrix of the given kind: diag(d_1, ..., d_n) moved by
    elementary row and column operations, which keep the determinant, with
    its rows permuted.  "unimodular" draws every d_i = +-1, "non-unimodular"
    one |d_i| in 2..9 and "singular" one d_i = 0."""
    n = draw(st.integers(0 if kind == "unimodular" else 1, MAX_SIZE))
    diag = [draw(st.sampled_from([1, -1])) for _ in range(n)]
    if kind != "unimodular":
        special = draw(st.integers(2, 9)) * draw(st.sampled_from([1, -1]))
        diag[draw(st.integers(0, n - 1))] = 0 if kind == "singular" else special
    m = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    if n > 1:
        ops = draw(st.lists(
            st.tuples(st.booleans(), st.integers(0, n - 1), st.integers(0, n - 1),
                      st.integers(-3, 3)),
            max_size=3 * n,
        ))
        for on_rows, i, j, q in ops:
            if i == j:
                continue
            if on_rows:
                m[i] = [x + q * y for x, y in zip(m[i], m[j])]
            else:
                for row in m:
                    row[i] += q * row[j]
        m = draw(st.permutations(m))
    return m


def small_square():
    """Unstructured square matrices with small entries, of any kind."""
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


@FUZZ
@given(st.sampled_from(sorted(EXPECTED_ERROR)), st.data())
def test_inverse_matches_the_fraction_gauss_jordan(kind, data):
    a = data.draw(square(kind))
    before = [row[:] for row in a]
    outcome = _outcome(la.mat_inverse_integer, a)
    assert outcome == _outcome(oracle_inverse, a)
    assert a == before
    if EXPECTED_ERROR[kind] is not None:
        assert outcome == ("error", EXPECTED_ERROR[kind])
        return
    inv = outcome[1]
    assert la.mat_mul(a, inv) == la.identity(len(a))
    assert la.mat_mul(inv, a) == la.identity(len(a))


@FUZZ
@given(small_square())
def test_inverse_of_unstructured_matrices_matches(a):
    assert _outcome(la.mat_inverse_integer, a) == _outcome(oracle_inverse, a)


BIG = st.integers(-(10**300), 10**300)
ENTRY = st.one_of(st.integers(-9, 9), BIG)


def _rows(m, n):
    return st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=m, max_size=m)


def _inner_length(k):
    # mostly the matching length; otherwise any, which map and zip both
    # cut to the shorter side
    return st.one_of(st.just(k), st.integers(0, 6))


@FUZZ
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_products_match_the_generator_sums(m, k, n, data):
    a = data.draw(_rows(m, k))
    b = data.draw(_inner_length(k).flatmap(lambda rows: _rows(rows, n)))
    v = data.draw(_inner_length(k).flatmap(lambda size: _rows(1, size)))[0]
    assert la.mat_mul(a, b) == oracle_mul(a, b)
    assert la.mat_vec(a, v) == oracle_vec(a, v)
