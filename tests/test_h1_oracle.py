"""H^1 from the generators and the group order against three former routes.

The library computes H^1(G, M) as L / (M^G + N.M), N = |G|.  Three of its
former H^1 routes are kept here unchanged as independent oracles:

- `bar_h1` builds the inhomogeneous bar complex over every pair of group
  elements, |G|^2.n rows by |G|.n columns, and Smith reduces it.
- `_cocycle_h1` solves for the values of a cocycle on the generators, with
  the relations read off a walk of the Cayley table; `cocycle_h1` builds
  that table from the breadth-first closure.
- `_kernel_h1` reads L off the kernel of the stacked [g - 1 | -N.I] rows
  and takes the quotient by a solve; its `_fixed_lattice` gives the
  invariant rank.  The library now reads both off the invariant factors of
  the stacked g - 1 rows alone, and must agree with it on arbitrary integer
  generators and any N, singular ones included.

The former matrix closure, one product per element and generator, is kept
as `_old_close`.  The library's closure by index lookup on the orbit of the
basis vectors must list the same elements, or raise the same error with
the same text, on groups and on monoids, finite or not.
"""

import json
from functools import cache
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sodatlas import cli, equivariant, intlinalg
from sodatlas.equivariant import group_action, h1_cyclic, h1_lattice, h1_picard, invariant_rank
from sodatlas.errors import ActionError, InputError, UnsupportedRangeError, VerificationError
from sodatlas.lattice import SurfaceModel


def _freeze(mat):
    return tuple(tuple(int(x) for x in row) for row in mat)


def bar_h1(elements):
    """ker d1 / im d0 of the inhomogeneous bar complex, by Smith reduction."""
    n = len(elements[0])
    order = len(elements)
    pos = {m: i for i, m in enumerate(elements)}
    rows = []
    for g in elements:
        for h in elements:
            gh = _freeze(intlinalg.mat_mul(g, h))
            for r in range(n):
                row = [0] * (order * n)
                for k in range(n):
                    row[pos[h] * n + k] += g[r][k]
                row[pos[gh] * n + r] -= 1
                row[pos[g] * n + r] += 1
                rows.append(row)
    kernel = intlinalg.kernel_basis(rows)
    if not kernel:
        return []
    basis_cols = [[kernel[j][i] for j in range(len(kernel))] for i in range(order * n)]
    coords = []
    for k in range(n):
        image = [0] * (order * n)
        for g in elements:
            for r in range(n):
                image[pos[g] * n + r] = g[r][k] - (1 if r == k else 0)
        sol = intlinalg.solve(basis_cols, image)
        if sol is None:
            raise VerificationError("coboundary falls outside the cocycle lattice")
        coords.append(sol)
    factors = intlinalg.abelian_quotient(len(kernel), coords)
    if 0 in factors:
        raise VerificationError("H^1 came out infinite; the input is not a finite group action")
    return [f for f in factors if f > 1]


def _cocycle_h1(generators, table):
    """Z^1 / B^1 from the values of a cocycle on the generators.

    `table` is the Cayley table `cocycle_h1` builds: elements are indexed in
    the order it finds them, the identity first, then breadth-first by left
    multiplication, and `table[t][i]` is the index of s_t times element i.

    A cocycle (f(gh) = f(g) + g.f(h)) is fixed by its values f(s) on the
    generators: those are the |S|.n unknowns.  Walking the Cayley table in
    that order from f(1) = 0 writes each f(g) as an n x |S|n matrix in the
    unknowns; every edge g -> s.g that reaches an element already seen adds
    the n rows f(s) + s.f(g) - f(sg) = 0.  Their kernel is all of Z^1: the g
    with f(gh) = f(g) + g.f(h) for every h include the generators and are
    closed under products, so in a finite group they are all of G.  B^1 is
    spanned by the coboundaries s -> s.e_k - e_k.
    """
    n = len(generators[0])
    m = len(generators) * n
    # Breadth-first order reaches each element from an earlier one, so
    # value[i] is set before the walk comes to i.
    value = [None] * len(table[0])
    value[0] = [[0] * m for _ in range(n)]
    relations = set()
    for i, f in enumerate(value):
        for t, s in enumerate(generators):
            image = intlinalg.mat_mul(s, f)
            for r in range(n):
                image[r][t * n + r] += 1
            j = table[t][i]
            known = value[j]
            if known is None:
                value[j] = image
            else:
                relations.update(tuple(x - y for x, y in zip(a, b)) for a, b in zip(image, known))
    # The Hermite form is canonical, so the set's order cannot show in the
    # result, and it spans the same lattice in at most |S|n rows: the Smith
    # reduction behind the kernel stays small at any group order.
    relations = intlinalg.hermite_row_form(relations)
    kernel = intlinalg.kernel_basis(relations) if relations else intlinalg.identity(m)
    if not kernel:
        return []
    coboundaries = [[s[r][k] - (r == k) for s in generators for r in range(n)] for k in range(n)]
    coords = intlinalg.solve_many(intlinalg.transpose(kernel), coboundaries)
    if None in coords:
        raise VerificationError("coboundary falls outside the cocycle lattice")
    factors = intlinalg.abelian_quotient(len(kernel), coords)
    if 0 in factors:
        raise VerificationError("H^1 came out infinite; the input is not a finite group action")
    return [f for f in factors if f > 1]


def closure(generators):
    """Every product of the generators, by a plain breadth-first walk."""
    gens = [_freeze(g) for g in generators]
    n = len(gens[0])
    elements = [_freeze([[int(i == j) for j in range(n)] for i in range(n)])]
    seen = set(elements)
    for m in elements:
        for g in gens:
            p = _freeze(intlinalg.mat_mul(g, m))
            if p not in seen:
                seen.add(p)
                elements.append(p)
    return tuple(elements)


def cocycle_h1(generators):
    """`_cocycle_h1` on the Cayley table of the breadth-first closure."""
    gens = tuple(_freeze(g) for g in generators)
    elements = closure(gens)
    index = {m: i for i, m in enumerate(elements)}
    table = [[index[_freeze(intlinalg.mat_mul(g, m))] for m in elements] for g in gens]
    return _cocycle_h1(gens, table)


# -- the capped actions of the group-h1 benchmark, typed out again ---------------

def perm(n, *cycles):
    """Matrix on P2[n] (basis H, E1..En; columns are images) permuting the
    E_i along the given cycles."""
    image = {}
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            image[a] = b
    mat = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        mat[image.get(j, j)][j] = 1
    return mat


def involution(n):
    """Geiser (n = 7) or Bertini (n = 8) involution D -> (2 D.K / K^2) K - D."""
    degree = 9 - n
    k = [-3] + [1] * n
    mat = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        dk = -3 if j == 0 else -1
        for i in range(n + 1):
            mat[i][j] = (2 * dk // degree) * k[i] - (i == j)
    return mat


HEX_ROT = [[2, 1, 1, 1], [-1, -1, 0, -1], [-1, -1, -1, 0], [-1, 0, -1, -1]]

# name -> (number of blown-up points, generators)
ACTIONS = {
    "c3-p2-3": (3, [perm(3, [1, 2, 3])]),
    "s3-p2-3": (3, [perm(3, [1, 2, 3]), perm(3, [1, 2])]),
    "d4-p2-4": (4, [perm(4, [1, 2, 3, 4]), perm(4, [1, 3])]),
    "a4-p2-4": (4, [perm(4, [1, 2, 3]), perm(4, [1, 2], [3, 4])]),
    "c6-p2-6": (6, [perm(6, [1, 2, 3], [4, 5])]),
    "c3xc3-p2-6": (6, [perm(6, [1, 2, 3]), perm(6, [4, 5, 6])]),
    "s3xc2-p2-5": (5, [perm(5, [1, 2, 3]), perm(5, [1, 2]), perm(5, [4, 5])]),
    "hexagon-p2-3": (3, [HEX_ROT, perm(3, [1, 2])]),
    "geiser-p2-7": (7, [involution(7)]),
    "geiser-swap-p2-7": (7, [involution(7), perm(7, [1, 2])]),
    "bertini-p2-8": (8, [involution(8)]),
    "bertini-swap-p2-8": (8, [involution(8), perm(8, [1, 2])]),
}


S4_P2_4 = (4, [perm(4, [1, 2, 3, 4]), perm(4, [1, 2])])


@pytest.mark.parametrize("name", [*ACTIONS, "s4-p2-4"])
def test_closure_lists_the_elements_breadth_first(name):
    n, gens = S4_P2_4 if name == "s4-p2-4" else ACTIONS[name]
    action = group_action(SurfaceModel("P2", (n,)), gens)
    assert action.elements == closure(gens)  # the same breadth-first order, identity first


@cache
def oracle(name):
    return bar_h1(closure(ACTIONS[name][1]))


@pytest.mark.parametrize("name", ACTIONS)
def test_capped_benchmark_actions_agree_with_the_bar_complex(name):
    n, gens = ACTIONS[name]
    action = group_action(SurfaceModel("P2", (n,)), gens)
    assert h1_picard(action) == oracle(name) == cocycle_h1(gens)


def conjugate(mat, p):
    """P mat P^-1 for the basis permutation e_j -> e_p[j]."""
    inv = [0] * len(mat)
    for j, pj in enumerate(p):
        inv[pj] = j
    return [[mat[inv[i]][inv[j]] for j in range(len(mat))] for i in range(len(mat))]


@st.composite
def conjugated_actions(draw):
    name = draw(st.sampled_from(sorted(ACTIONS)))
    n = ACTIONS[name][0]
    p = [0] + draw(st.permutations(range(1, n + 1)))
    return name, p


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(conjugated_actions())
def test_renumbering_the_exceptional_classes_keeps_h1(case):
    name, p = case
    n, gens = ACTIONS[name]
    action = group_action(SurfaceModel("P2", (n,)), [conjugate(g, p) for g in gens])
    assert h1_picard(action) == oracle(name)


@pytest.mark.parametrize("surface", [SurfaceModel("P2"), SurfaceModel("P2", (3,))])
def test_trivial_group_agrees_with_the_bar_complex(surface):
    action = group_action(surface, [])
    assert h1_picard(action) == bar_h1(action.elements) == []


# Modules no surface model hosts: they negate K or have the wrong rank.
CYCLIC_MODULES = [
    [[-1]],
    [[0, 1], [1, 0]],
    [[0, -1], [1, -1]],
    [[-1, 0], [0, -1]],
    [[0, 0, -1], [1, 0, 0], [0, 1, 0]],
]


@pytest.mark.parametrize("mat", CYCLIC_MODULES)
def test_lattice_modules_agree_with_the_bar_complex_and_the_cyclic_formula(mat):
    assert h1_lattice([mat]) == bar_h1(closure([mat])) == h1_cyclic(mat) == cocycle_h1([mat])


def test_klein_four_sign_module_agrees_with_the_bar_complex():
    gens = [[[-1, 0], [0, 1]], [[1, 0], [0, -1]]]
    assert h1_lattice(gens) == bar_h1(closure(gens)) == cocycle_h1(gens) == [2, 2]


def test_s4_on_the_degree_five_model_has_trivial_h1():
    action = group_action(SurfaceModel("P2", (4,)), [perm(4, [1, 2, 3, 4]), perm(4, [1, 2])])
    assert action.order == 24
    assert h1_picard(action) == cocycle_h1(action.generators) == []


def test_h1_lattice_stops_at_the_closure_cap(monkeypatch):
    monkeypatch.setattr(equivariant, "DEFAULT_H1_CAP", 10)
    with pytest.raises(UnsupportedRangeError, match=r"^group closure exceeds the H\^1 cap of 10$"):
        h1_lattice([[[1, 1], [0, 1]]])


# -- random subgroups of W(E_k), with and without the K-involution -----------------

def quadratic_reflection(n):
    """Reflection in the root H - E1 - E2 - E3 on P2[n]: x -> x + (x.a) a."""
    root = [1, -1, -1, -1] + [0] * (n - 3)
    dot = [root[0]] + [-r for r in root[1:]]  # x.a = dot . x
    return [[(i == j) + dot[j] * root[i] for j in range(n + 1)] for i in range(n + 1)]


def _product(mats, n):
    out = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    for m in mats:
        out = intlinalg.mat_mul(m, out)
    return out


WEYL_CAP = 200


@st.composite
def weyl_subgroups(draw):
    """P2[k] for k = 3..8 and generators in W(E_k): words in the transpositions
    of the E_i and the quadratic reflection, with the Geiser (k = 7) or
    Bertini (k = 8) involution added when drawn.  A generator whose closure
    would pass `WEYL_CAP` elements is dropped; the first one never is, since
    an element of W(E_8) has order at most 30."""
    k = draw(st.integers(3, 8))
    letters = st.one_of(
        st.just(quadratic_reflection(k)),
        st.lists(st.integers(1, k), min_size=2, max_size=2, unique=True).map(
            lambda ij: perm(k, ij)
        ),
    )
    words = draw(st.lists(st.lists(letters, min_size=1, max_size=4), min_size=1, max_size=3))
    gens = [_product(w, k) for w in words]
    if k >= 7 and draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), involution(k))
    kept = []
    for g in gens:
        try:
            group_action(SurfaceModel("P2", (k,)), kept + [g])
        except ActionError:
            continue
        kept.append(g)
    return k, kept


@pytest.fixture
def weyl_caps(monkeypatch):
    """Both caps at WEYL_CAP, the same for every example."""
    monkeypatch.setattr(equivariant, "DEFAULT_CLOSURE_CAP", WEYL_CAP)
    monkeypatch.setattr(equivariant, "DEFAULT_H1_CAP", WEYL_CAP)


@settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(weyl_subgroups())
def test_weyl_subgroups_agree_with_the_cocycle_walk(weyl_caps, case):
    k, gens = case
    action = group_action(SurfaceModel("P2", (k,)), gens)
    assert action.elements == closure(action.generators)
    assert h1_picard(action) == cocycle_h1(action.generators)


# -- the closure on the orbit of the basis, against the matrix closure ----------

def _old_close(generators, cap):
    """The former `equivariant._close`: one matrix product per (element,
    generator) pair, breadth-first, identity first, capped per element."""
    if not generators:
        raise InputError("closure needs at least one matrix")
    elements = [_freeze(intlinalg.identity(len(generators[0])))]
    seen = set(elements)
    for m in elements:
        for g in generators:
            p = _freeze(intlinalg.mat_mul(g, m))
            if p not in seen:
                seen.add(p)
                elements.append(p)
                if len(elements) > cap:
                    raise ActionError(f"group closure exceeded the cap of {cap} elements")
    return tuple(elements)


def _outcome(close, generators, cap):
    """The elements `close` lists, or the type and text of what it raises."""
    try:
        return close(generators, cap)
    except InputError as exc:  # ActionError among them
        return type(exc), str(exc)


WEYL_A4_P2_4 = (4, [perm(4, [1, 2]), perm(4, [2, 3]), perm(4, [3, 4]), quadratic_reflection(4)])


@pytest.mark.parametrize("name", [*ACTIONS, "s4-p2-4", "weyl-a4-p2-4"])
def test_the_closure_cap_is_the_group_order(name):
    n, gens = {"s4-p2-4": S4_P2_4, "weyl-a4-p2-4": WEYL_A4_P2_4}.get(name) or ACTIONS[name]
    gens = [_freeze(g) for g in gens]
    order = len(closure(gens))
    assert equivariant._close(gens, order) == _old_close(gens, order)
    with pytest.raises(ActionError) as exc:
        equivariant._close(gens, order - 1)
    assert str(exc.value) == f"group closure exceeded the cap of {order - 1} elements"


@pytest.mark.parametrize(
    "generators",
    [
        [[[1, 0], [0, 0]]],  # an idempotent: the monoid {1, g}
        [[[0]]],  # the zero map: {1, 0}
        [[[1, 1], [0, 1]]],  # infinite order
        [[[0, 1], [1, 0]], [[1, 1], [0, 1]]],  # infinite, with a finite generator
        [[[0, 0], [1, 0]]],  # nilpotent: {1, g, 0}
        [[]],  # the 0x0 matrix
        [[], []],
        [],  # no generator at all
    ],
    ids=repr,
)
@pytest.mark.parametrize("cap", [1, 2, 3, 4, 50])
def test_edge_generators_close_as_the_matrix_closure_did(generators, cap):
    assert _outcome(equivariant._close, generators, cap) == _outcome(_old_close, generators, cap)


@st.composite
def square_generators(draw):
    """1 to 3 square generators of one size n = 0..4: signed permutation
    matrices (isometries of the standard form) or matrices with entries in
    -1..1, invertible or not; and a cap of 1 to 100."""
    n = draw(st.integers(0, 4))
    signed = st.tuples(
        st.permutations(range(n)), st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
    ).map(lambda ps: [[ps[1][j] * (i == ps[0][j]) for j in range(n)] for i in range(n)])
    small = st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n), min_size=n, max_size=n)
    gens = draw(st.lists(st.one_of(signed, signed, small), min_size=1, max_size=3))
    return gens, draw(st.integers(1, 100))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(square_generators())
def test_the_orbit_closure_agrees_with_the_matrix_closure(case):
    gens, cap = case
    assert _outcome(equivariant._close, gens, cap) == _outcome(_old_close, gens, cap)


# -- one Smith form against the former kernel-solve-quotient route ----------------

def _fixed_lattice(generators):
    """The rows of g - 1 stacked over the generators, and a basis of their
    kernel, the fixed sublattice."""
    n = len(generators[0])
    rows = [[g[i][j] - (i == j) for j in range(n)] for g in generators for i in range(n)]
    return rows, intlinalg.kernel_basis(rows)


def _kernel_h1(generators, order):
    """The former `equivariant._h1`: L / (M^G + N.M) for N = order.

    L is the x-part of the kernel of the stacked [g - 1 | -N.I] rows, whose
    other part holds the quotients (g - 1)x / N; the x-part fixes them, so
    it is a basis of L.  M^G is the kernel of the g - 1 rows alone.
    """
    n = len(generators[0])
    rows, fixed = _fixed_lattice(generators)
    stacked = [row + [-order * (i == k) for k in range(len(rows))] for i, row in enumerate(rows)]
    lattice = [v[:n] for v in intlinalg.kernel_basis(stacked)]
    spanning = fixed + [[order * (i == k) for i in range(n)] for k in range(n)]
    coords = intlinalg.solve_many(intlinalg.transpose(lattice), spanning)
    if None in coords:
        raise VerificationError("a vector of M^G + N.M falls outside L")
    return intlinalg.abelian_quotient(n, coords)


def _rank(generators):
    """`invariant_rank` on bare generators: it reads only the generators and
    the Picard rank, so no surface has to host them."""
    n = len(generators[0])
    action = SimpleNamespace(surface=SimpleNamespace(picard_rank=n), generators=generators)
    return invariant_rank(action)


@st.composite
def integer_generators(draw):
    """1 to 3 integer matrices of one size n = 0..6, singular or not, with
    small entries (which make torsion and kernels likely) or arbitrary ones;
    and an order N >= 1, small or arbitrary."""
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-2, 3), st.integers(-2, 3), st.integers())
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    gens = draw(st.lists(matrix, min_size=1, max_size=3))
    order = draw(st.one_of(st.integers(1, 120), st.integers(min_value=1)))
    return tuple(_freeze(g) for g in gens), order


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(integer_generators())
def test_the_smith_route_agrees_with_the_kernel_route(case):
    gens, order = case
    assert equivariant._h1(equivariant._moved_factors(gens), order) == _kernel_h1(gens, order)
    assert _rank(gens) == len(_fixed_lattice(gens)[1])


@pytest.mark.parametrize("name", [*ACTIONS, "s4-p2-4", "weyl-a4-p2-4"])
def test_benchmark_actions_agree_with_the_kernel_route(name):
    n, gens = {"s4-p2-4": S4_P2_4, "weyl-a4-p2-4": WEYL_A4_P2_4}.get(name) or ACTIONS[name]
    action = group_action(SurfaceModel("P2", (n,)), gens)
    # W(A4) has order 120, above the H^1 cap, so its H^1 is taken directly
    gens, order = action.generators, action.order
    assert equivariant._h1(equivariant._moved_factors(gens), order) == _kernel_h1(gens, order)
    assert invariant_rank(action) == len(_fixed_lattice(gens)[1])


@pytest.mark.parametrize("name", ACTIONS)
def test_h1_and_the_invariant_rank_take_one_smith_reduction_each(name, monkeypatch, tmp_path, capsys):
    """One reduction per action, kept for both invariants in either order,
    and one per `group` run."""
    n, gens = ACTIONS[name]
    calls = {"smith_normal_form": 0, "kernel_basis": 0, "solve_many": 0}
    for fn in calls:
        def counted(*args, _fn=fn, _original=getattr(intlinalg, fn)):
            calls[_fn] += 1
            return _original(*args)

        monkeypatch.setattr(intlinalg, fn, counted)
    for first, second in ((h1_picard, invariant_rank), (invariant_rank, h1_picard)):
        action = group_action(SurfaceModel("P2", (n,)), gens)
        calls.update(dict.fromkeys(calls, 0))
        first(action)
        assert calls == {"smith_normal_form": 1, "kernel_basis": 0, "solve_many": 0}
        second(action)
        assert calls == {"smith_normal_form": 1, "kernel_basis": 0, "solve_many": 0}
    config = tmp_path / "action.cfg"
    config.write_text(f"[group]\nmodel = P2[{n}]\n" + "".join(f"gen = {json.dumps(g)}\n" for g in gens))
    calls.update(dict.fromkeys(calls, 0))
    assert cli.main(["group", "--action", str(config)]) == 0
    assert "H1: " in capsys.readouterr().out
    assert calls == {"smith_normal_form": 1, "kernel_basis": 0, "solve_many": 0}
