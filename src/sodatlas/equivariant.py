"""Finite matrix groups on a Picard lattice.

A group is handed over by generator matrices in the surface basis and closed
by multiplication.  On top of that sit orbit analysis, the rank of the fixed
sublattice, extraction of atoms from an orbitwise contraction, a
permutation-basis certificate for the K-group, group cohomology H^1 with
lattice coefficients, and the signed G-set sum attached to a chain of
equivariant blow-ups and blow-downs.

The closure lists the elements breadth-first, identity first, and multiplies
no matrices.  A finite matrix group acts faithfully by permutations on the
orbit Omega of the basis vectors, so `_close` walks Omega once, writes each
element as the tuple of the Omega-indices of its columns, and multiplies by
index lookup; the matrices are rebuilt at the end.  Its cap bounds the
number of elements, and an orbit of more vectors than the cap already
passes it, so an infinite group is stopped there.  Where each
generator sends each item comes from one image table, `_image_table`, which
is also the stability check.  It moves int tuples, all of a table's at once
and column by column: divisors as their coordinates under the generators,
K-classes as their vectors (rank, c1..., chi) under the generators bordered
by 1 at rank and chi (`_on_kclasses`), which `ktheory.sigma_kclass` fixes,
so no item is moved alone.  Orbits of divisor classes and of a
block's K-classes come from one walk over that table, `_orbit_walk`, and the
certificate's permutations are its rows.  `_split` splits a stable class set
once: its sorted classes, their table and its orbits.  A transitive G-set is
a table restricted to one orbit (`_restrict`), in a canonical numbering, so
isomorphic G-sets of one action are `==` and no group element is enumerated.

H^1 needs only the generators and the order N = |G|.  N kills H^1(G, M), so
the sequence 0 -> M -> M -> M/NM -> 0 of multiplication by N gives

    H^1(G, M) = L / (M^G + N.M),  L = {x : (g - 1)x in N.M for every generator g}

(Brown, *Cohomology of Groups*, III.10).  Both L and M^G are read off the
(g - 1) rows of all generators stacked, R: with d_1 | ... | d_r its invariant
factors, H^1 = (+) Z/gcd(N, d_i) and the invariant rank is n - r.  An
action reduces R once and keeps the factors in its instance dict, so both
cost one Smith reduction of an |S|.n x n matrix, whatever the group order.
`h1_cyclic` is a second, independent route for cyclic groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import gcd
from operator import add, mul

from . import intlinalg
from .catalog.core import MoriFibreSpace, standard_sod
from .errors import ActionError, InputError, UnsupportedRangeError, VerificationError
from .ktheory import KClass, torsion_class
from .lattice import DivisorClass, SurfaceModel, apply_divisor_matrix

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_CLOSURE_CAP = 10_000
DEFAULT_H1_CAP = 48

K_NEF = "K-nef"


def _freeze(mat) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in mat)


def _identity(n: int) -> Matrix:
    return _freeze(intlinalg.identity(n))


def _close(generators, cap: int) -> tuple[Matrix, ...]:
    """Multiplicative closure by breadth-first products, identity first.

    The products are taken on the orbit Omega of the basis vectors under the
    generators: `rows[t][i]` is the index of g_t.Omega[i], a matrix m is the
    tuple of the Omega-indices of its columns m.e_j, and g_t.m is that tuple
    sent through `rows[t]`.  This holds for any square matrices, invertible
    or not, since a matrix is its columns.

    Raises ActionError exactly when the closure has more than `cap >= 1`
    elements.  The orbit of a basis vector has at most as many points as the
    closure has elements, so each basis vector's orbit is walked on its own
    and the walk stops as soon as one passes `cap`: an infinite group stops
    there after at most `cap` new points."""
    if not generators:
        raise InputError("closure needs at least one matrix")
    too_many = f"group closure exceeded the cap of {cap} elements"
    n = len(generators[0])
    basis = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    points: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    rows: list[list[int]] = [[] for _ in generators]
    for e in basis:
        if e in index:
            continue
        start = len(points)
        index[e] = start
        points.append(e)
        # Points are appended while they are walked; each gets its images
        # under every generator before the walk moves on.
        for v in islice(points, start, None):
            for g, row in zip(generators, rows):
                w = tuple(sum(map(mul, r, v)) for r in g)
                k = index.get(w)
                if k is None:
                    k = index[w] = len(points)
                    points.append(w)
                    if len(points) - start > cap:
                        raise ActionError(too_many)
                row.append(k)
    identity = tuple(index[e] for e in basis)
    elements = [identity]
    seen = {identity}
    # The list grows while it is walked, so the walk is breadth-first.
    for m in elements:
        for row in rows:
            p = tuple(map(row.__getitem__, m))
            if p not in seen:
                seen.add(p)
                elements.append(p)
                if len(elements) > cap:
                    raise ActionError(too_many)
    return tuple(tuple(zip(*map(points.__getitem__, m))) for m in elements)


@dataclass(frozen=True)
class GroupAction:
    """Closed matrix group on the Picard lattice of one surface model.

    Built through :func:`group_action`, which checks the generators and
    enumerates the closure.
    """

    surface: SurfaceModel
    generators: tuple[Matrix, ...]
    elements: tuple[Matrix, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def group_action(surface: SurfaceModel, generators) -> GroupAction:
    n = surface.picard_rank
    gram = [list(row) for row in surface.gram]
    k = surface.canonical
    frozen = []
    for g in generators:
        g = _freeze(g)
        if len(g) != n or any(len(row) != n for row in g):
            raise ActionError(f"generator is not a {n}x{n} matrix")
        gt = intlinalg.transpose(g)
        if intlinalg.mat_mul(gt, intlinalg.mat_mul(gram, list(map(list, g)))) != gram:
            raise ActionError("generator does not preserve the intersection form")
        if apply_divisor_matrix(surface, g, k) != k:
            raise ActionError("generator moves the canonical class")
        frozen.append(g)
    if not frozen:
        return GroupAction(surface, (), (_identity(n),))
    return GroupAction(surface, tuple(frozen), _close(frozen, DEFAULT_CLOSURE_CAP))


# -- fixed sublattice and orbits ----------------------------------------------

def _moved_factors(generators) -> list[int]:
    """Invariant factors of R, the rows of g - 1 stacked over the generators
    (no rows for no generator)."""
    rows = [[x - (i == j) for j, x in enumerate(row)] for g in generators for i, row in enumerate(g)]
    return intlinalg.invariant_factors(rows)


def _action_factors(action: GroupAction) -> list[int]:
    """_moved_factors of the generators, kept in the action's instance dict."""
    kept = action.__dict__
    if "_moved_factors" not in kept:
        kept["_moved_factors"] = _moved_factors(action.generators)
    return kept["_moved_factors"]


def invariant_rank(action: GroupAction) -> int:
    """Rank of the common fixed sublattice of all generators: the kernel of
    R, so n minus the number of R's invariant factors."""
    return action.surface.picard_rank - len(_action_factors(action))


def _image_table(matrices, vectors, error: str) -> list[list[int]]:
    """Where each matrix sends each vector: `table[t][i]` is the index in
    `vectors` (int tuples) of matrices[t] times vectors[i].

    Each matrix moves all the vectors at once: an image coordinate is a sum
    of the vectors' columns, zero entries skipped and entries of 1 taken
    without a product.  Building the table is the stability check: the first
    image outside the vectors, matrices and vectors in order, raises
    ActionError with `error`, its `{}` filled with the moved vector."""
    index = {v: i for i, v in enumerate(vectors)}
    columns = list(zip(*vectors))
    zero = (0,) * len(vectors)
    table = []
    for m in matrices:
        rows = []
        for entries in m:
            row = None
            for x, column in zip(entries, columns):
                if x:
                    if x != 1:
                        column = [x * c for c in column]
                    row = column if row is None else list(map(add, row, column))
            rows.append(zero if row is None else row)
        images = list(map(index.get, zip(*rows)))
        if None in images:
            raise ActionError(error.format(vectors[images.index(None)]))
        table.append(images)
    return table


def _on_kclasses(surface: SurfaceModel, generators):
    """The generators as matrices on K-class vectors (rank, c1..., chi):
    each bordered by 1 at rank and at chi, which `ktheory.sigma_kclass`
    fixes.  Lazily, so that a generator of the wrong size is refused where
    the table reaches it."""
    n = surface.picard_rank
    rank_row, chi_row = (1,) + (0,) * (n + 1), (0,) * (n + 1) + (1,)
    for g in generators:
        if len(g) != n:
            raise InputError(f"expected {n} coefficients, got {len(g)}")
        yield (rank_row, *((0, *row, 0) for row in g), chi_row)


def _orbit_walk(images, n: int) -> list[list[int]]:
    """Orbits of the points 0..n-1 under the generators, where `images[t][i]`
    is the point generator t sends i to.  Orbits come in the order of their
    least point, each listed in the order the walk reaches it."""
    assigned = [False] * n
    parts = []
    for start in range(n):
        if assigned[start]:
            continue
        orbit = [start]
        assigned[start] = True
        stack = [start]
        while stack:
            i = stack.pop()
            for row in images:
                j = row[i]
                if not assigned[j]:
                    assigned[j] = True
                    orbit.append(j)
                    stack.append(j)
        parts.append(orbit)
    return parts


def _split(action: GroupAction, classes):
    """A stable class set split once: its classes sorted by coordinates, their
    image table, and its orbits as sorted position lists, least first.  A
    class of another surface is refused, with or without generators."""
    pool = sorted(set(classes), key=lambda d: d.coords)
    n = action.surface.picard_rank
    for d in pool:
        if len(d.coords) != n:
            raise ActionError(f"class {d.coords} does not live on {action.surface.describe()}")
    images = _image_table(
        action.generators,
        [d.coords for d in pool],
        "class set is not stable: generator moves {} outside the set",
    )
    return pool, images, list(map(sorted, _orbit_walk(images, len(pool))))


def orbits(action: GroupAction, classes) -> tuple[tuple[DivisorClass, ...], ...]:
    """Orbit partition of a stable class set, deterministically ordered."""
    pool, _, parts = _split(action, classes)
    return tuple(tuple(pool[i] for i in orbit) for orbit in parts)


# -- transitive G-sets and the Burnside sum -----------------------------------

@dataclass(frozen=True)
class TransitiveGSet:
    """A transitive action on `size` points, recorded by where the action's
    generators send them: `rows[t][i]` is the image of point i under
    `generators[t]`.

    The rows are kept in a canonical numbering: breadth-first from each
    point in turn, generators in order, the least table.  An isomorphism of
    G-sets carries one such numbering onto the other, so isomorphic sets of
    one action keep equal rows and compare `==` (size, rows, generators).
    """

    size: int
    rows: tuple[tuple[int, ...], ...]
    generators: tuple[Matrix, ...] | None = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InputError("a transitive G-set has positive size")
        points = list(range(self.size))
        if any(sorted(row) != points for row in self.rows):
            raise InputError("G-set rows must permute the points")
        tables = []
        for start in points:
            order, label = [start], {start: 0}
            for i in order:
                for row in self.rows:
                    if row[i] not in label:
                        label[row[i]] = len(order)
                        order.append(row[i])
            if len(order) < self.size:
                raise InputError("G-set rows are not transitive")
            tables.append(tuple(tuple(label[row[i]] for i in order) for row in self.rows))
        object.__setattr__(self, "rows", min(tables))


def _restrict(action: GroupAction, images, orbit) -> TransitiveGSet:
    """The G-set of one orbit of an image table: the table's rows on the
    orbit's points, each point renumbered to its position in `orbit`."""
    position = dict(zip(orbit, range(len(orbit))))
    rows = tuple(tuple(map(position.__getitem__, map(row.__getitem__, orbit))) for row in images)
    return TransitiveGSet(len(orbit), rows, action.generators)


def orbit_gset(action: GroupAction, classes) -> TransitiveGSet:
    _, images, parts = _split(action, classes)
    if len(parts) != 1:
        raise ActionError(f"expected a single orbit, found {len(parts)}")
    return _restrict(action, images, parts[0])


@dataclass(frozen=True, eq=False)
class BurnsideElement:
    """Signed formal sum of orbits, any hashable values: construction sums
    equal orbits, drops zeros and keeps first-appearance order; `==` does
    not see term order."""

    terms: tuple = ()

    def __post_init__(self) -> None:
        sums: dict = {}
        for coeff, orbit in self.terms:
            if coeff:
                sums[orbit] = sums.get(orbit, 0) + coeff
        object.__setattr__(self, "terms", tuple((c, g) for g, c in sums.items() if c))

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        return BurnsideElement(self.terms + other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return frozenset(self.terms) == frozenset(other.terms)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms))


def burnside_invariant(steps) -> BurnsideElement:
    """Signed orbit sum of a blow-up/blow-down chain.

    Each step is a pair (kind, orbit) with kind "BlowUp" or "BlowDown"; a
    blow-down contributes the orbit positively, a blow-up negatively.  An
    orbit is a TransitiveGSet, or its size alone where no group acts.
    """
    terms = []
    for kind, orbit in steps:
        if kind == "BlowDown":
            terms.append((1, orbit))
        elif kind == "BlowUp":
            terms.append((-1, orbit))
        else:
            raise InputError(f"unknown step kind {kind!r}; expected BlowUp or BlowDown")
    return BurnsideElement(tuple(terms))


# -- atoms ---------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """One indivisible equivariant piece of a decomposition.

    kind "permutation" carries a transitive G-set and no shape or degree;
    kind "opaque" carries a shape label plus the degree of the model it sits
    on, and no G-set.  `classes` is the K-class payload the piece was read
    off from (kept for certificate assembly, ignored by `==` and the hash).
    """

    kind: str
    gset: TransitiveGSet | None = None
    shape: str | None = None
    degree: int | None = None
    classes: tuple = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.kind == "permutation":
            if self.gset is None:
                raise InputError("permutation atoms need a G-set")
            if self.shape is not None or self.degree is not None:
                raise InputError("permutation atoms carry no shape or degree")
        elif self.kind == "opaque":
            if self.shape is None:
                raise InputError("opaque atoms need a shape label")
            if self.gset is not None:
                raise InputError("opaque atoms carry no G-set")
        else:
            raise InputError(f"unknown atom kind {self.kind!r}")


def permutation_atom(gset: TransitiveGSet, classes=()) -> Atom:
    return Atom("permutation", gset=gset, classes=tuple(classes))


def opaque_atom(shape: str, degree: int, classes=()) -> Atom:
    return Atom("opaque", shape=shape, degree=degree, classes=tuple(classes))


def _embedding_columns(surface: SurfaceModel, kept: list[int]) -> list[int]:
    cols = list(range(surface.base_rank))
    ranges = surface.orbit_ranges()
    for i in kept:
        cols.extend(ranges[i])
    return cols


def _pull_class(surface: SurfaceModel, cols: list[int], cls: KClass) -> KClass:
    # Pullback along the contraction: contracted directions get coefficient
    # zero, so both self-intersection and the K-pairing survive and chi
    # carries over unchanged.
    c = [0] * surface.picard_rank
    for small, big in enumerate(cols):
        c[big] = cls.c1.coords[small]
    return KClass(surface, cls.rank, DivisorClass(tuple(c)), cls.chi)


def atom_multiset(surface: SurfaceModel, action: GroupAction, contraction) -> list[Atom]:
    """Atoms of a surface presented by contracting blown orbits to a minimal
    model.

    `contraction` lists indices of the surface's blow-up orbits to contract,
    terminated by the minimal model (a MoriFibreSpace) or the K_NEF marker.
    Each contracted orbit yields one permutation atom; the
    minimal model contributes the atoms of its standard decomposition,
    split into orbits under the action, with opaque blocks kept opaque.
    """
    if action.surface != surface:
        raise InputError("action lives on a different surface model")
    steps = list(contraction)
    if not steps:
        raise InputError("contraction must at least name a minimal model or K-nef marker")
    terminal = steps[-1]
    orbit_indices = steps[:-1]
    if not (isinstance(terminal, MoriFibreSpace) or terminal == K_NEF):
        raise InputError("contraction must end in a MoriFibreSpace or the K-nef marker")
    ranges = surface.orbit_ranges()
    chosen = []
    for i in orbit_indices:
        if not isinstance(i, int) or not 0 <= i < len(ranges):
            raise ActionError(f"no blow-up orbit with index {i!r} on {surface.describe()}")
        if i in chosen:
            raise ActionError(f"blow-up orbit {i} contracted twice")
        chosen.append(i)
    blown_atoms = []
    for i in chosen:
        members = [surface.basis_class(f"E{j - surface.base_rank + 1}") for j in ranges[i]]
        pool, images, parts = _split(action, members)
        if len(parts) != 1:
            raise ActionError(f"blow-up orbit {i} splits under the action; not one orbit")
        payload = tuple(torsion_class(surface, e, -1) for e in pool)
        blown_atoms.append(permutation_atom(_restrict(action, images, parts[0]), classes=payload))
    kept = [i for i in range(len(ranges)) if i not in chosen]
    residual = SurfaceModel(surface.base, tuple(surface.blowup_orbits[i] for i in kept))
    cols = _embedding_columns(surface, kept)
    atoms: list[Atom] = []
    if terminal == K_NEF:
        atoms.append(opaque_atom(K_NEF, residual.degree))
        return atoms + blown_atoms
    if terminal.surface != residual:
        raise ActionError(
            f"contracting orbits {chosen} of {surface.describe()} leaves "
            f"{residual.describe()}, not {terminal.surface.describe()}"
        )
    sod = standard_sod(terminal)
    for block in sod.blocks:
        pulled = [_pull_class(surface, cols, c) for c in block.classes()]
        if block.opaque:
            atoms.append(opaque_atom("O-perp", terminal.degree, classes=tuple(pulled)))
            continue
        images = _image_table(
            _on_kclasses(surface, action.generators),
            [c.vector for c in pulled],
            "minimal-model block is not invariant under the action",
        )
        for orbit in _orbit_walk(images, len(pulled)):
            members = tuple(pulled[i] for i in orbit)
            atoms.append(permutation_atom(_restrict(action, images, orbit), classes=members))
    return atoms + blown_atoms


# -- permutation-basis certificate ----------------------------------------------

def permutation_basis_certificate(surface: SurfaceModel, atoms, action: GroupAction) -> dict:
    """Assemble the K-group basis carried by permutation atoms and verify
    every generator permutes it.

    Fails loudly: any opaque atom, a payload that is not a
    Z-basis, or a generator moving a basis vector off the basis raises
    ActionError, so a returned certificate always holds.  The basis is the
    atoms' payloads in atom order; the certificate gives its size and, per
    generator, the permutation of it and its matrix.  The trivial action
    gets the identity permutation so the certificate is never empty.
    """
    classes = []
    for atom in atoms:
        if atom.kind != "permutation":
            raise ActionError("permutation basis needs permutation atoms only")
        if not atom.classes:
            raise ActionError("atom carries no K-class payload to assemble")
        classes.extend(atom.classes)
    want = surface.picard_rank + 2
    if len(classes) != want:
        raise ActionError(f"expected {want} basis objects, got {len(classes)}")
    rows = [list(c.vector) for c in classes]
    if abs(intlinalg.det(rows)) != 1:
        raise ActionError("atom payload is not a Z-basis of the K-group")
    # the trivial group's only element, the identity, stands in for a generator
    permutations = _image_table(
        _on_kclasses(surface, action.generators or (_identity(surface.picard_rank),)),
        [c.vector for c in classes],
        "a generator moves a basis object off the basis",
    )
    matrices = []
    for perm in permutations:
        mat = [[0] * want for _ in range(want)]
        for src, dst in enumerate(perm):
            mat[dst][src] = 1
        matrices.append(_freeze(mat))
    return {
        "size": want,
        "permutations": [tuple(perm) for perm in permutations],
        "matrices": matrices,
    }


# -- G-minimality, numerically ---------------------------------------------------

def minimality_proxy(action: GroupAction, parts) -> tuple[DivisorClass, ...] | None:
    """The first orbit of pairwise-disjoint (-1)-classes in `parts`, or None
    when there is none: the action is then minimal by this numerical proxy.

    A purely lattice-side stand-in for G-minimality: any stable set of
    pairwise-disjoint (-1)-classes contains a single stable orbit with the
    same property, so scanning orbits is exhaustive.  It does not see
    actual curves.  `parts` is `orbits(action, action.surface.enumerate_r_classes(-1))`.
    """
    surface = action.surface
    for orbit in parts:
        if all(
            surface.intersect(a, b) == 0
            for i, a in enumerate(orbit)
            for b in orbit[i + 1 :]
        ):
            return orbit
    return None


# -- H^1 with lattice coefficients ------------------------------------------------

def _h1(factors: list[int], order: int) -> list[int]:
    """L / (M^G + N.M) for the group of the given order N: the gcds of N with
    the invariant factors d_i of R, the stacked g - 1 rows, that exceed 1.

    With U.R.V = D in Smith form and y = V^-1.x, x lies in L exactly when N
    divides d_i.y_i for each i <= r, in M^G exactly when y_i = 0 for each
    i <= r, and in N.M exactly when N divides y.  So the quotient is the sum
    of the (N / gcd(N, d_i))Z / NZ = Z/gcd(N, d_i), already a divisibility
    chain.
    """
    return [f for f in (gcd(order, d) for d in factors) if f > 1]


def _check_generators(generators) -> None:
    """Square matrices of one size, invertible over Z: closure and powers of
    a singular matrix give a monoid or run on to the cap."""
    n = len(generators[0])
    if any(len(g) != n or any(len(row) != n for row in g) for g in generators):
        raise InputError(f"generator is not a {n}x{n} matrix")
    if any(abs(intlinalg.det(g)) != 1 for g in generators):
        raise InputError("generator is not invertible over Z (determinant is not 1 or -1)")


def h1_lattice(generators) -> list[int]:
    """Invariant factors of H^1 for a matrix group given by generators.

    Pure lattice arithmetic: no surface, no form or K constraint, so it also
    serves actions that no surface model can host.  The generators must be
    unimodular matrices of one size; the closure, capped at DEFAULT_H1_CAP
    elements, supplies only the order.  A larger group raises
    UnsupportedRangeError, as in `h1_picard` and `h1_cyclic`.  No generator
    is the trivial group.
    """
    generators = tuple(_freeze(g) for g in generators)
    if not generators:
        return []
    _check_generators(generators)
    try:
        order = len(_close(generators, DEFAULT_H1_CAP))
    except ActionError:
        raise UnsupportedRangeError(
            f"group closure exceeds the H^1 cap of {DEFAULT_H1_CAP}"
        ) from None
    return _h1(_moved_factors(generators), order)


def h1_picard(action: GroupAction) -> list[int]:
    """Invariant factors of H^1(G, Pic) for an enumerated surface action."""
    if action.order > DEFAULT_H1_CAP:
        raise UnsupportedRangeError(
            f"group of order {action.order} exceeds the H^1 cap of {DEFAULT_H1_CAP}"
        )
    return _h1(_action_factors(action), action.order)


def h1_cyclic(generator) -> list[int]:
    """ker(Norm)/im(g - 1) for the cyclic group generated by one matrix.

    Independent route to H^1 for cyclic groups; `_h1` must agree.
    """
    g = _freeze(generator)
    _check_generators([g])
    n = len(g)
    one = _identity(n)
    powers = [one]
    p = g
    while p != one:
        powers.append(p)
        p = _freeze(intlinalg.mat_mul(g, p))
        if len(powers) > DEFAULT_H1_CAP:
            raise UnsupportedRangeError(f"cyclic order exceeds the cap of {DEFAULT_H1_CAP}")
    norm = [[sum(m[i][j] for m in powers) for j in range(n)] for i in range(n)]
    kernel = intlinalg.kernel_basis(norm)
    if not kernel:
        return []
    basis_cols = [[kernel[j][i] for j in range(len(kernel))] for i in range(n)]
    coords = []
    for k in range(n):
        image = [g[r][k] - (1 if r == k else 0) for r in range(n)]
        sol = intlinalg.solve(basis_cols, image)
        if sol is None:
            raise VerificationError("(g - 1) image falls outside ker(Norm)")
        coords.append(sol)
    factors = intlinalg.abelian_quotient(len(kernel), coords)
    if 0 in factors:
        raise VerificationError("H^1 came out infinite; the matrix has infinite order")
    return [f for f in factors if f > 1]
