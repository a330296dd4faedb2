"""G-sets from the image table against the former stabilizer route.

The library records a transitive G-set by the permutations its generators
induce on the orbit, in a canonical numbering, and compares two by their
generators and rows.  The former route is kept here as the oracle: the
stabilizer of a member is scanned from the enumerated group, and two
G-sets of one group are isomorphic exactly when some h in the group has
h.A = B.h for their stabilizers A and B (Holt, Eick and O'Brien, *Handbook
of Computational Group Theory*, ch. 4).  The exact orbit-stabilizer count,
which the library no longer makes, is checked here on every orbit.
"""

from itertools import combinations_with_replacement

import pytest
from hypothesis import HealthCheck, given, settings
from test_h1_oracle import ACTIONS, S4_P2_4, WEYL_A4_P2_4, weyl_caps, weyl_subgroups  # noqa: F401

from sodatlas import intlinalg
from sodatlas.equivariant import group_action, gsets_equal, orbit_gset, orbits
from sodatlas.lattice import SurfaceModel, apply_divisor_matrix


def _freeze(mat):
    return tuple(tuple(int(x) for x in row) for row in mat)


def stabilizer(action, d):
    """The former `_orbit_gset` scan: every element of the group fixing d."""
    return frozenset(g for g in action.elements if apply_divisor_matrix(action.surface, g, d) == d)


def conjugate(a, b, group):
    """The former `gsets_equal` test: some h in the group with h.A = B.h,
    that is h.A.h^-1 = B."""
    for h in group:
        left = frozenset(_freeze(intlinalg.mat_mul(h, s)) for s in a)
        if left == frozenset(_freeze(intlinalg.mat_mul(s, h)) for s in b):
            return True
    return False


def orbit_members(action, classes, every_member=True):
    """(G-set of its orbit, stabilizer) for each member of the classes' orbits,
    or for the first member of each; checks the orbit-stabilizer count."""
    out = []
    for part in orbits(action, classes):
        gset = orbit_gset(action, part)
        assert gset.size == len(part)
        for d in part if every_member else part[:1]:
            stab = stabilizer(action, d)
            assert len(part) * len(stab) == action.order
            out.append((gset, stab))
    return out


def compare_pairs(action, members):
    """Checks both routes' verdict on each unordered pair of equal size, and
    counts the pairs by verdict."""
    verdicts = {True: 0, False: 0}
    for (a, stab_a), (b, stab_b) in combinations_with_replacement(members, 2):
        if a.size != b.size:
            assert not gsets_equal(a, b)
            continue
        expected = conjugate(stab_a, stab_b, action.elements)
        assert gsets_equal(a, b) == gsets_equal(b, a) == expected
        verdicts[expected] += 1
    return verdicts


# The group-h1 actions without the two Bertini ones (240 (-1)-classes each),
# and S4 on P2[4]; unordered pairs of (-1)-classes of equal orbit size,
# counted by (isomorphic, not isomorphic).
PAIRS = {
    "c3-p2-3": (21, 0),
    "s3-p2-3": (21, 0),
    "d4-p2-4": (23, 16),
    "a4-p2-4": (31, 0),
    "c6-p2-6": (126, 0),
    "c3xc3-p2-6": (135, 81),
    "s3xc2-p2-5": (48, 0),
    "hexagon-p2-3": (21, 0),
    "geiser-p2-7": (1596, 0),
    "geiser-swap-p2-7": (828, 0),
    "s4-p2-4": (31, 0),
    "weyl-a4-p2-4": (55, 0),
}


@pytest.mark.parametrize("name", PAIRS)
def test_benchmark_actions_agree_with_stabilizer_conjugacy(name):
    n, gens = {"s4-p2-4": S4_P2_4, "weyl-a4-p2-4": WEYL_A4_P2_4}.get(name) or ACTIONS[name]
    surface = SurfaceModel("P2", (n,))
    action = group_action(surface, gens)
    members = orbit_members(action, surface.enumerate_r_classes(-1))
    verdicts = compare_pairs(action, members)
    assert (verdicts[True], verdicts[False]) == PAIRS[name]


@settings(
    derandomize=True,
    max_examples=30,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(weyl_subgroups())
def test_weyl_subgroups_agree_with_stabilizer_conjugacy(weyl_caps, case):  # noqa: F811
    """One member per orbit of the (-1)-classes: the verdict is the same for
    every member of an orbit, as the stabilizers of one orbit are conjugate."""
    k, gens = case
    surface = SurfaceModel("P2", (k,))
    action = group_action(surface, gens)
    members = orbit_members(action, surface.enumerate_r_classes(-1), every_member=False)
    compare_pairs(action, members)
