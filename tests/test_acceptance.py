"""One test per embedded acceptance check.

Each test runs the corresponding check from sodatlas.selftest and prints
its PASS line (visible with -v/-s); a failure raises out of the check
with the reason, so the pytest report carries one pass/fail line per
criterion either way.  The detail text of each PASS line is locked, with
its timings masked.
"""

import re

import pytest

from sodatlas import selftest

_IDS = [f"{number:02d}-{name.replace(' ', '-')}" for number, name, _ in selftest.CRITERIA]

_TIMING = re.compile(r"\d+ ms|\d+\.\d+s")

DETAILS = {
    1: "15 counts match in <t>",
    2: "46 links verified in <t>",
    3: "8 cube + 7 square identities, 2 fibre swaps, 6 curve matches",
    4: "64000 pairings on 32 surfaces",
    5: "8 collections checked",
    6: "five ruling pairs agree, chi(E,E)=1, c1=K",
    7: "200 L/R round trips, 54 helix round trips",
    8: "refinements REF-6-8, REF-5-6, REF-5-8 replay",
    9: "45 accepted, 7 + 50 rejected",
    10: "ranks, orbits, H1 and certificates (sizes [3, 5, 6]) reproduce",
    11: "3 profiles satisfy the index formula",
    12: "path of 1 move(s) found in <t>",
}


@pytest.mark.parametrize("number,name,check", selftest.CRITERIA, ids=_IDS)
def test_criterion(number, name, check):
    detail = check()
    print(f"PASS {number:2d} {name}: {detail}")
    assert _TIMING.sub("<t>", detail) == DETAILS[number]


def test_mutation_group_laws_skip_only_refused_moves(monkeypatch):
    """Criterion 7 skips a site whose move raises MoveError; any other fault
    in the move step comes out of the check."""

    def broken(coll, move):
        raise TypeError("a fault in the move step")

    monkeypatch.setattr(selftest, "apply_move", broken)
    with pytest.raises(TypeError, match="^a fault in the move step$"):
        selftest.criterion_7()
